"""Pure-Python branch-and-bound kernel for minimum induced path factors.

The compiled kernel in ``_kernel_c.c`` implements the identical algorithm;
this module is the fallback used when the extension is not built.  Both
kernels must visit states in the same order so that results (witness and
node counts) are bit-identical.

State: a set of covered vertices.  The branch vertex is the lowest-indexed
uncovered vertex v; we enumerate every induced path of the host that
contains v and uses only uncovered vertices (v may be interior), recursing
on each.  Paths are grown edge by edge, longest extensions explored first,
with the "close the path here" choice taken last.  The bound is
count + 1: a state with uncovered vertices needs at least one more path, so
it is pruned once count + 1 reaches the best cover found.

Last-path closure: at a counted node with count + 2 == best, the only
improvement left is one path covering every uncovered vertex, and every
other path through v yields a child the bound prunes without counting it.
Such a path exists exactly when G[uncovered] is itself a path: every vertex
has degree at most 2 there and a walk from a degree-<=1 vertex reaches them
all.  ``close_last`` checks that in O(n) instead of enumerating, so node
counts, node-limit truncation and the witness edge set are those of the
full enumeration.

Budget: the clock is read on every 4096th counted node and, when a time
limit is set, on every 4096th growth step; once a time limit is set and
the budget is out, no path grows further.  Without a time limit growth
steps are not counted.
"""

from __future__ import annotations

import time


def solve_min_ipf(n: int, adj: tuple[int, ...], node_limit: int = 0,
                  time_limit: float = 0.0):
    """Return (best_count, best_edges, nodes, truncated).

    best_edges is the list of (u, v) edges of an optimal IPF; truncated is
    True when a budget was exhausted (best found so far is returned).
    node_limit/time_limit of 0 mean unlimited.
    """
    if n > 62:
        raise ValueError("kernel supports at most 62 vertices")
    full = (1 << n) - 1
    best_count = n
    best_edges: list[tuple[int, int]] = []
    edges_acc: list[tuple[int, int]] = []
    nodes = 0
    steps = 0
    truncated = False
    deadline = time.monotonic() + time_limit if time_limit else 0.0

    def close_last(avail: int, count: int) -> None:
        # one path must cover avail: G[avail] has to be a path
        nonlocal best_count, best_edges
        end = -1
        bits = avail
        while bits:
            wbit = bits & -bits
            bits ^= wbit
            w = wbit.bit_length() - 1
            d = (adj[w] & avail).bit_count()
            if d > 2:
                return
            if d < 2 and end < 0:
                end = w
        if end < 0:
            return  # a cycle, or cycles only
        walk = []
        seen = 1 << end
        tip = end
        nxt = adj[tip] & avail
        while nxt:
            w = nxt.bit_length() - 1
            walk.append((tip, w) if tip < w else (w, tip))
            seen |= nxt
            tip = w
            nxt = adj[tip] & avail & ~seen
        if seen == avail:
            best_count = count + 1
            best_edges = edges_acc + walk

    def solve(covered: int, count: int) -> None:
        nonlocal nodes, best_count, best_edges, truncated
        if covered == full:
            if count < best_count:
                best_count = count
                best_edges = list(edges_acc)
            return
        if truncated:
            return
        if count + 1 >= best_count:
            return
        nodes += 1
        if node_limit and nodes > node_limit:
            truncated = True
            return
        if deadline and nodes % 4096 == 0 and time.monotonic() > deadline:
            truncated = True
            return
        avail = full ^ covered
        if count + 2 == best_count:
            close_last(avail, count)
            return
        v = (avail & -avail).bit_length() - 1

        def grow(pathmask: int, tip: int, lfirst: int, left_done: bool) -> None:
            # extend the current arm at `tip`
            nonlocal steps, truncated
            if deadline:
                steps += 1
                if truncated or (steps % 4096 == 0
                                 and time.monotonic() > deadline):
                    truncated = True
                    return
            cands = adj[tip] & avail & ~pathmask
            blocked = pathmask & ~(1 << tip)
            while cands:
                wbit = cands & -cands
                cands ^= wbit
                w = wbit.bit_length() - 1
                if adj[w] & blocked:
                    continue  # chord against the rest of the path
                edges_acc.append((tip, w) if tip < w else (w, tip))
                grow(pathmask | wbit, w, lfirst, left_done)
                edges_acc.pop()
            if not left_done:
                # switch to growing the right arm from v
                grow_right_start(pathmask, lfirst)
            else:
                close(pathmask, count)

        def grow_right_start(pathmask: int, lfirst: int) -> None:
            cands = adj[v] & avail & ~pathmask
            blocked = pathmask & ~(1 << v)
            while cands:
                wbit = cands & -cands
                cands ^= wbit
                w = wbit.bit_length() - 1
                if lfirst >= 0 and w <= lfirst:
                    continue
                if adj[w] & blocked:
                    continue
                edges_acc.append((v, w) if v < w else (w, v))
                grow(pathmask | wbit, w, lfirst, True)
                edges_acc.pop()
            if lfirst < 0:
                # empty right arm: close here only when the left arm is also
                # empty, otherwise the reversed orientation covers this path
                close(pathmask, count)

        def close(pathmask: int, cnt: int) -> None:
            solve(covered | pathmask, cnt + 1)

        # left arm rooted at v (possibly empty); its first vertex caps the
        # right arm's first vertex to avoid enumerating each path twice
        lcands = adj[v] & avail
        base = 1 << v
        lbits = lcands
        while lbits:
            wbit = lbits & -lbits
            lbits ^= wbit
            w = wbit.bit_length() - 1
            edges_acc.append((v, w) if v < w else (w, v))
            grow(base | wbit, w, w, False)
            edges_acc.pop()
        # no left arm: v is an endpoint (or trivial)
        grow_right_start(base, -1)

    solve(0, 0)
    return best_count, best_edges, nodes, truncated
