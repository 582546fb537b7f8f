"""Pure-Python branch-and-bound kernel for minimum induced path factors.

The compiled kernel in ``_kernel_c.c`` implements the identical algorithm;
this module is the fallback used when the extension is not built.  Both
kernels must visit states in the same order so that results (witness and
node counts) are bit-identical.

State: a set of covered vertices.  The branch vertex is the lowest-indexed
uncovered vertex v; we enumerate every induced path of the host that
contains v and uses only uncovered vertices (v may be interior), recursing
on each.  Paths are grown edge by edge, longest extensions explored first,
with the "close the path here" choice taken last.  A path with v interior
is grown as a left arm from v, then a right arm whose first vertex lies
above the left arm's, so each path is enumerated once.  A left arm carries
its possible right-arm starts: the free neighbours of v above its first
vertex that are neither on it nor adjacent to it.  Once none is left the
arm can close no path, and it is not grown further.  The bound is
count + 1: a state with uncovered vertices needs at least one more path,
so it is pruned once count + 1 reaches the best cover found.

Last-path closure: at a counted node with count + 2 == best, the only
improvement left is one path covering every uncovered vertex, and every
other path through v yields a child the bound prunes without counting it.
Such a path exists exactly when G[uncovered] is itself a path: every vertex
has degree at most 2 there and a walk from a degree-<=1 vertex reaches them
all.  ``close_last`` checks that in O(n) instead of enumerating, so node
counts, node-limit truncation and the witness edge set are those of the
full enumeration.

Dead nodes: once the incumbent falls to best <= count + 2 while a node
enumerates its paths, ``grow`` stops.  Every child it could still close has
count + 1 paths and uncovered vertices left, so the bound cuts it before it
is counted.  The one exception, a path covering every uncovered vertex,
exists only when G[uncovered] is itself a path, and then it is the first
path the enumeration closes (each arm has one way to grow, and both grow
to their ends before any close), so it was tried before the incumbent
fell.  Node counts, witnesses and node-limit truncation are therefore
those of the full enumeration.

Counting identity: while count + 3 == best, a child improves only if its
close_last succeeds, that is if the uncovered set U minus the closed path
A is one induced path B.  Then, with c(x) = deg_U(x) - 2,

    sum of c over A = e(U) - |U|,

on any host: the degrees over A sum to 2e(A) + e(A, B) with e(A) =
|A| - 1, and e(U) = e(A) + e(B) + e(A, B) with e(B) = |B| - 1.  Each
node that enumerates computes c and the target T = e(U) - |U| in O(|U|),
the arms carry the running sum p, and ``close`` drops a path with p != T
unless it covers U.  best falls during a node's enumeration (on rho=3
hosts the incumbent reaches 3 while the root still enumerates), so
count + 3 == best is checked on every close, not once per node.  Only
children whose close_last would fail are dropped: rho, the witness edge
sets and the order in which incumbents are found are those of the full
enumeration, node counts fall and never rise, and where a budget cuts the
search may move.

End-count bound: for a set W of uncovered vertices, give x in W the end
weight w(x) = 2 if x has no neighbour in W, 1 if its neighbours in W are
pairwise adjacent (a degree-1 vertex, a triangle tip, a K4 corner), and 0
otherwise.  In any IPF of G[W] a vertex of weight >= 1 is no interior
vertex, since its two path neighbours would be adjacent, and one of
weight 2 is a whole path; so a path with two or more vertices holds
weight at most 2 (its two ends, of weight <= 1 each), a one-vertex path
at most 2, and G[W] needs at least ceil(f(W) / 2) paths, f(W) the sum of
w over W.  ``close`` computes f(U - P) of the closed path P in O(|U|) when
count + 4 <= best (at count + 3 == best the identity already decides) and
drops the child when count + 1 + ceil(f / 2) >= best.

``grow`` applies the bound before a path is closed.  Call an uncovered
vertex off the path settled when it is adjacent to a path vertex other
than the tip, and on the left arm other than v as well.  A settled vertex
can join the path neither as an extension of the tip, which must avoid
the rest of the path, nor as a right-arm start, which must avoid the left
arm; so every child's uncovered set U' keeps it.  Its weight in U - P
can only rise in U': removing neighbours keeps the rest pairwise adjacent
and turns an empty set into weight 2.  Hence the weight f_S of the settled
set S, taken in U - P, is a lower bound on f(U') for every path the arm
can still close, and since S only grows and U - P only shrinks, f_S never
falls as the arm grows.  ``grow`` keeps f_S incrementally: on the step to
a new tip t it re-weighs the settled neighbours of t, which lost t, and
adds the free neighbours of the previous tip (of v and the left arm's tip
as well on the right arm's first step).  It returns once
count + 1 + ceil(f_S / 2) >= best.  Both prunes drop only children that
cannot beat the incumbent: rho, the witness edge sets and the order of
incumbents stay those of the full enumeration, and node counts fall.

Seen states: with ``seen_cap`` > 0, ``solve`` keeps a table from each
covered set it entered to the lowest count at which it entered it, and a
state already entered at a count no higher is returned from after the
count + 1 cut, before it is counted.  Say it was entered at c0 <= count,
under an incumbent b0 >= best_count, and that r is the fewest induced
paths covering what it leaves uncovered.  That visit has ended, since
every state below it covers more, and not by the budget, or the search
would be over.  Every prune above drops only children that cannot beat
the incumbent, so if c0 + r < b0 the visit found a cover with c0 + r
paths or fewer; either way best_count <= c0 + r <= count + r, and the
later visit can find nothing strictly better.  rho, the witness edge
sets and the order of incumbents stay those of the search without the
table, and node counts only fall.  The table inserts until it holds
``seen_cap`` states; after that it only lowers the count of states
already in it.  Which states it holds is then a matter of visiting order
alone, not of hashing, so the twins prune identically.  Here it is a
dict, about 76 MB at 2^20 states.

Upper bound: ``upper`` > 0 is the path count of an IPF the caller already
has, and starts best_count there instead of at n.  The search then looks
only for covers with strictly fewer paths; when it finds none, it returns
``upper`` with no edges, and the caller's IPF is the witness.

Budget: the clock is read on every 4096th counted node and, when a time
limit is set, on every 4096th growth step; once a time limit is set and
the budget is out, no path grows further.  Without a time limit growth
steps are not counted.
"""

from __future__ import annotations

import time


class _EndWeights(dict):
    """End weight by free-neighbour mask nb, computed on first use: 2 for
    no free neighbour, 1 when they are pairwise adjacent, else 0."""

    __slots__ = ("adj",)

    def __init__(self, adj: tuple[int, ...]):
        super().__init__()
        self.adj = adj

    def __missing__(self, nb: int) -> int:
        w = 1 if nb else 2
        if nb & (nb - 1):
            bits = nb
            while bits:
                ybit = bits & -bits
                bits ^= ybit
                if nb & ~self.adj[ybit.bit_length() - 1] != ybit:
                    w = 0
                    break
        self[nb] = w
        return w


def solve_min_ipf(n: int, adj: tuple[int, ...], node_limit: int = 0,
                  time_limit: float = 0.0, upper: int = 0,
                  seen_cap: int = 0):
    """Return (best_count, best_edges, nodes, truncated).

    best_edges is the list of (u, v) edges of an optimal IPF; truncated is
    True when a budget was exhausted (best found so far is returned).
    node_limit/time_limit of 0 mean unlimited.  upper > 0 starts the
    incumbent at that path count (n when larger): when no cover with fewer
    paths is found, (upper, [], ...) comes back.  seen_cap > 0 turns on
    the seen-state table, holding at most that many states.
    """
    if n > 62:
        raise ValueError("kernel supports at most 62 vertices")
    if upper < 0 or seen_cap < 0:
        raise ValueError("upper and seen_cap must be at least 0")
    full = (1 << n) - 1
    best_count = min(upper, n) if upper else n
    seen: dict[int, int] = {}
    weight = _EndWeights(adj)
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
        if seen_cap:
            prev = seen.get(covered)
            if prev is not None:
                if prev <= count:
                    return  # searched before, from a count no higher
                seen[covered] = count
            elif len(seen) < seen_cap:
                seen[covered] = count
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
        # the counting identity: c[x] = deg_U(x) - 2 and its target
        # e(U) - |U| for the path that leaves one induced path behind
        c = [0] * n
        degsum = 0
        bits = avail
        while bits:
            wbit = bits & -bits
            bits ^= wbit
            w = wbit.bit_length() - 1
            d = (adj[w] & avail).bit_count()
            c[w] = d - 2
            degsum += d
        target = degsum // 2 - avail.bit_count()

        def grow(pathmask: int, tip: int, rstarts: int, p: int,
                 settled: int, f: int, fresh: int) -> None:
            # extend the current arm at `tip`: the left arm while rstarts,
            # its possible right-arm starts, is not empty, else the right
            # arm; p is the sum of c over the path and f the end weight of
            # the settled set, to which the free vertices of `fresh` (the
            # neighbours of the previous tip) now belong
            nonlocal steps, truncated
            if deadline:
                steps += 1
                if truncated or (steps % 4096 == 0
                                 and time.monotonic() > deadline):
                    truncated = True
                    return
            if count + 2 >= best_count:
                return  # a dead node: the bound cuts every remaining child
            rest = avail & ~pathmask
            bits = settled & adj[tip]
            while bits:
                xbit = bits & -bits
                bits ^= xbit
                nb = adj[xbit.bit_length() - 1] & rest
                f += weight[nb] - weight[nb | (1 << tip)]
            bits = fresh & rest & ~settled
            settled |= bits
            while bits:
                xbit = bits & -bits
                bits ^= xbit
                f += weight[adj[xbit.bit_length() - 1] & rest]
            if f > 2 * (best_count - count) - 4:
                return  # the settled ends need count + 1 + ceil(f/2) paths
            cands = adj[tip] & rest
            blocked = pathmask & ~(1 << tip)
            while cands:
                wbit = cands & -cands
                cands ^= wbit
                w = wbit.bit_length() - 1
                if adj[w] & blocked:
                    continue  # chord against the rest of the path
                rs = rstarts & ~adj[w]
                if rstarts and not rs:
                    continue  # no right arm can follow: closes nothing
                edges_acc.append((tip, w) if tip < w else (w, tip))
                grow(pathmask | wbit, w, rs, p + c[w], settled, f, adj[tip])
                edges_acc.pop()
            if rstarts:
                grow_right_start(pathmask, rstarts, p, settled, f,
                                 adj[tip] | adj[v])
            else:
                close(pathmask, p)

        def grow_right_start(pathmask: int, rstarts: int, p: int,
                             settled: int, f: int, fresh: int) -> None:
            cands = rstarts
            while cands:
                wbit = cands & -cands
                cands ^= wbit
                w = wbit.bit_length() - 1
                edges_acc.append((v, w) if v < w else (w, v))
                grow(pathmask | wbit, w, 0, p + c[w], settled, f, fresh)
                edges_acc.pop()
            if pathmask == 1 << v:
                # empty right arm: close here only when the left arm is also
                # empty, otherwise the reversed orientation covers this path
                close(pathmask, p)

        def close(pathmask: int, p: int) -> None:
            if count + 3 == best_count:
                if p != target and pathmask != avail:
                    return  # what is left is no induced path: close_last fails
            elif count + 4 <= best_count:
                rest = avail & ~pathmask
                f = 0
                bits = rest
                while bits:
                    xbit = bits & -bits
                    bits ^= xbit
                    f += weight[adj[xbit.bit_length() - 1] & rest]
                if f > 2 * (best_count - count) - 4:
                    return  # the ends left need too many paths
            solve(covered | pathmask, count + 1)

        # left arm rooted at v (possibly empty); a right arm starts at a
        # free neighbour of v above the left arm's first vertex, so each
        # path is enumerated once, and a left arm that leaves no such start
        # (neither on it nor adjacent to it) closes nothing and is not grown
        nbrs = adj[v] & avail
        lbits = nbrs
        while lbits:
            wbit = lbits & -lbits
            lbits ^= wbit
            w = wbit.bit_length() - 1
            rs = nbrs & ~((wbit << 1) - 1) & ~adj[w]
            if not rs:
                continue
            edges_acc.append((v, w) if v < w else (w, v))
            grow((1 << v) | wbit, w, rs, c[v] + c[w], 0, 0, 0)
            edges_acc.pop()
        # no left arm: v is an endpoint (or trivial)
        grow_right_start(1 << v, nbrs, c[v], 0, 0, adj[v])

    solve(0, 0)
    return best_count, best_edges, nodes, truncated
