"""Exact computation of the minimum number of paths in an IPF.

Two independent methods:

* ``rho_exhaustive``: depth-first search over edge subsets, keeping only
  subsets that remain valid partial path systems (degree at most 2, acyclic,
  chordless after each merge) and maximising the number of chosen edges.
  Small graphs only; serves as the cross-validation oracle.
* ``rho_exact``: branch-and-bound over covered-vertex states, delegated to
  the compiled C kernel (``_kernel_c.c``) when it is built and imports,
  and otherwise to its pure-Python twin (``_kernel_py``).  It probes the
  two lowest levels above a certified lower bound before any open search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from numbers import Real

from .graph import Graph
from .ipf import Ipf

try:  # pragma: no cover - depends on whether the extension was built
    from . import _kernel_c as _kernel
    KERNEL_BACKEND = "c"
except ImportError:  # pragma: no cover
    from . import _kernel_py as _kernel
    KERNEL_BACKEND = "python"

DEFAULT_NODE_LIMIT = 0  # unlimited: the time budget is the default one
DEFAULT_TIME_LIMIT = 60.0
EXHAUSTIVE_CAP = 12
# most states the kernel's seen-state table holds; full, it takes about
# 19 MB in the compiled kernel and 76 MB in the Python twin, and only a
# search of over a million counted nodes fills it
SEEN_CAP = 1 << 20


def kernel_backend() -> str:
    """Which kernel rho_exact dispatches to: 'c' or 'python'."""
    return KERNEL_BACKEND


@dataclass
class SolveResult:
    witness: Ipf
    method: str  # 'bnb' | 'exhaustive'
    optimal: bool = True
    stats: dict = field(default_factory=dict)

    @property
    def rho(self) -> int:
        """The witness's path count: rho(g) when ``optimal``."""
        return self.witness.path_count

    def to_json_fragment(self) -> dict:
        return {
            "rho": self.rho,
            "method": self.method,
            "optimal": self.optimal,
            "stats": self.stats,
            "witness": self.witness.to_json_fragment(),
        }


def longest_induced_path_order(g: Graph, exact_cap: int = 20) -> int:
    """Number of vertices in a longest induced path, by exhaustive search;
    falls back to the trivial upper bound n when g is larger than exact_cap
    (n > 20 by default)."""
    if g.n == 0:
        return 0
    if g.n > exact_cap:
        return g.n
    adj = g.adj_mask
    best = 1

    def extend(mask: int, tip: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        cands = adj[tip] & ~mask
        blocked = mask & ~(1 << tip)
        while cands:
            wbit = cands & -cands
            cands ^= wbit
            w = wbit.bit_length() - 1
            if adj[w] & blocked:
                continue
            extend(mask | wbit, w, size + 1)

    for s in range(g.n):
        extend(1 << s, s, 1)
    return best


def rho_exhaustive(g: Graph) -> SolveResult:
    """Exact rho by exhaustive search over IPF edge subsets.

    Independent of the branch-and-bound kernel by construction: it walks
    the powerset of the edge list, extending only valid partial systems.
    """
    if g.n > EXHAUSTIVE_CAP:
        raise ValueError(f"rho_exhaustive is capped at n <= {EXHAUSTIVE_CAP}")
    t0 = time.monotonic()
    edges = g.sorted_edges()
    m = len(edges)
    n = g.n
    deg = [0] * n
    parent = list(range(n))
    segset: list[set[int]] = [{v} for v in range(n)]
    chosen: list[tuple[int, int]] = []
    best_edges: list[tuple[int, int]] = []
    nodes = 0

    def find(u: int) -> int:
        while parent[u] != u:
            u = parent[u]
        return u

    def search(idx: int) -> None:
        nonlocal best_edges, nodes
        nodes += 1
        if len(chosen) > len(best_edges):
            best_edges = list(chosen)
        if idx == m or len(chosen) + (m - idx) <= len(best_edges):
            return
        u, v = edges[idx]
        if deg[u] < 2 and deg[v] < 2:
            ru, rv = find(u), find(v)
            if ru != rv:
                a, b = segset[ru], segset[rv]
                ok = True
                for x in a:
                    for y in b:
                        if (x, y) != (u, v) and (y, x) != (u, v) \
                                and g.has_edge(x, y):
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    # include the edge; merge the smaller segment
                    if len(a) < len(b):
                        ru, rv = rv, ru
                        a, b = b, a
                    parent[rv] = ru
                    a |= b
                    deg[u] += 1
                    deg[v] += 1
                    chosen.append((u, v))
                    search(idx + 1)
                    chosen.pop()
                    deg[u] -= 1
                    deg[v] -= 1
                    a -= b
                    parent[rv] = rv
        search(idx + 1)

    search(0)
    return SolveResult(
        witness=Ipf.from_edges(g, best_edges),
        method="exhaustive",
        optimal=True,
        stats={"nodes": nodes, "seconds": time.monotonic() - t0},
    )


def _bfs_order(g: Graph) -> list[int]:
    """The vertices of g in BFS order: from vertex 0, neighbours in
    increasing order, each further component from its lowest unseen
    vertex.  The vertex relabelled i is ``order[i]``."""
    order: list[int] = []
    seen = [False] * g.n
    head = 0
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        while head < len(order):
            for w in g.adj[order[head]]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
            head += 1
    return order


def _bfs_relabel(g: Graph) -> tuple[list[int], tuple[int, ...]]:
    """The BFS order of g and the adjacency masks of g relabelled by it,
    the vertex ``order[i]`` becoming i."""
    order = _bfs_order(g)
    label = [0] * g.n
    for i, u in enumerate(order):
        label[u] = i
    return order, tuple([sum([1 << label[w] for w in g.adj[u]])
                         for u in order])


def check_budget(node_limit, time_limit) -> None:
    """Raise ValueError unless the node budget is an int and the time
    budget a real number, neither a bool, and both are at least 0; NaN is
    refused."""
    if (isinstance(node_limit, bool) or isinstance(time_limit, bool)
            or not isinstance(node_limit, int)
            or not isinstance(time_limit, Real)
            or not (node_limit >= 0 and time_limit >= 0)):
        raise ValueError(f"budgets must be at least 0, the node budget an "
                         f"integer and the time budget a real number, got "
                         f"node_limit={node_limit!r}, "
                         f"time_limit={time_limit!r}")


def _lower_bound(g: Graph) -> int:
    """A certified lower bound on rho(g): one path per component, and two
    for a component that is not itself an induced path, since one path
    covering a component is the component.  A component is an induced
    path exactly when it has a vertex of degree at most 1 and none of
    degree 3 or more."""
    total = 0
    for comp in g.components():
        degrees = [len(g.adj[v]) for v in comp]
        total += 1 if min(degrees) < 2 and max(degrees) < 3 else 2
    return total


def _greedy_cover(g: Graph) -> list[list[int]]:
    """Induced paths that cover g: each starts at the lowest uncovered
    vertex and grows at its tip to the lowest uncovered neighbour that no
    earlier vertex of the path is adjacent to, until there is none."""
    masks = g.adj_mask
    free = (1 << g.n) - 1
    paths = []
    while free:
        tip = (free & -free).bit_length() - 1
        path, inner = [tip], 0  # inner: path[:-1]
        free ^= 1 << tip
        while True:
            cands = masks[tip] & free
            while cands and masks[(cands & -cands).bit_length() - 1] & inner:
                cands &= cands - 1
            if not cands:
                break
            inner |= 1 << tip
            tip = (cands & -cands).bit_length() - 1
            path.append(tip)
            free ^= 1 << tip
        paths.append(path)
    return paths


def rho_exact(g: Graph, node_limit: int = DEFAULT_NODE_LIMIT,
              time_limit: float = DEFAULT_TIME_LIMIT,
              incumbent: Ipf | None = None) -> SolveResult:
    """Exact rho by branch-and-bound; node_limit/time_limit of 0 disable
    the respective budget, and by default only the time budget is set.  On
    budget exhaustion the best solution found is returned, with
    optimal=False unless it meets the certified lower bound below.  A
    negative or NaN budget raises ValueError.

    ``incumbent``, an IPF of g (of another host raises ValueError, and an
    unchecked ``Ipf(g, edges)`` that is none raises IpfError), seeds
    the search: it looks only for IPFs with fewer paths, and when it finds
    none the incumbent itself is the witness.  Without one it starts from
    the trivial bound n.  Either way rho is the same once proved optimal.

    Lower bound and level probes: rho is at least L, one path per
    component and two for a component that is not an induced path
    (``_lower_bound``).  An incumbent with at most L paths is optimal as it
    stands, and the kernel is not called.  Otherwise the kernel first
    probes level t = L, then t = L + 1: from ``upper`` = min(incumbent,
    t + 1) with ``lower`` = t, it asks only whether t paths suffice.  A
    cover found proves rho = t; a probe that finds none raises L to t + 1.
    Only then does the open search run, from the incumbent with ``lower``
    = L, stopping at a cover with L paths.  One node budget and one
    deadline cover all calls; a call cut by either ends the search, and
    the best IPF held is returned, optimal only if it meets L; a search
    cut before it holds any cover returns the greedy cover of
    ``_greedy_cover`` instead of the n one-vertex paths.  Once
    proved, the witness is the first cover with rho paths in the kernel's
    enumeration order, as without the probes: a probe's upper bound cuts
    only subtrees without a cover of its level.

    The kernel branches on the lowest-indexed uncovered vertex, so it
    searches g relabelled in BFS order (``_bfs_order``), not in its input
    labelling; the witness is mapped back to the input labels.  It skips
    states it has already searched, in a table of at most ``SEEN_CAP``
    states, one table per call.

    ``stats`` holds the ``nodes`` the kernel counted in all calls,
    ``lower``, the final certified L (rho, once proved), ``probes``, the
    probed levels with their node counts as [t, nodes] pairs, ``seconds``
    and the ``backend``."""
    check_budget(node_limit, time_limit)
    if incumbent is not None:
        if incumbent.host != g:
            raise ValueError("the incumbent is an IPF of another host")
        incumbent._paths  # verifies a raw Ipf(host, edges), once
    t0 = time.monotonic()
    deadline = t0 + time_limit
    lower = _lower_bound(g)
    # best held: the incumbent's count (edges None: it is the witness), or
    # n with no edges, the one-vertex paths
    best, edges = ((g.n, []) if incumbent is None
                   else (incumbent.path_count, None))
    order, adj = _bfs_relabel(g) if best > lower else ([], ())
    nodes = 0
    probes = []
    for probe in (True, True, False):
        if best <= lower:
            break  # optimal
        # the compiled kernel takes a 64-bit limit, and no search counts
        # 2**63 - 1 nodes, so a larger budget is the same as that one
        nodes_left = min(node_limit - nodes, 2**63 - 1) if node_limit else 0
        time_left = deadline - time.monotonic() if time_limit else 0.0
        if (node_limit and nodes_left <= 0) or (time_limit and time_left <= 0):
            break  # the budget is out; 0 would mean no limit to the kernel
        upper = min(best, lower + 1) if probe else best
        count, found, used, truncated = _kernel.solve_min_ipf(
            g.n, adj, nodes_left, time_left, upper, SEEN_CAP, lower)
        nodes += used
        if probe:
            probes.append([lower, used])
        if count < upper:
            best, edges = count, found
        if truncated:
            break
        lower = count  # no cover has fewer paths
    if edges is None:
        witness = incumbent
    elif best < g.n or best <= lower:
        witness = Ipf.from_edges(g, [(order[a], order[b]) for a, b in edges])
    else:  # the budget ended the search before it held any cover
        witness = Ipf.from_paths(g, _greedy_cover(g))
        best = witness.path_count
    assert witness.path_count == best
    return SolveResult(
        witness=witness,
        method="bnb",
        optimal=best <= lower,
        stats={"nodes": nodes, "lower": lower, "probes": probes,
               "seconds": time.monotonic() - t0, "backend": KERNEL_BACKEND},
    )
