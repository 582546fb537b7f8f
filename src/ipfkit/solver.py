"""Exact computation of the minimum number of paths in an IPF.

Two independent methods:

* ``rho_exhaustive``: depth-first search over edge subsets, keeping only
  subsets that remain valid partial path systems (degree at most 2, acyclic,
  chordless after each merge) and maximising the number of chosen edges.
  Small graphs only; serves as the cross-validation oracle.
* ``rho_exact``: branch-and-bound over covered-vertex states, delegated to
  the compiled C kernel (``_kernel_c.c``) when it is built and imports,
  and otherwise to its pure-Python twin (``_kernel_py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .graph import Graph
from .ipf import Ipf

try:  # pragma: no cover - depends on whether the extension was built
    from . import _kernel_c as _kernel
    KERNEL_BACKEND = "c"
except ImportError:  # pragma: no cover
    from . import _kernel_py as _kernel
    KERNEL_BACKEND = "python"

DEFAULT_NODE_LIMIT = 10 ** 8
DEFAULT_TIME_LIMIT = 60.0
EXHAUSTIVE_CAP = 12


def kernel_backend() -> str:
    """Which kernel rho_exact dispatches to: 'c' or 'python'."""
    return KERNEL_BACKEND


@dataclass
class SolveResult:
    rho: int
    witness: Ipf
    method: str  # 'bnb' | 'exhaustive'
    optimal: bool = True
    stats: dict = field(default_factory=dict)

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


def rho_exhaustive(g: Graph, hard_cap: int = EXHAUSTIVE_CAP) -> SolveResult:
    """Exact rho by exhaustive search over IPF edge subsets.

    Independent of the branch-and-bound kernel by construction: it walks
    the powerset of the edge list, extending only valid partial systems.
    """
    if g.n > hard_cap:
        raise ValueError(f"rho_exhaustive is capped at n <= {hard_cap}")
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
    witness = Ipf.from_edges(g, best_edges)
    return SolveResult(
        rho=n - len(best_edges),
        witness=witness,
        method="exhaustive",
        optimal=True,
        stats={"nodes": nodes, "seconds": time.monotonic() - t0},
    )


def rho_exact(g: Graph, node_limit: int = DEFAULT_NODE_LIMIT,
              time_limit: float = DEFAULT_TIME_LIMIT) -> SolveResult:
    """Exact rho by branch-and-bound; node_limit/time_limit of 0 disable
    the respective budget.  On budget exhaustion the best solution found is
    returned with optimal=False.

    ``stats`` holds the kernel's counted ``nodes``, ``seconds`` and the
    ``backend``."""
    t0 = time.monotonic()
    count, edges, nodes, truncated = _kernel.solve_min_ipf(
        g.n, g.adj_mask, node_limit, time_limit)
    witness = Ipf.from_edges(g, edges)
    assert witness.path_count == count
    return SolveResult(
        rho=count,
        witness=witness,
        method="bnb",
        optimal=not truncated,
        stats={"nodes": nodes, "seconds": time.monotonic() - t0,
               "backend": KERNEL_BACKEND},
    )
