"""Induced path factors as edge subsets of a host graph.

An IPF is stored as the set of edges of its paths; vertices incident with no
chosen edge are trivial one-vertex paths.  The number of paths always equals
n minus the number of chosen edges.

An ``Ipf`` built by ``from_edges`` or ``from_paths`` is verified once, at
construction, and keeps the paths ``verify_ipf`` returned; every later
question about its paths reads them.  The raw constructor ``Ipf(host,
edges)`` is unchecked: it verifies on the first question about its paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .graph import Graph, _bits, block_decomposition, per_graph


class IpfError(ValueError):
    """The edge set is not an induced path factor of the host."""

    def __init__(self, message: str, kind: str, detail=None):
        super().__init__(message)
        self.kind = kind  # 'degree' | 'cycle' | 'chord' | 'edges'
        self.detail = detail


def _norm_edges(edges: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    return frozenset((u, v) if u < v else (v, u) for u, v in edges)


def _raise_first_chord(g: Graph, path: list[int]) -> None:
    """Raise the IpfError naming the first chord (i, j) of path, by i then j."""
    k = len(path)
    for i in range(k):
        for j in range(i + 2, k):
            if g.has_edge(path[i], path[j]):
                pair = (path[i], path[j])
                raise IpfError(
                    f"path {path} has chord {pair}: non-consecutive "
                    f"vertices adjacent in host", "chord", pair)


def verify_ipf(g: Graph, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Check that `edges` forms an IPF of g and return its maximal paths.

    Paths are reported endpoint-to-endpoint with the smaller endpoint first,
    sorted by their first vertex; trivial paths are singletons.  Raises
    IpfError naming the violation (over-degree vertex, cycle, or the
    specific chord pair).  Any iterable but a frozenset is normalised
    first; a frozenset, such as an ``Ipf``'s, is read as given, so an edge
    written (v, u) with u < v is not in the host and is of kind "edges".
    """
    es = edges if isinstance(edges, frozenset) else _norm_edges(edges)
    if not es <= g.edges:
        stray = sorted(es - g.edges)
        raise IpfError(f"edges not in host: {stray}", "edges", stray)
    deg = [0] * g.n
    nbr: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in es:
        deg[u] += 1
        deg[v] += 1
        nbr[u].append(v)
        nbr[v].append(u)
    for v in range(g.n):
        if deg[v] > 2:
            raise IpfError(f"vertex {v} has degree {deg[v]} in the edge subset",
                           "degree", v)
    seen = [False] * g.n
    paths: list[list[int]] = []
    for s in range(g.n):
        if seen[s] or deg[s] == 2:
            continue
        # s is an endpoint (degree <= 1): walk to the other end
        seen[s] = True
        path = [s]
        prev = -1
        v = s
        while True:
            nb = nbr[v]
            if len(nb) == 2:  # interior: leave by the other edge
                w = nb[1] if nb[0] == prev else nb[0]
            elif nb and nb[0] != prev:  # s itself
                w = nb[0]
            else:
                break
            seen[w] = True
            path.append(w)
            prev, v = v, w
        paths.append(path)
    if not all(seen):
        cyc = [v for v in range(g.n) if not seen[v]]
        raise IpfError(f"edge subset contains a cycle through {cyc}", "cycle", cyc)
    # each vertex has its path neighbours among its host neighbours in the
    # path, so the path has a chord iff these counts sum past 2(k-1); only
    # then does the pairwise scan run, to name the first chord
    masks = g.adj_mask
    for path in paths:
        if len(path) < 3:
            continue
        pm = 0
        for v in path:
            pm |= 1 << v
        if sum([(masks[v] & pm).bit_count() for v in path]) > 2 * len(path) - 2:
            _raise_first_chord(g, path)
    paths.sort(key=lambda p: p[0])
    assert len(paths) == g.n - len(es)
    return paths


@dataclass(frozen=True)
class Ipf:
    """An IPF bound to its host graph.

    ``from_edges`` and ``from_paths`` verify the edge set against the host
    once, raising IpfError if it is no IPF, and keep its paths.
    ``Ipf(host, edges)`` takes an edge set unchecked and verifies it when
    its paths are first read, so ``paths()`` raises IpfError then; an edge
    not in ``host.edges``, such as one written (v, u) with u < v, is of
    kind "edges", since ``path_count`` counts the set as given.
    """

    host: Graph
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_edges(host: Graph, edges: Iterable[tuple[int, int]]) -> "Ipf":
        ipf = Ipf(host, _norm_edges(edges))
        ipf._paths  # verify now, once
        return ipf

    @staticmethod
    def from_paths(host: Graph, paths: Iterable[Sequence[int]]) -> "Ipf":
        es = []
        for p in paths:
            es.extend(zip(p, p[1:]))
        return Ipf.from_edges(host, es)

    @cached_property
    def _paths(self) -> list[list[int]]:
        # read, never changed: paths() hands out copies
        return verify_ipf(self.host, self.edges)

    @cached_property
    def path_of(self) -> dict[int, int]:
        """Vertex -> index of its path in ``paths()`` (shared: read only)."""
        return {v: i for i, p in enumerate(self._paths) for v in p}

    @property
    def path_count(self) -> int:
        return self.host.n - len(self.edges)

    def paths(self) -> list[list[int]]:
        return [list(p) for p in self._paths]

    def endpoints(self) -> set[int]:
        """Vertices at which some path of the IPF ends (trivial paths count)."""
        return {v for p in self._paths for v in (p[0], p[-1])}

    def to_json_fragment(self) -> dict:
        return {
            "edges": [list(e) for e in sorted(self.edges)],
            "path_count": self.path_count,
            "paths": self.paths(),
        }


# ---------------------------------------------------------------------------
# Well-behaved and standardised predicates
# ---------------------------------------------------------------------------

@dataclass
class WellBehavedReport:
    verdict: bool
    # one entry per failing path: (path, offending low-degree pair)
    witnesses: list[tuple[tuple[int, ...], tuple[int, int]]] = field(default_factory=list)


def is_well_behaved(ipf: Ipf, R: Iterable[int] = ()) -> WellBehavedReport:
    """Check every path's low-degree vertices lie in one block of the host,
    or form the endpoints of a bridge-centred 4-vertex subpath; S excludes
    R."""
    g = ipf.host
    if not g.is_subcubic():
        raise ValueError("well-behavedness is defined for subcubic hosts")
    S = {v for v in range(g.n) if g.degree(v) <= 2}.difference(R)
    dec = block_decomposition(g)
    witnesses: list[tuple[tuple[int, ...], tuple[int, int]]] = []
    for path in ipf._paths:
        vs = [v for v in path if v in S]
        if len(vs) <= 1:
            continue
        if any(b.issuperset(vs) for b in dec.blocks):
            continue
        ok = False
        if len(vs) == 2:
            x, y = vs
            i, j = path.index(x), path.index(y)
            if j - i == 3:
                mid = (min(path[i + 1], path[i + 2]), max(path[i + 1], path[i + 2]))
                if mid in dec.bridges:
                    ok = True
        if not ok:
            witnesses.append((tuple(path), (vs[0], vs[1])))
    return WellBehavedReport(not witnesses, witnesses)


@per_graph
def induced_k4minus_subgraphs(g: Graph) -> tuple[tuple[int, int, int, int], ...]:
    """All induced K4- subgraphs, reported as (a, b, c, d) with ab the
    missing edge and cd the edge joining the two degree-3-in-H vertices,
    in the order of cd, then a, then b; computed once per graph."""
    masks = g.adj_mask
    found = []
    for c, d in g.sorted_edges():
        common = masks[c] & masks[d]
        if common & (common - 1):  # a K4- needs two common neighbours
            ws = _bits(common)
            for i, a in enumerate(ws):
                for b in ws[i + 1:]:
                    if not masks[a] >> b & 1:
                        found.append((a, b, c, d))
    return tuple(found)


def is_standardised(ipf: Ipf) -> tuple[bool, list[tuple[int, int, int, int]]]:
    """True iff the IPF is standardised on every induced K4- subgraph of
    its host: the two degree-3 vertices c, d end distinct paths, through
    the edges ca and db or cb and da.

    Returns (verdict, failing K4- tuples as produced by
    induced_k4minus_subgraphs)."""
    g = ipf.host
    if not g.is_subcubic():
        raise ValueError("standardisation is defined for subcubic hosts")
    ends = ipf.endpoints()
    path_of = ipf.path_of

    def ends_through(v: int, w: int) -> bool:
        """A path ends at v with the edge vw."""
        return v in ends and (min(v, w), max(v, w)) in ipf.edges

    failing = [(a, b, c, d) for a, b, c, d in induced_k4minus_subgraphs(g)
               if path_of[c] == path_of[d]
               or not any(ends_through(c, x) and ends_through(d, y)
                          for x, y in ((a, b), (b, a)))]
    return not failing, failing
