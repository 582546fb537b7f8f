"""Local graph surgeries with records for lifting IPFs back.

Every operation returns (new_graph, SurgeryRecord).  The record carries the
graph the surgery took (`source`), the graph it returned (`result`) and the
old-to-new vertex map (vertices absent from the map were deleted; new
vertices are those of `result` numbered from `source.n` on).  That is
exactly what the IPF lift needs: it lifts an IPF of `result` back to
`source`, translating edge sets between the two graphs.

Vertex numbering: new vertices are appended after the existing ones in
creation order; deletions shift higher indices down to keep indices dense.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _build


class SurgeryError(ValueError):
    """A surgery precondition failed; the message names the hypothesis."""


@dataclass(frozen=True)
class SurgeryRecord:
    kind: str
    args: tuple
    source: Graph
    result: Graph
    old_to_new: dict  # old index -> new index; deleted vertices absent


def _identity(n: int) -> dict:
    return {v: v for v in range(n)}


def _require(cond: bool, hypothesis: str) -> None:
    if not cond:
        raise SurgeryError(f"hypothesis failed: {hypothesis}")


def subdivide_edge(g: Graph, u: int, v: int) -> tuple[Graph, SurgeryRecord]:
    """Replace edge uv with a path u-w-v through a new vertex w = g.n."""
    _require(g.has_edge(u, v), f"{u}{v} is an edge")
    w = g.n
    edges = (g.edges - {(min(u, v), max(u, v))}) | {(u, w), (v, w)}
    h = Graph(g.n + 1, edges)
    return h, SurgeryRecord("subdivide_edge", (u, v), g, h, _identity(g.n))


def suppress_vertex(g: Graph, c: int) -> tuple[Graph, SurgeryRecord]:
    """Delete the degree-2 vertex c and join its two nonadjacent
    neighbours directly."""
    _require(g.degree(c) == 2, f"deg({c}) = 2")
    a, b = g.adj[c]
    _require(not g.has_edge(a, b), f"neighbours {a},{b} of {c} nonadjacent")
    old_to_new = {v: (v if v < c else v - 1) for v in range(g.n) if v != c}
    # the shift keeps edges normalised, and ab was no edge: no check needed
    edges = [(old_to_new[x], old_to_new[y]) for x, y in g.edges if c not in (x, y)]
    edges.append((old_to_new[a], old_to_new[b]))
    h = _build(Graph.__new__(Graph), g.n - 1, edges)
    return h, SurgeryRecord("suppress_vertex", (c,), g, h, old_to_new)


def paste_k4minus(g: Graph, a: int, b: int) -> tuple[Graph, SurgeryRecord]:
    """Delete the edge ab (both endpoints of degree 2) and attach two new
    adjacent vertices c, d joined to both a and b."""
    _require(g.has_edge(a, b), f"{a}{b} is an edge")
    _require(g.degree(a) == 2, f"deg({a}) = 2")
    _require(g.degree(b) == 2, f"deg({b}) = 2")
    c, d = g.n, g.n + 1
    edges = (g.edges - {(min(a, b), max(a, b))}) \
        | {(a, c), (a, d), (b, c), (b, d), (c, d)}
    h = Graph(g.n + 2, edges)
    return h, SurgeryRecord("paste_k4minus", (a, b), g, h, _identity(g.n))


def augment_triangle(g: Graph, a: int, b: int, c: int) -> tuple[Graph, SurgeryRecord]:
    """On a triangle abc with deg(a)=deg(b)=3 and deg(c)=2, subdivide ab
    with a new vertex d and add the edge cd."""
    _require(g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c),
             f"{a},{b},{c} form a triangle")
    _require(g.degree(a) == 3, f"deg({a}) = 3")
    _require(g.degree(b) == 3, f"deg({b}) = 3")
    _require(g.degree(c) == 2, f"deg({c}) = 2")
    d = g.n
    edges = (g.edges - {(min(a, b), max(a, b))}) | {(a, d), (b, d), (c, d)}
    h = Graph(g.n + 1, edges)
    return h, SurgeryRecord("augment_triangle", (a, b, c), g, h,
                            _identity(g.n))


def glue_at_vertex(g: Graph, h: Graph, vg: int, vh: int) -> tuple[Graph, SurgeryRecord]:
    """Disjoint union of g and h with vh identified with vg.

    g keeps its indices; h's other vertices follow in increasing order
    starting at g.n."""
    _require(0 <= vg < g.n, f"{vg} is a vertex of the first graph")
    _require(0 <= vh < h.n, f"{vh} is a vertex of the second graph")
    aux = {}
    nxt = g.n
    for v in range(h.n):
        if v == vh:
            aux[v] = vg
        else:
            aux[v] = nxt
            nxt += 1
    edges = list(g.edges) + [(aux[x], aux[y]) for x, y in h.edges]
    glued = Graph(nxt, edges)
    return glued, SurgeryRecord("glue_at_vertex", (vg, vh), g, glued,
                                _identity(g.n))


def add_edge(g: Graph, u: int, v: int) -> tuple[Graph, SurgeryRecord]:
    _require(u != v, f"{u} and {v} are distinct")
    _require(not g.has_edge(u, v), f"{u}{v} is not already an edge")
    h = g.with_edges([(u, v)])
    return h, SurgeryRecord("add_edge", (u, v), g, h, _identity(g.n))


def delete_edges(g: Graph, edges) -> tuple[Graph, SurgeryRecord]:
    es = [(min(u, v), max(u, v)) for u, v in edges]
    for u, v in es:
        _require(g.has_edge(u, v), f"{u}{v} is an edge")
    h = g.without_edges(es)
    return h, SurgeryRecord("delete_edges", (tuple(sorted(es)),), g, h,
                            _identity(g.n))


def delete_vertices(g: Graph, vertices) -> tuple[Graph, SurgeryRecord]:
    vs = set(vertices)
    for v in vs:
        _require(0 <= v < g.n, f"{v} is a vertex")
    keep = [v for v in range(g.n) if v not in vs]
    sub, old_to_new = g.induced_subgraph(keep)
    return sub, SurgeryRecord("delete_vertices", (tuple(sorted(vs)),), g, sub,
                              old_to_new)


_KINDS = {
    "subdivide_edge": subdivide_edge,
    "suppress_vertex": suppress_vertex,
    "paste_k4minus": paste_k4minus,
    "augment_triangle": augment_triangle,
    "glue_at_vertex": glue_at_vertex,
    "add_edge": add_edge,
    "delete_edges": delete_edges,
    "delete_vertices": delete_vertices,
}


def surgery(g: Graph, kind: str, *args) -> tuple[Graph, SurgeryRecord]:
    """Dispatch by kind name; see the individual operations."""
    try:
        fn = _KINDS[kind]
    except KeyError:
        raise SurgeryError(f"unknown surgery kind: {kind!r}") from None
    return fn(g, *args)
