"""Deterministic generators for named graphs and extremal families.

Vertex numbering is documented per generator and always follows generation
order: base structure first (cycle or tree, breadth-first), then attachment
vertices in the order their anchors are visited.

Several families are k-regular except at a root vertex of smaller degree.
They are emitted as-is; the deficiency only shifts the induced path number
by a constant, which is irrelevant for the ratio bounds these families
certify.

Every generator that takes a size computes the order of the member from
its parameters first, and raises ``GraphError`` above 62 vertices, the
graph6 limit, before it builds anything.
"""

from __future__ import annotations

from .graph import GRAPH6_MAX_N, Graph, GraphError


def _check_order(n: int) -> None:
    if n > GRAPH6_MAX_N:
        raise GraphError("the family member would have more than "
                         f"{GRAPH6_MAX_N} vertices; graph6 needs "
                         f"n <= {GRAPH6_MAX_N}")


def triangle_ring(n: int) -> Graph:
    """Cycle (x_1,...,x_n) plus chords x_n x_2, x_3 x_5, ..., x_{n-3} x_{n-1},
    forming n/3 vertex-disjoint triangles joined into a ring.

    Vertices: x_i is vertex i-1.  Requires n >= 6 and n divisible by 3.
    Edge count is n + n/3; each triangle has one degree-2 vertex."""
    if n < 6 or n % 3:
        raise GraphError("triangle ring order must be >= 6 and divisible by 3")
    _check_order(n)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges.append((n - 1, 1))
    for j in range(1, n // 3):
        edges.append((3 * j - 1, 3 * j + 1))
    return Graph(n, edges)


# the non-triangle edges of triangle_ring(n), in cycle order
def _joining_edges(n: int) -> list[tuple[int, int]]:
    return [(3 * j + 1, 3 * j + 2) for j in range(n // 3)]


def _order5_host(chords: int) -> list[tuple[int, int]]:
    """Edge list of C5 = (0,1,2,3,4) plus one chord (0,2), or plus the
    2-chord matching {(0,2),(1,4)}; these are the two hamiltonian
    {2,3}-graphs of order 5 besides the plain cycle.  Vertex 3 has
    degree 2 in both."""
    base = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    if chords == 1:
        return base + [(0, 2)]
    if chords == 2:
        return base + [(0, 2), (1, 4)]
    raise GraphError("order-5 host takes 1 or 2 chords")


def bad_graph(ring_order: int, subdivided: tuple[int, ...] = (0,),
              h5_chords: int = 1) -> Graph:
    """Triangle ring with the chosen non-triangle edges subdivided, each
    subdivision vertex bridged to a hamiltonian {2,3}-graph of order 5.

    subdivided lists indices (0-based, cycle order) of non-triangle edges
    of triangle_ring(ring_order); h5_chords picks the attached order-5 host
    (C5 plus one chord, or plus a 2-chord matching).  Vertices: the ring
    first, then per subdivided edge the subdivision vertex x_e followed by
    the 5 host vertices.  The bridge meets the host at a degree-2 vertex."""
    ring = triangle_ring(ring_order)  # checks ring_order first
    joins = _joining_edges(ring_order)
    idxs = sorted(set(subdivided))
    if not all(0 <= i < len(joins) for i in idxs):
        raise GraphError("subdivided edge index out of range")
    _check_order(ring_order + 6 * len(idxs))
    host = _order5_host(h5_chords)
    anchor = 3  # degree-2 host vertex that receives the bridge
    edges = set(ring.edges)
    nxt = ring_order
    for i in idxs:
        u, v = joins[i]
        edges.discard((min(u, v), max(u, v)))
        x = nxt
        nxt += 1
        off = nxt
        nxt += 5
        edges |= {(u, x), (v, x), (x, off + anchor)}
        edges |= {(off + a, off + b) for a, b in host}
    return Graph(nxt, sorted(edges))


def fig1_subcubic(n: int) -> Graph:
    """(n/4)-cycle where every cycle vertex is joined by one edge to its
    own triangle; needs at least 3n/8 paths.

    Vertices: cycle 0..n/4-1; triangle of cycle vertex v is
    n/4 + 3v .. n/4 + 3v + 2, with the first of the three carrying the
    edge to v.  Requires n divisible by 4 with n/4 >= 3."""
    if n % 4 or n // 4 < 3:
        raise GraphError("order must be divisible by 4 with n/4 >= 3")
    _check_order(n)
    m = n // 4
    edges = [(i, (i + 1) % m) for i in range(m)]
    for v in range(m):
        a = m + 3 * v
        edges += [(v, a), (a, a + 1), (a, a + 2), (a + 1, a + 2)]
    return Graph(n, edges)


def petersen() -> Graph:
    """Outer cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def tietze() -> Graph:
    """Petersen graph with vertex 0 expanded into the triangle 9,10,11.

    Petersen's vertices 1..9 become 0..8; vertex 9 takes over the edge to
    old 1, vertex 10 to old 4, vertex 11 to old 5."""
    p = petersen()
    edges = [(u - 1, v - 1) for u, v in p.edges if 0 not in (u, v)]
    edges += [(9, 10), (10, 11), (9, 11), (0, 9), (3, 10), (4, 11)]
    return Graph(12, edges)


def subdivided_complete(m: int) -> Graph:
    """K_m on 0..m-1 with the edge (0,1) subdivided by vertex m.

    Any IPF of this graph needs at least ceil(m/2) paths."""
    if m < 3:
        raise GraphError("subdivided complete graph needs m >= 3")
    _check_order(m + 1)
    edges = []
    _glue_subdivided_complete(edges, m, m, 0)
    return Graph(m + 1, edges)


def perfect_tree(k: int, h: int) -> Graph:
    """Perfect (k-1)-ary tree of height h, breadth-first numbering with
    root 0.  The root has degree k-1, internal vertices degree k, leaves
    degree 1."""
    if k < 3 or h < 0:
        raise GraphError("perfect tree needs k >= 3 and h >= 0")
    n, leaves = _tree_order(k, h)
    _check_order(n)
    # breadth-first, the children of p are (k-1)p+1 .. (k-1)p+k-1, so
    # every vertex but the last `leaves` has some
    edges = [(p, (k - 1) * p + i) for p in range(n - leaves)
             for i in range(1, k)]
    return Graph(n, edges)


def _tree_order(k: int, h: int) -> tuple[int, int]:
    """Order and leaf count of ``perfect_tree(k, h)``, counted layer by
    layer; the count stops once the order passes the graph6 limit, so a
    huge h costs nothing and the order returned is then only a lower
    bound."""
    n = leaves = 1
    for _ in range(h):
        if n > GRAPH6_MAX_N:
            break
        leaves *= k - 1
        n += leaves
    return n, leaves


def _glue_subdivided_complete(edges: list, anchor: int, m: int,
                              nxt: int) -> int:
    """Append a K_m with one edge subdivided, the subdivision vertex being
    the existing vertex `anchor`; returns the next free index."""
    verts = list(range(nxt, nxt + m))
    for i in range(m):
        for j in range(i + 1, m):
            if (i, j) != (0, 1):
                edges.append((verts[i], verts[j]))
    edges += [(anchor, verts[0]), (anchor, verts[1])]
    return nxt + m


def odd_k_glued_tree(k: int, h: int) -> Graph:
    """Perfect (k-1)-ary tree with (k-1)/2 subdivided-K_{k+1} blocks glued
    on every leaf (the subdivision vertex merged with the leaf).

    Requires odd k >= 3.  k-regular except the degree-(k-1) root.
    Vertices: the tree in breadth-first order, then the blocks leaf by
    leaf, k+1 vertices each."""
    if k < 3 or k % 2 == 0:
        raise GraphError("this family needs odd k >= 3")
    if h < 0:
        raise GraphError("height must be nonnegative")
    order, leaf_count = _tree_order(k, h)
    _check_order(order + leaf_count * (k - 1) // 2 * (k + 1))
    edges = list(perfect_tree(k, h).edges)
    nxt = order
    for leaf in range(order - leaf_count, order):
        for _ in range((k - 1) // 2):
            nxt = _glue_subdivided_complete(edges, leaf, k + 1, nxt)
    return Graph(nxt, edges)


def even_k_glued_cycle(k: int, h: int) -> Graph:
    """h-cycle with (k-2)/2 subdivided-K_{k+1} blocks glued on every cycle
    vertex.  Requires even k >= 4 and h >= 3; the result is k-regular with
    h + h(k+1)(k-2)/2 vertices.

    Vertices: cycle 0..h-1, then blocks vertex by vertex."""
    if k < 4 or k % 2:
        raise GraphError("this family needs even k >= 4")
    if h < 3:
        raise GraphError("cycle length must be at least 3")
    _check_order(h + h * (k + 1) * (k - 2) // 2)
    edges = [(i, (i + 1) % h) for i in range(h)]
    nxt = h
    for v in range(h):
        for _ in range((k - 2) // 2):
            nxt = _glue_subdivided_complete(edges, v, k + 1, nxt)
    return Graph(nxt, edges)


def c4_binary_tree(h: int) -> Graph:
    """Perfect binary tree of height h with an edge between each sibling
    pair, and a subdivided K5 glued on every leaf.

    4-regular except the degree-2 root; needs at least 3 * 2^h paths.
    Vertices: the tree breadth-first, then the K5 blocks leaf by leaf."""
    if h < 1:
        raise GraphError("height must be at least 1")
    order, leaf_count = _tree_order(3, h)
    _check_order(order + 5 * leaf_count)
    edges = list(perfect_tree(3, h).edges)
    edges += [(2 * p + 1, 2 * p + 2) for p in range(order - leaf_count)]
    nxt = order
    for leaf in range(order - leaf_count, order):
        nxt = _glue_subdivided_complete(edges, leaf, 5, nxt)
    return Graph(nxt, edges)


_FAMILIES = {
    "triangle_ring": triangle_ring,
    "bad_graph": bad_graph,
    "fig1_subcubic": fig1_subcubic,
    "petersen": petersen,
    "tietze": tietze,
    "subdivided_complete": subdivided_complete,
    "perfect_tree": perfect_tree,
    "odd_k_glued_tree": odd_k_glued_tree,
    "even_k_glued_cycle": even_k_glued_cycle,
    "c4_binary_tree": c4_binary_tree,
}


def generate(family: str, params: dict) -> Graph:
    """Build the graph of the named family with the given keyword
    parameters, e.g. generate("triangle_ring", {"n": 9})."""
    try:
        fn = _FAMILIES[family]
    except KeyError:
        raise GraphError(f"unknown family: {family!r}") from None
    try:
        return fn(**params)
    except TypeError as exc:
        raise GraphError(f"bad parameters for {family}: {exc}") from None
