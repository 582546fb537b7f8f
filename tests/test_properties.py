"""Property-based checks: subdivision monotonicity, gluing superadditivity,
solver agreement, witness validity, and graphs derived without
re-validation equal to the validated ones."""

import random

from hypothesis import given, settings, strategies as st

from ipfkit import (
    Graph, glue_at_vertex, parse_graph6, rho_exact, rho_exhaustive,
    subdivide_edge, suppress_vertex, verify_ipf, write_graph6,
)
from ipfkit.constructive import _edges_up, _sub

from conftest import random_connected_subcubic


def random_graph(seed: int, max_n: int = 9) -> Graph:
    rng = random.Random(seed)
    n = rng.randrange(2, max_n + 1)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    return Graph(n, edges)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_subdivision_never_decreases_rho(seed):
    g = random_graph(seed)
    if not g.edges:
        return
    rng = random.Random(seed + 1)
    u, v = rng.choice(g.sorted_edges())
    h, _ = subdivide_edge(g, u, v)
    assert rho_exact(h).rho >= rho_exact(g).rho


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_gluing_superadditive(seed):
    a = random_graph(seed, max_n=6)
    b = random_graph(seed ^ 0x5EED, max_n=6)
    rng = random.Random(seed + 2)
    g, _ = glue_at_vertex(a, b, rng.randrange(a.n), rng.randrange(b.n))
    assert rho_exact(g).rho >= rho_exact(a).rho + rho_exact(b).rho - 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_solvers_agree_on_small_graphs(seed):
    g = random_graph(seed)
    assert rho_exact(g).rho == rho_exhaustive(g).rho


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_witnesses_decompose_validly(seed):
    rng = random.Random(seed)
    g = random_connected_subcubic(rng, rng.randrange(2, 11))
    for res in (rho_exact(g), rho_exhaustive(g)):
        paths = verify_ipf(g, res.witness.edges)
        assert len(paths) == res.rho
        covered = sorted(v for p in paths for v in p)
        assert covered == list(range(g.n))


def test_subdivision_strictness_witness():
    # K6 minus two edges of a perfect matching; subdividing the third
    # matching edge forces a third path
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)
             if (i, j) not in ((0, 1), (2, 3))]
    g = Graph(6, edges)
    assert rho_exact(g).rho == 2
    h, _ = subdivide_edge(g, 4, 5)
    assert rho_exact(h).rho == 3


def test_gluing_strictness_witness():
    # two 3-vertex paths glued at their midpoints: bound 1, actual 3
    a = Graph(3, [(0, 1), (1, 2)])
    g, _ = glue_at_vertex(a, a, 1, 1)
    assert rho_exact(a).rho == 1
    assert rho_exact(g).rho == 3


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_construct_relabels_are_increasing(seed):
    """The relabels that the construct layer maps normalised edges through
    without sorting them: _sub's new->old map, and suppress_vertex's
    old->new map, both increase."""
    rng = random.Random(seed)
    g = random_connected_subcubic(rng, rng.randrange(2, 13))
    verts = frozenset(v for v in range(g.n) if rng.random() < 0.7)
    sub, o2n, n2o = _sub(g, verts)
    assert [n2o[i] for i in range(sub.n)] == sorted(verts)
    assert o2n == {v: i for i, v in n2o.items()}
    edges = rho_exact(sub).witness.edges
    assert _edges_up(edges, n2o) \
        == {tuple(sorted((n2o[u], n2o[v]))) for u, v in edges}
    for c in range(g.n):
        if g.degree(c) == 2 and not g.has_edge(*g.adj[c]):
            rec = suppress_vertex(g, c)[1]
            assert [rec.old_to_new[v] for v in sorted(rec.old_to_new)] \
                == list(range(g.n - 1))


def assert_same_graph(h, n, edges):
    """h equals, on every field that Graph fills, Graph(n, edges)."""
    g = Graph(n, edges)
    assert (h.n, h.adj, h.adj_mask, h.edges) \
        == (g.n, g.adj, g.adj_mask, g.edges)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_derived_graphs_equal_the_validated_ones(seed):
    """The graphs that parse_graph6, induced_subgraph and suppress_vertex
    build without Graph's checks equal the validated Graph of the edges
    each derivation defines, given in an order of their own."""
    rng = random.Random(seed)
    g = random_connected_subcubic(rng, rng.randrange(2, 13))
    edges = [(v, u) for u, v in g.edges]
    rng.shuffle(edges)
    assert_same_graph(parse_graph6(write_graph6(g)), g.n, edges)
    sub, o2n = g.induced_subgraph(
        v for v in range(g.n) if rng.random() < 0.7)
    assert_same_graph(sub, len(o2n), [(o2n[u], o2n[v]) for u, v in edges
                                      if u in o2n and v in o2n])
    for c in range(g.n):
        if g.degree(c) == 2 and not g.has_edge(*g.adj[c]):
            h, rec = suppress_vertex(g, c)
            o2n = rec.old_to_new
            a, b = (o2n[w] for w in g.adj[c])
            assert_same_graph(h, g.n - 1, [(o2n[u], o2n[v]) for u, v in edges
                                           if c not in (u, v)] + [(b, a)])
