"""Family generators: orders, degree patterns, known path numbers and
the graph6 order limit."""

import time

import pytest

from ipfkit import GraphError, generate
from ipfkit import rho_exact
from ipfkit.families import (
    bad_graph, c4_binary_tree, even_k_glued_cycle, fig1_subcubic,
    odd_k_glued_tree, perfect_tree, petersen, subdivided_complete, tietze,
    triangle_ring,
)
from ipfkit.graph import hamilton_cycle


def test_triangle_ring_shape():
    for n in (6, 9, 12, 30):
        g = triangle_ring(n)
        assert g.n == n
        assert len(g.edges) == n + n // 3
        assert sorted(map(len, g.adj)).count(2) == n // 3
    with pytest.raises(GraphError):
        triangle_ring(7)
    with pytest.raises(GraphError):
        triangle_ring(3)


def test_bad_graph_shape():
    g = bad_graph(6, (0,), 1)
    assert g.n == 6 + 6
    assert g.is_23_graph() and g.is_connected()
    g2 = bad_graph(9, (0, 2), 2)
    assert g2.n == 9 + 12
    with pytest.raises(GraphError):
        bad_graph(6, (5,), 1)


def test_bad_graph_reads_one_index_as_a_one_element_tuple():
    assert bad_graph(9, 0) == bad_graph(9, (0,))
    assert bad_graph(9, 2, 2) == bad_graph(9, (2,), 2)


@pytest.mark.parametrize("build, message", [
    (lambda: bad_graph(6, (0,), 3), "order-5 host takes 1 or 2 chords"),
    (lambda: subdivided_complete(2), "subdivided complete graph needs m >= 3"),
    (lambda: odd_k_glued_tree(3, -1), "height must be nonnegative"),
    (lambda: even_k_glued_cycle(4, 2), "cycle length must be at least 3"),
    (lambda: c4_binary_tree(0), "height must be at least 1"),
])
def test_out_of_range_parameters_are_refused(build, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        build()


def test_petersen_and_tietze():
    p = petersen()
    assert p.n == 10 and p.is_cubic() and hamilton_cycle(p) is None
    t = tietze()
    assert t.n == 12 and t.is_cubic() and len(t.edges) == 18
    assert hamilton_cycle(t) is None
    assert rho_exact(p).rho == 3


def test_fig1_subcubic():
    g = fig1_subcubic(16)
    assert g.n == 16 and g.is_subcubic() and g.is_connected()
    assert rho_exact(fig1_subcubic(12)).rho == 12 * 3 // 8 + (1 if 12 * 3 % 8 else 0)
    with pytest.raises(GraphError):
        fig1_subcubic(10)


def test_subdivided_complete():
    g = subdivided_complete(5)
    assert g.n == 6
    assert g.degree(5) == 2
    assert rho_exact(g).rho == 3  # ceil(5/2)
    assert rho_exact(subdivided_complete(4)).rho == 2


def test_perfect_tree():
    t = perfect_tree(3, 3)  # binary, height 3
    assert t.n == 15
    assert t.degree(0) == 2
    assert sorted(map(len, t.adj)).count(1) == 8
    assert perfect_tree(4, 2).n == 1 + 3 + 9
    with pytest.raises(GraphError):
        perfect_tree(2, 1)


def test_odd_k_glued_tree():
    g = odd_k_glued_tree(3, 1)
    # binary tree of height 1 (3 vertices), one subdivided K4 per leaf
    assert g.n == 3 + 2 * 4
    degs = sorted(map(len, g.adj))
    assert degs.count(2) == 1 and set(degs) == {2, 3}  # root deficient
    with pytest.raises(GraphError):
        odd_k_glued_tree(4, 1)


def test_even_k_glued_cycle():
    g = even_k_glued_cycle(4, 5)
    assert g.n == 5 + 5 * 5 * 2 // 2
    assert g.is_k_regular(4)
    with pytest.raises(GraphError):
        even_k_glued_cycle(3, 5)


def test_c4_binary_tree():
    g = c4_binary_tree(2)
    assert g.n == 2 ** 3 - 1 + 5 * 2 ** 2
    degs = list(map(len, g.adj))
    assert degs[0] == 2
    assert all(d == 4 for v, d in enumerate(degs) if v != 0)


def test_generate_dispatch():
    g = generate("triangle_ring", {"n": 9})
    assert g.n == 9
    with pytest.raises(GraphError):
        generate("nope", {})
    with pytest.raises(GraphError):
        generate("triangle_ring", {"m": 9})


def test_triangle_ring_hamiltonicity():
    assert hamilton_cycle(triangle_ring(9)) is not None


BIG = 10 ** 9


@pytest.mark.parametrize("family, params", [
    ("triangle_ring", {"n": 3 * BIG}),
    ("bad_graph", {"ring_order": 3 * BIG}),
    ("fig1_subcubic", {"n": 4 * BIG}),
    ("subdivided_complete", {"m": BIG}),
    ("perfect_tree", {"k": 3, "h": BIG}),
    ("perfect_tree", {"k": BIG, "h": 1}),
    ("odd_k_glued_tree", {"k": 3, "h": BIG}),
    ("odd_k_glued_tree", {"k": BIG + 1, "h": 0}),
    ("even_k_glued_cycle", {"k": 4, "h": BIG}),
    ("even_k_glued_cycle", {"k": BIG, "h": 3}),
    ("c4_binary_tree", {"h": BIG}),
])
def test_oversize_member_fails_before_it_is_built(family, params):
    # each generator computes its order first: building one of these, or
    # raising k - 1 to the power h, would not end
    t0 = time.monotonic()
    with pytest.raises(GraphError, match="n <= 62"):
        generate(family, params)
    assert time.monotonic() - t0 < 0.5


@pytest.mark.parametrize("largest, smallest_over", [
    (lambda: triangle_ring(60), lambda: triangle_ring(63)),
    (lambda: bad_graph(30, tuple(range(5))),
     lambda: bad_graph(33, tuple(range(5)))),
    (lambda: fig1_subcubic(60), lambda: fig1_subcubic(64)),
    (lambda: subdivided_complete(61), lambda: subdivided_complete(62)),
    (lambda: perfect_tree(3, 4), lambda: perfect_tree(3, 5)),
    (lambda: odd_k_glued_tree(3, 3), lambda: odd_k_glued_tree(3, 4)),
    (lambda: even_k_glued_cycle(4, 10), lambda: even_k_glued_cycle(4, 11)),
    (lambda: c4_binary_tree(3), lambda: c4_binary_tree(4)),
])
def test_order_limit_is_graph6s(largest, smallest_over):
    assert largest().n <= 62
    with pytest.raises(GraphError, match="n <= 62"):
        smallest_over()
