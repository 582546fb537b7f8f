"""Family generators: orders, degree patterns and known path numbers."""

import pytest

from ipfkit import GraphError, generate, is_hamiltonian
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
        assert sorted(g.degrees()).count(2) == n // 3
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


def test_petersen_and_tietze():
    p = petersen()
    assert p.n == 10 and p.is_cubic() and not is_hamiltonian(p)
    t = tietze()
    assert t.n == 12 and t.is_cubic() and len(t.edges) == 18
    assert not is_hamiltonian(t)
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
    assert sorted(t.degrees()).count(1) == 8
    assert perfect_tree(4, 2).n == 1 + 3 + 9
    with pytest.raises(GraphError):
        perfect_tree(2, 1)


def test_odd_k_glued_tree():
    g = odd_k_glued_tree(3, 1)
    # binary tree of height 1 (3 vertices), one subdivided K4 per leaf
    assert g.n == 3 + 2 * 4
    degs = sorted(g.degrees())
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
    degs = g.degrees()
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
