"""Exact solvers: branch-and-bound vs the edge-subset oracle, kernel
backend parity, and budget handling."""

import json
import random
import time

import pytest

from ipfkit import (Graph, Ipf, parse_graph6, rho_exact, rho_exhaustive,
                    verify_ipf)
from ipfkit.solver import longest_induced_path_order
from ipfkit import _kernel_py

from conftest import (DATA, census_graphs, random_connected_cubic,
                      random_connected_regular, random_connected_subcubic)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


CLAW = Graph(4, [(0, 1), (0, 2), (0, 3)])


def union(*parts):
    """Disjoint union, the parts labelled in order."""
    edges, off = [], 0
    for g in parts:
        edges += [(u + off, v + off) for u, v in g.sorted_edges()]
        off += g.n
    return Graph(off, edges)


# Cycles, the claw, K1, and disjoint unions whose search reaches the
# last-path closure on a remainder it must reject: a cycle (C4+C3, C6+C5),
# a degree-3 vertex (C5+claw, P5+claw) or a disconnected one (C5+P3,
# C4+K1); or one it must accept: a single leftover vertex (C3+K1, P2+K1) or
# a short path (K1+P2).
CLOSURE_HOSTS = [cycle(n) for n in range(3, 9)] + [CLAW, Graph(1)] + [
    union(*parts) for parts in (
        (cycle(5), path(3)), (cycle(4), cycle(3)), (cycle(6), cycle(5)),
        (cycle(5), CLAW), (path(5), CLAW), (cycle(4), path(1)),
        (cycle(3), path(1)), (path(2), path(1)), (path(1), path(2)))]


def test_known_small_values():
    assert rho_exact(Graph(1)).rho == 1
    assert rho_exact(Graph(3, [(0, 1), (1, 2)])).rho == 1
    assert rho_exact(cycle(3)).rho == 2
    assert rho_exact(cycle(6)).rho == 2
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert rho_exact(k4).rho == 2
    assert rho_exact(Graph(4, [(0, 1), (0, 2), (0, 3)])).rho == 2
    assert rho_exact(Graph(5, [(0, i) for i in range(1, 5)])).rho == 3


def test_witness_is_valid_and_counts_match():
    rng = random.Random(11)
    for _ in range(40):
        g = random_connected_subcubic(rng, rng.randrange(2, 11))
        res = rho_exact(g)
        paths = verify_ipf(g, res.witness.edges)
        assert len(paths) == res.rho


def test_oracle_agreement_on_census():
    for n in (4, 6, 8):
        for g in census_graphs(n):
            assert rho_exact(g).rho == rho_exhaustive(g).rho


def test_oracle_agreement_on_random_subcubic():
    rng = random.Random(7)
    for _ in range(60):
        g = random_connected_subcubic(rng, rng.randrange(2, 10))
        a = rho_exact(g)
        b = rho_exhaustive(g)
        assert a.rho == b.rho
        assert a.optimal and b.optimal


def test_oracle_agreement_where_last_path_closes():
    for g in CLOSURE_HOSTS:
        res = rho_exact(g)
        assert res.rho == rho_exhaustive(g).rho
        assert len(verify_ipf(g, res.witness.edges)) == res.rho


def test_pinned_node_counts():
    """Node counts of the search with the count + 1 bound; the last-path
    closure must change no count."""
    for n, nodes in ((10, 247), (12, 2580), (14, 38534)):
        assert sum(rho_exact(g).stats["nodes"]
                   for g in census_graphs(n)) == nodes
    res = rho_exact(random_connected_cubic(random.Random(24), 24))
    assert (res.rho, res.stats["nodes"]) == (2, 4166)


def test_pinned_census_witnesses():
    """The witness edge sets of the n=10 and n=12 census, recorded when the
    kernel still pruned with a longest-induced-path bound: dropping that
    bound only searches subtrees holding no strictly better cover, so no
    witness may change."""
    pinned = json.loads((DATA / "census_witnesses.json").read_text())
    assert len(pinned) == 19 + 85
    for code, edges in pinned.items():
        got = rho_exact(parse_graph6(code)).witness.edges
        assert sorted(map(list, got)) == edges, code


def test_exhaustive_cap_enforced():
    with pytest.raises(ValueError):
        rho_exhaustive(cycle(13))


def test_longest_induced_path_order():
    assert longest_induced_path_order(cycle(6)) == 5
    assert longest_induced_path_order(Graph(5, [(i, i + 1)
                                                for i in range(4)])) == 5
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert longest_induced_path_order(k4) == 2


def test_budget_truncation_reports_upper_bound():
    g = census_graphs(12)[0]
    full = rho_exact(g)
    res = rho_exact(g, node_limit=3)
    assert not res.optimal
    assert res.rho >= full.rho
    verify_ipf(g, res.witness.edges)


@pytest.fixture(params=["c", "python"])
def kernel(request):
    if request.param == "c":
        return request.getfixturevalue("kernel_c")
    return _kernel_py


def test_kernel_backends_bit_identical(kernel_c):
    """The compiled and pure-Python kernels must agree on the result, the
    witness edge set, and the explored node count (same branching order)."""
    rng = random.Random(23)
    hosts = census_graphs(8) + census_graphs(10)[:6] + census_graphs(12)
    hosts += [random_connected_subcubic(rng, rng.randrange(3, 12))
              for _ in range(25)]
    hosts += [random_connected_cubic(rng, n) for n in range(16, 25, 2)]
    hosts += CLOSURE_HOSTS
    for g in hosts:
        got_c = kernel_c.solve_min_ipf(g.n, g.adj_mask, 10 ** 8, 0)
        got_py = _kernel_py.solve_min_ipf(g.n, g.adj_mask, 10 ** 8, 0)
        assert got_c[0] == got_py[0]
        assert sorted(map(tuple, got_c[1])) == sorted(map(tuple, got_py[1]))
        assert got_c[2] == got_py[2]
        assert got_c[3] == got_py[3]


def test_kernel_backends_identical_under_budget(kernel_c):
    hosts = [census_graphs(12)[3],
             random_connected_cubic(random.Random(20), 20)]
    for g in hosts:
        for limit in (1, 5, 50, 500):
            got_c = kernel_c.solve_min_ipf(g.n, g.adj_mask, limit, 0)
            got_py = _kernel_py.solve_min_ipf(g.n, g.adj_mask, limit, 0)
            assert got_c[0] == got_py[0] and got_c[2] == got_py[2]
            assert (sorted(map(tuple, got_c[1]))
                    == sorted(map(tuple, got_py[1])))
            assert got_c[3] == got_py[3]


def test_kernel_time_budget(kernel):
    """This n=56 host takes the compiled kernel about 10 s to prove on a
    2-CPU Xeon: each kernel stops at the 0.3 s deadline, also inside path
    growth between two counted nodes, and still returns a valid IPF."""
    g = random_connected_cubic(random.Random(48), 56)
    t0 = time.monotonic()
    count, edges, _nodes, truncated = kernel.solve_min_ipf(
        g.n, g.adj_mask, 0, 0.3)
    assert truncated
    assert time.monotonic() - t0 < 2.0
    assert Ipf.from_edges(g, edges).path_count == count


def test_kernel_time_budget_inside_growth(kernel):
    """Vertex 0 pendant to a random 5-regular graph on 60 vertices: the
    branch vertex has one free neighbour, so the left-arm phase grows every
    induced path from it and closes none, and only the clock read during
    growth can stop it.  Without that read the compiled kernel runs about
    4 s on a 2-CPU Xeon; with it each kernel stops at the 0.3 s deadline
    after one counted node."""
    h = random_connected_regular(random.Random(1), 60, 5, tries=20000)
    g = Graph(61, [(0, 1)] + [(u + 1, v + 1) for u, v in h.sorted_edges()])
    t0 = time.monotonic()
    count, edges, nodes, truncated = kernel.solve_min_ipf(
        g.n, g.adj_mask, 0, 0.3)
    assert time.monotonic() - t0 < 1.0
    assert truncated and nodes == 1
    assert Ipf.from_edges(g, edges).path_count == count


def test_kernel_input_guard(kernel):
    with pytest.raises(ValueError):
        kernel.solve_min_ipf(63, (0,) * 63)
