"""Exact solvers: branch-and-bound vs the edge-subset oracle, kernel
backend parity, and budget handling."""

import json
import random
import time

import pytest

from ipfkit import (Graph, Ipf, IpfError, parse_graph6, rho_exact,
                    rho_exhaustive, verify_ipf)
from ipfkit.solver import SEEN_CAP, _bfs_order, longest_induced_path_order
from ipfkit import _kernel_py, solver
from ipfkit.constructive import ipf_cubic
from ipfkit.families import (bad_graph, fig1_subcubic, perfect_tree,
                             petersen, triangle_ring)

from conftest import (DATA, census_graphs, random_connected_bounded,
                      random_connected_cubic, random_connected_regular,
                      random_connected_subcubic)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


CLAW = Graph(4, [(0, 1), (0, 2), (0, 3)])


def relabel(g, order):
    """g with the vertex order[i] renamed i."""
    label = {u: i for i, u in enumerate(order)}
    return Graph(g.n, [(label[u], label[v]) for u, v in g.sorted_edges()])


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

K4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
K4_MINUS_EDGE = K4.without_edges([(0, 1)])

# Hosts where the end-count bound prunes, both inside growth and at the
# close, with every weight case taking part in a prune: end weight 1 at a
# degree-1 vertex, a triangle tip and a K4 corner (the last host holds the
# K4 1, 2, 3, 5), and weight 2 at an isolated vertex.
END_BOUND_HOSTS = [perfect_tree(3, 2), triangle_ring(9), triangle_ring(12),
                   fig1_subcubic(12)] + [
    union(*parts) for parts in (
        (K4, K4, K4), (K4, K4, path(3), path(1)),
        (K4_MINUS_EDGE, K4_MINUS_EDGE, path(1), path(1), path(1)),
        (cycle(5), path(1), path(1)), (CLAW, path(1), CLAW))] + [
    Graph(7, [(0, 1), (0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (1, 5), (2, 3),
              (2, 5), (2, 6), (3, 5), (4, 5)])]

# Family hosts whose search the end-count bound cuts most.
FAMILY_HOSTS = [triangle_ring(n) for n in range(12, 25, 3)] + [
    fig1_subcubic(n) for n in range(12, 25, 4)] + [
    perfect_tree(3, 3), bad_graph(12, (0,))]


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


def test_oracle_agreement_on_random_degree_4_and_5():
    """The counting identity that prunes the last two paths holds on every
    host, not only on subcubic ones."""
    rng = random.Random(31)
    for _ in range(150):
        g = random_connected_bounded(rng, rng.randrange(2, 13),
                                     rng.choice((4, 5)))
        res = rho_exact(g)
        assert res.rho == rho_exhaustive(g).rho
        assert len(verify_ipf(g, res.witness.edges)) == res.rho


def test_oracle_agreement_where_last_path_closes():
    for g in CLOSURE_HOSTS:
        res = rho_exact(g)
        assert res.rho == rho_exhaustive(g).rho
        assert len(verify_ipf(g, res.witness.edges)) == res.rho


def test_oracle_agreement_where_end_bound_prunes():
    for g in END_BOUND_HOSTS:
        res = rho_exact(g)
        assert res.rho == rho_exhaustive(g).rho
        assert len(verify_ipf(g, res.witness.edges)) == res.rho


def test_pinned_node_counts(kernel, monkeypatch):
    """Node counts of the search on the BFS relabelling, with the count + 1
    bound, the counting identity's prune of the last two paths and the
    end-count bound; the last-path closure, the stop at dead nodes and the
    skipped left arms must change no count.  The identity, the end-count
    bound and the seen-state table only drop children that cannot beat the
    incumbent, so no census host may take more nodes than the search
    without them took (``census_node_caps.json``, summing to 252, 2,569
    and 36,656).  Run on each twin, the compiled one built from the source
    in the tree."""
    monkeypatch.setattr(solver, "_kernel", kernel)
    caps = json.loads((DATA / "census_node_caps.json").read_text())
    for n, nodes in ((10, 109), (12, 626), (14, 5204)):
        got = [rho_exact(g).stats["nodes"] for g in census_graphs(n)]
        assert sum(got) == nodes
        assert len(got) == len(caps[str(n)])
        assert all(a <= b for a, b in zip(got, caps[str(n)])), n
    res = rho_exact(random_connected_cubic(random.Random(24), 24))
    assert (res.rho, res.stats["nodes"]) == (2, 65)


def test_search_scale_guard():
    """Two hosts the search on the BFS relabelling proves within 2,000
    nodes (809 and 1,186 nodes); on the input labelling the first takes
    5,858."""
    for n, rho in ((32, 3), (34, 2)):
        g = random_connected_cubic(random.Random(1000 * n), n)
        res = rho_exact(g, node_limit=2_000)
        assert res.optimal and res.rho == rho
        assert len(verify_ipf(g, res.witness.edges)) == rho


def test_pinned_census_witnesses(kernel, monkeypatch):
    """The witness edge sets of the n=10 and n=12 census, mapped back from
    the search on the BFS relabelling: the kernel's bounds and closures cut
    only subtrees holding no strictly better cover, so a change to them may
    move no witness.  Run on each twin."""
    monkeypatch.setattr(solver, "_kernel", kernel)
    pinned = json.loads((DATA / "census_witnesses.json").read_text())
    assert len(pinned) == 19 + 85
    for code, edges in pinned.items():
        got = rho_exact(parse_graph6(code)).witness.edges
        assert sorted(map(list, got)) == edges, code


def test_bfs_order_is_a_fixed_point():
    """A host already in its BFS order maps to the identity, so the helper
    applied twice equals it applied once."""
    assert _bfs_order(path(5)) == list(range(5))
    assert _bfs_order(cycle(6)) == [0, 1, 5, 2, 4, 3]
    rng = random.Random(5)
    hosts = census_graphs(10) + [random_connected_subcubic(
        rng, rng.randrange(1, 20)) for _ in range(30)] + CLOSURE_HOSTS
    for g in hosts:
        order = _bfs_order(g)
        assert sorted(order) == list(range(g.n))
        assert _bfs_order(relabel(g, order)) == list(range(g.n))


def test_bfs_order_of_small_and_disconnected_hosts():
    assert _bfs_order(Graph(0)) == []
    assert _bfs_order(Graph(1)) == [0]
    assert rho_exact(Graph(0)).rho == 0
    # components in the order of their lowest vertex, isolated ones too
    g = Graph(7, [(4, 1), (0, 5), (2, 6), (6, 3)])
    assert _bfs_order(g) == [0, 5, 1, 4, 2, 6, 3]
    res = rho_exact(g)
    assert res.rho == 3
    assert len(verify_ipf(g, res.witness.edges)) == 3


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


@pytest.mark.parametrize("budget", [{"node_limit": -1},
                                    {"node_limit": float("nan")},
                                    {"time_limit": -1.0},
                                    {"time_limit": float("nan")}])
def test_bad_budget_raises(budget):
    with pytest.raises(ValueError, match="must be at least 0"):
        rho_exact(cycle(5), **budget)


@pytest.fixture(params=["c", "python"])
def kernel(request):
    if request.param == "c":
        return request.getfixturevalue("kernel_c")
    return _kernel_py


def twins_agree(kernel_c, g, *args):
    """Run both kernels on g with the same arguments and check that they
    give the same count, witness edge set, node count and truncation."""
    got_c = kernel_c.solve_min_ipf(g.n, g.adj_mask, *args)
    got_py = _kernel_py.solve_min_ipf(g.n, g.adj_mask, *args)
    assert got_c[0] == got_py[0]
    assert sorted(map(tuple, got_c[1])) == sorted(map(tuple, got_py[1]))
    assert got_c[2] == got_py[2]
    assert got_c[3] == got_py[3]
    return got_py


def test_kernel_backends_bit_identical(kernel_c):
    """The compiled and pure-Python kernels must agree on the result, the
    witness edge set, and the explored node count (same branching order),
    on each host and on its BFS relabelling, which rho_exact searches:
    without the seen-state table, with it at full size and capped at three
    states, and from an upper bound of rho (nothing better to find) or of
    rho + 1.  The capped table must prune differently from both others on
    some host, so that its cap rule is part of the check."""
    rng = random.Random(23)
    hosts = census_graphs(8) + census_graphs(10)[:6] + census_graphs(12)
    hosts += [random_connected_subcubic(rng, rng.randrange(3, 12))
              for _ in range(25)]
    hosts += [random_connected_cubic(rng, n) for n in range(16, 25, 2)]
    hosts += [random_connected_bounded(rng, rng.randrange(3, 16), cap)
              for cap in (4, 5) for _ in range(15)]
    hosts += CLOSURE_HOSTS + END_BOUND_HOSTS + FAMILY_HOSTS
    hosts += [relabel(g, _bfs_order(g)) for g in hosts]
    cap_bites = False
    for g in hosts:
        rho, _edges, plain, _ = twins_agree(kernel_c, g, 10 ** 8, 0)
        full = twins_agree(kernel_c, g, 10 ** 8, 0, 0, SEEN_CAP)[2]
        capped = twins_agree(kernel_c, g, 10 ** 8, 0, 0, 3)[2]
        assert full <= capped <= plain
        cap_bites |= full < capped < plain
        count, edges, _nodes, _ = twins_agree(kernel_c, g, 10 ** 8, 0,
                                              rho, 3)
        assert count == rho and (edges == [] or rho == g.n)
        count, edges, _nodes, _ = twins_agree(kernel_c, g, 10 ** 8, 0,
                                              rho + 1, SEEN_CAP)
        assert count == rho
        assert Ipf.from_edges(g, edges).path_count == rho
    assert cap_bites


def test_kernel_backends_identical_under_budget(kernel_c):
    rng = random.Random(29)
    hosts = [census_graphs(12)[3],
             random_connected_cubic(random.Random(20), 20),
             random_connected_bounded(rng, 16, 4),
             random_connected_bounded(rng, 18, 5)] + FAMILY_HOSTS
    for g in hosts:
        for limit in (1, 5, 50, 500):
            twins_agree(kernel_c, g, limit, 0)
            for seen_cap in (3, SEEN_CAP):
                twins_agree(kernel_c, g, limit, 0, g.n // 3 + 1, seen_cap)


def test_kernel_time_budget(kernel):
    """This n=62 host takes the compiled kernel about 14 s to prove on a
    2-CPU Xeon: each kernel stops at the 0.3 s deadline, also inside path
    growth between two counted nodes, and still returns a valid IPF."""
    g = random_connected_cubic(random.Random(48023), 62)
    t0 = time.monotonic()
    count, edges, _nodes, truncated = kernel.solve_min_ipf(
        g.n, g.adj_mask, 0, 0.3, 0, SEEN_CAP)
    assert truncated
    assert time.monotonic() - t0 < 2.0
    assert Ipf.from_edges(g, edges).path_count == count


def test_kernel_time_budget_inside_growth(kernel):
    """Three induced paths 0..19, 20..39 and 40..61 with random edges
    between different paths, none at the ends 0, 19, 20 and 39, up to
    degree 7.  The first three counted nodes close the three paths in turn,
    so the incumbent is 3 at once.  To rule out 2 paths, the root then
    grows every induced path from vertex 0, and the counting identity drops
    each close uncounted, so only the clock read during growth can stop
    it.  Without that read the compiled kernel runs about 1.5 s on a 2-CPU
    Xeon; with it each kernel stops at the 0.3 s deadline after three
    counted nodes."""
    rng = random.Random(13)
    part = [min(v // 20, 2) for v in range(62)]
    edges = [(v, v + 1) for v in range(61) if part[v] == part[v + 1]]
    deg = [0] * 62
    for e in edges:
        for u in e:
            deg[u] += 1
    pairs = [(u, v) for u in range(62) for v in range(u + 1, 62)
             if part[u] != part[v] and not {u, v} & {0, 19, 20, 39}]
    rng.shuffle(pairs)
    for u, v in pairs:
        if deg[u] < 7 and deg[v] < 7:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    g = Graph(62, edges)
    t0 = time.monotonic()
    count, edges, nodes, truncated = kernel.solve_min_ipf(
        g.n, g.adj_mask, 0, 0.3, 0, SEEN_CAP)
    assert time.monotonic() - t0 < 1.0
    assert truncated and nodes == 3
    assert Ipf.from_edges(g, edges).path_count == count


def test_left_arm_without_right_start_is_not_grown(kernel):
    """A triangle 0, 1, 2 with vertex 1 joined to a random 6-regular graph
    on 58 vertices.  A left arm from 1 can get no right arm, because the
    chord 1-2 blocks the only start (2), so it closes nothing and is not
    grown.  Grown, it holds every induced path from 1 into that graph:
    about 0.85 s of the compiled kernel on a 2-CPU Xeon before the third
    counted node, which each kernel now reaches at once."""
    h = random_connected_regular(random.Random(1), 58, 6, tries=20000)
    g = Graph(61, [(0, 1), (0, 2), (1, 2), (1, 3)]
              + [(u + 3, v + 3) for u, v in h.sorted_edges()])
    t0 = time.monotonic()
    count, edges, nodes, truncated = kernel.solve_min_ipf(
        g.n, g.adj_mask, 2, 2.0, 0, SEEN_CAP)
    assert time.monotonic() - t0 < 0.25
    assert truncated and nodes == 3
    assert Ipf.from_edges(g, edges).path_count == count


@pytest.mark.parametrize("g, rho, nodes", [
    (perfect_tree(3, 4), 11, 1308), (triangle_ring(30), 10, 422),
    (triangle_ring(60), 20, 6507), (bad_graph(18, (0, 2, 4)), 12, 8538)])
def test_end_bound_proves_high_rho_hosts(kernel, g, rho, nodes):
    """Hosts with rho n/3 and more, where the count + 1 bound alone makes
    the search enumerate nearly every induced path (110M and 1.1M nodes
    on the first two).  The end-count bound cut those two to 2,166 and
    22,314 nodes, and the same covered set still came back from many
    orders of the paths before it; with the seen-state table as well each
    kernel proves all four on the BFS relabelling in the pinned number of
    nodes (the last two took 2.7M nodes and no proof in 20 s before)."""
    h = relabel(g, _bfs_order(g))
    count, edges, got, truncated = kernel.solve_min_ipf(
        h.n, h.adj_mask, 4 * nodes, 0, 0, SEEN_CAP)
    assert (count, got, truncated) == (rho, nodes, False)
    assert Ipf.from_edges(h, edges).path_count == rho


def test_kernel_input_guard(kernel):
    with pytest.raises(ValueError):
        kernel.solve_min_ipf(63, (0,) * 63)


def test_incumbent_is_the_witness_when_optimal():
    """Seeded with an optimal IPF the search finds nothing better and
    hands the incumbent back; seeded with a worse one it returns its own
    witness.  rho is that of the unseeded search either way."""
    for g in census_graphs(10) + census_graphs(12)[:20]:
        plain = rho_exact(g)
        res = rho_exact(g, incumbent=plain.witness)
        assert res.witness is plain.witness
        assert (res.rho, res.optimal) == (plain.rho, True)
        one_edge = Ipf.from_edges(g, g.sorted_edges()[:1])
        res = rho_exact(g, incumbent=one_edge)
        assert (res.rho, res.optimal) == (plain.rho, True)
        assert res.witness is not one_edge
        assert len(verify_ipf(g, res.witness.edges)) == plain.rho
    # an equal host, not the same object, is the same host
    g = census_graphs(10)[0]
    ipf = rho_exact(g).witness
    assert rho_exact(Graph(g.n, g.edges), incumbent=ipf).witness is ipf


def test_incumbent_under_node_limit_stays_honest():
    """Under a node budget the seeded search returns the incumbent or
    better, and claims optimality only for the true rho."""
    for g in census_graphs(12):
        rho = rho_exact(g).rho
        cert = ipf_cubic(g).ipf
        for limit in (1, 2, 5, 20):
            res = rho_exact(g, node_limit=limit, incumbent=cert)
            assert rho <= res.rho <= cert.path_count
            assert not res.optimal or res.rho == rho
            assert len(verify_ipf(g, res.witness.edges)) == res.rho


def test_incumbent_of_another_host_raises():
    g = petersen()
    other = Ipf.from_edges(cycle(10), [(0, 1)])
    with pytest.raises(ValueError, match="another host"):
        rho_exact(g, incumbent=other)
    with pytest.raises(ValueError, match="another host"):
        rho_exact(cycle(9), incumbent=Ipf.from_edges(cycle(10), []))
    # an unchecked Ipf is verified before it can become the witness
    with pytest.raises(IpfError, match="cycle"):
        rho_exact(cycle(5), incumbent=Ipf(cycle(5), frozenset(
            cycle(5).edges)))
    # one edge written both ways counts twice in path_count: 1 path, where
    # rho is 2, would be reported optimal
    g = Graph(3, [(0, 1)])
    assert rho_exhaustive(g).rho == 2
    with pytest.raises(IpfError) as exc:
        rho_exact(g, incumbent=Ipf(g, frozenset({(0, 1), (1, 0)})))
    assert exc.value.kind == "edges"
