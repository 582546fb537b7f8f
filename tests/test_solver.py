"""Exact solvers: branch-and-bound vs the edge-subset oracle, kernel
backend parity, and budget handling."""

import dataclasses
import gc
import json
import random
import signal
import time
from types import SimpleNamespace

import pytest

from ipfkit import (Graph, Ipf, IpfError, SolveResult, parse_graph6,
                    rho_exact, rho_exhaustive, verify_ipf, write_graph6)
from ipfkit.bounds import census
from ipfkit.solver import (SEEN_CAP, _bfs_order, _greedy_cover,
                           _lower_bound, longest_induced_path_order)
from ipfkit import _kernel_py, solver
from ipfkit.constructive import ipf_cubic
from ipfkit.families import (bad_graph, c4_binary_tree, fig1_subcubic,
                             perfect_tree, petersen, triangle_ring)

from conftest import (DATA, census_graphs, cycle, path,
                      random_connected_bounded, random_connected_cubic,
                      random_connected_regular, random_connected_subcubic)


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


def test_solve_result_reads_rho_from_its_witness():
    assert [f.name for f in dataclasses.fields(SolveResult)] == [
        "witness", "method", "optimal", "stats"]
    for solve in (rho_exact, rho_exhaustive):
        res = solve(petersen())
        assert res.rho == res.witness.path_count == 3
        assert res.to_json_fragment()["rho"] == 3


def test_a_kernel_count_its_edges_miss_is_caught(monkeypatch):
    """A kernel that reports 2 paths with the edges of a 3-path cover of
    Petersen would make rho_exact prove rho = 2 at its first probe; the
    check that the witness has the kernel's count stops it."""
    real = solver._kernel.solve_min_ipf
    counts = []

    def short_count(n, adj, node_limit, time_limit, upper, cap, lower):
        count, edges, used, truncated = real(n, adj, node_limit, time_limit,
                                             n, cap, lower)
        counts.append(count)
        return count - 1, edges, used, truncated
    monkeypatch.setattr(solver._kernel, "solve_min_ipf", short_count)
    with pytest.raises(AssertionError):
        rho_exact(petersen())
    assert counts == [3]


def agrees_with_the_oracle(g):
    """rho_exact, which probes levels L and L + 1 before any open search,
    against rho_exhaustive; its stats name the probed levels, the
    certified lower bound is rho once optimal, and only a host with
    rho >= L + 2 runs the open search, which it returns."""
    res = rho_exact(g)
    assert res.optimal and res.rho == rho_exhaustive(g).rho
    assert len(verify_ipf(g, res.witness.edges)) == res.rho
    low = _lower_bound(g)
    levels = [t for t, _ in res.stats["probes"]]
    assert levels == ([] if g.n <= low
                      else list(range(low, min(res.rho, low + 1) + 1)))
    assert res.stats["lower"] == res.rho
    probed = sum(nodes for _, nodes in res.stats["probes"])
    assert probed <= res.stats["nodes"]
    assert res.rho >= low + 2 or probed == res.stats["nodes"]
    return res.rho >= low + 2


def test_oracle_agreement_on_census():
    for n in (4, 6, 8, 10, 12):
        for g in census_graphs(n):
            agrees_with_the_oracle(g)


def test_oracle_agreement_on_random_subcubic():
    rng = random.Random(7)
    for _ in range(60):
        agrees_with_the_oracle(random_connected_subcubic(
            rng, rng.randrange(2, 10)))


def test_oracle_agreement_on_disconnected_hosts_and_paths():
    rng = random.Random(41)
    for _ in range(40):
        agrees_with_the_oracle(union(*(
            random_connected_subcubic(rng, rng.randrange(1, 5))
            for _ in range(rng.randrange(2, 4)))))
    for n in range(13):
        agrees_with_the_oracle(path(n))


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
    """triangle_ring(12) (rho 4) and fig1_subcubic(12) (rho 5), with
    L = 2, also run the open search after both probes."""
    assert [agrees_with_the_oracle(g) for g in END_BOUND_HOSTS].count(
        True) == 2


def test_pinned_node_counts(kernel, monkeypatch):
    """Node counts of the search on the BFS relabelling, summed over the
    level probes and the open search, with the count + 1 bound, the
    counting identity's prune of the last two paths and the end-count
    bound; the last-path closure and the skipped left arms must change no
    count.  The identity, the end-count bound and
    the seen-state table only drop children that cannot beat the
    incumbent, so no census host may take more nodes than the search
    without them took (``census_node_caps.json``, summing to 252, 2,569
    and 36,656).  A probe that refutes its level adds its nodes to the
    next call's, so under the probes that cap is checked here, not
    proved.  The probe of level 2 from an upper bound of 3 cut the sums
    from 109, 626 and 5,204, and the n=24 host from 65 nodes.  Run on
    each twin, the compiled one built from the source in the tree."""
    monkeypatch.setattr(solver, "_kernel", kernel)
    caps = json.loads((DATA / "census_node_caps.json").read_text())
    for n, nodes in ((10, 44), (12, 254), (14, 1959)):
        got = [rho_exact(g).stats["nodes"] for g in census_graphs(n)]
        assert sum(got) == nodes
        assert len(got) == len(caps[str(n)])
        assert all(a <= b for a, b in zip(got, caps[str(n)])), n
    res = rho_exact(random_connected_cubic(random.Random(24), 24))
    assert (res.rho, res.stats["nodes"]) == (2, 3)


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
    the search on the BFS relabelling.  The witness is the first cover with
    rho paths in the kernel's fixed enumeration order: the kernel's bounds
    and closures cut only subtrees holding no strictly better cover, and a
    level probe's tighter upper bound cuts only subtrees without a cover of
    its level.  So neither may move a witness, and the level probes of
    ``rho_exact`` moved none.  Run on each twin."""
    monkeypatch.setattr(solver, "_kernel", kernel)
    pinned = json.loads((DATA / "census_witnesses.json").read_text())
    assert len(pinned) == 19 + 85
    for code, edges in pinned.items():
        got = rho_exact(parse_graph6(code)).witness.edges
        assert sorted(map(list, got)) == edges, code


def test_node_budget_beyond_64_bits_is_no_node_budget(kernel, monkeypatch):
    """A node budget above 2**63 - 1, more than the compiled kernel takes,
    gives the answer of no node budget.  Run on each twin."""
    monkeypatch.setattr(solver, "_kernel", kernel)
    for g in [petersen()] + census_graphs(12):
        want, got = rho_exact(g), rho_exact(g, node_limit=10**20)
        assert (got.rho, got.witness.edges, got.stats["nodes"]) == \
            (want.rho, want.witness.edges, want.stats["nodes"])


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
    """The probe of level 2 proves this host in 3 nodes; a budget of 1
    cuts that probe, which held no cover yet, so a greedy cover comes
    back, not optimal."""
    g = census_graphs(12)[0]
    full = rho_exact(g)
    assert (full.rho, full.stats["nodes"]) == (2, 3)
    res = rho_exact(g, node_limit=1)
    assert not res.optimal
    assert res.rho >= full.rho
    verify_ipf(g, res.witness.edges)


@pytest.mark.parametrize("limit, nodes", [(1, 1), (2, 3), (3, 4)])
def test_budget_cut_before_any_cover_returns_a_greedy_cover(limit, nodes):
    """Petersen, rho 3 over L = 2, holds no cover after 1, 3 or 4 nodes:
    the probe of level 2 ends within the first node and raises L to 3,
    and the budget ends before the probe of level 3 holds a cover.
    Instead of the 10 one-vertex paths,
    the greedy cover comes back; it has 3 paths, so it meets L and is
    optimal."""
    g = petersen()
    res = rho_exact(g, node_limit=limit)
    greedy = Ipf.from_paths(g, _greedy_cover(g))
    assert res.witness.edges == greedy.edges
    assert (res.rho, res.optimal, res.stats["lower"], res.stats["nodes"]) \
        == (3, True, 3, nodes)


def test_greedy_cover_is_an_ipf():
    """Every path the greedy grows is induced, and the paths cover g."""
    rng = random.Random(11)
    graphs = [g for n in (4, 6, 8, 10) for g in census_graphs(n)]
    graphs += [random_connected_bounded(rng, rng.randrange(1, 30), 5)
               for _ in range(200)]
    graphs += [Graph(5, [(0, 1), (2, 3)]), Graph(0)]
    for g in graphs:
        paths = _greedy_cover(g)
        assert sorted(v for p in paths for v in p) == list(range(g.n))
        assert len(verify_ipf(g, Ipf.from_paths(g, paths).edges)) \
            == len(paths)


@pytest.mark.parametrize("budget", [{"node_limit": -1},
                                    {"node_limit": float("nan")},
                                    {"time_limit": -1.0},
                                    {"time_limit": float("nan")},
                                    {"time_limit": None},
                                    {"time_limit": "1"},
                                    {"time_limit": True}])
def test_bad_budget_raises(budget):
    with pytest.raises(ValueError, match="must be at least 0"):
        rho_exact(cycle(5), **budget)


@pytest.fixture(params=["c", "python"])
def kernel(request):
    if request.param == "c":
        return request.getfixturevalue("kernel_c")
    return _kernel_py


@pytest.mark.parametrize("limit", [2.5, 3.0, "3", None, True])
def test_node_budget_must_be_an_int(kernel, monkeypatch, limit):
    """A node budget that is not an int is refused before any search, by
    rho_exact and by census; run on each twin."""
    calls = []

    def solve_min_ipf(*args):
        calls.append(args)
        return kernel.solve_min_ipf(*args)
    monkeypatch.setattr(solver, "_kernel",
                        SimpleNamespace(solve_min_ipf=solve_min_ipf))
    with pytest.raises(ValueError, match="node budget an integer"):
        rho_exact(petersen(), node_limit=limit)
    with pytest.raises(ValueError, match="node budget an integer"):
        census([write_graph6(petersen())], mode="exact_rho", node_limit=limit)
    assert calls == []
    assert rho_exact(petersen(), node_limit=3).rho == 3 and calls


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
    states, from an upper bound of rho (nothing better to find) or of
    rho + 1, and with a lower bound of 0, rho - 1 or rho.  The capped
    table must prune differently from both others on some host, so that
    its cap rule is part of the check.  A lower bound that no cover meets
    (0 or rho - 1) changes nothing; at rho the search stops at its first
    optimal cover, with the same witness and no more nodes."""
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
        got = twins_agree(kernel_c, g, 10 ** 8, 0, 0, SEEN_CAP)
        full = got[2]
        for lower in (0, rho - 1):
            assert twins_agree(kernel_c, g, 10 ** 8, 0, 0, SEEN_CAP,
                               lower) == got
        count, edges, nodes, _ = twins_agree(kernel_c, g, 10 ** 8, 0, 0,
                                             SEEN_CAP, rho)
        assert (count, sorted(edges), nodes <= full) == (
            rho, sorted(got[1]), True)
        capped = twins_agree(kernel_c, g, 10 ** 8, 0, 0, 3)[2]
        assert full <= capped <= plain
        cap_bites |= full < capped < plain
        for lower in (0, rho - 1):
            count, edges, _nodes, _ = twins_agree(kernel_c, g, 10 ** 8, 0,
                                                  rho, 3, lower)
            assert count == rho and (edges == [] or rho == g.n)
        for lower in (0, rho):
            count, edges, _nodes, _ = twins_agree(kernel_c, g, 10 ** 8, 0,
                                                  rho + 1, SEEN_CAP, lower)
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
                twins_agree(kernel_c, g, limit, 0, g.n // 3 + 1, seen_cap,
                            g.n // 3)


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


@pytest.mark.parametrize("limit", [1, 50, 5000])
def test_node_limit_alone_stops_at_once(kernel, limit):
    """A node limit with no time limit ends path growth as soon as it is
    hit, and the search returns what it returns under a 60 s time limit,
    which the Python twin's result pins for both twins.  On this n=60
    host, growth that ran on past the limit took the compiled kernel about
    2 s and the Python twin minutes; the 1 s allowance is on top of the
    time the same search takes under the time limit."""
    g = random_connected_cubic(random.Random(60001), 60)
    g = relabel(g, _bfs_order(g))
    args = (g.n, g.adj_mask, limit)
    t0 = time.monotonic()
    pinned = _kernel_py.solve_min_ipf(*args, 60, 0, SEEN_CAP)
    t1 = time.monotonic()
    count, edges, nodes, truncated = kernel.solve_min_ipf(*args, 0, 0,
                                                          SEEN_CAP)
    assert time.monotonic() - t1 < t1 - t0 + 1.0
    assert (count, sorted(map(tuple, edges)), nodes, truncated) == (
        pinned[0], sorted(pinned[1]), *pinned[2:])
    assert pinned[2:] == (limit + 1, True)


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


class Alarm(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "setitimer"),
                    reason="needs POSIX interval timers")
def test_raising_signal_handler_stops_the_search(kernel):
    """A signal handler that raises, as Ctrl-C's does, ends the search
    with its exception, with no time limit set.  The compiled kernel used
    to call into Python only to read the clock, which runs no handlers, so
    it ran on to its node limit first (4.5 s for these 20M nodes on a
    shared 2-CPU machine) before the exception came.

    A handler that runs inside a garbage collector callback written in
    Python, such as the one hypothesis installs, has its exception
    reported as unraisable and dropped by the interpreter, so the Python
    twin would run on to its node limit: the callbacks are set aside
    while the search runs."""
    g = c4_binary_tree(3)
    g = relabel(g, _bfs_order(g))

    def ring(signum, frame):
        raise Alarm

    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    old = signal.signal(signal.SIGALRM, ring)
    try:
        t0 = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(Alarm):
            kernel.solve_min_ipf(g.n, g.adj_mask, 20_000_000)
        assert time.monotonic() - t0 < 1.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        gc.callbacks[:] = callbacks


def test_kernel_input_guard(kernel):
    with pytest.raises(ValueError, match="^kernel supports at most 62 "
                                         "vertices$"):
        kernel.solve_min_ipf(63, (0,) * 63)
    with pytest.raises(ValueError, match="lower"):
        kernel.solve_min_ipf(3, (0,) * 3, 0, 0.0, 0, 0, -1)


@pytest.mark.parametrize("negative", ["upper", "seen_cap", "lower"])
def test_kernel_refuses_each_negative_bound(kernel, negative):
    with pytest.raises(ValueError, match="^upper, seen_cap and lower must "
                                         "be at least 0$"):
        kernel.solve_min_ipf(3, (0,) * 3, **{negative: -1})


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


def test_lower_bound():
    """One path per component, two for one that is not an induced path."""
    assert _lower_bound(Graph(0)) == 0
    assert _lower_bound(path(1)) == _lower_bound(path(7)) == 1
    assert _lower_bound(cycle(3)) == _lower_bound(CLAW) == 2
    assert _lower_bound(Graph(3)) == 3
    assert _lower_bound(union(path(3), cycle(4), path(1), CLAW)) == 6


def test_incumbent_at_the_lower_bound_skips_the_kernel(monkeypatch):
    """An incumbent with L paths is optimal as it stands: the census hosts
    whose certificate has 2 paths, and a disconnected host covered by one
    path per component."""
    def no_kernel(*args):
        raise AssertionError("kernel called")
    monkeypatch.setattr(solver, "_kernel",
                        SimpleNamespace(solve_min_ipf=no_kernel))
    certs = [ipf_cubic(g).ipf for g in census_graphs(10)]
    g = union(path(3), path(1), cycle(4))
    certs = [c for c in certs if c.path_count == 2] + [
        Ipf.from_edges(g, [(0, 1), (1, 2), (4, 5), (6, 7)])]
    assert len(certs) > 5
    for cert in certs:
        res = rho_exact(cert.host, incumbent=cert)
        assert res.witness is cert and res.optimal
        assert res.stats["nodes"] == 0 and res.stats["probes"] == []


class RecordingKernel:
    """The Python twin, recording the budgets of each call and its node
    count, and advancing a fake clock, if given, by one second per call."""

    def __init__(self, clock=None):
        self.calls = []
        self.clock = clock

    def solve_min_ipf(self, n, adj, node_limit, time_limit, *rest):
        out = _kernel_py.solve_min_ipf(n, adj, node_limit, time_limit, *rest)
        self.calls.append((node_limit, time_limit, out[2]))
        if self.clock is not None:
            self.clock.now += 1.0
        return out


def test_node_budget_is_shared_across_probes(monkeypatch):
    """triangle_ring(12), rho 4 over L = 2, takes 1, 10 and 4 nodes in its
    two probes and the open search.  Each call gets what the earlier ones
    left, and none gets 0, which would mean no limit: a budget used up by
    the first probe ends the search there, with L raised to 3.  A call cut
    by the budget returns a verified IPF, optimal only when it meets L:
    cut at its third node, the open search holds no cover, and the greedy
    cover returned instead has the 4 paths the probes proved."""
    g = triangle_ring(12)
    kern = RecordingKernel()
    monkeypatch.setattr(solver, "_kernel", kern)
    res = rho_exact(g, node_limit=15)
    assert (res.rho, res.optimal, res.stats["nodes"]) == (4, True, 15)
    assert [(lim, nodes) for lim, _, nodes in kern.calls] == [
        (15, 1), (14, 10), (4, 4)]
    assert res.stats["probes"] == [[2, 1], [3, 10]]
    for limit, calls, nodes, lower, optimal in ((1, 1, 1, 3, False),
                                                (6, 2, 7, 3, False),
                                                (14, 3, 15, 4, True)):
        kern.calls.clear()
        res = rho_exact(g, node_limit=limit)
        assert len(kern.calls) == calls
        assert all(lim > 0 for lim, _, _ in kern.calls)
        assert (res.optimal, res.stats["nodes"]) == (optimal, nodes)
        assert res.stats["lower"] == lower
        assert len(verify_ipf(g, res.witness.edges)) == res.rho >= 4


def test_time_budget_is_shared_across_probes(monkeypatch):
    """One deadline covers all calls: with a clock that advances one second
    per kernel call, each call gets the time the earlier ones left, and a
    deadline reached between calls ends the search; the greedy cover it
    returns, holding no cover of its own, is optimal only when it meets
    the level the probes proved."""
    clock = SimpleNamespace(now=100.0)
    monkeypatch.setattr(solver, "time",
                        SimpleNamespace(monotonic=lambda: clock.now))
    kern = RecordingKernel(clock)
    monkeypatch.setattr(solver, "_kernel", kern)
    g = triangle_ring(12)
    res = rho_exact(g, time_limit=2.5)
    assert res.optimal and res.rho == 4
    assert [lim for _, lim, _ in kern.calls] == [2.5, 1.5, 0.5]
    kern.calls.clear()
    res = rho_exact(g, time_limit=2.0)
    assert [lim for _, lim, _ in kern.calls] == [2.0, 1.0]
    assert res.optimal and (res.rho, res.stats["lower"]) == (4, 4)
    kern.calls.clear()
    res = rho_exact(g, time_limit=1.0)
    assert [lim for _, lim, _ in kern.calls] == [1.0]
    assert not res.optimal and res.stats["lower"] == 3
    assert len(verify_ipf(g, res.witness.edges)) == res.rho == 4


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
