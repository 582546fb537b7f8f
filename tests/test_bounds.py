"""Closed-form bounds, glue lower bounds, and the census harness."""

from fractions import Fraction

import pytest

from ipfkit import (
    Graph, GraphError, Ipf, block_decomposition, census, ck_lower,
    ck_lower_report, glue_lower_bound, parse_graph6, rho_exact, rho_tree,
    rho_tree_recurrence, write_graph6,
)
from ipfkit import bounds, constructive
from ipfkit.families import (
    c4_binary_tree, even_k_glued_cycle, fig1_subcubic, odd_k_glued_tree,
    perfect_tree, petersen, subdivided_complete, triangle_ring,
)

from conftest import CENSUS_COUNTS, census_path


def test_tree_formula_values():
    assert rho_tree(3, 0) == 1
    assert rho_tree(3, 2) == 3
    assert rho_tree(4, 1) == 2
    assert rho_tree_recurrence(3, 3) == rho_tree(3, 3)


def test_tree_formula_matches_recurrence_widely():
    for k in range(3, 11):
        for h in range(0, 13):
            assert rho_tree(k, h) == rho_tree_recurrence(k, h)


def test_tree_formula_matches_exact_solver():
    for k, hs in ((3, range(4)), (4, range(3)), (5, range(2))):
        for h in hs:
            t = perfect_tree(k, h)
            assert rho_tree(k, h) == rho_exact(t).rho


def test_family_values_match_exact_solver():
    """The paper's extremal values at n=24, proved by the exact solver:
    a triangle ring needs n/3 paths and the Fig. 1 graph ceil(3n/8)."""
    assert rho_exact(triangle_ring(24)).rho == 24 // 3
    assert rho_exact(fig1_subcubic(24)).rho == -(-3 * 24 // 8)


def test_ck_lower_values():
    assert ck_lower(3) == Fraction(5, 18)
    assert ck_lower(4) == Fraction(3, 7)
    assert ck_lower(5) == Fraction(39, 100)
    for k in (6, 8, 10):
        assert ck_lower(k) == Fraction(1, 2) - Fraction(1, 2 * k - 2)
    assert ck_lower(7) == Fraction(1, 2) - Fraction(17, 294)
    with pytest.raises(ValueError):
        ck_lower(2)


def test_ck_lower_below_half_and_monotone_by_parity():
    for k in range(3, 30):
        assert ck_lower(k) < Fraction(1, 2)
    for k in range(5, 28, 2):
        assert ck_lower(k) <= ck_lower(k + 2)
    for k in range(6, 28, 2):
        assert ck_lower(k) <= ck_lower(k + 2)


def test_ck_lower_report_formula_names():
    assert ck_lower_report(3).formula == "ck_c3"
    assert ck_lower_report(4).formula == "ck_c4"
    assert ck_lower_report(5).formula == "ck_odd"
    assert ck_lower_report(6).formula == "ck_even"
    doc = ck_lower_report(4).to_json()
    assert doc["value"] == "3/7"


def test_glue_lower_bound_subdivided_k5():
    g = subdivided_complete(5)
    assert glue_lower_bound(g, [set(range(g.n))]) == 3


@pytest.mark.parametrize("m", [*range(3, 14), 20, 40, 61])
def test_glue_lower_bound_subdivided_complete(m):
    # a subdivided K_m needs ceil(m/2) paths, and rho_exact proves it up
    # to the graph6 limit of 62 vertices
    g = subdivided_complete(m)
    assert glue_lower_bound(g, [set(range(g.n))]) == (m + 1) // 2


@pytest.mark.parametrize("host, bound", [
    (odd_k_glued_tree(3, 3), 9),
    (c4_binary_tree(3), 24),
    (odd_k_glued_tree(5, 1), 17),
    (even_k_glued_cycle(4, 6), 14),
], ids=["odd_k_glued_tree(3,3)", "c4_binary_tree(3)",
        "odd_k_glued_tree(5,1)", "even_k_glued_cycle(4,6)"])
def test_glue_lower_bound_over_blocks_and_bridges(host, bound):
    # each block and each bridge is one component
    dec = block_decomposition(host)
    comps = [set(b) for b in dec.blocks] + [set(e) for e in dec.bridges]
    assert glue_lower_bound(host, comps) == bound


def test_glue_lower_bound_fig1():
    g = fig1_subcubic(16)
    comps = [set(range(4))]
    for v in range(4):
        a = 4 + 3 * v
        comps.append({v, a, a + 1, a + 2})
    assert glue_lower_bound(g, comps) >= 6
    assert rho_exact(g).rho == 6


def test_glue_lower_bound_star_of_paths():
    # two 3-vertex paths sharing their midpoint: the bound is valid but
    # far from tight (actual value is 3)
    g = Graph(5, [(0, 2), (2, 1), (3, 2), (2, 4)])
    bound = glue_lower_bound(g, [{0, 2, 1}, {3, 2, 4}])
    assert bound == 1
    assert rho_exact(g).rho == 3
    assert bound <= 3


def test_glue_lower_bound_validates_decomposition():
    g = triangle_ring(6)
    with pytest.raises(GraphError):
        glue_lower_bound(g, [set(range(3))])  # does not cover
    with pytest.raises(GraphError):
        glue_lower_bound(g, [set(range(5)), {4, 5, 0}])  # 2-vertex overlap


def test_glued_tree_ratio_trend():
    # certified bounds are (5*2^h + (-1)^h)/3 on 6*2^h - 1 vertices; the
    # ratio oscillates with the parity of h around its limit 5/18, so the
    # trend check is on the bound itself plus closeness of the ratio
    prev = 0
    for h in (1, 2, 3):
        g = odd_k_glued_tree(3, h)
        comps = []
        tree_n = perfect_tree(3, h).n
        comps.append(set(range(tree_n)))
        nxt = tree_n
        leaves = [v for v in range(tree_n) if v >= tree_n - 2 ** h]
        for leaf in leaves:
            comps.append({leaf} | set(range(nxt, nxt + 4)))
            nxt += 4
        bound = glue_lower_bound(g, comps)
        assert bound == (5 * 2 ** h + (-1) ** h) // 3
        assert bound >= prev
        ratio = Fraction(bound, g.n)
        assert ratio > Fraction(5, 18) - Fraction(1, g.n)
        prev = bound


def test_census_petersen_clean():
    rep = census([write_graph6(petersen())])
    assert rep.graphs_processed == 1
    assert not rep.violations
    assert rep.n_to_max_rho == {10: 3}
    doc = rep.to_json()
    assert doc["violations"] == []


def test_census_skips_and_errors():
    # "?" is the null graph: vacuously 3-regular, but no cubic graph
    lines = [write_graph6(petersen()), "not graph6 %%%",
             write_graph6(triangle_ring(6)), "", "?"]
    rep = census(lines, mode="exact_rho")
    assert rep.graphs_processed == 1
    assert rep.skipped == 2  # the triangle ring and "?" are not cubic
    assert len(rep.errors) == 1


def test_census_reports_an_overlong_construction(monkeypatch):
    # one-vertex paths everywhere: n > (n-1)/3 paths on every host
    def overlong(g):
        return Ipf.from_edges(g, set()), ["two-factor"]
    monkeypatch.setattr(constructive, "_cubic_recurse", overlong)
    g6 = write_graph6(petersen())
    rep = census([g6], mode="verify_theorem")
    assert rep.graphs_processed == 1
    (violation,) = rep.violations
    assert violation["line"] == 1 and violation["graph6"] == g6
    assert violation["detail"] == ("construction failed: cubic construction "
                                   "used 10 paths, allowed 3")
    assert rep.n_to_max_rho == {}


def test_census_file_parallel_matches_serial():
    lines = census_path(10).read_text().splitlines()
    serial = census(lines, mode="verify_theorem")
    parallel = census(lines, mode="verify_theorem", jobs=2)
    assert serial.graphs_processed == parallel.graphs_processed == 19
    assert not serial.violations and not parallel.violations
    assert serial.to_json() == parallel.to_json()


def test_census_budget_exhaustion_reported():
    """A budget of one node cuts the first level probe on every host (a
    host with rho 2 takes at least the root and the child that closes
    it)."""
    lines = census_path(12).read_text().splitlines()[:4]
    rep = census(lines, mode="exact_rho", node_limit=1)
    assert rep.budget_exhausted == 4
    assert not rep.violations


@pytest.mark.parametrize("kwargs", [{"mode": "neither"}, {"node_limit": -1},
                                    {"time_limit": -1.0},
                                    {"time_limit": float("nan")},
                                    {"jobs": 0}, {"jobs": -2}])
def test_census_bad_arguments_raise_before_reading(kwargs):
    def lines():
        raise AssertionError("input read despite a bad argument")
        yield
    with pytest.raises(ValueError):
        census(lines(), **kwargs)


def test_census_empty_input():
    rep = census([])
    assert rep.graphs_processed == 0 and not rep.errors


def _unseeded(monkeypatch):
    """Make census call rho_exact without the certificate as incumbent."""
    def rho_exact_unseeded(g, node_limit, time_limit, incumbent=None):
        return rho_exact(g, node_limit, time_limit)
    monkeypatch.setattr(bounds, "rho_exact", rho_exact_unseeded)


@pytest.mark.parametrize("mode", ["verify_theorem", "exact_rho", "both"])
def test_census_seeding_changes_no_report(mode, monkeypatch):
    """Mode both seeds the exact search with the certificate; the reports
    on the n=4..14 census stay those of the unseeded search, serial and in
    a pool."""
    lines = [line for n in CENSUS_COUNTS
             for line in census_path(n).read_text().splitlines()]
    seeded = [census(lines, mode=mode, jobs=jobs).to_json()
              for jobs in (1, 2)]
    _unseeded(monkeypatch)
    unseeded = census(lines, mode=mode).to_json()
    assert unseeded["graphs_processed"] == 621
    assert seeded == [unseeded, unseeded]


def test_census_seeded_search_under_node_limit(monkeypatch):
    """Under a node budget of 2, the seeded search of mode both proves 73
    of the 85 n=12 hosts, where the unseeded one, which probes level 2
    from an upper bound of 3, proves 56; its rho never exceeds the
    certificate's path count and is the true rho when it is reported
    optimal."""
    lines = census_path(12).read_text().splitlines()
    outs = [bounds._census_one((i, line, "both", 2, 0))
            for i, line in enumerate(lines)]
    for out, line in zip(outs, lines):
        assert out["rho"] <= out["construct_paths"]
        if out["optimal"]:
            assert out["rho"] == rho_exact(parse_graph6(line)).rho
    assert sum(out["optimal"] for out in outs) == 73
    assert census(lines, mode="both", node_limit=2).budget_exhausted == 12
    _unseeded(monkeypatch)
    assert census(lines, mode="both", node_limit=2).budget_exhausted == 29


def test_census_exact_rho_mode_runs_unseeded(monkeypatch):
    """Mode exact_rho passes no incumbent, so its rho is the kernel's own
    and still checks the kernel against the (n-1)/3 bound."""
    incumbents = []

    def rho_exact_spy(g, node_limit, time_limit, incumbent=None):
        incumbents.append(incumbent)
        return rho_exact(g, node_limit, time_limit)
    monkeypatch.setattr(bounds, "rho_exact", rho_exact_spy)
    census(census_path(10).read_text().splitlines(), mode="exact_rho")
    assert len(incumbents) == 19 and set(incumbents) == {None}
