"""Closed-form bounds, glue lower bounds, and the census harness."""

import os
import time
from fractions import Fraction

import pytest

from ipfkit import (
    Graph, GraphError, Ipf, block_decomposition, census, ck_lower,
    ck_lower_report, glue_lower_bound, parse_graph6, rho_exact, rho_tree,
    rho_tree_recurrence, write_graph6,
)
from ipfkit import bounds, constructive
from ipfkit.ipf import IpfError
from ipfkit.families import (
    c4_binary_tree, even_k_glued_cycle, fig1_subcubic, odd_k_glued_tree,
    perfect_tree, petersen, subdivided_complete, triangle_ring,
)

from conftest import (
    CENSUS_COUNTS, census_path, chorded_census_lines, cycle_as_one_path,
    rho_four,
)


def test_tree_formula_values():
    assert rho_tree(3, 0) == 1
    assert rho_tree(3, 2) == 3
    assert rho_tree(4, 1) == 2
    assert rho_tree_recurrence(3, 3) == rho_tree(3, 3)


def test_tree_formula_matches_recurrence_widely():
    for k in range(3, 11):
        for h in range(0, 13):
            assert rho_tree(k, h) == rho_tree_recurrence(k, h)


def test_tree_formula_at_height_3000_is_immediate():
    """rho_tree evaluates the closed form alone; the recurrence, summed
    term by term in exact rationals, takes seconds at this height."""
    start = time.perf_counter()
    value = rho_tree(3, 3000)
    assert time.perf_counter() - start < 0.1
    assert value == Fraction(2 ** 3001 + 1, 3)


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
    assert ck_lower_report(3)["formula"] == "ck_c3"
    assert ck_lower_report(4)["formula"] == "ck_c4"
    assert ck_lower_report(5)["formula"] == "ck_odd"
    assert ck_lower_report(6)["formula"] == "ck_even"
    assert ck_lower_report(4) == {"k": 4, "value": "3/7", "formula": "ck_c4"}


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


def test_glue_lower_bound_of_an_unproved_component(monkeypatch):
    """A component that rho_exact cannot prove within its budget adds the
    certified lower bound its search reached, not its rho: c4_binary_tree(3)
    taken whole gets 4 in 20 nodes, where its blocks and bridges give 24,
    the paper's 3 * 2^3."""
    real = rho_exact
    monkeypatch.setattr(bounds, "rho_exact",
                        lambda h: real(h, node_limit=20))
    g = c4_binary_tree(3)
    res = real(g, node_limit=20)
    assert not res.optimal and res.stats["lower"] == 4
    assert glue_lower_bound(g, [set(range(g.n))]) == 4
    dec = block_decomposition(g)
    comps = [set(b) for b in dec.blocks] + [set(e) for e in dec.bridges]
    assert glue_lower_bound(g, comps) == 24


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


def test_census_n16():
    """Mode both over the 4,060 connected cubic graphs of order 16: every
    bound holds, M_16 = 5 = (16 - 1) // 3, met by one graph, and the rho
    histogram is the one the exact search proves."""
    rep = census(census_path(16).read_text().splitlines(), mode="both")
    assert rep.graphs_processed == 4060 and not rep.skipped
    assert not rep.errors and not rep.violations and not rep.budget_exhausted
    assert rep.n_to_max_rho == {16: 5}
    assert rep.rho_histogram == {2: 3379, 3: 638, 4: 42, 5: 1}


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
    def overlong(g, bridges):
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


def test_census_reports_an_invalid_construction(monkeypatch):
    # a reduction that emits a non-IPF makes Ipf.from_edges raise IpfError;
    # census reports the host as a violation and goes on with the rest
    monkeypatch.setattr(constructive, "_greedy_paths", cycle_as_one_path)
    lines, bad = chorded_census_lines()
    rep = census(lines, mode="both")
    assert rep.graphs_processed == len(lines) and not rep.errors
    assert [v["line"] for v in rep.violations] == list(range(1, bad + 1))
    assert [v["graph6"] for v in rep.violations] == lines[:bad]
    assert rep.violations[0]["detail"] == (
        "construction failed: path [0, 7, 4, 5, 2, 1, 3, 6, 9, 8] has chord "
        "(0, 9): non-consecutive vertices adjacent in host")
    assert all(v["detail"].startswith("construction failed: path ")
               for v in rep.violations)
    assert rep.rho_histogram == {3: len(lines) - bad}


def test_census_reports_an_exact_rho_above_the_limit(monkeypatch):
    # Petersen's limit is (10-1)/3 = 3 paths
    monkeypatch.setattr(bounds, "rho_exact", rho_four)
    g6 = write_graph6(petersen())
    rep = census([g6], mode="exact_rho")
    (violation,) = rep.violations
    assert violation["line"] == 1 and violation["graph6"] == g6
    assert violation["detail"] == "exact rho 4 > 3"
    assert rep.n_to_max_rho == {10: 4}


def test_worker_exceptions_cross_the_pipe():
    # IpfError's __init__ takes a kind besides its message, which pickle
    # does not pass back, so it would not unpickle in the caller
    ipf_error = bounds._portable(IpfError("x", "chord"))
    assert type(ipf_error) is RuntimeError
    assert str(ipf_error) == "IpfError: x"
    value_error = ValueError("y")
    assert bounds._portable(value_error) is value_error


def test_census_file_parallel_matches_serial():
    # a parse error after every third host: the errors list keeps line order
    lines = [line for i, host in enumerate(
                 census_path(10).read_text().splitlines())
             for line in ([host, f"bad %% {i}"] if i % 3 == 2 else [host])]
    for mode in ("verify_theorem", "exact_rho", "both"):
        serial, *split = [census(lines, mode=mode, jobs=jobs)
                          for jobs in (1, 2, 3)]
        assert serial.graphs_processed == 19 and not serial.violations
        assert len(serial.errors) == 6
        assert [rep.to_json() for rep in split] == [serial.to_json()] * 2
        # more jobs than lines: the caller and one worker per other line
        assert census(lines[:5], mode=mode, jobs=8).to_json() == \
            census(lines[:5], mode=mode).to_json()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("lines,forks", [(5, 4), (2, 1), (1, 0), (0, 0)])
def test_census_forks_a_worker_per_line_beyond_the_first(monkeypatch, lines,
                                                         forks):
    forked = []
    real_fork = os.fork

    def fork():
        forked.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    rep = census([write_graph6(petersen())] * lines, jobs=8)
    assert rep.graphs_processed == lines and len(forked) == forks
    _assert_no_child_left()


def _fail_on_lines(monkeypatch, fails):
    """Make _census_one call fails[line_no] before that line's census."""
    census_one = bounds._census_one

    def census_one_failing(args):
        if args[0] in fails:
            fails[args[0]]()
        return census_one(args)
    monkeypatch.setattr(bounds, "_census_one", census_one_failing)


def _raise(exc):
    def fail():
        raise exc
    return fail


# with jobs=2 the caller takes lines 1, 3, 5 and the worker lines 2, 4
@pytest.mark.parametrize("bad_line", [1, 2], ids=["caller", "worker"])
def test_census_raises_a_share_exception(monkeypatch, bad_line):
    _fail_on_lines(monkeypatch, {bad_line: _raise(
        GraphError(f"no census for line {bad_line}"))})
    lines = census_path(10).read_text().splitlines()[:5]
    with pytest.raises(GraphError, match=f"no census for line {bad_line}$"):
        census(lines, mode="verify_theorem", jobs=2)
    _assert_no_child_left()


def test_census_carries_an_unpicklable_worker_exception(monkeypatch):
    # IpfError takes two arguments, so it cannot be rebuilt from its args
    _fail_on_lines(monkeypatch, {2: _raise(IpfError("bad cover", "kind"))})
    lines = census_path(10).read_text().splitlines()[:5]
    with pytest.raises(RuntimeError, match="^IpfError: bad cover$"):
        census(lines, mode="verify_theorem", jobs=2)
    _assert_no_child_left()


@pytest.mark.parametrize("fail,detail", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), 9), "was killed by signal 9")])
def test_census_reports_a_worker_that_dies(monkeypatch, fail, detail):
    _fail_on_lines(monkeypatch, {2: fail})
    lines = census_path(10).read_text().splitlines()[:5]
    with pytest.raises(RuntimeError,
                       match=f"census worker 1 {detail} before sending"):
        census(lines, mode="verify_theorem", jobs=2)
    _assert_no_child_left()


def test_census_kills_workers_when_the_caller_fails(monkeypatch):
    """The caller's exception on line 1 does not wait for the worker that
    is stuck on line 2: it is killed and reaped first."""
    def caller_fails():
        time.sleep(0.2)  # let the worker reach line 2
        raise GraphError("caller failed")
    _fail_on_lines(monkeypatch, {1: caller_fails, 2: lambda: time.sleep(60)})
    lines = census_path(10).read_text().splitlines()[:5]
    t0 = time.monotonic()
    with pytest.raises(GraphError, match="caller failed"):
        census(lines, mode="verify_theorem", jobs=2)
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()


def test_census_without_fork(monkeypatch):
    """Where os.fork is missing, jobs > 1 raises before any line is read
    and jobs=1 still runs."""
    def lines():
        raise AssertionError("input read despite jobs > 1 without fork")
        yield
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="needs os.fork"):
        census(lines(), jobs=2)
    assert census([write_graph6(petersen())]).graphs_processed == 1


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
                                    {"jobs": 0}, {"jobs": -2},
                                    {"jobs": 1.5}, {"jobs": 2.0},
                                    {"jobs": True},
                                    {"time_limit": None},
                                    {"time_limit": "1"},
                                    {"time_limit": True}])
def test_census_bad_arguments_raise_before_reading(kwargs):
    def lines():
        raise AssertionError("input read despite a bad argument")
        yield
    with pytest.raises(ValueError):
        census(lines(), **kwargs)


def test_census_refuses_one_string():
    # a str iterates by character, so each character would be a line
    text = census_path(6).read_text()
    with pytest.raises(ValueError, match="iterable of graph6 lines"):
        census(text)
    assert census(text.splitlines()).graphs_processed == 2


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
    on the n=4..14 census stay those of the unseeded search, serial and
    split over 2 and 3 processes."""
    lines = [line for n in CENSUS_COUNTS if n <= 14
             for line in census_path(n).read_text().splitlines()]
    seeded = [census(lines, mode=mode, jobs=jobs).to_json()
              for jobs in (1, 2, 3)]
    _unseeded(monkeypatch)
    unseeded = census(lines, mode=mode).to_json()
    assert unseeded["graphs_processed"] == 621
    assert seeded == [unseeded] * 3


def test_census_seeded_search_under_node_limit(monkeypatch):
    """Under a node budget of 2, the seeded search of mode both proves 73
    of the 85 n=12 hosts, where the unseeded one, which probes level 2
    from an upper bound of 3, proves 57, one of them by the greedy cover
    that meets the level its cut search proved; its rho never exceeds the
    certificate's path count and is the true rho when it is not marked
    truncated."""
    lines = census_path(12).read_text().splitlines()
    outs = [bounds._census_one((i, line, "both", 2, 0))
            for i, line in enumerate(lines)]
    for out, line in zip(outs, lines):
        assert out["rho"] <= out["construct_paths"]
        if "truncated" not in out:
            assert out["rho"] == rho_exact(parse_graph6(line)).rho
    assert sum("truncated" not in out for out in outs) == 73
    assert census(lines, mode="both", node_limit=2).budget_exhausted == 12
    _unseeded(monkeypatch)
    assert census(lines, mode="both", node_limit=2).budget_exhausted == 28


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
