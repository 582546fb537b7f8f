"""CLI subcommands: output shapes, exit codes, and the construct/verify
pipe contract."""

import io
import json
import math
import os
import random
import sys
import time

import pytest

from ipfkit import (
    Graph, Ipf, parse_graph6, rho_tree, verify_ipf, write_adjlist,
    write_graph6,
)
from ipfkit import bounds, cli, constructive, solver
from ipfkit.constructive import ConstructionError, ipf_cubic, ipf_ham23
from ipfkit.cli import (
    EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main,
)
from ipfkit.families import bad_graph, petersen, triangle_ring

from conftest import (census_graphs, census_path, chorded_census_lines,
                      cycle, cycle_as_one_path, random_connected_cubic,
                      rho_four)


@pytest.fixture
def petersen_file(tmp_path):
    p = tmp_path / "petersen.g6"
    p.write_text(write_graph6(petersen()) + "\n")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_json_stable(capsys, petersen_file):
    code, out, _ = run(capsys, ["solve", "--input", petersen_file,
                                "--json", "--stable"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["rho"] == 3 and doc["optimal"]
    assert "seconds" not in json.dumps(doc)


def test_solve_table_output(capsys, petersen_file):
    code, out, _ = run(capsys, ["solve", "--input", petersen_file])
    assert code == EXIT_OK
    assert "rho = 3" in out


@pytest.mark.parametrize("argv", [
    ["solve", "--exhaustive"],
    ["generate", "--family", "petersen", "--input", "x"],
    ["bounds", "--ck", "3", "--input", "x"],
])
def test_removed_options_are_usage_errors(capsys, argv):
    """solve has no oracle switch, and generate and bounds read no input."""
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == "" and "unrecognized arguments" in err


def test_solve_budget_exit_code(capsys, tmp_path):
    # one node cuts the first level probe of this rho-2 host, and the
    # greedy cover that comes back has more paths than the proved level;
    # on the n=60 host a node budget with no time budget stops the search
    # at once (path growth that ran on past it took the Python kernel
    # about 3 s at two nodes)
    small = tmp_path / "host.g6"
    small.write_text(census_path(12).read_text().splitlines()[0] + "\n")
    large = tmp_path / "large.g6"
    large.write_text(write_graph6(random_connected_cubic(
        random.Random(60001), 60)) + "\n")
    for path, budget in ((small, ["--nodes", "1"]),
                         (large, ["--budget", "0", "--nodes", "1"]),
                         (large, ["--budget", "0", "--nodes", "2"])):
        t0 = time.monotonic()
        code, out, _ = run(capsys, ["solve", "--input", str(path)] + budget)
        assert time.monotonic() - t0 < 1.5
        assert code == EXIT_BUDGET
        assert "optimal = False" in out


def test_solve_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(write_graph6(petersen())
                                                 + "\n"))
    code, out, _ = run(capsys, ["solve", "--input", "-", "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["rho"] == 3


def test_unreadable_input_is_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing.g6"
    code, out, err = run(capsys, ["solve", "--input", str(missing)])
    assert code == EXIT_USAGE
    assert out == "" and err.startswith(f"error: cannot read {missing}: ")


@pytest.mark.parametrize("argv", [["solve", "--nodes", "-1"],
                                  ["solve", "--budget", "-1"],
                                  ["solve", "--budget", "nan"],
                                  ["census", "--jobs", "-2"]])
def test_bad_budget_fails_before_reading_input(capsys, monkeypatch, argv):
    def no_input(path):
        raise AssertionError("input read despite a bad option")
    monkeypatch.setattr(cli, "_read_text", no_input)
    code, _, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert f"argument {argv[1]}: must be at least" in err


def test_construct_cubic_certificate(capsys, petersen_file):
    code, out, _ = run(capsys, ["construct", "--input", petersen_file,
                                "--json", "--stable"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verified"] and doc["n"] == 10
    assert doc["ipf"]["path_count"] <= 3
    assert doc["trace"]


def subdivided_prism(k):
    """The prism C_k x K2 (outer cycle 0..k-1, inner k..2k-1, spokes i,
    k+i) with the edge (0, 1) subdivided by vertex 2k: a hamiltonian
    {2,3}-graph of order 2k+1."""
    edges = [(i, (i + 1) % k) for i in range(1, k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)] + [(0, 2 * k), (1, 2 * k)]
    return Graph(2 * k + 1, edges)


def theta(*lengths):
    """Paths of the given lengths between vertices 0 and 1."""
    edges, nxt = [], 2
    for length in lengths:
        inner = list(range(nxt, nxt + length - 1))
        nxt += length - 1
        walk = [0] + inner + [1]
        edges += list(zip(walk, walk[1:]))
    return Graph(nxt, edges)


def construct_counting_searches(capsys, tmp_path, monkeypatch, g):
    """Run construct on g; return its exit code, stdout, stderr and the
    number of 2-factor searches it made."""
    path = tmp_path / "host.g6"
    path.write_text(write_graph6(g) + "\n")
    calls = []
    search = constructive.two_factor_search

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)
    monkeypatch.setattr(constructive, "two_factor_search", counted)
    return (*run(capsys, ["construct", "--input", str(path),
                          "--json", "--stable"]), len(calls))


def test_construct_auto_searches_2factor_once(capsys, tmp_path, monkeypatch):
    # Petersen minus an edge: one block, not hamiltonian, so no block tree
    g = petersen().without_edges([(0, 1)])
    code, out, _, searches = construct_counting_searches(capsys, tmp_path,
                                                         monkeypatch, g)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["method"] == "2factor" and doc["ipf"]["path_count"] == 3
    assert searches == 1


@pytest.mark.parametrize("g", [
    Graph(10, cycle(10).edges | {(0, 5)}),
    subdivided_prism(20),
    subdivided_prism(30),
], ids=["c10-chord", "prism-41", "prism-61"])
def test_construct_block_tree_searches_no_2factor(capsys, tmp_path,
                                                  monkeypatch, g):
    """A block-tree host is covered without a 2-factor search, which
    enumerates every perfect matching: searching first, construct took
    132 s on the n=61 prism on a 2-CPU Xeon."""
    code, out, _, searches = construct_counting_searches(capsys, tmp_path,
                                                         monkeypatch, g)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["method"] == "2factor" and doc["ipf"]["path_count"] == 2
    assert searches == 0


@pytest.mark.parametrize("lengths, code", [((2, 3, 4), EXIT_OK),
                                           ((2, 5, 7), EXIT_VIOLATION)])
def test_construct_without_long_2factor(capsys, tmp_path, monkeypatch,
                                        lengths, code):
    """A theta graph has no 2-factor: the exact oracle covers it up to
    order 12, beyond that no construction applies."""
    g = theta(*lengths)
    got, out, err, searches = construct_counting_searches(capsys, tmp_path,
                                                          monkeypatch, g)
    assert (got, searches) == (code, 1)
    if code == EXIT_OK:
        assert json.loads(out)["method"] == "exact"
    else:
        assert "no construction applies" in err


def test_construct_has_no_method_option(capsys, petersen_file):
    code, _, _ = run(capsys, ["construct", "--method", "cubic",
                              "--input", petersen_file])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("n", [5, 6])
def test_construct_auto_small_cycle_is_exact(capsys, tmp_path, n):
    # C5 and C6 have a long 2-factor, but the 2-factor route needs n >= 7
    path = tmp_path / "cycle.g6"
    path.write_text(write_graph6(cycle(n)) + "\n")
    code, out, _ = run(capsys, ["construct", "--input", str(path),
                                "--json", "--stable"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["method"] == "exact" and doc["ipf"]["path_count"] == 2


def test_construct_null_graph_is_exact(capsys, tmp_path):
    # "?" is the null graph, which is not cubic: it gets the exact route
    path = tmp_path / "null.g6"
    path.write_text("?\n")
    code, out, _ = run(capsys, ["construct", "--input", str(path),
                                "--json", "--stable"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["method"] == "exact" and doc["ipf"]["path_count"] == 0


def test_construct_keeps_the_oracle_out(capsys, tmp_path, monkeypatch):
    """The cubic hosts with n <= 6, the order-6 cubic hosts of ipf_ham23
    and the construct fallback get their IPF from rho_exact;
    rho_exhaustive serves only the tests."""
    def oracle(*args):
        raise AssertionError("rho_exhaustive called")
    for module in (solver, constructive, cli):
        monkeypatch.setattr(module, "rho_exhaustive", oracle, raising=False)
    for n in (4, 6):
        for g in census_graphs(n):
            cert = ipf_cubic(g)
            assert (cert.ipf.path_count, cert.trace) == (2, ["base-small"])
            if n == 6:
                assert ipf_ham23(g).path_count == 2
    path = tmp_path / "claw.g6"
    path.write_text(write_graph6(Graph(4, [(0, 1), (0, 2), (0, 3)])) + "\n")
    code, out, _ = run(capsys, ["construct", "--input", str(path), "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["method"] == "exact" and doc["ipf"]["path_count"] == 2


def test_construct_beyond_graph6_fails_before_any_work(capsys, tmp_path,
                                                        monkeypatch):
    # C90 plus a chord: auto mode would search for a 2-factor, and the
    # answer could never be written as short-form graph6
    g = Graph(90, cycle(90).edges | {(0, 45)})
    path = tmp_path / "big.txt"
    path.write_text(write_adjlist(g))
    called = []
    for name in ("ipf_cubic", "ipf_23_with_2factor", "rho_exact"):
        monkeypatch.setattr(cli, name,
                            lambda *a, name=name, **k: called.append(name))
    code, _, err = run(capsys, ["construct", "--input", str(path),
                                "--format", "adjlist"])
    assert code == EXIT_USAGE
    assert "n <= 62" in err
    assert called == []


@pytest.mark.parametrize("command", ["solve", "construct"])
def test_huge_adjlist_header_fails_before_any_graph(capsys, tmp_path,
                                                   command):
    # a graph of 10^9 vertices would take about 100 GB to build
    path = tmp_path / "huge.txt"
    path.write_text("1000000000 0\n")
    t0 = time.monotonic()
    code, out, err = run(capsys, [command, "--input", str(path),
                                  "--format", "adjlist"])
    assert time.monotonic() - t0 < 1.0
    assert code == EXIT_USAGE
    assert out == "" and "n <= 62" in err


def test_construct_failure_exit_code(capsys, petersen_file, monkeypatch):
    def fail(g):
        raise ConstructionError("boom")
    monkeypatch.setattr(cli, "ipf_cubic", fail)
    code, out, err = run(capsys, ["construct", "--input", petersen_file])
    assert code == EXIT_VIOLATION
    assert out == "" and err == "construction failed: boom\n"


@pytest.mark.parametrize("g", [Graph(63, []), cycle(64)])
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_solve_beyond_graph6_fails_before_any_work(capsys, tmp_path,
                                                    monkeypatch, g, mode):
    # 63 isolated vertices need no kernel, and C64 is too wide for it; both
    # must fail on the graph6 limit in text and JSON mode alike
    path = tmp_path / "big.txt"
    path.write_text(write_adjlist(g))
    called = []
    monkeypatch.setattr(cli, "rho_exact", lambda *a, **k: called.append(a))
    code, out, err = run(capsys, ["solve", "--input", str(path),
                                  "--format", "adjlist", *mode])
    assert code == EXIT_USAGE
    assert "n <= 62" in err and out == ""
    assert called == []


def test_construct_table_output(capsys, petersen_file):
    code, out, _ = run(capsys, ["construct", "--input", petersen_file])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[:4] == ["n = 10", "paths = 3", "trace = two-factor",
                         "paths:"]
    paths = [list(map(int, line.split())) for line in lines[4:]]
    assert len(verify_ipf(petersen(), Ipf.from_paths(petersen(),
                                                     paths).edges)) == 3


def test_construct_verify_pipe(capsys, petersen_file, tmp_path):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, ["construct", "--input", petersen_file,
                              "--json", "--stable",
                              "--output", str(cert)])
    assert code == EXIT_OK
    code, out, _ = run(capsys, ["verify", "--input", str(cert), "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["valid"]


def test_solve_verify_round_trip(capsys, petersen_file, tmp_path):
    # verify reads a solve result's "witness"; with one edge moved onto a
    # path's inner vertex, whose third edge it takes, the witness fails
    result = tmp_path / "solve.json"
    code, _, _ = run(capsys, ["solve", "--input", petersen_file, "--json",
                              "--output", str(result)])
    assert code == EXIT_OK
    code, out, _ = run(capsys, ["verify", "--input", str(result)])
    assert (code, out) == (EXIT_OK, "valid IPF with 3 paths\n")
    doc = json.loads(result.read_text())
    edges = doc["witness"]["edges"]
    g = parse_graph6(doc["graph6"])
    used = {tuple(e) for e in edges}
    u = next(v for v in range(g.n) if sum(v in e for e in used) == 2)
    spare = next(e for e in sorted(g.edges) if u in e and e not in used)
    edges[next(i for i, e in enumerate(edges) if u not in e)] = list(spare)
    result.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["verify", "--input", str(result)])
    assert code == EXIT_VIOLATION
    assert err == f"invalid IPF: vertex {u} has degree 3 in the edge subset\n"


def test_verify_table_output(capsys, petersen_file, tmp_path):
    cert = tmp_path / "cert.json"
    run(capsys, ["construct", "--input", petersen_file, "--json",
                 "--output", str(cert)])
    code, out, _ = run(capsys, ["verify", "--input", str(cert)])
    assert (code, out) == (EXIT_OK, "valid IPF with 3 paths\n")


def test_verify_rejects_chorded_path(capsys, tmp_path):
    # a path through all of K4 has chords
    doc = {"graph6": "C~", "edges": [[0, 1], [1, 2], [2, 3]]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["verify", "--input", str(p)])
    assert code == EXIT_VIOLATION
    assert "chord" in err


def test_verify_path_count_mismatch(capsys, tmp_path):
    doc = {"graph6": "C~", "edges": [[0, 1]],
           "path_count": 1}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["verify", "--input", str(p)])
    assert code == EXIT_VIOLATION
    assert "mismatch" in err


@pytest.mark.parametrize("doc", [
    {"graph6": "A_", "edges": [[0, 1]], "ipf": 5},
    {"graph6": "A_", "edges": [[0, 1]], "ipf": [[0, 1]]},
    {"graph6": 5, "edges": [[0, 1]]},
    {"graph6": "A_", "edges": [[0]]},
    {"graph6": "A_", "edges": [[0, "a"]]},
    {"graph6": "A_", "edges": [[0, None]]},
    {"graph6": "A_", "edges": [[0, 1.0]]},
    {"graph6": "A_", "edges": [[False, True]]},
    # a path_count that is no integer is not compared against the edges
    {"graph6": "C~", "edges": [[0, 1]], "path_count": "3"},
    {"graph6": "A_", "edges": [[0, 1]], "path_count": True},
    {"graph6": "A_", "edges": [[0, 1]], "path_count": 1.0},
    {"graph6": "A_", "edges": [[0, 1]], "path_count": None},
    {"graph6": "A_", "ipf": {"edges": [[0, 1]], "path_count": "1"}},
    {"graph6": "A_", "ipf": {"edges": [[0, 1]], "path_count": True}},
])
def test_verify_rejects_mistyped_fields(capsys, tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["verify", "--input", str(p)])
    assert code == EXIT_USAGE
    assert "malformed IPF document" in err


def test_verify_rejects_non_json(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, out, err = run(capsys, ["verify", "--input", str(p)])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: input is not JSON: ")


@pytest.mark.parametrize("command", ["solve", "construct"])
@pytest.mark.parametrize("fmt, text, message", [
    ("graph6", "C~x\n", "trailing bytes after bit field"),
    ("adjlist", "4\n0 1\n", "bad adjacency-list header '4'"),
    ("adjlist", "3 2\n0 1\n1 0\n", "repeated edge line '1 0'"),
    ("adjlist", "3 1\n0 x\n", "bad edge line '0 x'"),
])
def test_unparsable_input_graph(capsys, tmp_path, command, fmt, text,
                                message):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    code, out, err = run(capsys, [command, "--input", str(p),
                                  "--format", fmt])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: cannot parse input graph: ")
    assert message in err


def test_generate_roundtrip(capsys):
    code, out, _ = run(capsys, ["generate", "--family", "triangle_ring",
                                "--params", "n=9"])
    assert code == EXIT_OK
    assert out.strip() == write_graph6(triangle_ring(9))


def test_generate_tuple_params(capsys):
    code, out, _ = run(capsys, ["generate", "--family", "bad_graph",
                                "--params",
                                "ring_order=6,subdivided=0:1,h5_chords=2",
                                "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n"] == 6 + 12


def test_generate_one_integer_is_a_one_element_tuple(capsys):
    code, out, _ = run(capsys, ["generate", "--family", "bad_graph",
                                "--params", "ring_order=9,subdivided=0"])
    assert code == EXIT_OK
    assert out.strip() == write_graph6(bad_graph(9, (0,)))


@pytest.mark.parametrize("params, message", [
    ("n", "parameter 'n' is not key=value"),
    ("n=x", "parameter value 'x' is not an integer or colon-separated "
            "integers"),
    ("n=9,n=12", "parameter 'n' is given twice"),
])
def test_generate_malformed_params(capsys, params, message):
    code, out, err = run(capsys, ["generate", "--family", "triangle_ring",
                                  "--params", params])
    assert code == EXIT_USAGE
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("fmt, text", [("graph6", write_graph6),
                                       ("adjlist", write_adjlist)])
def test_generate_json_carries_the_requested_format(capsys, fmt, text):
    code, out, _ = run(capsys, ["generate", "--family", "petersen",
                                "--format", fmt, "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc[fmt] == text(petersen())
    assert set(doc) == {"family", "params", "n", "edges", fmt}


def test_generate_oversize_member_fails_before_it_is_built(capsys):
    # a height-40 ternary tree has about 2.2e12 vertices
    t0 = time.monotonic()
    code, out, err = run(capsys, ["generate", "--family", "perfect_tree",
                                  "--params", "k=3,h=40"])
    assert time.monotonic() - t0 < 1.0
    assert code == EXIT_USAGE
    assert out == "" and "n <= 62" in err


def test_generate_unknown_family(capsys):
    code, _, err = run(capsys, ["generate", "--family", "zorp"])
    assert code == EXIT_USAGE
    assert "unknown family" in err


def test_census_json(capsys, petersen_file):
    code, out, _ = run(capsys, ["census", "--input", petersen_file,
                                "--json", "--stable"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["graphs_processed"] == 1
    assert doc["violations"] == []
    assert doc["n_to_max_rho"] == {"10": 3}


def test_census_table_output(capsys, tmp_path):
    p = tmp_path / "mixed.g6"
    p.write_text(write_graph6(petersen()) + "\nbad\n?\n")
    code, out, _ = run(capsys, ["census", "--input", str(p)])
    assert code == EXIT_OK
    assert out.splitlines() == [
        "graphs processed: 1", "skipped: 1", "violations: 0",
        "  max rho at n=10: 3",
        "  error: line 2: truncated bit field: need 100 bytes, got 2 "
        "(byte offset 3)"]


def test_census_violation_exit_code(capsys, petersen_file, monkeypatch):
    # one-vertex paths everywhere: n > (n-1)/3 paths on every host
    def overlong(g, bridges):
        return Ipf.from_edges(g, set()), ["two-factor"]
    monkeypatch.setattr(constructive, "_cubic_recurse", overlong)
    code, out, _ = run(capsys, ["census", "--input", petersen_file,
                                "--mode", "verify_theorem"])
    assert code == EXIT_VIOLATION
    assert "violations: 1" in out.splitlines()


def test_census_invalid_construction_exit_code(capsys, tmp_path,
                                               monkeypatch):
    monkeypatch.setattr(constructive, "_greedy_paths", cycle_as_one_path)
    lines, bad = chorded_census_lines()
    p = tmp_path / "n10.g6"
    p.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, ["census", "--input", str(p), "--json"])
    assert code == EXIT_VIOLATION
    doc = json.loads(out)
    assert doc["graphs_processed"] == len(lines)
    assert [v["line"] for v in doc["violations"]] == list(range(1, bad + 1))
    assert doc["rho_histogram"] == {"3": len(lines) - bad}


def test_census_exact_rho_violation_exit_code(capsys, petersen_file,
                                              monkeypatch):
    monkeypatch.setattr(bounds, "rho_exact", rho_four)
    code, out, _ = run(capsys, ["census", "--input", petersen_file,
                                "--mode", "exact_rho", "--json"])
    assert code == EXIT_VIOLATION
    (violation,) = json.loads(out)["violations"]
    assert violation["detail"] == "exact rho 4 > 3"


def test_census_budget_exit_code(capsys, tmp_path):
    # one node cuts the first level probe on each of these rho-2 hosts
    p = tmp_path / "n12.g6"
    p.write_text("\n".join(census_path(12).read_text().splitlines()[:4]))
    code, out, _ = run(capsys, ["census", "--input", str(p), "--mode",
                                "exact_rho", "--nodes", "1", "--json"])
    assert code == EXIT_BUDGET
    doc = json.loads(out)
    assert (doc["graphs_processed"], doc["budget_exhausted"]) == (4, 4)


def test_census_jobs_print_the_same_bytes(capsys):
    argv = ["census", "--input", str(census_path(12)), "--mode", "both",
            "--json", "--stable", "--jobs"]
    outs = [run(capsys, argv + [jobs]) for jobs in ("1", "2", "3")]
    assert outs[0][0] == EXIT_OK and json.loads(outs[0][1])["violations"] == []
    assert outs == [outs[0]] * 3


def test_census_jobs_without_fork_is_usage_error(capsys, monkeypatch):
    def no_input(path):
        raise AssertionError("input read despite --jobs 2 without fork")
    monkeypatch.setattr(cli, "_read_text", no_input)
    monkeypatch.delattr(os, "fork")
    code, _, err = run(capsys, ["census", "--jobs", "2"])
    assert code == EXIT_USAGE
    assert "jobs=2 needs os.fork" in err


def test_census_skips_the_null_graph(capsys, tmp_path):
    p = tmp_path / "null.g6"
    p.write_text("?\n")
    code, out, _ = run(capsys, ["census", "--input", str(p), "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["skipped"] == 1 and doc["graphs_processed"] == 0
    assert doc["violations"] == []


def test_census_parse_errors_keep_going(capsys, tmp_path):
    p = tmp_path / "mixed.g6"
    # "A\u00e9" would read as the edgeless "A?" if non-ASCII input were
    # replaced rather than rejected
    p.write_text(write_graph6(petersen()) + "\n???bad???\nA\u00e9\n",
                 encoding="utf-8")
    code, out, _ = run(capsys, ["census", "--input", str(p), "--json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["graphs_processed"] == 1
    assert len(doc["errors"]) == 2
    assert "line 3: non-ASCII" in doc["errors"][1]


def test_bounds_ck(capsys):
    code, out, _ = run(capsys, ["bounds", "--ck", "4"])
    assert code == EXIT_OK
    assert out.strip() == "3/7"


def test_bounds_ck_json(capsys):
    code, out, _ = run(capsys, ["bounds", "--ck", "4", "--json"])
    assert code == EXIT_OK
    assert json.loads(out) == {"k": 4, "value": "3/7", "formula": "ck_c4"}


def test_bounds_tree(capsys):
    code, out, _ = run(capsys, ["bounds", "--tree", "3", "2"])
    assert code == EXIT_OK
    assert out.strip() == "3"


def test_bounds_tree_at_height_3000_is_immediate(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["bounds", "--tree", "3", "3000"])
    assert time.perf_counter() - start < 0.1
    assert code == EXIT_OK
    assert int(out) == (2 ** 3001 + 1) // 3


def tree_height_at_the_str_limit() -> tuple[int, int]:
    """The interpreter's int-to-str digit limit and the greatest height H
    at which `bounds --tree 3 H` still has at most that many digits."""
    limit = sys.get_int_max_str_digits()
    assert limit, "the interpreter converts integers of any length"
    h = int(limit / math.log10(2)) - 2  # about limit - 0.7 digits
    while rho_tree(3, h + 1) < 10 ** limit:
        h += 1
    return limit, h


@pytest.mark.parametrize("json_mode", [False, True])
def test_bounds_tree_just_below_the_str_limit_prints(capsys, json_mode):
    limit, h = tree_height_at_the_str_limit()
    code, out, _ = run(capsys, ["bounds", "--tree", "3", str(h)]
                       + ["--json"] * json_mode)
    assert code == EXIT_OK
    value = json.loads(out)["value"] if json_mode else out.strip()
    assert len(value) == limit


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("above", [1, 10 ** 9])
def test_bounds_tree_past_the_str_limit_is_usage_error(capsys, json_mode,
                                                       above):
    """A height past the limit is refused by name, at once (no power of
    2 with a billion bits is computed), and the limit stays as it was."""
    limit, h = tree_height_at_the_str_limit()
    height = h + 1 if above == 1 else above
    start = time.perf_counter()
    code, out, err = run(capsys, ["bounds", "--tree", "3", str(height)]
                         + ["--json"] * json_mode)
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_USAGE and out == ""
    assert err == (f"error: the tree value at K=3, H={height} has more than "
                   f"{limit} digits, the interpreter's limit for integer "
                   "string conversion\n")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv, message", [
    (["--ck", "2"], "need k >= 3"),
    (["--tree", "3", "-1"], "need k >= 3 and h >= 0"),
    (["--tree", "2", "1", "--json"], "need k >= 3 and h >= 0"),
])
def test_bounds_out_of_range_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, ["bounds"] + argv)
    assert code == EXIT_USAGE
    assert out == "" and err == f"error: {message}\n"


def test_bounds_requires_a_selection(capsys):
    code, _, err = run(capsys, ["bounds"])
    assert code == EXIT_USAGE
    assert "one of the arguments --ck --tree is required" in err


@pytest.mark.parametrize("argv", [["--ck", "3", "--tree", "3", "2"],
                                  ["--tree", "3", "2", "--ck", "3"]])
def test_bounds_takes_one_selection(capsys, argv):
    code, out, err = run(capsys, ["bounds"] + argv)
    assert code == EXIT_USAGE
    assert out == "" and "not allowed with argument" in err


def test_usage_error_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_empty_input_is_usage_error(capsys, tmp_path):
    p = tmp_path / "empty"
    p.write_text("")
    code, _, err = run(capsys, ["solve", "--input", str(p)])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["solve", "construct"])
def test_graph6_input_holding_several_graphs_is_usage_error(capsys, tmp_path,
                                                            command):
    p = tmp_path / "three.g6"
    p.write_text("\n".join(census_path(10).read_text().splitlines()[:3])
                 + "\n\n")
    code, out, err = run(capsys, [command, "--input", str(p), "--json"])
    assert code == EXIT_USAGE and out == ""
    assert err == (f"error: graph6 input has 3 lines, one graph each; "
                   f"{command} takes one graph, census a stream of them\n")


@pytest.mark.parametrize("command", ["solve", "construct"])
@pytest.mark.parametrize("text", ["{}\n", "\n>>graph6<<{}\n\n"])
def test_one_graph6_line_with_blank_lines_or_header(capsys, tmp_path,
                                                    command, text):
    g6 = write_graph6(petersen())
    p = tmp_path / "petersen.g6"
    p.write_text(text.format(g6))
    code, out, _ = run(capsys, [command, "--input", str(p), "--json"])
    assert code == EXIT_OK and json.loads(out)["graph6"] == g6


def test_stdout_closed_by_its_reader_ends_quietly(petersen_file):
    """The reader's end of the pipe is closed before the child writes, so
    the child's write fails with EPIPE: it exits nonzero with an empty
    stderr, neither a traceback nor a failed flush at exit."""
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(root / "src"), os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "ipfkit.cli", "solve", "--json",
             "--input", petersen_file],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert res.returncode == 1
    assert res.stderr == ""


def test_console_script_entry_point():
    """The [project.scripts] target runs as a console script would, also
    in an uninstalled checkout; an installed ``ipfkit`` runs too."""
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ipfkit"]
    module, func = target.split(":")
    script = f"import sys; from {module} import {func}; sys.exit({func}())"
    commands = [[sys.executable, "-c", script]]
    if shutil.which("ipfkit"):
        commands.append(["ipfkit"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(root / "src"), os.environ.get("PYTHONPATH")])))
    for cmd in commands:
        res = subprocess.run(cmd + ["bounds", "--ck", "3"], env=env,
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "5/18"
