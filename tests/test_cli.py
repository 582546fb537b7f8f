"""CLI subcommands: output shapes, exit codes, and the construct/verify
pipe contract."""

import json

import pytest

from ipfkit import Graph, write_adjlist, write_graph6
from ipfkit import cli, constructive, solver
from ipfkit.constructive import ipf_cubic, ipf_ham23
from ipfkit.cli import (
    EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main,
)
from ipfkit.families import petersen, triangle_ring

from conftest import census_graphs


@pytest.fixture
def petersen_file(tmp_path):
    p = tmp_path / "petersen.g6"
    p.write_text(write_graph6(petersen()) + "\n")
    return str(p)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


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


def test_solve_exhaustive_flag(capsys, petersen_file):
    code, out, _ = run(capsys, ["solve", "--input", petersen_file,
                                "--exhaustive", "--json", "--stable"])
    assert code == EXIT_OK
    assert json.loads(out)["method"] == "exhaustive"


def test_solve_budget_exit_code(capsys, petersen_file):
    code, _, _ = run(capsys, ["solve", "--input", petersen_file,
                              "--nodes", "1"])
    assert code == EXIT_BUDGET


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
    rho_exhaustive serves only solve --exhaustive and the tests."""
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
    assert code == EXIT_VIOLATION
    assert "n <= 62" in err
    assert called == []


def test_construct_verify_pipe(capsys, petersen_file, tmp_path):
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, ["construct", "--input", petersen_file,
                              "--json", "--stable",
                              "--output", str(cert)])
    assert code == EXIT_OK
    code, out, _ = run(capsys, ["verify", "--input", str(cert), "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["valid"]


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
])
def test_verify_rejects_mistyped_fields(capsys, tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["verify", "--input", str(p)])
    assert code == EXIT_USAGE
    assert "malformed IPF document" in err


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


def test_bounds_tree(capsys):
    code, out, _ = run(capsys, ["bounds", "--tree", "3", "2"])
    assert code == EXIT_OK
    assert out.strip() == "3"


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


def test_usage_error_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_empty_input_is_usage_error(capsys, tmp_path):
    p = tmp_path / "empty"
    p.write_text("")
    code, _, err = run(capsys, ["solve", "--input", str(p)])
    assert code == EXIT_USAGE


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
