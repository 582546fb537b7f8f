"""CLI subcommands: output shapes, exit codes, and the construct/verify
pipe contract."""

import json

import pytest

from ipfkit import Graph, write_graph6
from ipfkit import cli
from ipfkit.cli import (
    EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main,
)
from ipfkit.families import petersen, triangle_ring


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


def test_solve_exhaustive_flag(capsys, petersen_file):
    code, out, _ = run(capsys, ["solve", "--input", petersen_file,
                                "--exhaustive", "--json", "--stable"])
    assert code == EXIT_OK
    assert json.loads(out)["method"] == "exhaustive"


def test_solve_budget_exit_code(capsys, petersen_file):
    code, _, _ = run(capsys, ["solve", "--input", petersen_file,
                              "--nodes", "1"])
    assert code == EXIT_BUDGET


def test_construct_cubic_certificate(capsys, petersen_file):
    code, out, _ = run(capsys, ["construct", "--method", "cubic",
                                "--input", petersen_file,
                                "--json", "--stable"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verified"] and doc["n"] == 10
    assert doc["ipf"]["path_count"] <= 3
    assert doc["trace"]


def test_construct_auto_searches_2factor_once(capsys, tmp_path, monkeypatch):
    # C10 plus the chord 0-5: a non-cubic {2,3}-graph with a long 2-factor
    g = Graph(10, [(i, (i + 1) % 10) for i in range(10)] + [(0, 5)])
    path = tmp_path / "chorded.g6"
    path.write_text(write_graph6(g) + "\n")
    calls = []
    search = cli.two_factor_search

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)
    monkeypatch.setattr(cli, "two_factor_search", counted)
    code, out, _ = run(capsys, ["construct", "--input", str(path),
                                "--json", "--stable"])
    assert code == EXIT_OK
    assert json.loads(out)["method"] == "2factor"
    assert len(calls) == 1


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
