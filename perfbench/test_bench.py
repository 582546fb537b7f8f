"""Self-check of the benchmark.  Run from the root of a checkout:

    python3 -m pytest perfbench/test_bench.py

Every workload runs at smoke size in both modes and must print each metric
of BENCHMARK.json with its unit; corrupted answers must count as failures.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((run.DATA / "expected.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_spec_names_what_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in doc["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    for m in doc["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "census_small", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def interior_chord(g, edges):
    """A host edge at a vertex of degree 2 in `edges`; adding it to the
    edge set gives that vertex degree 3."""
    for v in range(g.n):
        if sum(v in e for e in edges) == 2:
            for w in g.adj[v]:
                e = (min(v, w), max(v, w))
                if e not in edges:
                    return e
    raise AssertionError("no interior vertex")


def one_pass(workload_cls):
    ipfkit = run.load_ipfkit()
    workload = workload_cls(ipfkit, EXPECTED, True)
    tally = run.Tally()
    for unit in workload.units:
        workload.run_unit(unit, random.Random(1), tally)
    return tally


def test_corrupted_witness_is_a_failure(monkeypatch):
    ipfkit = run.load_ipfkit()
    real = ipfkit.rho_exact

    def corrupted(g, *args, **kwargs):
        res = real(g, *args, **kwargs)
        edges = res.witness.edges | {interior_chord(g, res.witness.edges)}
        return dataclasses.replace(res, witness=ipfkit.Ipf(g, edges))

    monkeypatch.setattr(ipfkit, "rho_exact", corrupted)
    tally = one_pass(run.SolveLarge)
    assert tally.attempted >= 1 and tally.failed == tally.attempted


def test_corrupted_certificate_is_a_failure(monkeypatch):
    ipfkit = run.load_ipfkit()
    real = ipfkit.ipf_cubic

    def corrupted(g):
        cert = real(g)
        edges = cert.ipf.edges | {interior_chord(g, cert.ipf.edges)}
        return dataclasses.replace(cert, ipf=ipfkit.Ipf(g, edges))

    monkeypatch.setattr(ipfkit, "ipf_cubic", corrupted)
    tally = one_pass(run.ConstructLarge)
    assert tally.attempted >= 1 and tally.failed == tally.attempted


def test_paths_are_checked_without_trusting_verify_ipf(monkeypatch):
    ipfkit = run.load_ipfkit()
    # a verifier that accepts anything and reports one path per vertex
    monkeypatch.setattr(ipfkit, "verify_ipf",
                        lambda g, edges: [[v] for v in range(g.n)])
    tally = one_pass(run.SolveLarge)
    assert tally.attempted >= 1 and tally.failed == tally.attempted


def test_wrong_census_histogram_is_a_failure(monkeypatch):
    ipfkit = run.load_ipfkit()
    real = ipfkit.census

    def shifted(lines, **kwargs):
        report = real(lines, **kwargs)
        report.rho_histogram = {r + 1: c
                                for r, c in report.rho_histogram.items()}
        return report

    monkeypatch.setattr(ipfkit, "census", shifted)
    tally = one_pass(run.CensusSmall)
    assert tally.attempted >= 1 and tally.failed == tally.attempted
