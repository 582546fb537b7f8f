"""The verdicts that ``tools/bench_pairs.py`` prints per metric."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def test_report_gives_each_metric_its_verdict(capsys):
    metrics = [
        {"name": "worse", "better": "higher", "bound": 0.25},
        {"name": "noisy", "better": "lower", "bound": 0.1},
        {"name": "noisy_beaten", "better": "lower", "bound": 0.1},
        {"name": "steady", "better": "higher", "bound": 0.25},
    ]
    base = {"worse": [100, 101, 99, 100], "noisy": [10, 14, 8, 12],
            "noisy_beaten": [10, 14, 8, 12], "steady": [100, 102, 98, 100]}
    change = {"worse": [70, 72, 71, 73], "noisy": [9, 13, 8, 11],
              "noisy_beaten": [7, 6, 7.5, 5], "steady": [90, 95, 92, 91]}
    runs = [[{k: v[i] for k, v in side.items()} for i in range(4)]
            for side in (base, change)]
    bench_pairs.report(metrics, *runs)
    lines = capsys.readouterr().out.splitlines()[1:]
    verdicts = {line.split()[0]: line.rsplit("; ", 1)[1] for line in lines}
    assert verdicts == {"worse": "worse than bound", "noisy": "unresolved",
                        "noisy_beaten": "within bound",
                        "steady": "within bound"}


def pair_rule_verdicts(capsys, pairs):
    """The pair-rule part of each line: a change that wins every pair by
    a wide margin."""
    metrics = [{"name": "rate", "better": "higher", "bound": 0.25}]
    base = [{"rate": 100 + i % 3} for i in range(pairs)]
    change = [{"rate": 200 + i % 3} for i in range(pairs)]
    bench_pairs.report(metrics, base, change)
    (line,) = capsys.readouterr().out.splitlines()[1:]
    return line.split("; ")[2]


def test_fewer_than_ten_pairs_claim_no_gain(capsys):
    assert pair_rule_verdicts(capsys, 9) == "too few pairs for the pair rule"
    assert pair_rule_verdicts(capsys, 10) == "gain by the pair rule"


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_pairs_below_one_are_a_usage_error(capsys, pairs):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", "a", "--change", "b", "--workload", "w",
                          "--pairs", pairs])
    assert exc.value.code == 2
    assert f"must be at least 1, got {pairs}" in capsys.readouterr().err


@pytest.mark.parametrize("seconds", ["0", "-2", "nan"])
def test_seconds_not_above_zero_are_a_usage_error(capsys, seconds):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", "a", "--change", "b", "--workload", "w",
                          "--pairs", "1", "--seconds", seconds])
    assert exc.value.code == 2
    assert f"must be above 0, got {seconds}" in capsys.readouterr().err


@pytest.mark.parametrize("given, used", [([], 7.0),
                                         (["--seconds", "0.5"], 0.5)])
def test_run_seconds_apply_only_when_seconds_is_absent(
        tmp_path, monkeypatch, given, used):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 7.0, "end_to_end": []}')
    asked = []

    def run_once(checkout, workload, seed, seconds):
        asked.append(seconds)
        return "python", {}
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--base", str(tmp_path), "--change",
                             str(tmp_path), "--workload", "w",
                             "--pairs", "1", *given]) == 0
    assert asked == [used, used]
