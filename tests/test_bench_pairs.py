"""The verdicts that ``tools/bench_pairs.py`` prints per metric."""

import importlib.util
from pathlib import Path

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
