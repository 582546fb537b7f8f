"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --base PARENT_DIR --change CHANGE_DIR \
        --workload construct_large --pairs 10 [--seconds 25]

Each checkout is a directory holding `perfbench/run.py` and `src/`; make
one for a commit with `git archive <rev> | tar -x -C <dir>`.  Pair i runs
`perfbench/run.py --trace 0` once in each checkout with seed i + 1,
the base first in even pairs and the change first in odd ones.  The run
length defaults to `run_seconds` in the change's `BENCHMARK.json`, which
also names the end-to-end metrics and which direction is better.

Every run's kernel backend (from the `kernel_backend` of its `# env`
line) and metrics are printed as it ends.  At the end, for each metric:
each side's median and quartiles, the pairs the change won (ties count for
neither side), and whether a gain may be claimed: wins in at least nine
tenths of the pairs and a median gap, in the better direction, larger than
the distance between the base's quartiles; with fewer than ten pairs it
says "too few pairs" instead.  Each metric also gets a verdict against
its `bound` in `BENCHMARK.json`: "worse than bound" when
the change's median is worse than the base's by more than `bound` of the
base's; otherwise "unresolved" when the base's quartile spread exceeds
`bound` of its median, unless every change run beats every base run; and
"within bound" otherwise.  The exit code is 1, after the
runs made so far are reported, if any run fails or prints no result or
no `# env` line, or if the two runs of a pair report different kernel
backends: a checkout with the C kernel built in place times the compiled
kernel and a fresh one the Python twin, so such a pair compares kernels,
not the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10  # the fewest pairs the pair rule can grant a gain on


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The kernel backend and the end-to-end metric values of one run, or
    None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        backend = next(json.loads(line[len("# env "):])["kernel_backend"]
                       for line in lines if line.startswith("# env "))
        doc = json.loads(lines[-1])
        ok = proc.returncode == 0 and doc["correct"] is True
    except (StopIteration, IndexError, ValueError, TypeError, KeyError):
        ok = False
    if not ok:
        print(f"# run failed in {checkout} (exit {proc.returncode}):\n"
              + "\n".join(lines[-5:] + proc.stderr.strip().splitlines()[-5:]),
              file=sys.stderr)
        return None
    return backend, {name: m["value"] for name, m in doc["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(m: dict, b: list[float], c: list[float]) -> str:
    """m's no-regression verdict on the base runs b and the change runs c."""
    sign, bound = (1 if m["better"] == "higher" else -1), m["bound"]
    bq, cq = quartiles(b), quartiles(c)
    if sign * (bq[1] - cq[1]) > bound * abs(bq[1]):
        return "worse than bound"
    beats_all = all(sign * (y - x) > 0 for x in b for y in c)
    if bq[2] - bq[0] > bound * abs(bq[1]) and not beats_all:
        return "unresolved"
    return "within bound"


def report(metrics: list[dict], base: list[dict], change: list[dict]) -> None:
    pairs = len(base)
    print(f"# {pairs} pairs; median [q1, q3] per side")
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        b = [r[name] for r in base]
        c = [r[name] for r in change]
        bq, cq = quartiles(b), quartiles(c)
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        gap = sign * (cq[1] - bq[1])
        rule = ("too few pairs for" if pairs < MIN_PAIRS
                else "gain by" if wins >= 0.9 * pairs and gap > bq[2] - bq[0]
                else "no gain by")
        print(f"{name:14s} base {bq[1]:.4f} [{bq[0]:.4f}, {bq[2]:.4f}]  "
              f"change {cq[1]:.4f} [{cq[0]:.4f}, {cq[2]:.4f}]  "
              f"{m['better']} is better; change wins {wins}/{pairs}; "
              f"{rule} the pair rule; "
              f"{verdict(m, b, c)}")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def above_zero(text: str) -> float:
    value = float(text)
    if not value > 0:  # NaN too
        raise argparse.ArgumentTypeError(f"must be above 0, got {text}")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=positive_int, required=True)
    ap.add_argument("--seconds", type=above_zero)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sides = {"base": args.base, "change": args.change}
    results: dict[str, list[dict]] = {"base": [], "change": []}
    ok = True
    for i in range(args.pairs):
        seed = i + 1
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        got = {side: run_once(sides[side], args.workload, seed, seconds)
               for side in order}
        for side in order:
            shown = got[side] and f"kernel {got[side][0]} " + " ".join(
                f"{k} {v:.4f}" for k, v in sorted(got[side][1].items()))
            print(f"pair {i} seed {seed} {side:6s} {shown or 'FAILED'}",
                  flush=True)
        if None in got.values():
            ok = False
            break
        if got["base"][0] != got["change"][0]:
            print(f"# pair {i}: the base ran the {got['base'][0]} kernel "
                  f"and the change the {got['change'][0]} kernel; build "
                  "the C kernel in both checkouts or in neither",
                  file=sys.stderr)
            ok = False
            break
        for side in order:
            results[side].append(got[side][1])
    if results["base"]:
        report(spec["end_to_end"], results["base"], results["change"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
