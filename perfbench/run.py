"""End-to-end and per-layer benchmark of ipfkit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census_small --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``census_small``    ``census(mode="both", jobs=1)`` over every connected
  cubic graph with n = 10, 12 and 14 (613 graphs).
* ``solve_large``     ``rho_exact`` on a panel of random cubic hosts,
  n = 24..28.
* ``construct_large`` ``ipf_cubic`` on random cubic hosts, n = 40..46, and
  on bridged hosts built from random cubic blocks, n <= 62.
* ``census_cli_pool`` the CLI ``census --mode both --jobs 2 --json --stable``
  on the n = 14 graphs, in a fresh interpreter per run.

Each workload is a set of timed units (a census call, a host, a CLI run).
Every unit runs once, in an order drawn from ``--seed``; then passes in
seeded order repeat, for ``--seconds`` in all, skipping units that would not
end in the time left.  End-to-end times are scaled to a reference machine
speed (see ``Clock``).  Every answer is checked; any failure makes the exit
code 1.  With ``--trace 0`` the last line of output is a JSON object
holding the end-to-end metrics, with ``--trace 1`` the per-layer ones,
which come from one untraced and one traced pass.  Spans of the traced
pass are written to ``perfbench/out/spans-<workload>.jsonl``.  ``--smoke``
runs every workload on a few inputs only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import hosts
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
OUT = HERE / "out"

SETUP_REPS = 11
CHILD_TIMEOUT_S = 120
# End-to-end timings are scaled to a machine on which reference_loop()
# takes REF_S; the loop is timed every TICK_S seconds through the run.
REF_S = 0.002
TICK_S = 0.2
# reference_loop() walks the induced paths of the circulant cubic graph
# C20(1, 10), as bit masks, from REF_STARTS start vertices to REF_DEPTH edges
REF_ADJ = tuple(sum(1 << w for w in ((v + 1) % 20, (v - 1) % 20,
                                    (v + 10) % 20))
                for v in range(20))
REF_STARTS = 10
REF_DEPTH = 12

# The child interpreter imports ipfkit from this checkout and runs the CLI
# exactly as the console script does, then reports its import time and the
# peak RSS of the largest single process: itself or one of its reaped
# children (the census pool workers), not their sum.
CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ipfkit.cli
t1 = time.perf_counter()
rc = ipfkit.cli.main(sys.argv[2:])
sys.stdout.flush()
import json, resource
rss = max(resource.getrusage(w).ru_maxrss
          for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(json.dumps({"import_s": t1 - t0, "maxrss_kb": rss}), file=sys.stderr)
sys.exit(rc)
"""

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "graphs_per_s": "1/s",
    "graph_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
ROUTES = ("base-small", "two-factor", "bridge-split", "k4minus-reduction",
          "two-edge-cut")
PER_LAYER = {  # name -> unit; every value is per traced pass
    "graph.parse_graph6.self_s": "s",
    "graph.hamilton_cycle.calls": "count",
    "graph.hamilton_cycle.self_s": "s",
    "graph.hamilton_cycle.calls_per_host": "calls/host",
    "graph.two_factor_search.self_s": "s",
    "graph.block_decomposition.self_s": "s",
    "graph.self_s": "s",
    "solver.rho_exact.self_s": "s",
    "solver.longest_induced_path_order.calls": "count",
    "solver.longest_induced_path_order.self_s": "s",
    "solver.longest_induced_path_order.exact_frac": "ratio",
    "solver.rho_exhaustive.calls": "count",
    "solver.rho_exhaustive.self_s": "s",
    "solver.self_s": "s",
    "kernel.solve_min_ipf.calls": "count",
    "kernel.solve_min_ipf.self_s": "s",
    "kernel.nodes": "count",
    "kernel.nodes_per_s": "1/s",
    "kernel.truncated": "count",
    "ipf.verify_ipf.calls": "count",
    "ipf.verify_ipf.self_s": "s",
    "ipf.verify_ipf.calls_per_host": "calls/host",
    "ipf.self_s": "s",
    "constructive.ipf_cubic.self_s": "s",
    "constructive.ipf_23_with_2factor.self_s": "s",
    "constructive.ipf_blocktree.self_s": "s",
    "constructive.ipf_ham23.self_s": "s",
    "constructive.lift.calls": "count",
    "constructive.self_s": "s",
    **{f"constructive.route.{r}": "count" for r in ROUTES},
    "surgery.calls": "count",
    "surgery.self_s": "s",
    "bounds.census.self_s": "s",
    "bounds.pool.speedup": "ratio",
    "bounds.pool.efficiency": "ratio",
    "cli.cold_import_s": "s",
    "cli.main.self_s": "s",
    "harness.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
    "fail_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Tally:
    """Attempted and failed operations, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, count: int, problems: list[str], what: str = "") -> None:
        self.attempted += count
        if problems:
            self.failed += count
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(problems)}")


def error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def shuffled(items, rng: random.Random) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def read_lines(name: str) -> list[str]:
    return (DATA / name).read_text().split()


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python search: the machine's speed now.

    It is recursion over bit masks, the kind of code ipfkit spends its time
    in, so the neighbours' load slows it about as much as it slows ipfkit
    (see perfbench/README.md)."""

    def walk(mask: int, tip: int, depth: int) -> None:
        if depth == REF_DEPTH:
            return
        cands = REF_ADJ[tip] & ~mask
        while cands:
            bit = cands & -cands
            cands ^= bit
            w = bit.bit_length() - 1
            if not REF_ADJ[w] & mask & ~(1 << tip):
                walk(mask | bit, w, depth + 1)

    t0 = time.perf_counter()
    for start in range(REF_STARTS):
        walk(1 << start, start, 0)
    return time.perf_counter() - t0


class Clock:
    """Scales timed calls to a machine on which reference_loop() takes
    REF_S.

    On a host shared with other jobs, the speed of one CPU drifts by up to
    2 times, in phases of tens of seconds, so raw times of one run say
    more about the neighbours than about the program.  While the clock
    runs, a timer signal runs reference_loop() every TICK_S seconds; a
    call's time is scaled by the median loop time from 5 ticks before the
    call to 5 ticks after it, which cancels the drift.  The loop costs
    2 to 3 % of the run, and is held back while a child interpreter
    runs."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (when, loop seconds)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        self.ticks.append((time.perf_counter(), reference_loop()))

    def scale(self, seconds: float, start: float, end: float) -> float:
        """Scale a call timed at `seconds` that ran between start and end;
        call this after the clock has stopped."""
        margin = 5 * TICK_S
        near = [ref for when, ref in self.ticks
                if start - margin <= when <= end + margin]
        return seconds * REF_S / statistics.median(
            near or [ref for _, ref in self.ticks])


# ---------------------------------------------------------------------------
# Independent answer checks
# ---------------------------------------------------------------------------

def path_problems(line: str, paths, count: int) -> list[str]:
    """Check paths as an induced path factor of the graph6 host, using only
    the benchmark's own decoder: the paths cover every vertex once,
    consecutive vertices are adjacent, no other pair of vertices of a path
    is adjacent, and there are `count` of them."""
    n, edges = hosts.read_graph6(line)
    adj = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = [v for p in paths for v in p]
    if sorted(seen) != list(range(n)):
        return ["paths do not cover every vertex exactly once"]
    if len(paths) != count:
        return [f"{len(paths)} paths reported as {count}"]
    for p in paths:
        members = set(p)
        for i, v in enumerate(p):
            want = {p[j] for j in (i - 1, i + 1) if 0 <= j < len(p)}
            if adj[v] & members != want:
                return [f"path {p} is not an induced path at vertex {v}"]
    return []


def solve_problems(line: str, res, paths, expected: dict) -> list[str]:
    problems = []
    if not res.optimal:
        problems.append("optimal=False")
    if res.rho != expected["rho"]:
        problems.append(f"rho {res.rho}, expected {expected['rho']}")
    if res.rho > expected["construct_paths"]:
        problems.append(f"rho {res.rho} above the ipf_cubic path count "
                        f"{expected['construct_paths']}")
    return problems + path_problems(line, paths, res.rho)


def construct_problems(line: str, cert, paths) -> list[str]:
    n, _ = hosts.read_graph6(line)
    limit = 2 if n <= 6 else (n - 1) // 3
    problems = []
    if cert.graph6 != line or cert.n != n or not cert.verified:
        problems.append("certificate does not describe the input host")
    if cert.ipf.path_count > limit:
        problems.append(f"{cert.ipf.path_count} paths exceed the bound "
                        f"{limit}")
    return problems + path_problems(line, paths, cert.ipf.path_count)


def census_problems(report, expected: dict) -> list[str]:
    got = report.to_json()
    want = {"graphs_processed": expected["graphs"], "skipped": 0,
            "errors": [], "violations": [], "budget_exhausted": 0,
            "rho_histogram": expected["rho_histogram"],
            "n_to_max_rho": expected["n_to_max_rho"]}
    return [f"{key} is {got[key]!r}, expected {val!r}"
            for key, val in want.items() if got[key] != val]


# ---------------------------------------------------------------------------
# Child interpreters
# ---------------------------------------------------------------------------

def run_child(argv: list[str], stdin: str | None = None):
    """Run the CLI in a fresh interpreter; returns (seconds, exit code,
    stdout, child report).  On timeout the child's process group is
    killed, pool workers included."""
    cmd = [sys.executable, "-c", CHILD, str(SRC), *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    # no reference loop while the child runs: it would compete with the
    # child for the CPUs; the tick held back runs as soon as the child ends
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        out, err = proc.communicate(stdin, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return time.perf_counter() - t0, None, "", {}
    finally:
        seconds = time.perf_counter() - t0
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
    try:
        report = json.loads(err.strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = {"stderr": err[-2000:]}
    return seconds, proc.returncode, out, report


def cold_start(tally: Tally) -> tuple:
    """Cold start to the first answer: a fresh interpreter imports ipfkit
    and solves the Petersen graph through the CLI.  Returns (seconds,
    start, end, child import seconds)."""
    argv = ["solve", "--input", str(DATA / "petersen.g6"), "--json",
            "--stable"]
    start = time.perf_counter()
    seconds, rc, out, report = run_child(argv)
    end = time.perf_counter()
    problems = [] if rc == 0 else [f"exit code {rc}: {report}"]
    try:
        doc = json.loads(out)
        if doc["rho"] != 3 or not doc["optimal"]:
            problems.append(f"Petersen solve gave {doc['rho']}")
    except (ValueError, KeyError) as exc:
        problems.append(f"unreadable solve output: {exc}")
    tally.record(1, problems, "setup")
    return seconds, start, end, report.get("import_s", 0.0)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """A workload is a set of units, each a timed call on some graphs: one
    census call per fixture, one host of a panel, or one CLI run."""

    name = ""
    per_host = False  # graph_p50_ms from per-host times, else per graph

    def __init__(self, ipfkit, expected: dict, smoke: bool):
        self.ipfkit = ipfkit
        self.expected = expected
        self.smoke = smoke
        self.units: dict[str, int] = {}  # unit -> graphs in it

    @property
    def graphs(self) -> int:
        return sum(self.units.values())

    def run_unit(self, unit: str, rng: random.Random, tally: Tally) -> float:
        """Run and check one unit; returns its timed seconds."""
        raise NotImplementedError

    def traced_unit(self, unit, rng, tally) -> float:
        return self.run_unit(unit, rng, tally)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def layer_extras(self, tally: Tally) -> dict:
        return {}


class CensusSmall(Workload):
    name = "census_small"

    def __init__(self, *args):
        super().__init__(*args)
        self.fixtures = {f"cubic_n{n}.g6": n
                         for n in ((10,) if self.smoke else (10, 12, 14))}
        self.lines = {name: read_lines(name) for name in self.fixtures}
        self.units = {name: len(lines) for name, lines in self.lines.items()}

    def run_unit(self, unit, rng, tally):
        lines = shuffled(self.lines[unit], rng)
        t0 = time.perf_counter()
        try:
            report = self.ipfkit.census(lines, mode="both", jobs=1)
        except Exception as exc:  # counted as a failure, the run goes on
            report, problems = None, [error_text(exc)]
        seconds = time.perf_counter() - t0
        if report is not None:
            problems = census_problems(
                report, self.expected["census"][str(self.fixtures[unit])])
        tally.record(len(lines), problems, f"census {unit}")
        return seconds


class HostPanel(Workload):
    per_host = True
    smoke_hosts: tuple = ()

    def __init__(self, *args):
        super().__init__(*args)
        lines = read_lines(f"{self.name}.g6")
        if lines != hosts.panel(self.name):
            raise BenchError(f"data/{self.name}.g6 is not the panel that "
                             "hosts.py draws; regenerate it")
        if self.smoke:
            lines = [lines[i] for i in self.smoke_hosts]
        self.units = {line: 1 for line in lines}

    def answer(self, line: str):
        """The timed part: parse and answer one host, and verify the answer
        with verify_ipf; returns (answer, its paths)."""
        raise NotImplementedError

    def problems(self, line: str, result, paths) -> list[str]:
        raise NotImplementedError

    def run_unit(self, unit, rng, tally):
        t0 = time.perf_counter()
        try:
            result, paths = self.answer(unit)
            problems = None
        except Exception as exc:  # counted as a failure, the run goes on
            problems = [error_text(exc)]
        seconds = time.perf_counter() - t0
        if problems is None:
            problems = self.problems(unit, result, paths)
        tally.record(1, problems, f"{self.name} {unit}")
        return seconds


class SolveLarge(HostPanel):
    name = "solve_large"
    smoke_hosts = (0,)

    def answer(self, line):
        ipfkit = self.ipfkit
        res = ipfkit.rho_exact(ipfkit.parse_graph6(line))
        return res, ipfkit.verify_ipf(res.witness.host, res.witness.edges)

    def problems(self, line, res, paths):
        return solve_problems(line, res, paths,
                              self.expected["solve_large"][line])


class ConstructLarge(HostPanel):
    name = "construct_large"
    smoke_hosts = (0, 4)

    def answer(self, line):
        ipfkit = self.ipfkit
        cert = ipfkit.ipf_cubic(ipfkit.parse_graph6(line))
        return cert, ipfkit.verify_ipf(cert.ipf.host, cert.ipf.edges)

    def problems(self, line, cert, paths):
        return construct_problems(line, cert, paths)


class CensusCliPool(Workload):
    name = "census_cli_pool"
    argv = ["census", "--input", "-", "--mode", "both", "--json", "--stable"]

    def __init__(self, *args):
        super().__init__(*args)
        order = 10 if self.smoke else 14
        self.lines = read_lines(f"cubic_n{order}.g6")
        self.units = {"cli": len(self.lines)}
        self.stdout = self.expected["cli_census_stdout"][str(order)]
        self.peak_rss_kb = 0

    def check(self, tally, rc, out):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if out != self.stdout:
            problems.append("--stable JSON differs from the recorded bytes")
        tally.record(len(self.lines), problems, "cli census")

    def cli_run(self, rng, tally, jobs: int = 2) -> float:
        text = "\n".join(shuffled(self.lines, rng)) + "\n"
        seconds, rc, out, report = run_child(
            self.argv + ["--jobs", str(jobs)], text)
        self.peak_rss_kb = max(self.peak_rss_kb, report.get("maxrss_kb", 0))
        self.check(tally, rc, out)
        return seconds

    def run_unit(self, unit, rng, tally):
        return self.cli_run(rng, tally)

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024

    def traced_unit(self, unit, rng, tally):
        """The same CLI call in this process, so that it can be traced;
        spans inside the pool workers are not collected."""
        text = "\n".join(shuffled(self.lines, rng)) + "\n"
        out = io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                rc = sys.modules["ipfkit.cli"].main(self.argv + ["--jobs", "2"])
            seconds = time.perf_counter() - t0
        finally:
            sys.stdin = stdin
        self.check(tally, rc, out.getvalue())
        return seconds

    def layer_extras(self, tally):
        """Pool speed-up of the whole CLI call, jobs=2 against jobs=1."""
        rng = random.Random(0)
        one, two = [], []
        for _ in range(1 if self.smoke else 2):
            one.append(self.cli_run(rng, tally, jobs=1))
            two.append(self.cli_run(rng, tally, jobs=2))
        speedup = statistics.median(one) / statistics.median(two)
        return {"bounds.pool.speedup": speedup,
                "bounds.pool.efficiency": speedup / 2}


WORKLOADS = {w.name: w for w in (CensusSmall, SolveLarge, ConstructLarge,
                                 CensusCliPool)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure(workload: Workload, rng, tally, seconds: float,
            setup_reps: int) -> tuple[dict, list]:
    """Time every unit once, then keep making passes in seeded order until
    `seconds` have passed, skipping a unit whose median so far would not
    end in the time left.  Slow units thus get at least one sample and fast
    ones many, spread over the whole run.

    Cold starts are spread over the run too, since their speed shifts in
    phases of tens of seconds: one is due each time another 1/setup_reps
    of `seconds` has passed, and runs before the next unit; those still due
    at the end run then.  One unmeasured cold start comes first, so every
    measured one finds the bytecode cache written.  Returns (unit ->
    samples of (seconds, start, end), the cold starts)."""
    cold_start(tally)
    samples = {unit: [] for unit in workload.units}
    starts = []
    begin = time.perf_counter()
    deadline = begin + seconds

    def sample(unit):
        if time.perf_counter() - begin >= len(starts) * seconds / setup_reps:
            starts.append(cold_start(tally))
        start = time.perf_counter()
        timed = workload.run_unit(unit, rng, tally)
        samples[unit].append((timed, start, time.perf_counter()))

    for unit in shuffled(workload.units, rng):
        sample(unit)
    while True:
        ran = False
        for unit in shuffled(workload.units, rng):
            if statistics.median(s[0] for s in samples[unit]) \
                    <= deadline - time.perf_counter():
                sample(unit)
                ran = True
        if not ran:
            break
    while len(starts) < setup_reps:
        starts.append(cold_start(tally))
    return samples, starts


def rates(workload, samples) -> tuple[float, float]:
    """(graphs per second, per-graph milliseconds) from each unit's median
    time; the per-graph time is the median over hosts on a panel.  A census
    call gives no per-graph times, so on the census workloads it is the mean
    over graphs, 1000 / graphs per second."""
    unit_s = {unit: statistics.median(ts) for unit, ts in samples.items()}
    if workload.per_host:
        p50 = statistics.median(unit_s.values())
    else:
        p50 = sum(unit_s.values()) / workload.graphs
    return workload.graphs / sum(unit_s.values()), p50 * 1000


def per_layer(tracer: Tracer, workload, wall, untraced, cold_import,
              tally) -> dict:
    self_s, calls = tracer.self_times()
    counts = tracer.counts
    layer = defaultdict(float)
    layer_calls = defaultdict(int)
    for name, value in self_s.items():
        layer[name.split(".")[0]] += value
        layer_calls[name.split(".")[0]] += calls[name]
    graphs = workload.graphs
    lipo = "solver.longest_induced_path_order"
    kernel_s = self_s.get("kernel.solve_min_ipf", 0.0)
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in (
        "graph.parse_graph6", "graph.hamilton_cycle",
        "graph.two_factor_search", "graph.block_decomposition",
        "solver.rho_exact", lipo, "solver.rho_exhaustive",
        "kernel.solve_min_ipf", "ipf.verify_ipf", "constructive.ipf_cubic",
        "constructive.ipf_23_with_2factor", "constructive.ipf_blocktree",
        "constructive.ipf_ham23", "bounds.census", "cli.main")}
    out.update({f"{name}.calls": calls.get(name, 0) for name in (
        "graph.hamilton_cycle", lipo, "solver.rho_exhaustive",
        "kernel.solve_min_ipf", "ipf.verify_ipf", "constructive.lift")})
    out.update({f"{name}.self_s": layer[name] for name in (
        "graph", "solver", "ipf", "constructive", "surgery", "harness")})
    out.update({f"constructive.route.{r}": counts[f"constructive.route.{r}"]
                for r in ROUTES})
    out.update({
        "graph.hamilton_cycle.calls_per_host":
            calls.get("graph.hamilton_cycle", 0) / graphs,
        f"{lipo}.exact_frac":
            counts[f"{lipo}.exact"] / max(calls.get(lipo, 0), 1),
        "kernel.nodes": counts["kernel.nodes"],
        "kernel.nodes_per_s":
            counts["kernel.nodes"] / kernel_s if kernel_s else 0.0,
        "kernel.truncated": counts["kernel.truncated"],
        "ipf.verify_ipf.calls_per_host":
            calls.get("ipf.verify_ipf", 0) / graphs,
        "surgery.calls": layer_calls["surgery"],
        "bounds.pool.speedup": 0.0,
        "bounds.pool.efficiency": 0.0,
        "cli.cold_import_s": cold_import,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "trace.accounted_frac": sum(layer.values()) / wall,
    })
    out.update(workload.layer_extras(tally))
    out["fail_frac"] = tally.failed / max(tally.attempted, 1)
    return out


# ---------------------------------------------------------------------------
# Environment and entry point
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from its own .git; 'unknown' when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for row in (git / "packed-refs").read_text().splitlines():
            if row.endswith(" " + ref):
                return row.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for row in Path("/proc/cpuinfo").read_text().splitlines():
            if row.startswith("model name"):
                return row.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_ipfkit():
    """Import ipfkit from this checkout's src/, and from nowhere else."""
    pkg = SRC / "ipfkit"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no ipfkit sources under {pkg}")
    sys.path.insert(0, str(SRC))
    import ipfkit
    import ipfkit.cli  # noqa: F401  (traced, and run by census_cli_pool)
    if Path(ipfkit.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported ipfkit from {ipfkit.__file__}")
    return ipfkit


def environment(ipfkit) -> dict:
    return {
        "kernel_backend": ipfkit.kernel_backend(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="a few inputs per workload, for the self-check")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    ipfkit = load_ipfkit()
    env = environment(ipfkit)
    expected = json.loads((DATA / "expected.json").read_text())
    workload = WORKLOADS[args.workload](ipfkit, expected, args.smoke)
    tally = Tally()
    rng = random.Random(args.seed)
    setup_reps = 1 if args.smoke else SETUP_REPS
    print("# env " + json.dumps(env, sort_keys=True))

    if not args.trace:
        with Clock() as clock:
            samples, starts = measure(workload, rng, tally, args.seconds,
                                      setup_reps)
        scaled = {unit: [clock.scale(*s) for s in ss]
                  for unit, ss in samples.items()}
        raw = {unit: [s[0] for s in ss] for unit, ss in samples.items()}
        graphs_per_s, graph_p50_ms = rates(workload, scaled)
        metrics = {
            "setup_s": statistics.median(clock.scale(*s[:3])
                                         for s in starts),
            "graphs_per_s": graphs_per_s,
            "graph_p50_ms": graph_p50_ms,
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        units = END_TO_END
        counts = sorted(len(ts) for ts in raw.values())
        print(f"# {args.workload}: {len(raw)} units, {workload.graphs} "
              f"graphs; samples per unit {counts[0]} to {counts[-1]}, "
              f"{sum(counts)} in all")
        print("# unscaled: setup_s %.4f graphs_per_s %.4f graph_p50_ms %.4f;"
              " reference loop median %.5f s over %d ticks, scaled to "
              "%.5f s" % (statistics.median(s[0] for s in starts),
                          *rates(workload, raw),
                          statistics.median(r for _, r in clock.ticks),
                          len(clock.ticks), REF_S))
    else:
        cold_start(tally)  # writes the bytecode cache
        cold_import = statistics.median(cold_start(tally)[3]
                                        for _ in range(setup_reps))
        t0 = time.perf_counter()
        for unit in shuffled(workload.units, rng):
            workload.traced_unit(unit, rng, tally)
        untraced = time.perf_counter() - t0
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer.installed(), tracer.span("harness.pass"):
            for unit in shuffled(workload.units, rng):
                workload.traced_unit(unit, rng, tally)
        wall = time.perf_counter() - t0
        metrics = per_layer(tracer, workload, wall, untraced, cold_import,
                            tally)
        units = PER_LAYER
        spans = OUT / f"spans-{args.workload}.jsonl"
        tracer.write_spans(spans, {"workload": args.workload,
                                   "seed": args.seed, "env": env,
                                   "fields": ["id", "name", "start", "end",
                                              "parent"]})
        print(f"# {len(tracer.spans)} spans written to "
              f"{spans.relative_to(ROOT)}; tracing overhead "
              f"{wall - untraced:+.3f} s on {untraced:.3f} s")
    for reason in tally.reasons:
        print(f"# FAILED {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
