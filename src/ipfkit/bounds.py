"""Closed-form bounds, lower-bound certification by gluing, and the census
harness over graph6 streams.

All bound values are exact rationals (fractions.Fraction); floats appear
only in display code.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass, field
from fractions import Fraction

from .constructive import ConstructionError, cubic_limit, ipf_cubic
from .graph import Graph, Graph6Error, GraphError, parse_graph6
from .ipf import IpfError
from .solver import (
    DEFAULT_NODE_LIMIT, DEFAULT_TIME_LIMIT, check_budget, rho_exact,
)


def rho_tree_recurrence(k: int, h: int) -> Fraction:
    """Minimum path count for a perfect (k-1)-ary tree of height h, by the
    recurrence a(h) = 1 + (k-3) a(h-1) + 2(k-2) sum_{i<=h-2} a(i),
    a(0) = 1."""
    if k < 3 or h < 0:
        raise ValueError("need k >= 3 and h >= 0")
    a = [Fraction(1)]
    for j in range(1, h + 1):
        a.append(1 + (k - 3) * a[j - 1] + 2 * (k - 2) * sum(a[:j - 1]))
    return a[h]


def rho_tree(k: int, h: int) -> Fraction:
    """Minimum path count for a perfect (k-1)-ary tree of height h:
    ((k-1)^(h+1) + (-1)^h) / k, the closed form of the recurrence that
    ``rho_tree_recurrence`` evaluates term by term."""
    if k < 3 or h < 0:
        raise ValueError("need k >= 3 and h >= 0")
    return Fraction((k - 1) ** (h + 1) + (-1) ** h, k)


def ck_lower(k: int) -> Fraction:
    """Best known lower bound on the limiting ratio of the maximum induced
    path number to the order, over connected k-regular graphs."""
    if k < 3:
        raise ValueError("need k >= 3")
    if k == 3:
        return Fraction(5, 18)
    if k == 4:
        return Fraction(3, 7)
    if k % 2:
        return Fraction(1, 2) - Fraction(3 * k - 4, k * k * (k - 1))
    return Fraction(1, 2) - Fraction(1, 2 * k - 2)


def ck_lower_report(k: int) -> dict:
    """The ``bounds --ck K --json`` document: k, ``ck_lower(k)`` as a
    string, and the name of the formula that gave it."""
    return {"k": k, "value": str(ck_lower(k)),
            "formula": {3: "ck_c3", 4: "ck_c4"}.get(
                k, "ck_odd" if k % 2 else "ck_even")}


# ---------------------------------------------------------------------------
# Lower bounds by vertex-gluing
# ---------------------------------------------------------------------------

def glue_lower_bound(g: Graph, components) -> int:
    """Lower bound on the induced path number of g from a decomposition
    into components glued at shared vertices.

    components: vertex sets whose union covers g, pairwise overlapping in
    at most one vertex, with every edge of g inside some component.  Each
    gluing costs one path, so the bound is the sum of lower bounds on the
    components' rho minus the number of gluings (total overlap).  Each
    component's bound is the certified ``stats["lower"]`` of ``rho_exact``,
    its rho when the default budget lets it prove one, and otherwise a
    smaller count that no cover of the component goes below."""
    comps = [frozenset(c) for c in components]
    covered: set[int] = set()
    overlap = 0
    for c in comps:
        overlap += len(c & covered)
        covered |= c
    if covered != set(range(g.n)):
        raise GraphError("decomposition does not cover the vertex set")
    for i, a in enumerate(comps):
        for b in comps[i + 1:]:
            if len(a & b) > 1:
                raise GraphError("components may share at most one vertex")
    for u, v in g.edges:
        if not any(u in c and v in c for c in comps):
            raise GraphError(f"edge {u}{v} crosses the decomposition")
    total = sum(rho_exact(g.induced_subgraph(c)[0]).stats["lower"]
                for c in comps)
    return total - overlap


# ---------------------------------------------------------------------------
# Census harness
# ---------------------------------------------------------------------------

@dataclass
class CensusReport:
    graphs_processed: int = 0
    skipped: int = 0
    errors: list[str] = field(default_factory=list)
    n_to_max_rho: dict[int, int] = field(default_factory=dict)
    rho_histogram: dict[int, int] = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)
    budget_exhausted: int = 0

    def to_json(self) -> dict:
        return {
            "graphs_processed": self.graphs_processed,
            "skipped": self.skipped,
            "errors": list(self.errors),
            "n_to_max_rho": {str(n): r for n, r
                             in sorted(self.n_to_max_rho.items())},
            "rho_histogram": {str(r): c for r, c
                              in sorted(self.rho_histogram.items())},
            "violations": list(self.violations),
            "budget_exhausted": self.budget_exhausted,
        }


def _census_one(args):
    line_no, line, mode, node_limit, time_limit = args
    out = {"line": line_no, "graph6": line}
    try:
        g = parse_graph6(line)
    except Graph6Error as exc:
        out["error"] = f"line {line_no}: {exc}"
        return out
    if not g.is_cubic() or not g.is_connected():
        out["skip"] = True
        return out
    out["n"] = g.n
    limit = cubic_limit(g.n)
    if mode in ("verify_theorem", "both"):
        try:
            cert = ipf_cubic(g)
            out["construct_paths"] = cert.ipf.path_count
        except (ConstructionError, GraphError, IpfError) as exc:
            # an IPF over cubic_limit(n) paths, or no IPF, from a reduction
            out["violation"] = f"construction failed: {exc}"
            return out
    if mode in ("exact_rho", "both"):
        res = rho_exact(g, node_limit=node_limit, time_limit=time_limit,
                        incumbent=cert.ipf if mode == "both" else None)
        out["rho"] = res.rho
        if not res.optimal:
            out["truncated"] = True
        elif res.rho > limit:
            out["violation"] = f"exact rho {res.rho} > {limit}"
    return out


def check_jobs(jobs) -> None:
    """Raise ValueError unless census can run with `jobs` processes here:
    an int, not a bool, at least 1, and above 1 only where os.fork
    exists."""
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be an integer of at least 1, "
                         f"got {jobs!r}")
    if jobs > 1 and not hasattr(os, "fork"):
        raise ValueError(f"jobs={jobs} needs os.fork, which this platform "
                         f"lacks; use jobs=1")


def _portable(exc: Exception) -> Exception:
    """exc if it survives a pickle round trip, else a RuntimeError with
    its type and message (an exception whose __init__ takes other
    arguments than its args does not)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _fork_worker(share: list) -> tuple[int, int]:
    """Fork a process that runs _census_one over share and writes one
    pickle, (True, results) or (False, exception), to a pipe; returns its
    pid and the pipe's read end.  The worker leaves only through
    os._exit, so it never returns into the caller's stack."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    status = 1
    try:
        os.close(r)
        try:
            data = pickle.dumps((True, [_census_one(t) for t in share]))
        except Exception as exc:
            data = pickle.dumps((False, _portable(exc)))
        with open(w, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _census_split(tasks: list, jobs: int) -> list:
    """[_census_one(t) for t in tasks], by the calling process and up to
    jobs - 1 forked workers: worker k takes tasks[k::jobs] while the
    caller takes tasks[0::jobs], and the shares are merged back in task
    order.  A worker's exception is raised here; a worker that dies
    before sending its results raises RuntimeError with its exit status.
    On any exit, every worker not yet reaped is killed and reaped first."""
    jobs = max(1, min(jobs, len(tasks)))
    workers = []  # (pid, read end) of each worker not yet reaped
    try:
        for k in range(1, jobs):
            workers.append(_fork_worker(tasks[k::jobs]))
        results = [None] * len(tasks)
        results[0::jobs] = [_census_one(t) for t in tasks[0::jobs]]
        for k in range(1, jobs):
            pid, fd = workers[0]
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            os.close(fd)
            try:
                ok, value = pickle.loads(data)
            except Exception:  # empty or cut short: the worker died
                code = os.waitstatus_to_exitcode(status)
                how = (f"was killed by signal {-code}" if code < 0
                       else f"exited with status {code}")
                raise RuntimeError(f"census worker {k} {how} before "
                                   f"sending its results") from None
            if not ok:
                raise value
            results[k::jobs] = value
        return results
    finally:
        for pid, fd in workers:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def census(lines, mode: str = "both", jobs: int = 1,
           node_limit: int = DEFAULT_NODE_LIMIT,
           time_limit: float = DEFAULT_TIME_LIMIT) -> CensusReport:
    """Run the verification pipeline over `lines`, an iterable of graph6
    lines such as an open file or a list of strings.

    Graphs that are not connected and cubic are counted as skipped; parse
    errors are reported per line and processing continues.  A bad mode,
    budget, jobs that is not an int of at least 1 (a float or a bool is
    refused), jobs > 1 where os.fork is missing (POSIX has it),
    or `lines` given as one string, which would be read character by
    character, raises ValueError before any line is read.

    jobs=N runs the census in the calling process and N-1 workers forked
    from it: of the non-blank lines, worker k takes every N-th from the
    (k+1)-th on and the caller every N-th from the first, and the results
    merge back in line order, so the report is the same at every N.  A
    caller that runs threads should pass jobs=1, since Python 3.12 and
    later warn on forking a threaded process.

    Mode "both" hands each host's certificate to ``rho_exact`` as its
    incumbent, so the exact search looks only for IPFs with fewer paths
    and, finding none, reports the certificate's count.  The report is
    the one the unseeded search gives whenever the search ends; under a
    budget more hosts end proved, and none reports a rho above its
    certificate's.  So mode "both" no longer checks the kernel
    independently of the constructor: a kernel that missed covers would
    report the certificate's count rather than a rho above it.  Mode
    "exact_rho" runs the search unseeded and keeps that check."""
    if isinstance(lines, str):
        raise ValueError("census reads an iterable of graph6 lines, not one "
                         "string; pass text.splitlines()")
    if mode not in ("verify_theorem", "exact_rho", "both"):
        raise ValueError(f"unknown census mode: {mode!r}")
    check_budget(node_limit, time_limit)
    check_jobs(jobs)
    tasks = [(i + 1, line.strip(), mode, node_limit, time_limit)
             for i, line in enumerate(lines) if line.strip()]
    report = CensusReport()
    for out in _census_split(tasks, jobs):  # in line order
        if "error" in out:
            report.errors.append(out["error"])
            continue
        if out.get("skip"):
            report.skipped += 1
            continue
        report.graphs_processed += 1
        n = out["n"]
        if out.get("truncated"):
            report.budget_exhausted += 1
        if "violation" in out:
            report.violations.append(
                {"line": out["line"], "graph6": out["graph6"],
                 "detail": out["violation"]})
        rho = out.get("rho", out.get("construct_paths"))
        if rho is not None and not out.get("truncated"):
            report.n_to_max_rho[n] = max(report.n_to_max_rho.get(n, 0), rho)
            report.rho_histogram[rho] = report.rho_histogram.get(rho, 0) + 1
    return report
