"""Closed-form bounds, lower-bound certification by gluing, and the census
harness over graph6 streams.

All bound values are exact rationals (fractions.Fraction); floats appear
only in display code.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from fractions import Fraction

from .constructive import ConstructionError, cubic_limit, ipf_cubic
from .graph import Graph, Graph6Error, GraphError, parse_graph6
from .solver import (
    DEFAULT_NODE_LIMIT, DEFAULT_TIME_LIMIT, check_budget, rho_exact,
)


@dataclass
class BoundReport:
    k: int
    value: Fraction
    formula: str  # tree_closed_form | tree_recurrence | ck_odd | ck_even | ck_c3 | ck_c4
    inputs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "value": str(self.value),
            "formula": self.formula,
            "inputs": dict(self.inputs),
        }


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
    ((k-1)^(h+1) + (-1)^h) / k, cross-checked against the recurrence."""
    if k < 3 or h < 0:
        raise ValueError("need k >= 3 and h >= 0")
    closed = Fraction((k - 1) ** (h + 1) + (-1) ** h, k)
    rec = rho_tree_recurrence(k, h)
    if closed != rec:
        raise AssertionError(
            f"tree formula mismatch at k={k}, h={h}: {closed} vs {rec}")
    return closed


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


def ck_lower_report(k: int) -> BoundReport:
    formula = {3: "ck_c3", 4: "ck_c4"}.get(k, "ck_odd" if k % 2 else "ck_even")
    return BoundReport(k=k, value=ck_lower(k), formula=formula)


# ---------------------------------------------------------------------------
# Lower bounds by vertex-gluing
# ---------------------------------------------------------------------------

def glue_lower_bound(g: Graph, components) -> int:
    """Lower bound on the induced path number of g from a decomposition
    into components glued at shared vertices.

    components: vertex sets whose union covers g, pairwise overlapping in
    at most one vertex, with every edge of g inside some component.  Each
    gluing costs one path, so the bound is the sum of the components' rho
    minus the number of gluings (total overlap).  Each component's rho is
    proved by ``rho_exact``; one it cannot prove within the default budget
    raises GraphError."""
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
    total = 0
    for c in comps:
        res = rho_exact(g.induced_subgraph(c)[0])
        if not res.optimal:
            raise GraphError("component too large for an exact lower bound")
        total += res.rho
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
        except (ConstructionError, GraphError) as exc:
            # ipf_cubic raises ConstructionError above cubic_limit(n) paths
            out["violation"] = f"construction failed: {exc}"
            return out
    if mode in ("exact_rho", "both"):
        res = rho_exact(g, node_limit=node_limit, time_limit=time_limit,
                        incumbent=cert.ipf if mode == "both" else None)
        out["rho"] = res.rho
        out["optimal"] = res.optimal
        if not res.optimal:
            out["truncated"] = True
        elif res.rho > limit:
            out["violation"] = f"exact rho {res.rho} > {limit}"
    return out


def census(lines, mode: str = "both", jobs: int = 1,
           node_limit: int = DEFAULT_NODE_LIMIT,
           time_limit: float = DEFAULT_TIME_LIMIT) -> CensusReport:
    """Run the verification pipeline over newline-delimited graph6 input.

    Graphs that are not connected and cubic are counted as skipped; parse
    errors are reported per line and processing continues.  A bad mode,
    budget or jobs < 1 raises ValueError before any line is read.

    Mode "both" hands each host's certificate to ``rho_exact`` as its
    incumbent, so the exact search looks only for IPFs with fewer paths
    and, finding none, reports the certificate's count.  The report is
    the one the unseeded search gives whenever the search ends; under a
    budget more hosts end proved, and none reports a rho above its
    certificate's.  So mode "both" no longer checks the kernel
    independently of the constructor: a kernel that missed covers would
    report the certificate's count rather than a rho above it.  Mode
    "exact_rho" runs the search unseeded and keeps that check."""
    if mode not in ("verify_theorem", "exact_rho", "both"):
        raise ValueError(f"unknown census mode: {mode!r}")
    check_budget(node_limit, time_limit)
    if not jobs >= 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [(i + 1, line.strip(), mode, node_limit, time_limit)
             for i, line in enumerate(lines) if line.strip()]
    if jobs > 1:
        # four chunks per worker, as multiprocessing.Pool.map sizes them
        chunk = max(1, len(tasks) // (4 * jobs))
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_census_one, tasks, chunksize=chunk))
    else:
        results = [_census_one(t) for t in tasks]
    report = CensusReport()
    for out in results:  # in line order, as map returns them
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
