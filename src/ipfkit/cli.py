"""Command-line front end.

Subcommands: solve, construct, verify, generate, census, bounds.
Exit codes: 0 success, 1 usage error or stdout closed by its reader,
2 verification or bound violation, 3 budget exhausted.

IPF interchange format: a JSON object with a "graph6" string and an
"edges" list of [u, v] pairs (a construct certificate works directly,
since its "ipf" fragment carries the edges, and so does a solve result,
whose "witness" fragment is read where "ipf" is absent).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bounds import census, check_jobs, ck_lower_report, rho_tree
from .constructive import ConstructionError, ipf_23_with_2factor, ipf_cubic
from .families import generate
from .graph import (
    Graph, Graph6Error, GraphError, parse_adjlist, parse_graph6,
    write_adjlist, write_graph6,
)
from .ipf import Ipf, IpfError
from .solver import (
    DEFAULT_NODE_LIMIT, DEFAULT_TIME_LIMIT, EXHAUSTIVE_CAP, rho_exact,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_BUDGET = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _read_graph(args) -> Graph:
    text = _read_text(args.input).strip()
    if not text:
        raise CliError("empty input")
    if args.format == "graph6":
        lines = len([line for line in text.splitlines() if line.strip()])
        if lines > 1:
            raise CliError(f"graph6 input has {lines} lines, one graph "
                           f"each; {args.command} takes one graph, census "
                           "a stream of them")
    try:
        if args.format == "graph6":
            return parse_graph6(text)
        return parse_adjlist(text)
    except GraphError as exc:  # Graph6Error included
        raise CliError(f"cannot parse input graph: {exc}")


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items()
                if k not in ("seconds",)}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def _json_out(args, obj) -> str:
    if args.stable:
        obj = _strip_timings(obj)
    return json.dumps(obj, indent=2, sort_keys=True)


def _cmd_solve(args) -> int:
    g = _read_graph(args)
    res = rho_exact(g, node_limit=args.nodes, time_limit=args.budget)
    if args.json:
        payload = res.to_json_fragment()
        payload["graph6"] = write_graph6(g)
        _emit(args, _json_out(args, payload))
    else:
        lines = [f"n = {g.n}", f"rho = {res.rho}",
                 f"optimal = {res.optimal}", "paths:"]
        lines += ["  " + " ".join(map(str, p)) for p in res.witness.paths()]
        _emit(args, "\n".join(lines))
    return EXIT_OK if res.optimal else EXIT_BUDGET


def _cmd_construct(args) -> int:
    g = _read_graph(args)
    try:
        if g.is_cubic() and g.is_connected():
            cert = ipf_cubic(g)
            ipf, payload = cert.ipf, cert.to_json()
        else:
            ipf, method = None, "2factor"
            if g.n >= 7 and g.is_23_graph() and g.is_connected():
                ipf = ipf_23_with_2factor(g)
            if ipf is None:
                if g.n > EXHAUSTIVE_CAP:
                    raise CliError("no construction applies to this input",
                                   EXIT_VIOLATION)
                ipf, method = rho_exact(g).witness, "exact"
            payload = {"graph6": write_graph6(g), "n": g.n,
                       "method": method, "ipf": ipf.to_json_fragment(),
                       "verified": True}
    except (ConstructionError, GraphError, IpfError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    if args.json:
        _emit(args, _json_out(args, payload))
    else:
        lines = [f"n = {g.n}", f"paths = {ipf.path_count}"]
        if "trace" in payload:
            lines.append("trace = " + " -> ".join(payload["trace"]))
        lines.append("paths:")
        lines += ["  " + " ".join(map(str, p)) for p in ipf.paths()]
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _cmd_verify(args) -> int:
    text = _read_text(args.input)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"input is not JSON: {exc}")
    try:
        code = doc["graph6"]
        ipf_doc = doc["ipf"] if "ipf" in doc else doc.get("witness", {})
        if not isinstance(code, str) or not isinstance(ipf_doc, dict):
            raise TypeError('"graph6" must be a string and "ipf" (or '
                            '"witness") an object')
        g = parse_graph6(code)
        edges = doc.get("edges")
        if edges is None:
            edges = ipf_doc["edges"]
        edges = [tuple(e) for e in edges]
        if any(len(e) != 2 or any(type(v) is not int for v in e)
               for e in edges):
            # bool is an int subclass, so true/false would pass isinstance
            raise TypeError("every edge must be a pair of integer vertices")
        if any("path_count" in d and type(d["path_count"]) is not int
               for d in (doc, ipf_doc)):
            raise TypeError('"path_count" must be an integer')
    except (KeyError, TypeError, Graph6Error) as exc:
        raise CliError(f"malformed IPF document: {exc}")
    try:
        ipf = Ipf.from_edges(g, edges)
    except IpfError as exc:
        print(f"invalid IPF: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    expected = ipf_doc.get("path_count", doc.get("path_count"))
    if expected is not None and expected != ipf.path_count:
        print(f"path count mismatch: document says {expected}, "
              f"edges give {ipf.path_count}", file=sys.stderr)
        return EXIT_VIOLATION
    if args.json:
        _emit(args, _json_out(args, {"valid": True,
                                     "path_count": ipf.path_count}))
    else:
        _emit(args, f"valid IPF with {ipf.path_count} paths")
    return EXIT_OK


def _parse_params(raw: str) -> dict:
    params = {}
    if not raw:
        return params
    for part in raw.split(","):
        if "=" not in part:
            raise CliError(f"parameter {part!r} is not key=value")
        key, val = part.split("=", 1)
        key = key.strip()
        if key in params:
            raise CliError(f"parameter {key!r} is given twice")
        try:
            params[key] = int(val)
        except ValueError:
            # tuple-valued parameters like subdivided=0:2
            try:
                params[key] = tuple(int(x) for x in val.split(":"))
            except ValueError:
                raise CliError(f"parameter value {val!r} is not an integer "
                               "or colon-separated integers")
    return params


def _cmd_generate(args) -> int:
    params = _parse_params(args.params)
    try:
        g = generate(args.family, params)
    except GraphError as exc:
        raise CliError(str(exc))
    out = write_graph6(g) if args.format == "graph6" else write_adjlist(g)
    if args.json:
        _emit(args, _json_out(args, {"family": args.family,
                                     "params": params, "n": g.n,
                                     "edges": len(g.edges),
                                     args.format: out}))
    else:
        _emit(args, out)
    return EXIT_OK


def _cmd_census(args) -> int:
    try:
        check_jobs(args.jobs)
    except ValueError as exc:  # --jobs above 1 where os.fork is missing
        raise CliError(str(exc))
    text = _read_text(args.input)
    report = census(text.splitlines(), mode=args.mode, jobs=args.jobs,
                    node_limit=args.nodes, time_limit=args.budget)
    if args.json:
        _emit(args, _json_out(args, report.to_json()))
    else:
        lines = [f"graphs processed: {report.graphs_processed}",
                 f"skipped: {report.skipped}",
                 f"violations: {len(report.violations)}"]
        for n, r in sorted(report.n_to_max_rho.items()):
            lines.append(f"  max rho at n={n}: {r}")
        for err in report.errors:
            lines.append(f"  error: {err}")
        _emit(args, "\n".join(lines))
    if report.violations:
        return EXIT_VIOLATION
    if report.budget_exhausted:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_bounds(args) -> int:
    try:
        if args.ck is not None:
            doc = ck_lower_report(args.ck)
        else:  # the parser requires exactly one of --ck and --tree
            k, h = args.tree
            # refuse a value longer than the interpreter's int-to-str limit
            # (0: none); for k >= 3 it has about h*log10(k-1) digits, so a
            # far height is refused before the power is computed
            limit = sys.get_int_max_str_digits()
            far = limit and k >= 3 and (h > 4 * (limit + 1)
                                        or h * math.log10(k - 1) > limit + 1)
            value = None if far else rho_tree(k, h)
            if limit and (far or value >= 10 ** limit):
                raise ValueError(f"the tree value at K={k}, H={h} has more "
                                 f"than {limit} digits, the interpreter's "
                                 "limit for integer string conversion")
            doc = {"k": k, "h": h, "value": str(value),
                   "formula": "tree_closed_form"}
    except ValueError as exc:  # a parameter out of the formula's range
        raise CliError(str(exc))
    _emit(args, _json_out(args, doc) if args.json else doc["value"])
    return EXIT_OK


def _at_least(kind, low):
    """An argparse type: a `kind` value of at least `low`; NaN is refused."""
    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipfkit",
        description="Induced path factors: exact solving, certified "
                    "construction, families, bounds and census runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True, with_format=True):
        if with_input:
            p.add_argument("--input", default="-",
                           help="input file, or - for stdin")
        if with_format:
            p.add_argument("--format", choices=("graph6", "adjlist"),
                           default="graph6")
        p.add_argument("--output", help="write output to this file")
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of a table")
        p.add_argument("--stable", action="store_true",
                       help="suppress timing fields in JSON output")

    def budgets(p, time_budget):
        p.add_argument("--nodes", type=_at_least(int, 0),
                       default=DEFAULT_NODE_LIMIT,
                       help="node budget of the exact search; 0 (the default) "
                            "for no node budget")
        p.add_argument("--budget", type=_at_least(float, 0),
                       default=DEFAULT_TIME_LIMIT,
                       help=time_budget + " of the exact search in seconds; "
                            "0 for none (default %(default)s)")

    p = sub.add_parser("solve", help="exact minimum IPF")
    common(p)
    budgets(p, "time budget")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("construct", help="certified IPF construction")
    common(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="check an IPF interchange document")
    common(p, with_format=False)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("generate", help="emit a named family graph")
    common(p, with_input=False)
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="",
                   help="comma-separated key=value integers, e.g. n=9 "
                        "(colon-separated tuples: subdivided=0:2, or "
                        "subdivided=0 for one element)")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("census", help="verify a graph6 stream")
    common(p, with_format=False)
    p.add_argument("--mode", default="both",
                   choices=("verify_theorem", "exact_rho", "both"))
    p.add_argument("--jobs", type=_at_least(int, 1), default=1, metavar="N",
                   help="processes: this one and N-1 forked workers, each "
                        "taking every N-th line; results merge in line "
                        "order (above 1 on POSIX only; default 1)")
    budgets(p, "per-graph time budget")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("bounds", help="closed-form bound values")
    common(p, with_input=False, with_format=False)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--ck", type=int, help="lower bound for degree k")
    which.add_argument("--tree", type=int, nargs=2, metavar=("K", "H"),
                       help="perfect (K-1)-ary tree path count at height H")
    p.set_defaults(fn=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader gone raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # flush at exit does not raise again (the recipe in the Python
        # documentation's note on SIGPIPE), and end with status 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (GraphError, IpfError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
