"""Record the expected answers in perfbench/data/expected.json.

Run from the root of a checkout, at a commit whose answers are trusted:

    python3 perfbench/record.py

Every recorded answer is checked before it is written: witnesses and
certificates are verified independently, and the n=14 census must give the
published histogram.  Construct path counts and routes are recorded for
replaying a host through the CLI; the benchmark gates only on the bound.
"""

from __future__ import annotations

import json
import random

import hosts
import run

N14_HISTOGRAM = {"2": 435, "3": 71, "4": 3}


def main() -> int:
    ipfkit = run.load_ipfkit()
    expected = {"census": {}, "cli_census_stdout": {},
                "solve_large": {}, "construct_large": {}}
    for n in (10, 12, 14):
        lines = run.read_lines(f"cubic_n{n}.g6")
        report = ipfkit.census(lines, mode="both", jobs=1).to_json()
        if report["violations"] or report["errors"] or report["skipped"]:
            raise SystemExit(f"census n={n} is not clean: {report}")
        expected["census"][str(n)] = {
            "graphs": len(lines), "rho_histogram": report["rho_histogram"],
            "n_to_max_rho": report["n_to_max_rho"]}
        if n in (10, 14):
            outs = set()
            for seed in (1, 2):
                text = "\n".join(run.shuffled(lines, random.Random(seed)))
                _, rc, out, _ = run.run_child(
                    run.CensusCliPool.argv + ["--jobs", "2"], text + "\n")
                if rc != 0:
                    raise SystemExit(f"CLI census n={n} exited with {rc}")
                outs.add(out)
            if len(outs) != 1:
                raise SystemExit(f"CLI census n={n} depends on input order")
            expected["cli_census_stdout"][str(n)] = outs.pop()
    if expected["census"]["14"]["rho_histogram"] != N14_HISTOGRAM:
        raise SystemExit("n=14 census histogram changed")
    for line in hosts.panel("solve_large"):
        g = ipfkit.parse_graph6(line)
        res = ipfkit.rho_exact(g, time_limit=0)
        cert = ipfkit.ipf_cubic(g)
        entry = {"n": g.n, "rho": res.rho,
                 "construct_paths": cert.ipf.path_count}
        problems = run.solve_problems(
            line, res, ipfkit.verify_ipf(g, res.witness.edges), entry) \
            + run.construct_problems(
                line, cert, ipfkit.verify_ipf(g, cert.ipf.edges))
        if problems:
            raise SystemExit(f"{line}: {problems}")
        expected["solve_large"][line] = entry
        print("solve_large", entry)
    for line in hosts.panel("construct_large"):
        g = ipfkit.parse_graph6(line)
        cert = ipfkit.ipf_cubic(g)
        problems = run.construct_problems(
            line, cert, ipfkit.verify_ipf(g, cert.ipf.edges))
        if problems:
            raise SystemExit(f"{line}: {problems}")
        expected["construct_large"][line] = {
            "n": cert.n, "paths": cert.ipf.path_count, "trace": cert.trace}
        print("construct_large", cert.n, cert.ipf.path_count)
    (run.DATA / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
