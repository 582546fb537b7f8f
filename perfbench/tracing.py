"""Span tracing of ipfkit from outside the package.

``Tracer.installed`` swaps each traced function for a timing wrapper in
every ``ipfkit`` module namespace that holds it (``hamilton_cycle`` is bound
in both ``ipfkit.graph`` and ``ipfkit.constructive``, for instance), and
puts the originals back on exit.  Spans stay in memory as
``(name, start, end, parent)`` and are written out by ``write_spans``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function) pairs; the span name is "<layer>.<function>", where the
# layer is the module name without the package prefix
PUBLIC = {
    "ipfkit.graph": ("parse_graph6", "write_graph6", "hamilton_cycle",
                     "two_factor_search", "block_decomposition",
                     "ladder_decomposition", "find_2_edge_cut"),
    "ipfkit.solver": ("rho_exact", "rho_exhaustive",
                      "longest_induced_path_order"),
    "ipfkit.ipf": ("verify_ipf", "is_well_behaved", "is_standardised",
                   "induced_k4minus_subgraphs"),
    "ipfkit.constructive": ("ipf_cubic", "ipf_23_with_2factor",
                            "ipf_blocktree", "ipf_ham23", "ipf_small_ham",
                            "lift", "standardise", "recognize_bad",
                            "is_triangle_ring"),
    "ipfkit.surgery": ("subdivide_edge", "suppress_vertex", "paste_k4minus",
                       "augment_triangle", "glue_at_vertex", "add_edge",
                       "delete_edges", "delete_vertices", "surgery"),
    "ipfkit.bounds": ("census", "glue_lower_bound"),
    "ipfkit.cli": ("main",),
}

EXACT_CAP = 20  # longest_induced_path_order searches exactly up to this n


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if note is not None:
                note(args, result)
            return result
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid] = (name, start, time.perf_counter(), parent)

    # counters read from what the traced functions return
    def _note_kernel(self, args, result):
        _count, _edges, nodes, truncated = result
        self.counts["kernel.nodes"] += nodes
        self.counts["kernel.truncated"] += int(bool(truncated))

    def _note_lipo(self, args, result):
        n = args[0].n
        self.counts["solver.longest_induced_path_order.exact"] += \
            int(0 < n <= EXACT_CAP)

    def _note_cubic(self, args, result):
        for route in result.trace:
            self.counts[f"constructive.route.{route}"] += 1

    @contextmanager
    def installed(self):
        """Trace every PUBLIC function and the search kernel that
        ipfkit.solver dispatches to, restoring the originals on exit."""
        solver = sys.modules["ipfkit.solver"]
        targets = [(sys.modules[mod], fn, f"{mod.split('.')[-1]}.{fn}")
                   for mod, fns in PUBLIC.items() for fn in fns]
        targets.append((solver._kernel, "solve_min_ipf",
                        "kernel.solve_min_ipf"))
        notes = {"kernel.solve_min_ipf": self._note_kernel,
                 "solver.longest_induced_path_order": self._note_lipo,
                 "constructive.ipf_cubic": self._note_cubic}
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "ipfkit"
                                         or k.startswith("ipfkit."))]
        swapped = []
        try:
            for home, attr, name in targets:
                orig = getattr(home, attr)
                wrapper = self._wrap(name, orig, notes.get(name))
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)
                            swapped.append((mod, key, orig))
            yield self
        finally:
            for mod, key, orig in reversed(swapped):
                setattr(mod, key, orig)

    def self_times(self) -> tuple[dict, Counter]:
        """Self time and call count per span name.  Self time is a span's
        duration minus the durations of its direct children."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for sid, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - child[sid]
            calls[name] += 1
        return self_s, calls

    def write_spans(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, round(start, 7),
                                     round(end, 7), parent]) + "\n")
