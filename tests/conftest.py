"""Shared fixtures: census file loading, random graph generators, the
enumeration of hamiltonian {2,3}-graphs used by several suites, and the
compiled search kernel."""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from ipfkit import Graph, parse_graph6

DATA = Path(__file__).parent / "data"
KERNEL_C_SOURCE = Path(__file__).parents[1] / "src" / "ipfkit" / "_kernel_c.c"

# connected cubic graph counts by order, used to guard the fixtures
CENSUS_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}


def census_path(n: int) -> Path:
    return DATA / f"cubic_n{n:02d}.g6"


def census_graphs(n: int) -> list:
    lines = census_path(n).read_text().splitlines()
    assert len(lines) == CENSUS_COUNTS[n]
    return [parse_graph6(line) for line in lines]


def random_connected_subcubic(rng: random.Random, n: int) -> Graph:
    """Random connected graph with maximum degree at most 3: a random
    degree-capped tree plus a few random chords."""
    deg = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < 3])
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    present = {tuple(sorted(e)) for e in edges}
    extras = rng.randrange(0, n)
    for _ in range(extras):
        free = [v for v in range(n) if deg[v] < 3]
        rng.shuffle(free)
        for i, u in enumerate(free):
            cands = [v for v in free[i + 1:]
                     if tuple(sorted((u, v))) not in present]
            if cands:
                v = rng.choice(cands)
                present.add(tuple(sorted((u, v))))
                deg[u] += 1
                deg[v] += 1
                break
    return Graph(n, present)


def random_connected_cubic(rng: random.Random, n: int,
                           tries: int = 2000) -> Graph:
    """Random connected cubic graph by repeated pairing of half-edges."""
    return random_connected_regular(rng, n, 3, tries)


def random_connected_regular(rng: random.Random, n: int, d: int,
                             tries: int = 2000) -> Graph:
    """Random connected d-regular graph by repeated pairing of half-edges."""
    assert n * d % 2 == 0 and n > d
    for _ in range(tries):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        while stubs:
            u = stubs.pop()
            v = stubs.pop()
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if not ok:
            continue
        g = Graph(n, edges)
        if g.is_connected():
            return g
    raise RuntimeError(f"no connected {d}-regular sample found")


def hamiltonian_23_graphs(n: int) -> list:
    """Every hamiltonian graph with all degrees 2 or 3 on n vertices, as
    a cycle 0..n-1 plus a matching of chords (labelled enumeration; every
    isomorphism type appears at least once)."""
    base = [(i, (i + 1) % n) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 2, n)
             if not (i == 0 and j == n - 1)]
    out = []

    def rec(start, used, chords):
        out.append(Graph(n, base + chords))
        for idx in range(start, len(pairs)):
            i, j = pairs[idx]
            if i in used or j in used:
                continue
            rec(idx + 1, used | {i, j}, chords + [(i, j)])

    rec(0, frozenset(), [])
    return out


@pytest.fixture(scope="session")
def kernel_c(tmp_path_factory):
    """The compiled kernel: ``ipfkit._kernel_c`` when it is built, else
    ``_kernel_c.c`` compiled into a temporary directory.  Skips only when
    no C compiler works."""
    try:
        return importlib.import_module("ipfkit._kernel_c")
    except ImportError:
        pass
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext
    from setuptools.errors import CCompilerError, PlatformError

    out = tmp_path_factory.mktemp("kernel_c")
    ext = Extension("ipfkit._kernel_c", [str(KERNEL_C_SOURCE)])
    cmd = build_ext(Distribution({"ext_modules": [ext]}))
    cmd.build_lib = cmd.build_temp = str(out)
    cmd.ensure_finalized()
    try:
        cmd.run()
    except PlatformError as exc:
        pytest.skip(f"no C compiler: {exc}")
    except CCompilerError:
        # a compiler that builds a trivial file puts the fault in the kernel
        probe = out / "probe.c"
        probe.write_text("int main(void) { return 0; }\n")
        try:
            cmd.compiler.compile([str(probe)], output_dir=str(out))
        except CCompilerError as exc:
            pytest.skip(f"no working C compiler: {exc}")
        raise
    spec = importlib.util.spec_from_file_location(
        "ipfkit._kernel_c", cmd.get_ext_fullpath("ipfkit._kernel_c"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
