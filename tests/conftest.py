"""Shared fixtures: census file loading, random graph generators, the
enumeration of hamiltonian {2,3}-graphs used by several suites, the
compiled search kernel, and the derandomized hypothesis profile."""

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import settings

from ipfkit import Graph, parse_graph6

# every run and every machine draws the same hypothesis examples: the seed
# comes from each test, and no example database is read or written (each
# test keeps its own max_examples)
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

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
    """Random connected graph with maximum degree at most 3."""
    return random_connected_bounded(rng, n, 3)


def random_connected_bounded(rng: random.Random, n: int, cap: int) -> Graph:
    """Random connected graph with maximum degree at most cap: a random
    degree-capped tree plus a few random chords."""
    deg = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if deg[w] < cap])
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    present = {tuple(sorted(e)) for e in edges}
    extras = rng.randrange(0, n)
    for _ in range(extras):
        free = [v for v in range(n) if deg[v] < cap]
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


def _subdivided(rng: random.Random, edges: list, w: int) -> list:
    """edges with a random one of them, uv, replaced by the path u-w-v."""
    edges = sorted(edges)
    u, v = edges.pop(rng.randrange(len(edges)))
    return edges + [(u, w), (v, w)]


def random_bridged_cubic(rng: random.Random, n_max: int = 62) -> Graph:
    """Connected cubic graph with bridges: random cubic blocks of even
    order 4..14 joined into a tree, of order at most n_max.  Each join
    subdivides one edge of the new block and one edge of the graph so far
    and makes the two subdivision vertices the ends of a bridge; blocks
    are added while the next drawn order still fits."""
    n = rng.randrange(4, 15, 2)
    edges = sorted(random_connected_cubic(rng, n).edges)
    while True:
        m = rng.randrange(4, 15, 2)
        if n + m + 2 > n_max:
            return Graph(n, edges)
        x, y = n, n + m + 1
        block = [(u + n + 1, v + n + 1)
                 for u, v in random_connected_cubic(rng, m).edges]
        edges = (_subdivided(rng, edges, x) + _subdivided(rng, block, y)
                 + [(x, y)])
        n = y + 1


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


def assert_two_factor(g: Graph, cycles) -> None:
    """cycles are the vertex lists of disjoint cycles of g, each of length
    at least 3, that together cover every vertex."""
    covered = []
    for cyc in cycles:
        assert len(cyc) >= 3, f"cycle {cyc} too short"
        for v, w in zip(cyc, cyc[1:] + cyc[:1]):
            assert g.has_edge(v, w), f"({v},{w}) not an edge of the host"
        covered += cyc
    assert sorted(covered) == list(range(g.n))


@pytest.fixture(scope="session")
def kernel_c(tmp_path_factory):
    """The compiled kernel, built from the ``_kernel_c.c`` in the tree into a
    temporary directory, so that an in-place build of an older source
    cannot stand in for it.  Skips only when no C compiler works."""
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
