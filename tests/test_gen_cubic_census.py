"""The isomorphism dedup of ``tools/gen_cubic_census.py``."""

import importlib.util
import random
from pathlib import Path

import pytest

from ipfkit import Graph

from conftest import CENSUS_COUNTS, census_graphs

SPEC = importlib.util.spec_from_file_location(
    "gen_cubic_census",
    Path(__file__).parents[1] / "tools" / "gen_cubic_census.py")
gen_cubic_census = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(gen_cubic_census)


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@pytest.mark.parametrize("n", sorted(CENSUS_COUNTS))
def test_dedup_keeps_the_first_graph_of_each_class(n):
    """Every census graph is accepted and a relabelled copy of each is
    refused: a bucket key that tells isomorphic graphs apart or an
    isomorphism test that misses a mapping accepts a copy, and one that
    matches non-isomorphic graphs refuses an original."""
    graphs = census_graphs(n)
    rng = random.Random(n)
    dedup = gen_cubic_census.Dedup()
    assert [dedup.add(g) for g in graphs] == [True] * len(graphs)
    copies = [relabelled(g, rng) for g in graphs]
    assert [dedup.add(h) for h in copies] == [False] * len(graphs)
    assert dedup.kept == graphs
