"""Property checks of the three structure queries of the construct pipeline,
each against its definition on small random graphs: `block_decomposition`,
`two_factor_search` and `recognize_bad`."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from ipfkit import Graph, recognize_bad, two_factor_search
from ipfkit.families import _joining_edges, bad_graph, triangle_ring
from ipfkit.graph import block_decomposition

from conftest import assert_two_factor


def random_graph(n: int, seed: int) -> Graph:
    """Dense inside up to three random vertex groups and sparse between
    them, so that many draws have several blocks, bridges and components."""
    rng = random.Random(seed)
    group = [rng.randrange(3) for _ in range(n)]
    inside = rng.choice((0.2, 0.4, 0.6, 0.9))
    across = rng.choice((0.0, 0.05, 0.15))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < (inside if group[u] == group[v]
                                        else across)])


def relabel(g: Graph, rng: random.Random) -> tuple[Graph, list[int]]:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]), perm


def component_of(g: Graph) -> list[int]:
    label = [0] * g.n
    for i, comp in enumerate(g.components()):
        for v in comp:
            label[v] = i
    return label


# ---------------------------------------------------------------------------
# Blocks and bridges
# ---------------------------------------------------------------------------

def separation_keys(g: Graph) -> dict[tuple[int, int], tuple[int, ...]]:
    """Per edge: its component in g, then for each vertex x the component
    of g - x holding the edge's ends other than x.  Two edges share a block
    exactly when they are in one component and no single vertex x puts
    them on different sides, that is, when their keys are equal."""
    sides = [component_of(g.without_edges((x, w) for w in g.adj[x]))
             for x in range(g.n)]
    whole = component_of(g)
    return {(u, v): (whole[u],) + tuple(side[v if u == x else u]
                                        for x, side in enumerate(sides))
            for u, v in g.edges}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.integers(0, 10 ** 9))
def test_block_decomposition_matches_definitions(n, seed):
    g = random_graph(n, seed)
    dec = block_decomposition(g)
    for e in g.edges:
        # a bridge is an edge whose deletion adds a component
        split = len(g.without_edges([e]).components()) > len(g.components())
        assert (e in dec.bridges) is split
    keys = separation_keys(g)
    classes: dict[tuple[int, ...], set[int]] = {}
    for (u, v), key in keys.items():
        classes.setdefault(key, set()).update((u, v))
    blocks_by_definition = {frozenset(c) for c in classes.values()
                            if len(c) > 2}
    assert len(dec.blocks) == len(set(dec.blocks))
    assert set(dec.blocks) == blocks_by_definition
    for e in dec.bridges:  # a bridge is a class of its own
        assert sum(key == keys[e] for key in keys.values()) == 1
    mins = [min(b) for b in dec.blocks]
    assert mins == sorted(mins)
    # block_of names the lowest block holding a vertex
    assert dec.block_of == {
        v: min(i for i, b in enumerate(dec.blocks) if v in b)
        for v in set().union(*dec.blocks)}


# ---------------------------------------------------------------------------
# 2-factors with the fewest cycles
# ---------------------------------------------------------------------------

def random_23_graph(rng: random.Random, n: int) -> Graph:
    """Random connected graph with every degree 2 or 3, by pairing
    half-edges until the pairing is simple and connected."""
    while True:
        degree = [rng.choice((2, 3)) for _ in range(n)]
        if sum(degree) % 2:
            degree[0] = 5 - degree[0]
        stubs = [v for v in range(n) for _ in range(degree[v])]
        rng.shuffle(stubs)
        pairs = {(min(u, v), max(u, v))
                 for u, v in zip(stubs[::2], stubs[1::2]) if u != v}
        g = Graph(n, pairs)
        if 2 * len(pairs) == len(stubs) and g.is_connected():
            return g


def perfect_matchings(g: Graph, vertices: frozenset[int]):
    if not vertices:
        yield []
        return
    v = min(vertices)
    for w in g.adj[v]:
        if w in vertices:
            for rest in perfect_matchings(g, vertices - {v, w}):
                yield [(v, w)] + rest


def fewest_long_cycles(g: Graph) -> int | None:
    """Fewest cycles of a 2-factor with all cycles of length >= 5, over
    the perfect matchings of the degree-3 vertices; None if there is none."""
    deg3 = frozenset(v for v in range(g.n) if g.degree(v) == 3)
    counts = []
    for matching in perfect_matchings(g, deg3):
        cycles = g.without_edges(matching).components()
        if all(len(c) >= 5 for c in cycles):
            counts.append(len(cycles))
    return min(counts, default=None)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 14), st.integers(0, 10 ** 9))
def test_two_factor_search_finds_fewest_long_cycles(n, seed):
    g = random_23_graph(random.Random(seed), n)
    found = two_factor_search(g)
    fewest = fewest_long_cycles(g)
    assert (found is None) is (fewest is None)
    if found is not None:
        assert_two_factor(g, found)
        assert all(len(c) >= 5 for c in found)
        assert len(found) == fewest


# ---------------------------------------------------------------------------
# Bad graphs
# ---------------------------------------------------------------------------

H5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]  # hamiltonian
K23 = [(a, b) for a in (0, 1) for b in (2, 3, 4)]  # not hamiltonian
# vertex 3 has degree 2 in both, as has vertex 1 in H5


def ring_with(r: int, subdivided, hung) -> Graph:
    """triangle_ring(r) with each edge of `subdivided` split in turn by a
    new vertex r, r+1, ..., then for each pair (x, leaf) of `hung` in turn
    a new copy of `leaf` whose vertex 3 is bridged to x."""
    edges = set(triangle_ring(r).edges)
    n = r
    for u, v in subdivided:
        edges -= {(u, v)}
        edges |= {(u, n), (v, n)}
        n += 1
    for x, leaf in hung:
        edges |= {(n + a, n + b) for a, b in leaf} | {(x, n + 3)}
        n += 5
    return Graph(n, edges)


def bad_graph_cases():
    for r in (6, 9, 12, 15):
        joins = _joining_edges(r)
        for k in range(len(joins) + 1):
            for subdivided in itertools.combinations(range(len(joins)), k):
                for chords in (1, 2):
                    yield r, subdivided, chords


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_relabelled_bad_graphs_are_recognised(seed):
    rng = random.Random(seed)
    for r, subdivided, chords in bad_graph_cases():
        g, perm = relabel(bad_graph(r, subdivided, chords), rng)
        rep = recognize_bad(g)
        assert rep.is_bad
        assert rep.is_triangle_ring == (not subdivided)
        # bad_graph numbers the ring first, then per subdivided edge the
        # subdivision vertex x and its order-5 leaf x+1..x+5
        xs = [r + 6 * i for i in range(len(subdivided))]
        assert rep.hub == frozenset(perm[v] for v in [*range(r), *xs])
        expected = []
        for i, x in zip(subdivided, xs):
            a, b = (perm[v] for v in _joining_edges(r)[i])
            leaf = frozenset(perm[v] for v in range(x + 1, x + 6))
            expected.append(((min(a, b), max(a, b)), perm[x], leaf))
        assert rep.attachments == sorted(expected, key=lambda att: att[1])


def near_misses(r: int) -> list[Graph]:
    """Hosts of order divisible by 3 and at least 12 that differ from a
    bad graph in one feature each."""
    (u, v), (s, t) = _joining_edges(r)[:2]
    return [
        # one of two leaves is not hamiltonian
        ring_with(r, [(u, v), (s, t)], [(r, H5), (r + 1, K23)]),
        ring_with(r, [(0, 1)], [(r, H5)]),  # a triangle edge is subdivided
        # one joining edge subdivided twice
        ring_with(r, [(u, v), (v, r)], [(r, H5), (r + 1, H5)]),
        # a spare subdivision vertex, and the second leaf hangs off the first
        ring_with(r, [(u, v), (s, t)], [(r, H5), (r + 3, H5)]),
        ring_with(r, [(u, v)], [(0, H5)]),  # a leaf hangs off a triangle's tip
    ]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_near_misses_are_not_bad(seed):
    rng = random.Random(seed)
    for r in (6, 9, 12, 15):
        for g in near_misses(r):
            assert g.n % 3 == 0 and g.n >= 12 and g.is_23_graph()
            rep = recognize_bad(relabel(g, rng)[0])
            assert not rep.is_bad and not rep.is_triangle_ring
