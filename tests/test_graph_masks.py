"""Property checks of a Graph's construction and of the answers read from
its adjacency masks: each is compared with a plain definition on random
graphs with n = 0..62."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ipfkit import (
    Graph, GraphError, IpfError, induced_k4minus_subgraphs, parse_graph6,
    verify_ipf, write_graph6,
)
from ipfkit.constructive import _bridge_sides
from ipfkit.graph import block_decomposition

from conftest import random_bridged_cubic, random_connected_subcubic

DENSITIES = (0.0, 0.03, 0.1, 0.3, 0.7)


def random_graph(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    p = rng.choice(DENSITIES)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    rng.shuffle(edges)
    # both orientations and repeats must give the same graph
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    return Graph(n, edges + edges[:3])


graphs = st.builds(random_graph, st.integers(0, 62), st.integers(0, 10 ** 9))


def neighbours(g: Graph) -> dict[int, set[int]]:
    nb = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        nb[u].add(v)
        nb[v].add(u)
    return nb


def plain_graph6(g: Graph) -> str:
    """graph6 written bit by bit from the edge set."""
    bits = [int((u, v) in g.edges) for v in range(1, g.n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + g.n)]
    for i in range(0, len(bits), 6):
        out.append(chr(63 + int("".join(map(str, bits[i:i + 6])), 2)))
    return "".join(out)


def plain_graph(n: int, edges) -> tuple | str:
    """(adj, adj_mask, edges) of the graph by definition, or the message
    of the GraphError that the first bad pair raises."""
    nb = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) out of range for n={n}"
        if u == v:
            return f"self-loop at vertex {u}"
        nb[u].add(v)
        nb[v].add(u)
    return (tuple(tuple(sorted(s)) for s in nb),
            tuple(sum(1 << w for w in s) for s in nb),
            frozenset((u, w) for u in range(n) for w in nb[u] if u < w))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 62), st.integers(0, 10 ** 9))
def test_construction_matches_plain_definition(n, seed):
    # pairs in both orientations with repeats, and now and then an end out
    # of range or a self-loop somewhere in the list
    rng = random.Random(seed)
    p = rng.choice(DENSITIES)
    edges = [(u, v) if rng.random() < 0.5 else (v, u)
             for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    edges += rng.choices(edges, k=len(edges) // 3) if edges else []
    rng.shuffle(edges)
    if rng.random() < 0.4:
        u = rng.randrange(max(n, 1))
        bad = rng.choice([(u, u), (-1, u), (u, n), (n + 5, -2)])
        edges.insert(rng.randrange(len(edges) + 1), bad)
    expected = plain_graph(n, edges)
    if isinstance(expected, str):
        with pytest.raises(GraphError) as info:
            Graph(n, edges)
        assert str(info.value) == expected
    else:
        g = Graph(n, edges)
        assert (g.adj, g.adj_mask, g.edges) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_bridge_sides_match_components(seed):
    rng = random.Random(seed)
    hosts = [random_bridged_cubic(rng, rng.randrange(10, 63)),
             random_connected_subcubic(rng, rng.randrange(2, 40))]
    for g in hosts:
        for bridge in block_decomposition(g).bridges:
            parts = g.without_edges([bridge]).components()
            first = next(set(p) for p in parts if bridge[0] in p)
            assert _bridge_sides(g, bridge) == (first, set(range(g.n)) - first)


@settings(max_examples=60, deadline=None)
@given(graphs)
def test_has_edge_matches_edge_set(g):
    for u in range(-2, g.n + 2):
        for v in range(-2, g.n + 2):
            assert g.has_edge(u, v) is ((u, v) in g.edges or (v, u) in g.edges)
    assert g.adj == tuple(tuple(sorted(nb)) for nb in neighbours(g).values())


@settings(max_examples=60, deadline=None)
@given(graphs)
def test_components_match_bfs(g):
    nb = neighbours(g)
    seen: set[int] = set()
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        comp, queue = {s}, [s]
        for v in queue:
            for w in nb[v] - comp:
                comp.add(w)
                queue.append(w)
        seen |= comp
        comps.append(sorted(comp))
    assert g.components() == comps
    assert g.is_connected() == (len(comps) <= 1)


@settings(max_examples=60, deadline=None)
@given(graphs)
def test_graph6_round_trip_is_byte_identical(g):
    line = write_graph6(g)
    assert line == plain_graph6(g)
    back = parse_graph6(line)
    assert back == g and back.adj_mask == g.adj_mask
    assert write_graph6(back) == line


@settings(max_examples=40, deadline=None)
@given(graphs)
def test_k4minus_matches_four_subsets(g):
    nb = neighbours(g)

    def edge(u, v):
        return v in nb[u]

    expected = []
    n = g.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                three = edge(i, j) + edge(i, k) + edge(j, k)
                if three < 2:
                    continue  # a K4- minus any vertex keeps two edges
                for m in range(k + 1, n):
                    if three + edge(i, m) + edge(j, m) + edge(k, m) != 5:
                        continue
                    quad = (i, j, k, m)
                    (a, b), = [(a, b) for x, a in enumerate(quad)
                               for b in quad[x + 1:] if not edge(a, b)]
                    c, d = (v for v in quad if v not in (a, b))
                    expected.append((a, b, c, d))
    expected.sort(key=lambda t: (t[2], t[3], t[0], t[1]))
    found = induced_k4minus_subgraphs(g)
    assert list(found) == expected
    assert induced_k4minus_subgraphs(g) is found


@settings(max_examples=80, deadline=None)
@given(st.integers(4, 62), st.integers(0, 10 ** 9))
def test_verify_ipf_names_first_chord(n, seed):
    rng = random.Random(seed)
    path = rng.sample(range(n), rng.randrange(4, n + 1))
    pairs = [(path[i], path[j]) for i in range(len(path))
             for j in range(i + 2, len(path))]
    chords = rng.sample(pairs, 2)
    inside = set(path)
    noise = [(u, v) for u in range(n) for v in range(u + 1, n)
             if not (u in inside and v in inside) and rng.random() < 0.1]
    g = Graph(n, list(zip(path, path[1:])) + chords + noise)
    if path[-1] < path[0]:
        path.reverse()  # verify_ipf reports paths smaller end first
    first = next((path[i], path[j]) for i in range(len(path))
                 for j in range(i + 2, len(path))
                 if (path[i], path[j]) in g.edges
                 or (path[j], path[i]) in g.edges)
    with pytest.raises(IpfError) as info:
        verify_ipf(g, zip(path, path[1:]))
    assert info.value.kind == "chord"
    assert info.value.detail == first
    # without the chords the same path is induced
    h = g.without_edges(chords)
    paths = verify_ipf(h, zip(path, path[1:]))
    assert path in paths and len(paths) == n - len(path) + 1
