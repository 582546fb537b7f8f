"""Structural queries: connectivity, bridges, blocks, cuts, hamilton
cycles and 2-factors."""

import random

import pytest

from ipfkit import Graph, GraphError
from ipfkit.graph import (
    block_decomposition, bridges, find_2_edge_cut, hamilton_cycle,
    is_hamiltonian, ladder_decomposition, two_factor_search,
)
from ipfkit.families import petersen, tietze, triangle_ring

from conftest import (
    assert_two_factor, census_graphs, random_connected_regular,
    random_connected_subcubic,
)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_graph_invariants():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 3)])
    g = Graph(4, [(0, 1), (1, 0)])  # duplicates collapse
    assert len(g.edges) == 1
    assert g.adj[0] == (1,) and g.adj[1] == (0,)


def test_degree_queries():
    g = triangle_ring(9)
    assert sorted(g.degrees()) == [2, 2, 2, 3, 3, 3, 3, 3, 3]
    assert g.is_subcubic() and g.is_23_graph() and not g.is_cubic()
    assert petersen().is_cubic() and petersen().is_k_regular(3)


def test_components_and_connectivity():
    g = Graph(5, [(0, 1), (2, 3)])
    comps = sorted(map(sorted, g.components()))
    assert comps == [[0, 1], [2, 3], [4]]
    assert not g.is_connected()
    assert cycle(6).is_connected()
    assert not cycle(6).without_edges([(0, 1), (3, 4)]).is_connected()


def test_bridges_path_and_cycle():
    p5 = Graph(5, [(i, i + 1) for i in range(4)])
    assert bridges(p5) == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
    assert bridges(cycle(5)) == frozenset()


def test_block_decomposition_two_triangles_and_bridge():
    # triangle 0,1,2 - bridge 2-3 - triangle 3,4,5
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    dec = block_decomposition(g)
    assert dec.bridges == frozenset({(2, 3)})
    assert sorted(map(sorted, dec.blocks)) == [[0, 1, 2], [3, 4, 5]]
    # blocks of order 2 (plain bridges) are not listed
    assert all(len(b) >= 3 for b in dec.blocks)
    assert dec.block_of[0] == dec.block_of[1] == dec.block_of[2]
    assert dec.block_of[0] != dec.block_of[3]


def test_blocks_disjoint_in_subcubic_hosts():
    for g in census_graphs(10):
        dec = block_decomposition(g)
        seen = set()
        for block in dec.blocks:
            assert not (set(block) & seen)
            seen |= set(block)


def double_k4minus():
    # two K4-minus-an-edge blocks joined by two edges, a cubic 2-cut host
    return Graph(8, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                     (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
                     (0, 4), (1, 5)])


def test_two_edge_cut_detection():
    assert find_2_edge_cut(petersen()) is None  # 3-edge-connected
    g = double_k4minus()
    cut = find_2_edge_cut(g)
    assert cut is not None
    assert not g.without_edges(cut).is_connected()


def test_two_edge_cut_is_the_first_pair():
    """find_2_edge_cut pairs the first edge e that has a later bridge in
    g - e with the first such bridge: the lexicographically first cutting
    pair, as a scan over all pairs finds it."""
    def first_pair(g):
        es = g.sorted_edges()
        return next(((e, f) for i, e in enumerate(es) for f in es[i + 1:]
                     if not g.without_edges([e, f]).is_connected()), None)
    hosts = [g for n in (8, 10, 12) for g in census_graphs(n)
             if not bridges(g)]
    assert len(hosts) > 50
    assert any(find_2_edge_cut(g) for g in hosts)
    for g in hosts + [double_k4minus(), cycle(7)]:
        assert find_2_edge_cut(g) == first_pair(g)


def test_ladder_decomposition_across_a_2_cut():
    g = double_k4minus()
    lad = ladder_decomposition(g)
    assert lad is not None
    assert lad.s >= 1
    # the u/v paths run in parallel and consist of real edges
    for path in (lad.u_path, lad.v_path):
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)


def test_hamilton_cycle_found_and_absent():
    cyc = hamilton_cycle(cycle(7))
    assert cyc is not None and len(cyc) == 7
    # the only bridgeless nonhamiltonian cubic graphs up to order 12
    assert not is_hamiltonian(petersen())
    assert not is_hamiltonian(tietze())
    tree = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert hamilton_cycle(tree) is None


def test_hamilton_cycle_is_a_cycle():
    for g in census_graphs(8):
        cyc = hamilton_cycle(g)
        if cyc is None:
            continue
        assert sorted(cyc) == list(range(g.n))
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert g.has_edge(a, b)


def unpruned_hamilton_cycle(g):
    """Oracle: plain backtracking in `hamilton_cycle`'s DFS order (sorted
    adjacency lists from vertex 0), without its dead-branch rules."""
    n = g.n
    if n < 2 or any(len(a) < 2 for a in g.adj):
        return None
    start = 0
    path, used = [start], 1 << start
    iters = [iter(g.adj[start])]
    while iters:
        for w in iters[-1]:
            if used >> w & 1:
                continue
            if len(path) == n - 1:
                if g.has_edge(w, start):
                    return path + [w]
                continue
            path.append(w)
            used |= 1 << w
            iters.append(iter(g.adj[w]))
            break
        else:
            iters.pop()
            used &= ~(1 << path.pop())
    return None


def test_hamilton_cycle_is_the_unpruned_first_cycle():
    rng = random.Random(2024)
    graphs = [g for n in range(4, 13, 2) for g in census_graphs(n)]
    graphs += [random_connected_subcubic(rng, rng.randrange(2, 19))
               for _ in range(300)]
    graphs += [random_connected_regular(random.Random(n), n, 4)
               for n in range(6, 15)]
    # disjoint cycle unions: every vertex has degree 2, yet no cycle
    graphs += [Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6),
                         (6, 3)]),
               Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])]
    found = 0
    for g in graphs:
        # each graph also in reverse labelling, searched from its old
        # vertex n - 1
        for h in (g, Graph(g.n, [(g.n - 1 - u, g.n - 1 - v)
                                 for u, v in g.edges])):
            cyc = hamilton_cycle(h)
            assert cyc == unpruned_hamilton_cycle(h)
            found += cyc is not None
    assert found > len(graphs)  # most searches find a cycle


def test_two_factor_search_validates():
    for g in census_graphs(10):
        cycles = two_factor_search(g)
        assert cycles is not None  # all order-10 cubic graphs have one
        assert_two_factor(g, cycles)
        # each cycle from its lowest vertex towards its lower neighbour on
        # it, the cycles by lowest vertex
        assert all(c[0] == min(c) and c[1] < c[-1] for c in cycles)
        assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)


def test_two_factor_min_cycle_len():
    cycles = two_factor_search(petersen())
    assert cycles is not None
    assert all(len(c) >= 5 for c in cycles)


def test_two_factor_absent():
    # theta graph: three length-2 paths between 0 and 1; disjoint cycles
    # cannot cover all three middle vertices
    g = Graph(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    assert two_factor_search(g) is None
