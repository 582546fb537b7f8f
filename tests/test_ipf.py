"""IPF verification, path decomposition, well-behavedness and
standardisation."""

import random

import pytest

from ipfkit import (
    Graph, Ipf, IpfError, induced_k4minus_subgraphs, is_standardised,
    is_well_behaved, standardise, verify_ipf,
)
from ipfkit import ipf as ipf_module

from conftest import random_connected_subcubic


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_single_path_and_count():
    g = path_graph(5)
    paths = verify_ipf(g, g.edges)
    assert paths == [[0, 1, 2, 3, 4]]
    ipf = Ipf.from_edges(g, g.edges)
    assert ipf.path_count == 1
    assert ipf.endpoints() == {0, 4}


def test_isolated_vertices_are_trivial_paths():
    g = Graph(4, [(0, 1)])
    paths = verify_ipf(g, [(0, 1)])
    assert paths == [[0, 1], [2], [3]]
    assert Ipf.from_edges(g, [(0, 1)]).path_count == 3


def test_empty_edge_set():
    g = path_graph(3)
    assert verify_ipf(g, []) == [[0], [1], [2]]


def test_orientation_is_canonical():
    g = path_graph(4)
    paths = verify_ipf(g, [(2, 1), (3, 2), (1, 0)])
    assert paths == [[0, 1, 2, 3]]


def test_paths_come_out_by_first_vertex_from_their_lower_ends():
    # no sort enforces this order: each walk starts at the lowest unseen
    # path end
    rng = random.Random(31)
    accepted = 0
    for _ in range(3000):
        g = random_connected_subcubic(rng, rng.randint(1, 14))
        subset = [e for e in sorted(g.edges) if rng.random() < 0.5]
        try:
            paths = verify_ipf(g, subset)
        except IpfError:
            continue
        accepted += 1
        assert all(p[0] <= p[-1] for p in paths)
        assert all(a[0] < b[0] for a, b in zip(paths, paths[1:]))
    assert accepted >= 1000


def test_degree_violation():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(IpfError) as exc:
        verify_ipf(star, star.edges)
    assert exc.value.kind == "degree" and exc.value.detail == 0


def test_cycle_violation():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(IpfError) as exc:
        verify_ipf(c4, c4.edges)
    assert exc.value.kind == "cycle"


def test_chord_violation_names_the_pair():
    # path 0-1-2 inside a triangle: 0 and 2 adjacent in the host
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(IpfError) as exc:
        verify_ipf(tri, [(0, 1), (1, 2)])
    assert exc.value.kind == "chord" and exc.value.detail == (0, 2)


def test_stray_edge_rejected():
    g = path_graph(3)
    with pytest.raises(IpfError) as exc:
        Ipf.from_edges(g, [(0, 2)])
    assert exc.value.kind == "edges"
    # the raw constructor is unchecked until its paths are read
    raw = Ipf(g, frozenset({(0, 2)}))
    with pytest.raises(IpfError) as exc:
        raw.paths()
    assert exc.value.kind == "edges"
    # a host edge written backwards is no edge of the IPF's set either:
    # path_count would count it, and (0, 1) in edges would be False
    raw = Ipf(Graph(2, [(0, 1)]), frozenset({(1, 0)}))
    with pytest.raises(IpfError) as exc:
        raw.paths()
    assert exc.value.kind == "edges" and exc.value.detail == [(1, 0)]
    # verify_ipf reads a frozenset as given and normalises anything else
    with pytest.raises(IpfError) as exc:
        verify_ipf(raw.host, raw.edges)
    assert exc.value.kind == "edges" and exc.value.detail == [(1, 0)]
    assert verify_ipf(raw.host, {(1, 0)}) == [[0, 1]]


def test_from_paths_roundtrip():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)])
    ipf = Ipf.from_paths(g, [[0, 1, 2], [3, 4, 5]])
    assert ipf.path_count == 2
    assert ipf.paths() == [[0, 1, 2], [3, 4, 5]]


def test_built_ipf_answers_without_verifying_again(monkeypatch):
    # K4- with the standardised 2-path IPF: every question about its paths
    # reads what from_paths verified
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    ipf = Ipf.from_paths(g, [[0, 2], [1, 3]])

    def refuse(*args):
        raise AssertionError("verify_ipf called on a built IPF")
    monkeypatch.setattr(ipf_module, "verify_ipf", refuse)
    ipf.paths()[0].append(7)  # a copy: the kept paths stay as verified
    assert ipf.paths() == [[0, 2], [1, 3]]
    assert ipf.endpoints() == {0, 1, 2, 3}
    assert ipf.to_json_fragment()["paths"] == [[0, 2], [1, 3]]
    assert is_well_behaved(ipf) == []
    assert is_standardised(ipf) == []
    assert standardise(ipf) is ipf


def test_well_behaved_single_block():
    # C5: every vertex has degree 2 and lies in the single block
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    ipf = Ipf.from_paths(c5, [[1, 0, 4], [2, 3]])
    assert is_well_behaved(ipf) == []


def test_well_behaved_bridge_subpath_clause():
    # two triangles joined by a bridge; the long path crosses the bridge
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    ipf = Ipf.from_paths(g, [[1, 2, 3, 4], [0], [5]])
    # degree-2 vertices 0,1,4,5; path [1,2,3,4] meets S at {1,4} with the
    # bridge 2-3 centred between them
    assert is_well_behaved(ipf) == []


def test_not_well_behaved_reports_witness():
    # path joining degree-2 vertices of different blocks with no bridge
    # centred between them
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                  (4, 6)])
    ipf = Ipf.from_paths(g, [[1, 2, 3, 4, 5], [0], [6]])
    assert is_well_behaved(ipf) == [((1, 2, 3, 4, 5), (1, 3))]
    # excusing the offending vertices leaves no witness
    assert is_well_behaved(ipf, R={1, 3}) == []


def test_k4minus_detection():
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    found = induced_k4minus_subgraphs(g)
    assert found == ((0, 1, 2, 3),)
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert induced_k4minus_subgraphs(c6) == ()


def test_standardised_verdicts():
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    good = Ipf.from_paths(g, [[0, 2], [1, 3]])
    assert is_standardised(good) == []
    bad = Ipf.from_paths(g, [[2, 3], [0], [1]])
    assert is_standardised(bad) == [(0, 1, 2, 3)]
