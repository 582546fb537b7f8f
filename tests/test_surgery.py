"""Graph surgeries, their records, and the IPF lift contracts."""

import random

import pytest

from ipfkit import (
    ConstructionError, Graph, Ipf, SurgeryError, add_edge, augment_triangle,
    delete_edges, delete_vertices, glue_at_vertex, is_well_behaved, lift,
    paste_k4minus, rho_exact, subdivide_edge, suppress_vertex, verify_ipf,
)
from ipfkit.surgery import surgery
from ipfkit.families import triangle_ring

from conftest import random_connected_subcubic


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_subdivide_edge():
    g = cycle(4)
    h, rec = subdivide_edge(g, 0, 1)
    assert h.n == 5
    assert not h.has_edge(0, 1)
    assert h.has_edge(0, 4) and h.has_edge(1, 4)
    assert rec.new_vertices == (4,)
    with pytest.raises(SurgeryError):
        subdivide_edge(g, 0, 2)


def test_suppress_vertex():
    g = cycle(5)
    h, rec = suppress_vertex(g, 2)
    assert h.n == 4
    assert h.has_edge(rec.old_to_new[1], rec.old_to_new[3])
    assert 2 not in rec.old_to_new
    # indices above the deleted vertex shift down
    assert rec.old_to_new[4] == 3
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(SurgeryError):
        suppress_vertex(tri, 0)  # neighbours adjacent


def test_paste_k4minus():
    g = cycle(6)
    h, rec = paste_k4minus(g, 0, 1)
    assert h.n == 8
    assert not h.has_edge(0, 1)
    for e in ((0, 6), (0, 7), (1, 6), (1, 7), (6, 7)):
        assert h.has_edge(*e)
    assert h.degree(0) == 3 and h.degree(6) == 3
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    with pytest.raises(SurgeryError):
        paste_k4minus(k4, 0, 1)  # endpoints have degree 3


def test_augment_triangle():
    g = triangle_ring(9)
    # triangle {8, 0, 1} has its degree-2 vertex at 0
    h, rec = augment_triangle(g, 8, 1, 0)
    assert h.n == 10
    assert not h.has_edge(8, 1)
    assert h.has_edge(8, 9) and h.has_edge(1, 9) and h.has_edge(0, 9)
    with pytest.raises(SurgeryError):
        augment_triangle(g, 0, 1, 8)  # degree pattern wrong


def test_glue_at_vertex():
    a = cycle(3)
    b = Graph(3, [(0, 1), (1, 2)])
    g, rec = glue_at_vertex(a, b, 1, 1)
    assert g.n == 5
    assert g.degree(1) == 4
    assert rec.aux_to_new[1] == 1
    mapped = {rec.aux_to_new[0], rec.aux_to_new[2]}
    assert all(g.has_edge(1, v) for v in mapped)


def test_edge_and_vertex_deletion_records():
    g = cycle(5)
    h, _ = add_edge(g, 0, 2)
    assert h.has_edge(0, 2)
    h2, _ = delete_edges(h, [(0, 2)])
    assert h2.edges == g.edges
    h3, rec = delete_vertices(g, [0])
    assert h3.n == 4
    assert 0 not in rec.old_to_new and rec.old_to_new[4] == 3


def test_surgery_dispatch():
    g = cycle(4)
    h, rec = surgery(g, "subdivide_edge", 0, 1)
    assert rec.kind == "subdivide_edge"
    with pytest.raises(SurgeryError):
        surgery(g, "not_a_surgery")


# ---------------------------------------------------------------------------
# Lift contracts
# ---------------------------------------------------------------------------

def check_lift(g, h, rec, slack, must_end, distinct_pair=None):
    prime = rho_exact(h).witness
    out = lift(g, rec, prime)
    paths = verify_ipf(g, out.edges)
    assert len(paths) <= prime.path_count + slack
    ends = out.endpoints()
    for v in must_end:
        assert v in ends
    if distinct_pair:
        a, b = distinct_pair
        pa = next(i for i, p in enumerate(paths) if p[0] == a or p[-1] == a)
        pb = next(i for i, p in enumerate(paths) if p[0] == b or p[-1] == b)
        assert pa != pb
    if is_well_behaved(prime).verdict:
        rep = is_well_behaved(out, R=must_end if not distinct_pair
                              else distinct_pair)
        assert rep.verdict
    return out


def test_lift_augment_triangle_contract():
    g = triangle_ring(9)
    h, rec = augment_triangle(g, 8, 1, 0)
    check_lift(g, h, rec, slack=0, must_end=[0])


def test_lift_paste_k4minus_contract():
    g = cycle(6)
    h, rec = paste_k4minus(g, 0, 1)
    check_lift(g, h, rec, slack=0, must_end=[0, 1], distinct_pair=(0, 1))


def test_lift_suppress_vertex_contract():
    g = cycle(6)
    h, rec = suppress_vertex(g, 3)
    check_lift(g, h, rec, slack=1, must_end=[3])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_lift_rejects_a_record_of_another_graph():
    h, rec = suppress_vertex(cycle(6), 3)
    prime = rho_exact(h).witness
    # suppressing 3 in the path 0..5 gives a path, not the cycle h
    with pytest.raises(ConstructionError, match="does not transform"):
        lift(path_graph(6), rec, prime)


def test_lift_rejects_an_ipf_of_another_host():
    g = cycle(6)
    _, rec = suppress_vertex(g, 3)
    prime = Ipf.from_paths(path_graph(5), [[0, 1, 2, 3, 4]])
    with pytest.raises(ConstructionError, match="does not transform"):
        lift(g, rec, prime)


def triangles_with_degree_2_apex(g):
    for c in range(g.n):
        if g.degree(c) != 2:
            continue
        a, b = g.adj[c]
        if g.has_edge(a, b) and g.degree(a) == 3 and g.degree(b) == 3:
            yield a, b, c


def test_lift_contracts_random_hosts():
    rng = random.Random(5)
    instances = 0
    for _ in range(120):
        g = random_connected_subcubic(rng, rng.randrange(5, 11))
        for a, b, c in triangles_with_degree_2_apex(g):
            h, rec = augment_triangle(g, a, b, c)
            check_lift(g, h, rec, slack=0, must_end=[c])
            instances += 1
            break
        for u, v in g.sorted_edges():
            if g.degree(u) == 2 and g.degree(v) == 2:
                h, rec = paste_k4minus(g, u, v)
                check_lift(g, h, rec, slack=0, must_end=[u, v],
                           distinct_pair=(u, v))
                instances += 1
                break
        for c in range(g.n):
            if g.degree(c) == 2 and not g.has_edge(*g.adj[c]):
                h, rec = suppress_vertex(g, c)
                if h.is_connected():
                    check_lift(g, h, rec, slack=1, must_end=[c])
                    instances += 1
                    break
    assert instances >= 100
