"""Constructive IPF pipelines: small hamiltonian hosts, the greedy
hamiltonian {2,3} bound, block-tree assembly, 2-factor assembly, and the
full cubic pipeline."""

import collections
import dataclasses
import hashlib
import json
import random
import time

import pytest

from ipfkit import (
    Graph, Graph6Error, GraphError, hamilton_cycle,
    ipf_23_with_2factor, ipf_blocktree, ipf_cubic, ipf_ham23, ipf_small_ham,
    is_triangle_ring, is_well_behaved, parse_graph6, recognize_bad,
    rho_exact, two_factor_search, verify_ipf, write_graph6,
)
from ipfkit import Certificate, Ipf, constructive, graph
from ipfkit import ipf as ipf_module
from ipfkit.constructive import _allowed_bound, _blocktree_hypotheses, lift
from ipfkit.surgery import paste_k4minus, subdivide_edge, suppress_vertex
from ipfkit.families import (
    bad_graph, petersen, subdivided_complete, tietze, triangle_ring,
)

from conftest import (
    DATA, assert_two_factor, census_graphs, hamiltonian_23_graphs,
    random_bridged_cubic, random_connected_cubic,
)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# Small hamiltonian hosts
# ---------------------------------------------------------------------------

def test_small_ham_order_5():
    g = cycle(5)
    for x in range(5):
        ipf = ipf_small_ham(g, x)
        assert ipf.path_count == 2
        assert x in ipf.endpoints()


def test_small_ham_order_5_with_chords():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    for x in (1, 3, 4):  # the degree-2 vertices
        ipf = ipf_small_ham(g, x)
        assert ipf.path_count == 2
        assert x in ipf.endpoints()


def test_small_ham_order_6_cubic():
    for g in census_graphs(6):
        if hamilton_cycle(g) is None:
            continue
        assert ipf_ham23(g).path_count == 2


def test_small_ham_order_7():
    # every labelled host and degree-2 x: 28 of the 259 pairs mirror the
    # cycle, and the 7 that need 3 paths suppress x to a triangle ring
    three = 0
    for g in hamiltonian_23_graphs(7):
        for x in range(7):
            if g.degree(x) != 2:
                continue
            ipf = ipf_small_ham(g, x)
            assert x in ipf.endpoints()
            if ipf.path_count == 3:
                a, b = g.adj[x]
                assert not g.has_edge(a, b)
                assert is_triangle_ring(suppress_vertex(g, x)[0])
                three += 1
            else:
                assert ipf.path_count == 2
    assert three == 7


def test_small_ham_rejects_other_orders():
    with pytest.raises(GraphError):
        ipf_small_ham(cycle(8), 0)
    for x in (-1, 5, 7):  # not a vertex of the host
        with pytest.raises(GraphError, match="not in 0..4"):
            ipf_small_ham(cycle(5), x)


def test_small_ham_lets_verifier_faults_through(monkeypatch):
    # only IpfError means "this split is no IPF"; anything else is a bug
    def broken(g, edges):
        raise RuntimeError("verifier fault")
    monkeypatch.setattr(ipf_module, "verify_ipf", broken)
    with pytest.raises(RuntimeError, match="verifier fault"):
        ipf_small_ham(cycle(5), 0)


# ---------------------------------------------------------------------------
# Triangle rings and bad graphs
# ---------------------------------------------------------------------------

def test_triangle_ring_recognition():
    for n in (6, 9, 12, 15):
        assert is_triangle_ring(triangle_ring(n))
    assert not is_triangle_ring(cycle(9))
    assert not is_triangle_ring(petersen())


def test_triangle_ring_is_extremal():
    # a ring of t triangles needs exactly t paths
    for n in (6, 9, 12):
        assert rho_exact(triangle_ring(n)).rho == n // 3


def test_recognize_bad_accepts_constructions():
    for ring, subdivided, chords in ((6, (0,), 1), (6, (0, 1), 2),
                                     (9, (1,), 1), (9, (0, 2), 2)):
        g = bad_graph(ring, subdivided, chords)
        # the hub is the ring and the subdivision vertices, each of which
        # bad_graph numbers after the ring and the leaves before it
        xs = {ring + 6 * i for i in range(len(subdivided))}
        assert recognize_bad(g) == frozenset(range(ring)) | xs


def test_recognize_bad_rejects_plain_graphs():
    assert recognize_bad(cycle(9)) is None
    assert recognize_bad(petersen()) is None
    # a plain triangle ring counts as bad, and is its own hub
    assert is_triangle_ring(triangle_ring(9))
    assert recognize_bad(triangle_ring(9)) == frozenset(range(9))
    bridgeless = [g for g in census_graphs(12)
                  if not graph.block_decomposition(g).bridges]
    assert len(bridgeless) == 81
    assert all(recognize_bad(g) is None for g in bridgeless)


# ---------------------------------------------------------------------------
# Greedy hamiltonian {2,3} bound
# ---------------------------------------------------------------------------

def test_ham23_exhaustive_small_orders():
    for n in (6, 7, 8, 9):
        for g in hamiltonian_23_graphs(n):
            ipf = ipf_ham23(g)
            assert ipf.path_count <= _allowed_bound(g)


def test_ham23_triangle_ring_needs_n_over_3():
    # the only bad hamiltonian hosts are triangle rings; bad graphs with
    # attachments always contain bridges
    g = triangle_ring(9)
    assert recognize_bad(g) is not None
    assert hamilton_cycle(g) is not None
    assert ipf_ham23(g).path_count == 3
    assert hamilton_cycle(bad_graph(6, (0,), 1)) is None


# ---------------------------------------------------------------------------
# Block-tree and 2-factor assembly
# ---------------------------------------------------------------------------

def test_blocktree_cycle_hosts():
    for n in range(7, 13):
        ipf = ipf_blocktree(cycle(n))
        assert ipf.path_count <= (n - 1) // 3


def test_blocktree_rejects_small_or_uncovering_blocks():
    # two triangles joined by a bridge: blocks of order 3
    triangles = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5),
                          (4, 5)])
    # two C5 joined through a degree-2 vertex that lies in no block
    apart = joined(joined(cycle(5), Graph(1), 0, 0), cycle(5), 5, 0)
    # too small, a degree-4 vertex, and two C5 with no bridge between
    rejected = [cycle(5), cycle(6).with_edges([(0, 2), (0, 3)]),
                Graph(10, list(cycle(5).edges)
                      + [(u + 5, v + 5) for u, v in cycle(5).edges])]
    for g in [triangles, apart] + rejected:
        assert _blocktree_hypotheses(g) is None
        with pytest.raises(GraphError, match="block-tree hypotheses"):
            ipf_blocktree(g)
    # no 2-factor covers the vertex between the bridges
    assert ipf_23_with_2factor(apart) is None


def test_2factor_assembly_single_cycle():
    for g in census_graphs(10):
        if hamilton_cycle(g) is None:
            continue
        ipf = ipf_23_with_2factor(g)
        assert ipf.path_count <= 3


def test_2factor_assembly_multi_cycle(monkeypatch):
    g = petersen()
    factors = spy(monkeypatch, "two_factor_search")
    ipf = ipf_23_with_2factor(g)
    assert ipf.path_count <= 3
    assert len(factors) == 1 and len(factors[0][1]) == 2


def test_2factor_assembly_rejects_short_cycles():
    g = census_graphs(6)[0]
    with pytest.raises(GraphError):
        ipf_23_with_2factor(g)


# ---------------------------------------------------------------------------
# Full cubic pipeline
# ---------------------------------------------------------------------------

def check_certificate(g, cert):
    limit = 2 if g.n <= 6 else (g.n - 1) // 3
    paths = verify_ipf(g, cert.ipf.edges)
    assert len(paths) == cert.ipf.path_count <= limit
    assert cert.verified and cert.n == g.n
    doc = json.loads(json.dumps(cert.to_json()))
    assert doc["ipf"]["path_count"] == cert.ipf.path_count


@pytest.mark.parametrize("g, bound", [(census_graphs(6)[1], "2"),
                                      (petersen(), "(n-1)/3")])
def test_certificate_keeps_only_its_ipf_and_trace(g, bound):
    """n, graph6, bound and verified are read from the IPF, not stored,
    and cannot be set apart from it."""
    assert [f.name for f in dataclasses.fields(Certificate)] == \
        ["ipf", "trace"]
    cert = ipf_cubic(g)
    assert cert.ipf.host is g
    assert (cert.n, cert.graph6, cert.bound, cert.verified) == \
        (g.n, write_graph6(g), bound, True)
    assert list(cert.to_json()) == ["graph6", "n", "bound", "ipf",
                                    "verified", "trace"]
    for name in ("n", "graph6", "bound", "verified"):
        with pytest.raises(AttributeError):
            setattr(cert, name, None)


def test_cubic_small_orders():
    for n in (4, 6):
        for g in census_graphs(n):
            cert = ipf_cubic(g)
            check_certificate(g, cert)
            assert cert.ipf.path_count == 2
            assert cert.trace[0] == "base-small"


def test_cubic_census_orders_8_and_10():
    for n in (8, 10):
        for g in census_graphs(n):
            check_certificate(g, ipf_cubic(g))


def test_cubic_nonhamiltonian_exceptions():
    check_certificate(petersen(), ipf_cubic(petersen()))
    check_certificate(tietze(), ipf_cubic(tietze()))


def test_cubic_pipeline_routes_exercised():
    rng = random.Random(99)
    traces = set()
    for _ in range(60):
        n = rng.choice((8, 10, 12, 14, 16))
        g = random_connected_cubic(rng, n)
        cert = ipf_cubic(g)
        check_certificate(g, cert)
        traces.update(cert.trace)
    assert "two-factor" in traces


def test_cubic_bridge_route():
    # two order-7 near-cubic sides joined by a bridge
    rng = random.Random(1)
    found = False
    for _ in range(300):
        g = random_connected_cubic(rng, 14)
        cert = ipf_cubic(g)
        check_certificate(g, cert)
        if "bridge-split" in cert.trace:
            found = True
            break
    if not found:
        # deterministic fallback: build a bridged cubic host directly
        side = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0),
                (1, 4), (2, 5), (3, 6)]
        edges = list(side)
        edges += [(u + 7, v + 7) for u, v in side]
        edges.append((0, 7))
        g = Graph(14, edges)
        assert g.is_cubic()
        cert = ipf_cubic(g)
        check_certificate(g, cert)
        assert "bridge-split" in cert.trace


def test_cubic_rejects_non_cubic():
    with pytest.raises(GraphError):
        ipf_cubic(cycle(6))
    with pytest.raises(GraphError):
        ipf_cubic(subdivided_complete(4))
    with pytest.raises(GraphError):
        ipf_cubic(Graph(0))  # the null graph is not cubic


# ---------------------------------------------------------------------------
# Routes first reached above the census orders
# ---------------------------------------------------------------------------

def flower_snark(k):
    """Flower snark J_k for odd k, n = 4k: claws a_i (i) joined to b_i
    (k+i), c_i (2k+i) and d_i (3k+i), the k-cycle b_0..b_{k-1}, and the
    2k-cycle c_0..c_{k-1} d_0..d_{k-1}."""
    edges = [(i, j * k + i) for i in range(k) for j in (1, 2, 3)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(2 * k + i, 2 * k + (i + 1) % (2 * k)) for i in range(2 * k)]
    return Graph(4 * k, edges)


def petersen_minus_edge():
    return petersen().without_edges([(0, 1)])


def spy(monkeypatch, name, modules=(constructive,)):
    """Record (args, result) of every call to <module>.<name>."""
    calls = []
    orig = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        out = orig(*args, **kwargs)
        calls.append((args, out))
        return out
    for module in modules:
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_cubic_two_edge_cut_between_petersen_halves():
    # two copies of Petersen minus an edge, joined across a 2-edge-cut
    half = petersen_minus_edge().edges
    edges = list(half) + [(u + 10, v + 10) for u, v in half]
    g = Graph(20, edges + [(0, 10), (1, 11)])
    cert = ipf_cubic(g)
    check_certificate(g, cert)
    assert cert.trace == ["two-factor"]
    assert cert.ipf.path_count == 6


def test_cubic_ladder_with_order_4_side():
    # Petersen minus an edge, a rung 14-15 and a K4- on 10..13 beyond it
    edges = list(petersen_minus_edge().edges)
    edges += [(10, 12), (10, 13), (11, 12), (11, 13), (12, 13),
              (10, 14), (11, 15), (14, 15), (14, 0), (15, 1)]
    g = Graph(16, edges)
    assert g.is_cubic()
    cert = ipf_cubic(g)
    check_certificate(g, cert)
    assert cert.trace == ["two-factor"]
    assert cert.ipf.path_count == 4


@pytest.mark.parametrize("g6", [
    "UhAAOWU_?_`B??????G?B??O@A_?C??CS??QG?AG",
    "UJ?gCUCQKCAO????????F?@O??g?S??@C?AC??OW",
    "YH?__UC_kAI@Q?B?????B??_??G????@???Q??Ao??J??C???@@???`_",
    "[@OG_UC_k?K@S?H?_@????????G??_??S@?C??Gg?????B@??GA???A_?A_???AB",
])
def test_cubic_ring_of_two_edge_cuts(g6):
    # rings of cubic pieces minus an edge, joined by 2-edge-cuts, that the
    # K4- and 2-factor reductions certify
    g = parse_graph6(g6)
    cert = ipf_cubic(g)
    check_certificate(g, cert)
    assert "two-edge-cut" not in cert.trace
    assert cert.ipf.path_count == 5


def joined(a, b, x, y):
    """a and b side by side, b shifted past a, bridged from x in a to y
    in b."""
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph(a.n + b.n, edges + [(x, a.n + y)])


def check_blocktree(g):
    ipf = ipf_blocktree(g)
    assert len(verify_ipf(g, ipf.edges)) == ipf.path_count
    assert ipf.path_count <= _allowed_bound(g)
    assert is_well_behaved(ipf) == []
    return ipf


def test_blocktree_bad_bridge_assembly(monkeypatch):
    bad = bad_graph(6, (0,), 1)
    g = joined(bad, bad, 0, 0)
    assembled = spy(monkeypatch, "_bridge_assembly")
    check_blocktree(g)
    # the recursion into the bad sides assembles bridges too; spy records
    # on return, so the outermost call, the first one made, comes last
    assert assembled[-1][0][0] is g


@pytest.mark.parametrize("first,second", [(6, 9), (9, 6)])
def test_blocktree_ring_bridge_in_either_labelling(first, second):
    # an order-6 triangle ring is bad but too small to lose its bridge
    # endpoint; which ring is labelled first must not matter
    g = joined(triangle_ring(first), triangle_ring(second), 0, 0)
    assert check_blocktree(g).path_count == 4


# order-5 leaf block: C5 plus the chord 0-2; vertex 3 has degree 2
LEAF = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])


def c5_star(x1, x2):
    """C5 centre with two order-5 leaves, bridged from centre vertices x1
    and x2 to the leaves' vertex 3."""
    g = joined(joined(cycle(5), LEAF, x1, 3), LEAF, x2, 3)
    assert g.n == 15
    return g


def test_blocktree_c5_centre_with_leaves_at_distance_2(monkeypatch):
    pasted = spy(monkeypatch, "paste_k4minus")
    recursed = spy(monkeypatch, "ipf_blocktree")
    stars = spy(monkeypatch, "_star_assembly")
    searches = spy(monkeypatch, "hamilton_cycle")
    # the centre's cycle 0-1-2-3-4 reaches 3 at distance 2 only mirrored
    for x2 in (2, 3):
        assert check_blocktree(c5_star(0, x2)).path_count == 4
    assert len(stars) == 2 and pasted == [] and recursed == []
    # per host the hypotheses search the three blocks and ipf_small_ham
    # each leaf again; the star reads its centre's paths from adjacency
    assert len(searches) == 2 * 5


def test_blocktree_c5_centre_with_adjacent_leaves(monkeypatch):
    pasted = spy(monkeypatch, "paste_k4minus")
    stars = spy(monkeypatch, "_star_assembly")
    assert check_blocktree(c5_star(0, 1)).path_count == 4
    assert len(stars) == 1 and len(pasted) == 1


def suppression_fallback_host():
    """triangle_ring(6) with its triangle edge (0, 1) subdivided by 6 and
    its joining edge (4, 5) by 7, each of 6 and 7 bridged to a leaf."""
    ring = triangle_ring(6).without_edges([(0, 1), (4, 5)])
    hub = Graph(8, ring.edges | {(0, 6), (1, 6), (4, 7), (5, 7)})
    return joined(joined(hub, LEAF, 6, 3), LEAF, 7, 3)


def test_blocktree_star_suppression_leaving_a_bad_host(monkeypatch):
    """On suppression_fallback_host, suppressing 6 leaves a bad host, so
    the star assembly instead drops 6 with the triangle tip 0, puts the
    path 0-6 on the leaf's path, and recurses once, on the order-11 rest."""
    g = suppression_fallback_host()
    assert g.n == 18 and recognize_bad(g) is None
    suppressed = spy(monkeypatch, "suppress_vertex")
    lifted = spy(monkeypatch, "lift")
    recursed = spy(monkeypatch, "ipf_blocktree")
    ipf = check_blocktree(g)
    assert ipf.path_count == 5 and (0, 6) in ipf.edges
    assert len(suppressed) == 1 and lifted == []
    assert [args[0].n for args, _ in recursed] == [11]


def ham23_block(rng, m):
    """A hamiltonian {2,3}-graph of order m: the cycle 0..m-1 plus a random
    matching of chords, half of them drawn short (length 2) when free."""
    edges = [(i, (i + 1) % m) for i in range(m)]
    free = set(range(m))
    for _ in range(rng.randrange(m // 2 + 1)):
        a = rng.choice(sorted(free))
        far = [b for b in free if (b - a) % m not in (0, 1, m - 1)]
        near = [b for b in ((a + 2) % m, (a - 2) % m) if b in free]
        pool = (near if rng.random() < 0.5 else far) or far
        if pool:
            b = rng.choice(sorted(pool))
            edges.append((a, b))
            free -= {a, b}
    return Graph(m, edges)


def degree_2(g):
    return [v for v in range(g.n) if g.degree(v) == 2]


def relabelled(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def star_host(rng):
    """A centre block of order 5..22 with order-5 leaf blocks bridged to
    some of its degree-2 vertices, n in 13..62, randomly relabelled: past
    every free split and bridge assembly, the block tree's star."""
    while True:
        m = rng.randint(5, 22)
        centre = ham23_block(rng, m)
        spots = degree_2(centre)
        fewest, most = max(1, -(-(13 - m) // 5)), min(len(spots), (62 - m) // 5)
        if fewest <= most:
            break
    edges, n = list(centre.edges), m
    for x in rng.sample(spots, rng.randint(fewest, most)):
        leaf = ham23_block(rng, 5)
        y = rng.choice(degree_2(leaf))
        edges += [(u + n, v + n) for u, v in leaf.edges] + [(x, y + n)]
        n += 5
    return relabelled(rng, n, edges)


def chain_host(rng):
    """A chain of blocks of order 5..14, each bridged from a degree-2
    vertex to a degree-2 vertex of the next, n in 7..62, randomly
    relabelled."""
    while True:
        edges, n, prev = [], 0, None
        while True:
            m = rng.randint(5, 14)
            if n + m > 62:
                break
            spots = degree_2(block := ham23_block(rng, m))
            if len(spots) < (1 if prev is None else 2):
                continue
            y = rng.choice(spots)
            edges += [(u + n, v + n) for u, v in block.edges]
            if prev is not None:
                edges.append((prev, y + n))
            ends = [s for s in spots if s != y] if prev is not None else spots
            if not ends or rng.random() < 0.3:
                n += m
                break
            prev = rng.choice(ends) + n
            n += m
        if n >= 7 and edges:
            return relabelled(rng, n, edges)


# SHA-256 over the sorted edge sets of ipf_23_with_2factor on the first 300
# seeded hosts of each panel, taken before the star assembly read its
# leaves from the router
PANEL_DIGESTS = {
    "star": (star_host, "55531959f273628805777a75d26743ecfcf71a9b07f7197ae9b8b1a4892961f9"),
    "chain": (chain_host, "dd14ea44a93cf0bc44e46702339972e892f08aaf161d6d9bed236b5df7afd07d"),
}


@pytest.mark.parametrize("panel", sorted(PANEL_DIGESTS))
def test_blocktree_edge_sets_are_pinned(panel):
    make, pinned = PANEL_DIGESTS[panel]
    hosts = [make(random.Random(s)) for s in range(300)]
    assert all(_blocktree_hypotheses(g) is not None for g in hosts)
    doc = [sorted(map(list, ipf_23_with_2factor(g).edges)) for g in hosts]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == pinned


def test_blocktree_fills_each_bridge_once(monkeypatch):
    """The router computes each bridge's sides once, and the bridge and
    star assemblies read them from it."""
    filled = spy(monkeypatch, "_bridge_sides")
    for s in range(100):
        for make in (star_host, chain_host):
            ipf_23_with_2factor(make(random.Random(s)))
    assert filled  # the spy keeps each graph alive, so no id is reused
    keys = [(id(args[0]), args[1]) for args, _ in filled]
    assert len(set(keys)) == len(keys)


def star_branch(g):
    """The branch _star_assembly(g) takes, read from g's shape: the
    centre is the largest block, and of two order-5 blocks the one meeting
    more bridges; each bridge hangs a leaf from an attachment x on it."""
    dec = graph.block_decomposition(g)
    centre = max(dec.blocks, key=lambda b: (len(b), sum(
        u in b or v in b for u, v in dec.bridges)))
    leaves = [(a, b) if a in centre else (b, a) for a, b in sorted(dec.bridges)]
    xs = [x for x, _ in leaves]
    if any(g.has_edge(x, z) for x in xs for z in xs):
        return "paste"
    if len(centre) == 5:
        return "c5"
    if any(constructive._triangle_of(g, x) is not None for x in xs):
        return "triangle"
    x1, y1 = leaves[0]
    (leaf,) = (b for b in dec.blocks if y1 in b)
    rest, o2n = g.induced_subgraph(set(range(g.n)) - leaf)
    suppressed, _ = suppress_vertex(rest, o2n[x1])
    if recognize_bad(suppressed) is None or recognize_bad(g) is not None:
        return "suppression"
    return "fallback"


def test_star_assembly_runs_every_branch(monkeypatch):
    """Every branch of the star assembly runs on the star panel and the
    suppression fallback's host; the surgeries it makes agree with the
    branch read from each host's shape."""
    stars = spy(monkeypatch, "_star_assembly")
    pasted = spy(monkeypatch, "paste_k4minus")
    suppressed = spy(monkeypatch, "suppress_vertex")
    lifted = spy(monkeypatch, "lift")
    hosts = [star_host(random.Random(s)) for s in range(300)]
    for g in hosts + [suppression_fallback_host()]:
        ipf_23_with_2factor(g)
    monkeypatch.undo()
    taken = collections.Counter(star_branch(args[0]) for args, _ in stars)
    assert set(taken) == {"paste", "c5", "triangle", "suppression", "fallback"}
    assert len(pasted) == taken["paste"]
    assert len(suppressed) == taken["suppression"] + taken["fallback"]
    assert len(lifted) == taken["paste"] + taken["suppression"]


def badness_tested(monkeypatch, g):
    """The distinct graphs ipf_blocktree(g) asks recognize_bad about, in
    the order their hubs are computed; every call on one graph returns
    the one hub (or None) its memo keeps."""
    calls = spy(monkeypatch, "recognize_bad")
    ipf_blocktree(g)
    reports = {}
    for (h,), report in calls:
        assert reports.setdefault(id(h), (h, report))[1] is report
    assert all(recognize_bad(h) is report for h, report in reports.values())
    return [h for h, _ in reports.values()]


def test_blocktree_tests_each_graph_for_badness_once(monkeypatch):
    # recognize_bad keeps its hub in the graph's memo, so each graph is
    # computed once: the host for its bound; the free split tests both bad
    # sides and the bridge assembly reuses those side graphs; each side
    # minus its bridge endpoint is tested for its own bound (the two sides
    # are equal graphs, but different subgraphs)
    bad = bad_graph(6, (0,), 1)
    g = joined(bad, bad, 0, 0)
    tested = badness_tested(monkeypatch, g)
    assert sorted(h.n for h in tested) == [11, 11, 12, 12, 24]
    assert any(h is g for h in tested)
    # suppression_fallback_host: the suppressed rest, the host and the
    # order-11 rest
    monkeypatch.undo()
    tested = badness_tested(monkeypatch, suppression_fallback_host())
    assert [h.n for h in tested] == [12, 18, 11]


def test_2factor_reduction_swaps_out_a_bad_reduction(monkeypatch):
    """bad_graph(6, (0, 1), 1) plus an edge between its two leaves,
    labelled in reverse so that this edge, (0, 9), sorts before the hub's
    bridges (1, 5) and (7, 11).  The greedy S' is that edge alone and
    leaves the bad graph, so the reduction puts it back and cuts the
    bridge (1, 5) of its order-5 block instead."""
    bad = bad_graph(6, (0, 1), 1)
    g = Graph(18, [(17 - u, 17 - v) for u, v in bad.edges] + [(0, 9)])
    hub = [17 - v for v in (0, 1, 6, 2, 3, 4, 12, 5)]
    cycles = [hub, [10, 9, 8, 7, 6], [4, 3, 2, 1, 0]]
    assert_two_factor(g, cycles)
    assert _blocktree_hypotheses(g) is None
    badness = spy(monkeypatch, "recognize_bad")
    ipf = constructive._two_factor_reduction(g, cycles)
    assert len(verify_ipf(g, ipf.edges)) == ipf.path_count == 5
    (first, bad_first), (swapped, bad_swapped) = badness[:2]
    assert first[0] == g.without_edges([(0, 9)]) and bad_first is not None
    assert swapped[0] == g.without_edges([(1, 5)])
    assert bad_swapped is None


def test_2factor_reduction_swaps_at_the_far_end_of_a_hub_tip_edge(monkeypatch):
    """The smallest host whose removed edge starts in the hub: a ring of two
    triangles (1, 2, 3) and (4, 5, 0) with the joining edge 2-4 subdivided
    by s = 6, s bridged to x = 7 of a C5 7-8-9-10-11, and the degree-2 tip
    0 joined to 9.  The only 2-factor with long cycles is {hub 7-cycle,
    C5}; S' is (0, 9) alone and leaves a bad graph whose hub holds the
    edge's first end 0, a degree-2 tip, so the swap takes the other end 9,
    whose order-5 block hangs from the bridge (6, 7), and cuts that."""
    g = Graph(12, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 0), (4, 0), (2, 6),
                   (6, 4), (5, 1), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11),
                   (11, 7), (0, 9)])
    assert _blocktree_hypotheses(g) is None and hamilton_cycle(g) is None
    badness = spy(monkeypatch, "recognize_bad")
    ipf = ipf_23_with_2factor(g)
    assert len(verify_ipf(g, ipf.edges)) == ipf.path_count == _allowed_bound(g)
    (first, bad_first), (swapped, bad_swapped) = badness[:2]
    assert first[0] == g.without_edges([(0, 9)]) and bad_first is not None
    assert 0 in bad_first and g.degree(0) == 3
    assert swapped[0] == g.without_edges([(6, 7)])
    assert bad_swapped is None


@pytest.mark.parametrize("k", [5, 7])
def test_cubic_flower_snarks_use_a_multi_cycle_2factor(monkeypatch, k):
    g = flower_snark(k)
    assert g.n == 4 * k and g.is_cubic() and g.is_connected()
    factors = spy(monkeypatch, "two_factor_search")
    cert = ipf_cubic(g)
    check_certificate(g, cert)
    assert cert.trace == ["two-factor"]
    assert len(factors) == 1 and len(factors[0][1]) > 1


def test_cubic_k4minus_reroutes_ends_on_one_path(monkeypatch):
    # a bridgeless nonhamiltonian census graph of order 14 with a K4-
    # inserted on its edge (2, 3): the repaired remainder's IPF ends one
    # path at both outside neighbours, so the end edge at the second moves
    g = parse_graph6("QI?G_UC_k?H@H??Qc??_???K??w")
    repaired = spy(monkeypatch, "_repair_and_lift")
    built = spy(monkeypatch, "induced_subgraph", (Graph,))
    cert = ipf_cubic(g)
    check_certificate(g, cert)
    assert cert.trace == ["k4minus-reduction", "two-factor"]
    assert cert.ipf.path_count == 5
    (x0, y0), p = next((args[1], out[0]) for args, out in repaired
                       if len(args[1]) == 2)
    assert p.path_of[x0] == p.path_of[y0]
    # the search tests the remainder's connectivity on g's masks, so the
    # route builds the 14-vertex remainder once
    assert [out[0].n for args, out in built if args[0] is g] == [14]


def test_cubic_builds_each_subgraph_once(monkeypatch):
    # the host of test_cubic_k4minus_reroutes_ends_on_one_path: its
    # repaired remainder's 2-factor reduction is a block tree of an order-5
    # and an order-7 block, which the badness test, the block-tree
    # hypotheses and the bridge assembly each ask for
    g = parse_graph6("QI?G_UC_k?H@H??Qc??_???K??w")
    built = spy(monkeypatch, "induced_subgraph", (Graph,))
    check_certificate(g, ipf_cubic(g))
    keys = [(id(args[0]), frozenset(args[1])) for args, _ in built]
    assert len(set(keys)) == len(keys)
    assert [(args[0].n, out[0].n) for args, out in built] == [
        (18, 14), (12, 5), (12, 7)]


def spy_verified(monkeypatch):
    """Every (host, edge set) that verify_ipf checks, keyed by the host's
    identity, and the repeats among them; the map keeps each host alive,
    so no id is reused while it is read."""
    verified, repeats = {}, []
    orig = ipf_module.verify_ipf

    def wrapper(g, edges):
        key = (id(g), frozenset(edges))
        if key in verified:
            repeats.append((g, key[1]))
        verified[key] = g
        return orig(g, edges)
    monkeypatch.setattr(ipf_module, "verify_ipf", wrapper)
    return verified, repeats


def test_cubic_verifies_each_built_ipf_once(monkeypatch):
    """Within one ipf_cubic call no edge set is verified twice on one
    graph, and the certificate's IPF is one of those verified."""
    verified, repeats = spy_verified(monkeypatch)
    traces = set()
    for g in [flower_snark(7)] + census_graphs(14):
        verified.clear()
        cert = ipf_cubic(g)
        traces.update(cert.trace)
        assert (id(cert.ipf.host), cert.ipf.edges) in verified
    assert {"bridge-split", "k4minus-reduction", "two-factor"} <= traces
    assert not repeats


def test_bridge_side_is_verified_inside_its_union(monkeypatch):
    """A bridge side's lifted IPF is not verified on the side: the bridge
    split's IPF of the parent, which contains it, is."""
    verified, _ = spy_verified(monkeypatch)
    lifted = spy(monkeypatch, "lift")
    rng = random.Random(11)
    sides = 0
    while sides < 20:
        g = random_bridged_cubic(rng, 40)
        verified.clear()
        lifted.clear()
        cert = ipf_cubic(g)
        if "k4minus-reduction" in cert.trace:
            continue  # that route reads the ends of its lifted IPF
        check_certificate(g, cert)
        for _, out in lifted:
            assert (id(out.host), out.edges) not in verified
            sides += 1


def test_small_ham_tries_each_split_once(monkeypatch):
    # at length 0 both orientations give the same two paths
    verified, repeats = spy_verified(monkeypatch)
    for n in (5, 6):
        for g in hamiltonian_23_graphs(n):
            for x in range(n):
                if g.degree(x) == 2:
                    verified.clear()
                    ipf_small_ham(g, x)
                    assert not repeats


def test_lift_scans_the_host_k4minus_once(monkeypatch):
    # a cycle with a K4- pasted on (0, 1), then the edge (3, 4) subdivided
    # by 10; lifting through the suppression of 10 standardises an IPF of
    # the pasted host, which asks for its K4- list more than once
    h, _ = paste_k4minus(cycle(8), 0, 1)
    g, _ = subdivide_edge(h, 3, 4)
    prime_host, rec = suppress_vertex(g, 10)
    prime = Ipf.from_paths(prime_host, [[0, 8, 1, 2, 3], [9], [4, 5, 6, 7]])
    asked = spy(monkeypatch, "induced_k4minus_subgraphs",
                (ipf_module, constructive))
    out = lift(rec, prime)
    assert 10 in out.endpoints()
    assert len(asked) >= 2
    assert {id(found) for _, found in asked} == {id(asked[0][1])}
    assert asked[0][1] == ((0, 1, 8, 9),)
    assert isinstance(asked[0][1], tuple)  # shared, so not mutable


def test_cubic_decides_hamiltonicity_once(monkeypatch):
    # a hamiltonian cubic host is bridgeless, never bad and has no degree-2
    # vertex, so none of the block-tree checks runs on it
    g = random_connected_cubic(random.Random(40), 40)
    searches = spy(monkeypatch, "hamilton_cycle")
    checks = [spy(monkeypatch, name) for name in (
        "_blocktree_hypotheses", "recognize_bad", "is_well_behaved")]
    cert = ipf_cubic(g)
    check_certificate(g, cert)
    assert cert.trace == ["two-factor"]
    assert len(searches) == 1
    assert checks == [[], [], []]


def test_cubic_decomposes_each_host_once(monkeypatch):
    # a bridged host's sides carry its bridges down and need no
    # decomposition of their own
    g = next(g for g in census_graphs(12) if hamilton_cycle(g) is not None)
    bridged = [random_bridged_cubic(random.Random(s)) for s in range(20)]
    passes = spy(monkeypatch, "_biconnected_components", (graph,))
    assert ipf_cubic(g).trace == ["two-factor"]
    for h in bridged:
        assert "bridge-split" in ipf_cubic(h).trace
    assert [args for args, _ in passes] == [(h,) for h in [g] + bridged]
    assert graph.block_decomposition(g) is graph.block_decomposition(g)
    assert len(passes) == 1 + len(bridged)
    # a derived graph is a new object with its own decomposition
    c6 = cycle(6)
    assert not graph.block_decomposition(c6).bridges
    assert graph.block_decomposition(c6.without_edges([(0, 1)])).bridges == {
        (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}


def three_k4_star():
    """Three K4s, each with one edge subdivided, whose subdivision vertices
    4, 9 and 14 join the centre 15.  The split at (4, 15) leaves the centre
    with two bridges, so suppressing it merges them into the bridge (4, 9)
    of the repaired side."""
    edges = [(5 * k + 4, 15) for k in range(3)]
    for o in (0, 5, 10):
        edges += [(o, o + 2), (o, o + 3), (o + 1, o + 2), (o + 1, o + 3),
                  (o + 2, o + 3), (o, o + 4), (o + 1, o + 4)]
    return Graph(16, edges)


def k4minus_over_a_2_cut():
    """Two copies of Petersen minus an edge, joined by (1, 11) and through
    a K4- on 20..23 at 0 and 10.  The host is bridgeless and not
    hamiltonian, so the K4- is cut out, and (1, 11) is a bridge of what
    the cut leaves."""
    half = petersen_minus_edge().edges
    edges = list(half) + [(u + 10, v + 10) for u, v in half]
    edges += [(20, 22), (20, 23), (21, 22), (21, 23), (22, 23),
              (0, 20), (10, 21), (1, 11)]
    return Graph(24, edges)


def spy_carried(monkeypatch):
    """(graph, bridges) of every _cubic_recurse call, the host's own among
    them; the spy records a call when it returns, so a host's call comes
    after the calls below it."""
    calls = spy(monkeypatch, "_cubic_recurse")
    return lambda: [args for args, _ in calls]


BRIDGE_PANELS = {
    "census": lambda: [g for n in (4, 6, 8, 10, 12, 14)
                       for g in census_graphs(n)],
    "random": lambda: [random_bridged_cubic(random.Random(s), m)
                       for s in range(60) for m in range(22, 61)],
    "three-k4": lambda: [three_k4_star()],
    "k4minus": lambda: [k4minus_over_a_2_cut()],
}


@pytest.mark.parametrize("panel", sorted(BRIDGE_PANELS))
def test_bridge_split_carries_each_graph_its_bridges(monkeypatch, panel):
    carried = spy_carried(monkeypatch)
    hosts = BRIDGE_PANELS[panel]()
    for g in hosts:
        ipf_cubic(g)
    # each panel recurses below some host with a carried bridge set
    assert [h for h, _ in carried() if not any(h is g for g in hosts)]
    for h, bridges in carried():
        fresh = Graph(h.n, h.edges)  # nothing cached
        assert bridges == graph.block_decomposition(fresh).bridges


def test_suppressing_a_bridge_centre_carries_the_merged_bridge(monkeypatch):
    carried = spy_carried(monkeypatch)
    g = three_k4_star()
    cert = ipf_cubic(g)
    check_certificate(g, cert)
    assert cert.trace == ["bridge-split", "bridge-split"]
    # the 11-vertex side's bridges (4, 10) and (9, 10) meet at its centre
    # 10, whose suppression leaves both order-5 sides joined by (4, 9)
    *below, (host, _) = carried()
    assert host is g
    assert [(h.n, bridges) for h, bridges in below] == [(10, {(4, 9)})]


@pytest.mark.parametrize("k", [7, 9])
def test_blocktree_sides_keep_the_host_cycles(monkeypatch, k):
    # J_k's 2-factor reduction is a block tree of an order-3k and an
    # order-k block joined by a bridge; the free split covers each side
    # with the cycle the hypotheses found on the host, so the whole host
    # and each block are searched once
    g = flower_snark(k)
    searches = spy(monkeypatch, "hamilton_cycle")
    check_certificate(g, ipf_cubic(g))
    assert [args[0].n for args, _ in searches] == [4 * k, 3 * k, k]


def test_blocktree_nested_free_split_keeps_the_host_cycles(monkeypatch):
    # a chain of three order-8 blocks (C8 plus the chords 0-4, 1-5, 2-6),
    # block j's vertex 7 bridged to block j+1's vertex 3; the free split's
    # order-16 side is itself a two-block chain that splits again, and every
    # side reuses the cycles found on the host, so each block is searched
    # once and the host never as a whole
    def block(j):
        o = 8 * j
        return [(o + i, o + (i + 1) % 8) for i in range(8)] \
            + [(o, o + 4), (o + 1, o + 5), (o + 2, o + 6)]
    g = Graph(24, block(0) + block(1) + block(2) + [(7, 11), (15, 19)])
    searches = spy(monkeypatch, "hamilton_cycle")
    ipf = ipf_23_with_2factor(g)
    assert verify_ipf(g, ipf.edges) and ipf.path_count == 6
    assert [args[0].n for args, _ in searches] == [8, 8, 8]


@pytest.mark.parametrize("k", [5, 7, 9, 11])
def test_two_factor_search_stop_keeps_the_flower_snark_factor(k):
    g = flower_snark(k)
    assert two_factor_search(g, fewest_possible=2) == two_factor_search(g)


def test_two_factor_search_stops_at_two_cycles_on_j15():
    g = flower_snark(15)
    start = time.perf_counter()
    cycles = two_factor_search(g, fewest_possible=2)
    assert time.perf_counter() - start < 0.1
    assert_two_factor(g, cycles)
    assert len(cycles) == 2 and min(map(len, cycles)) >= 5


def test_cubic_nonhamiltonian_host_searched_once_whole(monkeypatch):
    g = flower_snark(7)
    searches = spy(monkeypatch, "hamilton_cycle")
    check_certificate(g, ipf_cubic(g))
    assert [args[0] for args, _ in searches].count(g) == 1
    assert sum(args[0].n == g.n for args, _ in searches) == 1


def certificate_digest(g):
    """SHA-256 over (graph6, sorted IPF edges, trace) of ipf_cubic(g)."""
    cert = ipf_cubic(g)
    doc = [cert.graph6, sorted(map(list, cert.ipf.edges)), cert.trace]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def test_pinned_cubic_certificates():
    """Every certificate of the census n=4..14, Petersen, Tietze, J7 and
    J9, keyed by graph6 (``cubic_certificates.json``): a change that only
    saves work, such as caching a decomposition, may move no edge set and
    no route."""
    pinned = json.loads((DATA / "cubic_certificates.json").read_text())
    hosts = [g for n in (4, 6, 8, 10, 12, 14) for g in census_graphs(n)]
    hosts += [petersen(), tietze(), flower_snark(7), flower_snark(9)]
    assert len(pinned) == len(hosts) == 625
    for g in hosts:
        code = write_graph6(g)
        assert certificate_digest(g) == pinned[code], code


# certificate_digest of random_bridged_cubic(random.Random(seed)) for seed
# 0..19, taken before the bridge-split recursion stopped rebuilding graphs
BRIDGED_DIGESTS = [
    "544fc33e851c7a556f72c8b3dc71ea06a15103a8f22d602f44ec1a5e7629e590",
    "8c011d868d48b717e8ceeabb651e4a5e64ec1a3ac3133ba4e910f6f3ffd73dc6",
    "7b342c68b43fe2337b4f45ca5b8c458a15071ef6a12db44bfb4c613bf303b69d",
    "71416ddecab793b9edc0efd388df1379181279805dd926165a28a88d3d3b805a",
    "acfa3aacb937bc255a629a0f1d8bddd7934ad364af2e98d34580eb1c5f87884d",
    "cc64cb337ec2f879f5d03a027a39e47fb3ef8c6dece189c168bbe6582bef5e95",
    "05642c9463009117d23132bb3e076a5ddffce4224b05bd31f512d0804b38d0fc",
    "ab9f2751670427a64072ebd5f9630c8db94251b92b5c48fb5692c971679c3090",
    "eec03c45eb8aaf4ab2aa3687abf888df25b8a2ab80feb423efc74f039fa1820e",
    "b9dd4434e30c5c870faf4932a9cde1690c3ef487d5323b76157371101e5a39c4",
    "2d6862eb1674414522aea077d096e448c685487f469823d41efc5963394b56b4",
    "edc885cf23da42c344be4d8c70607a4f4f9ff75e6da4445a467bec30dba1d669",
    "f656068ecd7aa19999a8bfed8dde5305aaa90190f4bc4fff958bf5f89cbe6222",
    "7a0a4ca33b2b0a7c7d6911fec3fae2b69c71fb935b9eddb54aeee3369a7b19f6",
    "f25f3f986a73fdf0e49a5885a1ba189f75744936c6d7914b78d36d83cee1029d",
    "42867d196e137d024d3de9715c09cfbf5ad7fe6effa9918424523063a618443d",
    "167b001acc27b403d5f8ffb77473205b40976ea0b2a7745dcbe51b40fa9c8886",
    "d81e0275af3fd33f06b68837cbd50104e18aba14be2e9e9b2db7f9e49f3f2b63",
    "9ed46ad22a78da763f14cfe41988737fe51c4e4b019f964eced7f5b9ff3c8acb",
    "cb1abeec6f0f0e54c589d988e65ba53841f5f849cd5f7f9e4d8f54cb3a748e6a",
]


def test_pinned_bridged_certificates():
    """Hosts of order 48..62 whose certificates pass through two or more
    bridge-split levels, with repairs and lifts on each: a change that only
    saves work in that recursion may move no edge set and no route."""
    for seed, pinned in enumerate(BRIDGED_DIGESTS):
        g = random_bridged_cubic(random.Random(seed))
        assert ipf_cubic(g).trace.count("bridge-split") >= 2, seed
        assert certificate_digest(g) == pinned, seed


def test_cubic_rejects_beyond_graph6_before_searching(monkeypatch):
    # the prism C32 x K2 has n = 64 > 62, the short-form graph6 limit
    m = 32
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m + i, m + (i + 1) % m) for i in range(m)]
    edges += [(i, m + i) for i in range(m)]
    g = Graph(2 * m, edges)
    searches = spy(monkeypatch, "hamilton_cycle")
    with pytest.raises(Graph6Error):
        ipf_cubic(g)
    assert searches == []


# ---------------------------------------------------------------------------
# Scale guards: hosts on which unpruned hamilton backtracking took seconds
# (n=48: 12 s, J9: 4 s) or ran past 20 s (four of the n=62 hosts)
# ---------------------------------------------------------------------------

def test_hamilton_cycle_on_random_cubic_48_is_fast():
    g = random_connected_cubic(random.Random(5000 * 48 + 3), 48)
    t0 = time.monotonic()
    cyc = hamilton_cycle(g)
    assert time.monotonic() - t0 < 2.0
    assert sorted(cyc) == list(range(g.n))
    assert all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))


def test_hamilton_cycle_on_flower_snark_9_is_fast():
    g = flower_snark(9)
    t0 = time.monotonic()
    assert hamilton_cycle(g) is None
    assert time.monotonic() - t0 < 2.0


@pytest.mark.parametrize("s", range(5))
def test_cubic_random_62(s):
    g = random_connected_cubic(random.Random(5000 * 62 + s), 62)
    t0 = time.monotonic()
    cert = ipf_cubic(g)
    assert time.monotonic() - t0 < 20.0
    check_certificate(g, cert)
