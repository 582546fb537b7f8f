"""Acceptance gate: one check per criterion, each reporting a single
PASS line on success (pytest -v shows FAIL per criterion otherwise)."""

import random
import sys
from fractions import Fraction

from ipfkit import (
    Graph, augment_triangle, glue_at_vertex, glue_lower_bound, hamilton_cycle,
    ipf_cubic, ipf_ham23, is_well_behaved, lift, paste_k4minus, recognize_bad,
    rho_exact, rho_exhaustive, rho_tree, rho_tree_recurrence, subdivide_edge,
    suppress_vertex, verify_ipf,
)
from ipfkit.bounds import ck_lower
from ipfkit.constructive import _allowed_bound
from ipfkit.families import fig1_subcubic, odd_k_glued_tree, perfect_tree
from ipfkit.solver import EXHAUSTIVE_CAP

from conftest import (
    census_graphs, hamiltonian_23_graphs, random_connected_subcubic,
)


def ok(i, text):
    print(f"PASS criterion {i}: {text}", file=sys.stderr)


def test_criterion_1_small_order_exactness():
    for n in (4, 6):
        for g in census_graphs(n):
            assert rho_exact(g).rho == 2
    ok(1, "rho_exact = 2 on every connected cubic graph of order <= 6")


def test_criterion_2_census_verification():
    checked = 0
    for n in (8, 10, 12, 14):
        limit = (n - 1) // 3
        for g in census_graphs(n):
            cert = ipf_cubic(g)
            assert len(verify_ipf(g, cert.ipf.edges)) == cert.ipf.path_count
            assert cert.ipf.path_count <= limit
            res = rho_exact(g)
            assert res.optimal and res.rho <= limit
            checked += 1
    assert checked == 5 + 19 + 85 + 509
    ok(2, f"zero bound violations over {checked} cubic graphs, n in 8..14")


def test_criterion_3_oracle_equivalence():
    for n in (4, 6, 8):
        for g in census_graphs(n):
            assert rho_exact(g).rho == rho_exhaustive(g).rho
    rng = random.Random(20240817)
    for _ in range(200):
        g = random_connected_subcubic(rng, rng.randrange(2, 10))
        assert g.n <= EXHAUSTIVE_CAP
        assert rho_exact(g).rho == rho_exhaustive(g).rho
    ok(3, "rho_exact == rho_exhaustive on the full subcubic corpus")


def test_criterion_4_tree_formula():
    for k, hs in ((3, range(4)), (4, range(3)), (5, range(2))):
        for h in hs:
            assert rho_tree(k, h) == rho_exact(perfect_tree(k, h)).rho
    for k in range(3, 11):
        for h in range(13):
            assert rho_tree(k, h) == rho_tree_recurrence(k, h)
    ok(4, "tree closed form matches both the recurrence and the solver")


def test_criterion_5_fig1_family():
    g = fig1_subcubic(16)
    assert rho_exact(g).rho == 6
    comps = [set(range(4))]
    for v in range(4):
        a = 4 + 3 * v
        comps.append({v, a, a + 1, a + 2})
    assert glue_lower_bound(g, comps) >= 6
    ok(5, "rho(fig1_subcubic(16)) = 6, certified independently by gluing")


def test_criterion_6_gluing_subdivision_properties():
    rng = random.Random(991)
    for _ in range(250):
        n = rng.randrange(2, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.45]
        g = Graph(n, edges)
        if not g.edges:
            continue
        u, v = rng.choice(g.sorted_edges())
        h, _ = subdivide_edge(g, u, v)
        assert rho_exact(h).rho >= rho_exact(g).rho
    for _ in range(250):
        def rand():
            n = rng.randrange(2, 6)
            return Graph(n, [(i, j) for i in range(n)
                             for j in range(i + 1, n)
                             if rng.random() < 0.5])
        a, b = rand(), rand()
        g, _ = glue_at_vertex(a, b, rng.randrange(a.n), rng.randrange(b.n))
        assert rho_exact(g).rho >= rho_exact(a).rho + rho_exact(b).rho - 1
    k6ish = Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)
                      if (i, j) not in ((0, 1), (2, 3))])
    assert rho_exact(k6ish).rho == 2
    assert rho_exact(subdivide_edge(k6ish, 4, 5)[0]).rho == 3
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert rho_exact(glue_at_vertex(p3, p3, 1, 1)[0]).rho == 3
    ok(6, "500 random monotonicity/superadditivity instances plus both "
          "strictness witnesses")


def test_criterion_7_greedy_hamiltonian_bound():
    checked = 0
    for n in range(6, 11):
        for g in hamiltonian_23_graphs(n):
            ipf = ipf_ham23(g)
            assert ipf.path_count <= n // 3
            if n >= 7 and recognize_bad(g) is None:
                assert ipf.path_count <= (n - 1) // 3
            checked += 1
        for g in census_graphs(n) if n % 2 == 0 else []:
            if hamilton_cycle(g) is None:
                continue
            assert ipf_ham23(g).path_count <= _allowed_bound(g)
    ok(7, f"greedy bound holds on all {checked} hamiltonian hosts, "
          "orders 6..10")


def test_criterion_8_lift_contracts():
    rng = random.Random(4242)
    count = 0

    def check(g, h, rec, slack, ends, distinct=None):
        nonlocal count
        prime = rho_exact(h).witness
        out = lift(rec, prime)
        assert out.host is g
        paths = verify_ipf(g, out.edges)
        assert len(paths) <= prime.path_count + slack
        e = out.endpoints()
        assert all(v in e for v in ends)
        if distinct:
            a, b = distinct
            pa = next(i for i, p in enumerate(paths) if a in (p[0], p[-1]))
            pb = next(i for i, p in enumerate(paths) if b in (p[0], p[-1]))
            assert pa != pb
        if not is_well_behaved(prime):
            assert not is_well_behaved(out, R=ends)
        count += 1

    for _ in range(180):
        g = random_connected_subcubic(rng, rng.randrange(5, 11))
        for c in range(g.n):
            if g.degree(c) != 2:
                continue
            a, b = g.adj[c]
            if g.has_edge(a, b) and g.degree(a) == 3 and g.degree(b) == 3:
                check(g, *augment_triangle(g, a, b, c), 0, [c])
                break
        for u, v in g.sorted_edges():
            if g.degree(u) == 2 and g.degree(v) == 2:
                check(g, *paste_k4minus(g, u, v), 0, [u, v], (u, v))
                break
        for c in range(g.n):
            if g.degree(c) == 2 and not g.has_edge(*g.adj[c]):
                h, rec = suppress_vertex(g, c)
                if h.is_connected():
                    check(g, h, rec, 1, [c])
                    break
    assert count >= 150
    ok(8, f"lift count bounds, endpoint and well-behavedness guarantees "
          f"held on {count} surgeries")


def test_criterion_9_ck_lower_bounds():
    assert ck_lower(3) == Fraction(5, 18)
    assert ck_lower(4) == Fraction(3, 7)
    assert ck_lower(5) == Fraction(39, 100)
    for k in (6, 8, 10, 12):
        assert ck_lower(k) == Fraction(1, 2) - Fraction(1, 2 * k - 2)
    prev = 0
    for h in (1, 2, 3):
        g = odd_k_glued_tree(3, h)
        tree_n = perfect_tree(3, h).n
        comps = [set(range(tree_n))]
        nxt = tree_n
        for leaf in range(tree_n - 2 ** h, tree_n):
            comps.append({leaf} | set(range(nxt, nxt + 4)))
            nxt += 4
        bound = glue_lower_bound(g, comps)
        assert bound >= prev
        assert Fraction(bound, g.n) > Fraction(5, 18) - Fraction(1, g.n)
        prev = bound
    ok(9, "exact c_k rationals and the glued-tree family trend check")
