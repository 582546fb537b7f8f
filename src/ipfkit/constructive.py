"""Constructive IPF pipeline with explicit path-count guarantees.

Every operation but ``lift`` returns a runtime-verified IPF together with
the bound it promises; ``lift`` checks its result's count and ends, and
the IPF its caller assembles from it verifies the rest.  The cubic
pipeline (``ipf_cubic``) follows the proof of the (n-1)/3 bound.  It
splits the host at a bridge, or cuts out a reducible K4-minus, repairs
the degree-2 vertices either move leaves, recurses on the cubic result
and lifts the IPF back.  A bridgeless host is covered through its
hamilton cycle by the greedy construction of ``ipf_ham23``; a
nonhamiltonian one with no reducible K4-minus goes through a 2-factor of
long cycles and the block-tree construction for {2,3}-graphs.  Each
assembly step verifies its output, so a faulty reduction fails loudly
instead of producing an invalid certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graph import (
    Graph, GraphError, _bits, _reach, block_decomposition,
    hamilton_cycle, per_graph, two_factor_search, write_graph6,
)
from .ipf import (
    Ipf, IpfError, induced_k4minus_subgraphs, is_standardised, is_well_behaved,
)
from .solver import rho_exact
from .surgery import (
    SurgeryRecord, augment_triangle, paste_k4minus, suppress_vertex,
)


class ConstructionError(RuntimeError):
    """An assembly step produced an invalid or over-long IPF.

    This always indicates a bug in a reduction, never a property of the
    input graph."""


# ---------------------------------------------------------------------------
# Triangle rings and bad graphs
# ---------------------------------------------------------------------------

def _triangles(g: Graph) -> list[tuple[int, int, int]]:
    out = []
    for u, v in g.edges:
        for w in g.adj[u]:
            if w > v and g.has_edge(v, w):
                out.append((u, v, w))
    return out


def _triangle_of(g: Graph, v: int) -> tuple[int, int] | None:
    """The other two vertices of a triangle containing v, or None."""
    masks = g.adj_mask
    for a in g.adj[v]:
        later = masks[a] & (masks[v] >> (a + 1) << (a + 1))  # nbrs after a
        if later:
            return a, (later & -later).bit_length() - 1
    return None


def is_triangle_ring(g: Graph) -> bool:
    """A cycle of t = n/3 triangles joined into a ring by t single edges
    (two parallel joining edges when t = 2)."""
    n = g.n
    if n < 6 or n % 3 or not g.is_23_graph() or not g.is_connected():
        return False
    if len(g.edges) != n + n // 3:
        return False
    # n/3 triangles covering V are disjoint; two degree-3 vertices on each
    # join it to two others, which in a connected g closes one ring
    tris = _triangles(g)
    return (len(tris) == n // 3
            and len({v for t in tris for v in t}) == n
            and all(sum(g.degree(v) == 3 for v in t) == 2 for t in tris))


@per_graph
def recognize_bad(g: Graph) -> frozenset[int] | None:
    """The hub of a bad graph g, or None when g is not bad; computed once
    per graph.

    A bad graph is a triangle ring in which some set of non-triangle edges
    was each subdivided by a vertex carrying a bridge to a hamiltonian
    {2,3}-graph of order 5.  Its hub is the ring with the subdivision
    vertices: all of g when g is a triangle ring."""
    if not g.is_connected() or not g.is_23_graph():
        raise GraphError("badness is defined for connected {2,3}-graphs")
    if is_triangle_ring(g):
        return frozenset(range(g.n))
    if g.n % 3 or g.n < 12:
        return None
    dec = block_decomposition(g)
    big = [b for b in dec.blocks if len(b) >= 6]
    leaves = [b for b in dec.blocks if len(b) < 6]
    # with no leaf the checks below allow no bridge, so the hub would be g
    # and the "ring" g itself, which is_triangle_ring rejected above.  The
    # blocks of a {2,3}-graph are disjoint, so the sum says they cover V
    if (len(big) != 1 or not leaves or any(len(b) != 5 for b in leaves)
            or sum(len(b) for b in dec.blocks) != g.n
            or len(dec.bridges) != len(leaves)
            or any(hamilton_cycle(_sub(g, b)[0]) is None for b in leaves)):
        return None
    # every bridge must join a leaf to a subdivision vertex u on the hub; u
    # has two hub neighbours a, b (a block vertex has two in its block, and
    # degree 3 leaves no room for more); adjacent a, b fail the final test
    hub = big[0]
    subdivided, restored = set(), []
    for u, v in dec.bridges:
        if v in hub:
            u, v = v, u
        if u not in hub or v in hub:
            return None
        subdivided.add(u)
        restored.append(tuple(w for w in g.adj[u] if w != v))
    # suppress every subdivision vertex; the result must be a triangle ring
    # and each restored edge must not lie in one of its triangles
    if (len(set(restored)) != len(restored)
            or any(a in subdivided or b in subdivided for a, b in restored)):
        return None
    remap = {v: i for i, v in enumerate(sorted(hub - subdivided))}
    ring = Graph(len(remap), [(remap[u], remap[v]) for u, v in
                              itertools.chain(g.edges, restored)
                              if u in remap and v in remap])
    if not is_triangle_ring(ring) or any(
            ring.adj_mask[remap[a]] & ring.adj_mask[remap[b]]
            for a, b in restored):
        return None
    return hub


# ---------------------------------------------------------------------------
# Standardisation and the lift surgeries
# ---------------------------------------------------------------------------

def standardise(ipf: Ipf) -> Ipf:
    """Rewrite the IPF until it is standardised on every induced K4-minus
    subgraph of its host; the path count never increases."""
    g = ipf.host
    if not g.is_subcubic():
        raise GraphError("standardisation is defined for subcubic hosts")
    limit = len(induced_k4minus_subgraphs(g)) + 1
    for _ in range(limit):
        failing = is_standardised(ipf)
        if not failing:
            return ipf
        a, b, c, d = failing[0]
        eh = {tuple(sorted(p)) for p in
              ((a, c), (a, d), (b, c), (b, d), (c, d))}
        path_of = ipf.path_of
        if path_of[b] != path_of[a] or path_of[a] in (path_of[c], path_of[d]):
            new_edges = (ipf.edges - eh) | {tuple(sorted((a, c))),
                                            tuple(sorted((b, d)))}
        else:
            # a and b share a path avoiding c,d; the path must leave b
            # through its single neighbour outside the K4-minus
            outside = [w for w in g.adj[b] if w not in (c, d)]
            assert len(outside) == 1
            e = outside[0]
            new_edges = (ipf.edges - eh - {tuple(sorted((b, e)))}) \
                | {tuple(sorted((a, c))), tuple(sorted((b, d)))}
        nxt = Ipf.from_edges(g, new_edges)
        if nxt.path_count > ipf.path_count:
            raise ConstructionError("standardisation increased the path count")
        ipf = nxt
    raise ConstructionError("standardisation did not converge")


def _ends_apart(ipf: Ipf, x: int, y: int) -> bool:
    """Distinct paths of the IPF end at x and at y."""
    ends = ipf.endpoints()
    return x in ends and y in ends and ipf.path_of[x] != ipf.path_of[y]


def lift(record: SurgeryRecord, ipf_prime: Ipf) -> Ipf:
    """Pull an IPF of the surgery's `result` back to its `source` through
    an augment/paste/suppress surgery.  The IPF's host must be the
    record's `result`.

    Path count guarantees: unchanged for augment_triangle and
    paste_k4minus, at most one more for suppress_vertex.  Endpoint
    guarantees: a path ends at the triangle's degree-2 vertex (augment),
    two distinct paths end at the pasted edge's endpoints (paste), a path
    ends at the suppressed vertex (suppress).

    `ipf_prime` is verified first (a cached read when it already is).  The
    result is checked for its path count and its ends, and verified when
    its paths are first read: a caller that puts it into an IPF of a
    graph it is an induced subgraph of verifies it there."""
    if record.result != ipf_prime.host:
        raise ConstructionError(
            f"surgery record {record.kind}{record.args} does not transform "
            "its source into the IPF's host")
    g, kind = record.source, record.kind
    # the surgeries relabel in increasing order, so normalised edges stay
    # normalised; the vertices outside n2o are those augment and paste add
    n2o = {i: v for v, i in record.old_to_new.items()}
    std = standardise(ipf_prime.verified())
    edges = {(n2o[u], n2o[v]) for u, v in std.edges if u in n2o and v in n2o}
    if kind in ("augment_triangle", "paste_k4minus"):
        allowed = ipf_prime.path_count
    elif kind == "suppress_vertex":
        c = record.args[0]
        ab = g.adj[c]  # sorted, so already an edge in normal form
        if ab in edges:
            a = ab[0]
            edges = (edges - {ab}) | {(c, a) if c < a else (a, c)}
        allowed = ipf_prime.path_count + 1
    else:
        raise ConstructionError(f"lift does not support surgery {kind!r}")
    out = Ipf(g, frozenset(edges))
    if out.path_count > allowed:
        raise ConstructionError(
            f"{kind} lift used {out.path_count} paths, allowed {allowed}")
    z = record.args[-1]  # augment's degree-2 apex, or the suppressed vertex
    if kind == "paste_k4minus":
        a, b = record.args
        if not _ends_apart(out, a, b):  # reads, so verifies, out's paths
            raise ConstructionError(
                f"paste lift: need distinct paths ending at {a} and {b}")
    elif sum((min(z, w), max(z, w)) in edges for w in g.adj[z]) > 1:
        # z ends a path when at most one chosen edge meets it
        raise ConstructionError(f"{kind} lift: no path ends at {z}")
    return out


# ---------------------------------------------------------------------------
# Small hamiltonian hosts
# ---------------------------------------------------------------------------

def _small_cubic(g: Graph) -> Ipf:
    """A 2-path IPF of a cubic graph of order 4 or 6, proved by rho_exact."""
    res = rho_exact(g)
    if res.rho != 2:
        raise ConstructionError(
            f"small cubic host needs {res.rho} paths, expected 2")
    return res.witness


def ipf_small_ham(c: Graph, x: int) -> Ipf:
    """Two-path IPFs of hamiltonian {2,3}-graphs of order 5, 6 or 7, with
    a path ending at the degree-2 vertex x.

    The single order-7 exception (a 6-vertex triangle ring with a
    non-triangle edge subdivided) yields 3 paths.  Order-6 cubic hosts
    have no degree-2 vertex; ``ipf_ham23`` covers them."""
    n = c.n
    if n not in (5, 6, 7):
        raise GraphError(f"host order must be 5, 6 or 7, got {n}")
    if not c.is_23_graph():
        raise GraphError("host must be a {2,3}-graph")
    if not 0 <= x < n:
        raise GraphError(f"vertex {x} is not in 0..{n - 1}")
    if c.degree(x) != 2:
        raise GraphError(f"vertex {x} must have degree 2")
    cyc = hamilton_cycle(c)
    if cyc is None:
        raise GraphError("host is not hamiltonian")
    i = cyc.index(x)
    cyc = cyc[i:] + cyc[:i]

    if n in (5, 6):
        # shortest prefix of the cycle whose complement arc is also induced
        # and whose interior vertices all have degree 3
        orders = (cyc, [cyc[0]] + cyc[:0:-1])
        for length in range(0, n - 1):
            # at length 0 both orientations split off x from the same path
            for order in orders if length else orders[:1]:
                first = order[:length + 1]
                second = order[length + 1:]
                try:
                    ipf = Ipf.from_paths(c, [p for p in (first, second) if p])
                except IpfError:
                    continue
                exempt = 1 if n == 5 else 2  # order 6 may break at x's neighbour
                if all(c.degree(v) == 3 for v in first[exempt:]):
                    return ipf
        raise ConstructionError("no cycle split found on a small host")

    # order 7: explicit cases on the chords x1x3, x4x6, x2x5
    lab = cyc
    if c.has_edge(lab[4], lab[6]) and not c.has_edge(lab[1], lab[3]):
        lab = [lab[0]] + lab[:0:-1]  # mirror so any single chord is x1x3
    x0, x1, x2, x3, x4, x5, x6 = lab
    e13 = c.has_edge(x1, x3)
    e46 = c.has_edge(x4, x6)
    e25 = c.has_edge(x2, x5)
    if e13 and e46 and e25:
        paths = [[x0, x1, x2, x5], [x3, x4, x6]]
    elif e13 and e46:
        paths = [[x0, x1], [x2, x3, x4], [x5, x6]]
    elif e13:
        paths = [[x0, x1, x2], [x3, x4, x5, x6]]
    else:
        paths = [[x0, x1, x2, x3], [x4, x5, x6]]
    return Ipf.from_paths(c, paths)


# ---------------------------------------------------------------------------
# Hamiltonian {2,3}-graphs: greedy construction with repair
# ---------------------------------------------------------------------------

def _label_for_greedy(g: Graph, cyc: list[int]) -> list[int]:
    """Relabel the hamilton cycle as x_1..x_n so that x_n x_k is a shortest
    chord (k = cyclic chord length), with the extra orientation conditions
    needed for k = 2 and k = 3."""
    n = g.n
    masks = g.adj_mask
    # the least chord (u, v), u < v, of the least cyclic length k >= 2
    for k in range(2, n // 2 + 1):
        chords = [(a, b) if a < b else (b, a)
                  for a, b in zip(cyc, cyc[k:] + cyc[:k]) if masks[a] >> b & 1]
        if chords:
            u, v = min(chords)
            break

    # two labellings place the chord as x_n x_k with the short arc between:
    # x_n = a (index n-1), and x_1..x_k runs along the short arc towards b
    options = []
    for a, b in ((u, v), (v, u)):
        i = cyc.index(a)
        step = 1 if cyc[(i + k) % n] == b else -1
        options.append([cyc[(i + step * t) % n] for t in range(1, n + 1)])
    lab = options[0]
    if k == 2:
        # no chord x_1 x_3 .. x_1 x_half: the orientations share x_1, whose
        # one chord meets at most one of their disjoint ranges x_3 .. x_half
        far = sum(1 << w for w in lab[2:(n + 1) // 2])
        return options[1] if masks[lab[0]] & far else lab
    if k == 3:
        # the first shift without the chord x_1 x_4; shift s + 1 has the
        # chord x_n x_3 as shift s has x_1 x_4.  Shift 2 always passes: x_3
        # of shift 0 has x_2, x_4 and x_n, so no chord x_3 x_6 (n >= 7)
        s = next((s for s in (0, 1) if not g.has_edge(lab[s], lab[s + 3])), 2)
        return lab[s:] + lab[:s]
    return lab


def _greedy_paths(g: Graph, lab: list[int]) -> list[list[int]]:
    """Maximal induced prefixes along the labelled order (no wrap-around)."""
    masks = g.adj_mask
    paths = []
    i = 0
    n = g.n
    while i < n:
        path = [lab[i]]
        inner = 0  # path[:-1]
        j = i + 1
        while j < n:
            v = lab[j]
            if not masks[path[-1]] >> v & 1 or masks[v] & inner:
                break
            inner |= 1 << path[-1]
            path.append(v)
            j += 1
        paths.append(path)
        i = j
    return paths


def ipf_ham23(g: Graph) -> Ipf:
    """IPF of a hamiltonian {2,3}-graph of order >= 6 with at most n/3
    paths, and at most (n-1)/3 when n >= 7 and the graph is not bad
    (the only bad hamiltonian graphs are triangle rings)."""
    if g.n < 6:
        raise GraphError("ipf_ham23 requires order >= 6")
    if not g.is_23_graph():
        raise GraphError("ipf_ham23 requires a {2,3}-graph")
    return _ham23(g, hamilton_cycle(g))


def _ham23(g: Graph, cyc: list[int] | None) -> Ipf:
    """ipf_ham23 on g's hamilton cycle cyc (None if g has none).  Order 6
    goes to ``_small_cubic`` when g is cubic, and otherwise to
    ``ipf_small_ham`` at g's lowest degree-2 vertex."""
    n = g.n
    if n == 6:
        if g.is_cubic():
            return _small_cubic(g)
        return ipf_small_ham(g, next(v for v in range(n) if g.degree(v) == 2))
    if cyc is None:
        raise GraphError("ipf_ham23 requires a hamiltonian host")
    if len(g.edges) == n:
        # pure cycle: drop one vertex's edges
        return Ipf.from_paths(g, [cyc[:-1], [cyc[-1]]])
    lab = _label_for_greedy(g, cyc)
    paths = _greedy_paths(g, lab)
    ipf = Ipf.from_paths(g, paths)
    if ipf.path_count * 3 <= n - 1:
        return ipf
    if is_triangle_ring(g):
        if ipf.path_count * 3 > n:
            raise ConstructionError("greedy construction exceeded n/3 paths")
        return ipf
    # greedy hit n/3 on a non-ring host: a triangle-ring skeleton is present
    # and some extra chord x_a x_b with a,b = 1 (mod 3) allows a repair
    assert n % 3 == 0 and ipf.path_count * 3 == n

    def vert(i: int) -> int:
        return lab[(i - 1) % n]

    spots = [i for i in range(1, n - 1) if i % 3 == 1]
    pair = None
    for a in spots:
        for b in spots:
            if b > a and g.has_edge(vert(a), vert(b)):
                pair = (a, b)
                break
        if pair:
            break
    if pair is None:
        raise ConstructionError("no repair chord found on a non-ring host")
    a, b = pair
    if n == 9:
        # rotate by 3 so the extra chord is x_1 x_4; the pair found above
        # is one of the three chords among spots 1, 4 and 7
        s = next(s for s in (0, 3, 6) if g.has_edge(vert(s + 1), vert(s + 4)))
        def sv(i: int) -> int:
            return vert(i + s)
        paths2 = [[sv(8), sv(9), sv(1), sv(4)],
                  [sv(2), sv(3), sv(5), sv(6), sv(7)]]
        out = Ipf.from_paths(g, paths2)
    else:
        assert n >= 12
        cyc_edges = {tuple(sorted((vert(i), vert(i + 1)))) for i in range(1, n + 1)}
        drop = {tuple(sorted((vert(i), vert(i + 1)))) for i in range(1, n - 1, 3)}
        base = cyc_edges - drop
        base -= {tuple(sorted((vert(a - 1), vert(a)))),
                 tuple(sorted((vert(b - 1), vert(b))))}
        base |= {tuple(sorted((vert(a - 1), vert(a + 1)))),
                 tuple(sorted((vert(b - 1), vert(b + 1)))),
                 tuple(sorted((vert(a), vert(b))))}
        out = Ipf.from_edges(g, base)
    if out.path_count * 3 > n - 3:
        raise ConstructionError("repair did not reduce the path count")
    return out


# ---------------------------------------------------------------------------
# Block trees of hamiltonian blocks
# ---------------------------------------------------------------------------

@per_graph
def _sub(g: Graph, verts: frozenset[int]):
    """g's subgraph on verts with its old->new and new->old maps, built
    once per vertex set."""
    sub, o2n = g.induced_subgraph(verts)
    n2o = {i: v for v, i in o2n.items()}
    return sub, o2n, n2o


def _edges_up(edges, n2o):
    """_sub's edges in g's labels; n2o increases, so they stay normalised."""
    return {(n2o[u], n2o[v]) for u, v in edges}


def _blocktree_hypotheses(g: Graph):
    """Blocks of order >= 5, hamiltonian, vertex sets partitioning V; the
    one hamiltonicity test of the block-tree routes.  Returns None or a
    hamilton cycle per block of block_decomposition(g), in the labels of
    _sub(g, block): g's own labels when one block spans g."""
    if g.n < 6 or not g.is_23_graph() or not g.is_connected():
        return None
    dec = block_decomposition(g)
    sizes = [len(b) for b in dec.blocks]
    if min(sizes, default=0) < 5 or sum(sizes) != g.n:
        return None
    cycles = []
    for b in dec.blocks:
        cyc = hamilton_cycle(g if len(b) == g.n else _sub(g, b)[0])
        if cyc is None:
            return None
        cycles.append(cyc)
    return cycles


def _allowed_bound(g: Graph) -> int:
    """Maximum path count promised for a block-tree host."""
    if g.n >= 7 and recognize_bad(g) is None:
        return (g.n - 1) // 3
    return g.n // 3


def _bridge_sides(g: Graph, bridge):
    """Vertex sets of the two sides of a bridge of connected g, the side
    of bridge[0] first: a flood fill from bridge[0] that skips the bridge."""
    a, b = bridge
    masks = list(g.adj_mask)
    masks[a] ^= 1 << b  # the fill never reaches b, so b's mask may keep a
    side = _reach(masks, a)
    assert not side >> b & 1, "a bridge separates its ends"
    return (frozenset(_bits(side)),
            frozenset(_bits(((1 << g.n) - 1) ^ side)))


def ipf_blocktree(g: Graph) -> Ipf:
    """Well-behaved IPF of a connected {2,3}-graph whose blocks are
    hamiltonian, have order >= 5 and partition the vertex set.

    Path count is at most (n-1)/3 when n >= 7 and the host is not bad,
    and at most n/3 otherwise."""
    cycles = _blocktree_hypotheses(g)
    if cycles is None:
        raise GraphError("host does not satisfy the block-tree hypotheses")
    return _blocktree(g, cycles)


def _blocktree(g: Graph, cycles) -> Ipf:
    out = _blocktree_inner(g, cycles)
    if out.path_count > _allowed_bound(g):
        raise ConstructionError(
            f"block-tree construction used {out.path_count} paths, "
            f"allowed {_allowed_bound(g)}")
    failing = is_well_behaved(out)
    if failing:
        raise ConstructionError(
            f"block-tree IPF is not well-behaved: {failing[:1]}")
    return out


def _blocktree_inner(g: Graph, cycles) -> Ipf:
    """Route a block-tree host by its shape, found once: a single block, a
    free split, a bridge assembly, or else a star.  Each bridge's sides
    are computed once, and the assembly taken is handed what the router
    found: the bridge's sides, or every leaf of the star."""
    dec = block_decomposition(g)
    if len(dec.blocks) == 1:
        return _ham23(g, cycles[0])
    # a bridge whose larger side is not bad lets the two sides recurse
    # freely.  _sub relabels in sorted order, so each block of a side is
    # the same graph as from g and keeps the hamilton cycle found for g
    split = []
    for bridge in sorted(dec.bridges):
        s0, s1 = sides = _bridge_sides(g, bridge)
        for sa, sb in ((s0, s1), (s1, s0)):
            if len(sa) < 7 or len(sb) < 6 \
                    or recognize_bad(_sub(g, sa)[0]) is not None:
                continue
            edges = set()
            for s in (sa, sb):
                side, _, n2o = _sub(g, s)
                own = [c for b, c in zip(dec.blocks, cycles) if b <= s]
                p = _blocktree(side, own)
                edges |= _edges_up(p.edges, n2o)
            return Ipf.from_edges(g, edges)
        split.append((bridge, sides))
    # a bridge whose sides both have order <= 7, or both order >= 6 (each
    # side then has order 6 or is bad): the assembly covers both sides.
    # The first holds for the one bridge of a host of order <= 12, whose
    # two blocks have order >= 5, and else implies the second
    for bridge, sides in split:
        small, large = sorted(map(len, sides))
        if large <= 7 or small >= 6:
            return _bridge_assembly(g, bridge, sides)
    # every bridge now has a side of order < 6, a single order-5 block as
    # blocks have order >= 5, and one of order > 7.  So each bridge hangs
    # a leaf off a vertex x of the one block that is no leaf, the centre
    return _star_assembly(g, [(b, a, s0) if len(s0) == 5 else (a, b, s1)
                              for (a, b), (s0, s1) in split])


def _bridge_assembly(g: Graph, bridge, sides) -> Ipf:
    """IPF with the bridge on a path; `sides` are the bridge's sides, the
    side of bridge[0] first.  A side of order <= 7 gets a small
    hamiltonian IPF with a path ending at its bridge endpoint; a larger
    side must be bad with that endpoint in a triangle of its hub, and is
    covered without the endpoint."""
    edges = {bridge}
    for side, x in zip(sides, bridge):
        sub, o2n, n2o = _sub(g, side)
        if len(side) <= 7:
            p = ipf_small_ham(sub, o2n[x])
        else:
            hub = recognize_bad(sub)
            if hub is None or o2n[x] not in hub \
                    or _triangle_of(sub, o2n[x]) is None:
                raise ConstructionError(
                    "bridge endpoint of a large side is not in a triangle "
                    "of a bad hub")
            sub, _, n2o = _sub(g, side - {x})
            p = ipf_blocktree(sub)
        edges |= _edges_up(p.edges, n2o)
    return Ipf.from_edges(g, edges)


def _star_assembly(g: Graph, leaves) -> Ipf:
    """Host shaped as a central block C with order-5 leaf blocks attached
    by bridges (the only shape left once bridge splits are exhausted).
    `leaves` holds, per bridge in sorted order, the router's (x on C, y
    on the leaf, leaf vertex set); C is the rest of g, and every test of
    C reads g's adjacency."""
    n = g.n

    def leaf_ipf_edges(x, y, leaf):
        sub, o2n, n2o = _sub(g, leaf)
        p = ipf_small_ham(sub, o2n[y])
        return _edges_up(p.edges, n2o) | {(x, y)}

    # two adjacent attachment vertices: cut both leaves off and paste a
    # K4-minus over the edge between them
    for i, j in itertools.combinations(range(len(leaves)), 2):
        (x1, y1, l1), (x2, y2, l2) = leaves[i], leaves[j]
        if not g.has_edge(x1, x2):
            continue
        g0, o2n0, n2o0 = _sub(g, frozenset(range(n)) - l1 - l2)
        g0p, rec = paste_k4minus(g0, o2n0[x1], o2n0[x2])
        p0 = lift(rec, ipf_blocktree(g0p))
        edges = _edges_up(p0.edges, n2o0)
        edges |= leaf_ipf_edges(x1, y1, l1) | leaf_ipf_edges(x2, y2, l2)
        return Ipf.from_edges(g, edges)

    if n == 5 * (len(leaves) + 1):
        # a C5 centre: three leaves would put two on adjacent vertices, and
        # one leaves n = 10, a bridge assembly.  Its two attachments share
        # one neighbour u; the other two centre vertices v, w are adjacent
        (x1, y1, l1), (x2, y2, l2) = leaves
        (u,) = _bits(g.adj_mask[x1] & g.adj_mask[x2])
        v, w = frozenset(range(n)) - l1 - l2 - {x1, x2, u}
        edges = leaf_ipf_edges(x1, y1, l1) | leaf_ipf_edges(x2, y2, l2)
        edges |= {(u, x1), (u, x2), (v, w)}
        return Ipf.from_edges(g, edges)

    # an attachment vertex inside a triangle, which lies in C as x's third
    # neighbour is on its leaf: delete it with its leaf
    for x, y, leaf in leaves:
        if _triangle_of(g, x) is None:
            continue
        g0, _, n2o0 = _sub(g, frozenset(range(n)) - leaf - {x})
        p0 = ipf_blocktree(g0)
        edges = _edges_up(p0.edges, n2o0) | leaf_ipf_edges(x, y, leaf)
        return Ipf.from_edges(g, edges)

    # no attachment vertex in a triangle: suppress the first one
    x1, y1, l1 = leaves[0]
    g0, o2n0, n2o0 = _sub(g, frozenset(range(n)) - l1)
    g0p, rec = suppress_vertex(g0, o2n0[x1])
    if recognize_bad(g0p) is None or recognize_bad(g) is not None:
        p0 = lift(rec, ipf_blocktree(g0p))
        edges = _edges_up(p0.edges, n2o0) | leaf_ipf_edges(x1, y1, l1)
        return Ipf.from_edges(g, edges)
    # suppression produced a bad graph while the host is not bad: the
    # suppressed vertex subdivided a triangle edge of the bad hub.  g0p
    # joins x1's neighbours u, v in its place, keeping their degrees and
    # their other common neighbours, so both tests read g
    u, v = (w for w in g.adj[x1] if w != y1)
    if not g.adj_mask[u] & g.adj_mask[v] & ~(1 << x1):
        raise ConstructionError("suppressed edge not in a hub triangle")
    # the edge lies on the hub's hamilton cycle: one endpoint has degree 2.
    # (Were both of degree 3, the triangle's tip and x1 would both have the
    # neighbourhood {u, v} in C, and C would have no hamilton cycle.)
    if g.degree(u) == 2:
        u, v = v, u
    g2, _, n2o2 = _sub(g, frozenset(range(n)) - l1 - {x1, v})
    p2 = ipf_blocktree(g2)
    edges = _edges_up(p2.edges, n2o2) | leaf_ipf_edges(x1, y1, l1)
    edges |= {(v, x1)}
    return Ipf.from_edges(g, edges)


# ---------------------------------------------------------------------------
# {2,3}-graphs with a long-cycle 2-factor
# ---------------------------------------------------------------------------

def ipf_23_with_2factor(g: Graph) -> Ipf | None:
    """IPF with at most n/3 paths (bad host) or (n-1)/3 paths (otherwise)
    for a connected {2,3}-graph of order >= 7, or None when the host has
    no 2-factor whose cycles all have length >= 5.

    A host that meets the block-tree hypotheses is covered by the block
    tree; its blocks' hamilton cycles are such a 2-factor, so it never
    gets None.  Any other host is reduced through the 2-factor of
    ``two_factor_search``, which has the fewest cycles."""
    if g.n < 7:
        raise GraphError("the 2-factor construction requires order >= 7")
    if not g.is_connected() or not g.is_23_graph():
        raise GraphError("host must be a connected {2,3}-graph")
    cycles = _blocktree_hypotheses(g)
    if cycles is not None:
        return _blocktree(g, cycles)
    # a hamiltonian host of order >= 7 is one block and met the hypotheses
    cycles = two_factor_search(g, fewest_possible=2)
    return None if cycles is None else _two_factor_reduction(g, cycles)


def _two_factor_reduction(g: Graph, cycles: list[list[int]]) -> Ipf:
    """IPF of a host that fails the block-tree hypotheses, from the cycle
    lists of a 2-factor whose cycles all have length >= 5 and are as few
    as possible; the final verification on the host catches any violation
    of the induced property that a non-minimal factor could cause."""
    cycle_of = {}
    for i, cyc in enumerate(cycles):
        for v in cyc:
            cycle_of[v] = i
    S = [e for e in g.sorted_edges() if cycle_of[e[0]] != cycle_of[e[1]]]
    S_prime: list[tuple[int, int]] = []
    for e in S:
        if g.without_edges(S_prime + [e]).is_connected():
            S_prime.append(e)
    if not S_prime:
        raise ConstructionError("no removable inter-cycle edges found")
    reduced = g.without_edges(S_prime)
    removed = set(S_prime)
    hub = recognize_bad(reduced)
    if hub is not None:
        # swap: re-add one removed inter-cycle edge and cut the bridge that
        # ties its order-5 block to the hub, leaving a degree-2 hub vertex
        # outside any triangle.  A removed edge may end at a triangle's
        # degree-2 tip in the hub, so take the endpoint in an order-5 block
        u, v = S_prime[0]
        dec = block_decomposition(reduced)
        blk_u = next((b for b in dec.blocks if u in b), None)
        if blk_u is None or len(blk_u) != 5:
            u, v = v, u
            blk_u = next((b for b in dec.blocks if u in b), None)
        if blk_u is None or len(blk_u) != 5:
            raise ConstructionError("swap edge has no order-5 endpoint block")
        wx = next(br for br in sorted(dec.bridges)
                  if (br[0] in hub) != (br[0] in blk_u)
                  and (br[0] in blk_u or br[1] in blk_u)
                  and (br[0] in hub or br[1] in hub))
        removed = (removed | {wx}) - {S_prime[0]}
        reduced = g.without_edges(removed)
        if not reduced.is_connected():
            raise ConstructionError("swap disconnected the host")
        if recognize_bad(reduced) is not None:
            raise ConstructionError("swap did not remove badness")
    p = ipf_blocktree(reduced)
    out = Ipf.from_edges(g, p.edges)  # re-verify against the full edge set
    limit = _allowed_bound(g)
    if out.path_count > limit:
        raise ConstructionError(
            f"2-factor construction used {out.path_count} paths, allowed {limit}")
    return out


# ---------------------------------------------------------------------------
# Connected cubic graphs
# ---------------------------------------------------------------------------

@dataclass
class Certificate:
    """A verified IPF of a connected cubic graph and its route trace; n,
    graph6 and the promised bound (2 paths for n <= 6, (n-1)/3 beyond) are
    read from the IPF's host, and ``ipf_cubic`` verifies the IPF."""
    ipf: Ipf
    trace: list[str]

    n = property(lambda self: self.ipf.host.n)
    graph6 = property(lambda self: write_graph6(self.ipf.host))
    # "2" where cubic_limit's rule for n <= 6, not the formula, decides
    bound = property(lambda self: "(n-1)/3" if cubic_limit(self.n)
                     == (self.n - 1) // 3 else "2")
    verified = property(lambda self: True)

    def to_json(self) -> dict:
        return {
            "graph6": self.graph6,
            "n": self.n,
            "bound": self.bound,
            "ipf": self.ipf.to_json_fragment(),
            "verified": self.verified,
            "trace": list(self.trace),
        }


def cubic_limit(n: int) -> int:
    """The path count `ipf_cubic` promises a connected cubic graph of order n."""
    return 2 if n <= 6 else (n - 1) // 3


def ipf_cubic(g: Graph) -> Certificate:
    """IPF of a connected cubic graph with at most 2 paths (n <= 6) or
    (n-1)/3 paths (n > 6)."""
    if not g.is_connected() or not g.is_cubic():
        raise GraphError("host must be a connected cubic graph")
    write_graph6(g)  # fails on n > 62 before any search
    ipf, trace = _cubic_recurse(g, block_decomposition(g).bridges)
    limit = cubic_limit(g.n)
    if ipf.path_count > limit:
        raise ConstructionError(
            f"cubic construction used {ipf.path_count} paths, allowed {limit}")
    return Certificate(ipf.verified(), trace)


def _cubic_recurse(g: Graph, bridges) -> tuple[Ipf, list[str]]:
    """IPF and route trace of connected cubic g; `bridges` is g's bridge
    set, which the repairs after a bridge split or a K4- cut carry down so
    that the repaired graph needs no block decomposition of its own."""
    if g.n <= 6:
        return _small_cubic(g), ["base-small"]
    if bridges:
        return _cubic_bridge_split(g, bridges)
    # a bridgeless cubic host is never bad and has no degree-2 vertex, so a
    # hamilton cycle gives (n-1)/3 paths with nothing left to check
    cyc = hamilton_cycle(g)
    if cyc is not None:
        return _ham23(g, cyc), ["two-factor"]
    # the K4- reduction needs order >= 14, which holds: the smaller
    # bridgeless nonhamiltonian cubic graphs, Petersen and Tietze, contain
    # no induced K4-
    hit = _find_reducible_k4minus(g)
    if hit is not None:
        return _cubic_k4minus(g, hit)
    cycles = two_factor_search(g, fewest_possible=2)  # g is not hamiltonian
    if cycles is None:
        raise ConstructionError("bridgeless cubic host with no reducible K4- "
                                "and no 2-factor of long cycles")
    return _two_factor_reduction(g, cycles), ["two-factor"]


def _repair_and_lift(g: Graph, zs: list[int],
                     bridges) -> tuple[Ipf, list[str]]:
    """Make g cubic by repairing its degree-2 vertices zs in order, each by
    augmenting a triangle at z or else suppressing z; recurse, and lift
    the IPF back through the repairs in reverse.  Each lift ends a path at
    its own z; a later lift may move the ends of earlier ones.

    `bridges` is g's bridge set; it is mapped through each repair.
    Augmenting adds a vertex joined to a triangle, which creates and
    destroys no bridge.  Suppressing z relabels the rest, and its two
    edges, bridges together or not at all, merge into one edge that is a
    bridge exactly when they were."""
    if not zs:
        return _cubic_recurse(g, bridges)
    z, rest = zs[0], zs[1:]
    tri = _triangle_of(g, z)
    if tri is not None:
        nxt, rec = augment_triangle(g, tri[0], tri[1], z)
    else:
        nxt, rec = suppress_vertex(g, z)
        o2n = rec.old_to_new
        a, b = g.adj[z]
        kept = {(o2n[u], o2n[v]) for u, v in bridges if z not in (u, v)}
        if (min(a, z), max(a, z)) in bridges:
            kept.add((o2n[a], o2n[b]))
        bridges = frozenset(kept)
    inner, trace = _repair_and_lift(nxt, [rec.old_to_new[w] for w in rest],
                                    bridges)
    return lift(rec, inner), trace


def _cubic_bridge_split(g: Graph, bridges) -> tuple[Ipf, list[str]]:
    """Split at the lowest of g's bridges; each side has exactly one
    degree-2 vertex (the bridge endpoint) and contributes an IPF with a
    path ending there.  A cycle never crosses a bridge, so the bridges of
    a side are g's bridges inside it."""
    bridge = min(bridges)
    edges = {bridge}
    trace = ["bridge-split"]
    for side, x in zip(_bridge_sides(g, bridge), bridge):
        sub, o2n, n2o = _sub(g, side)
        xl = o2n[x]
        ni = len(side)
        if ni in (5, 7):
            # a cubic bridge side has exactly one degree-2 vertex, so the
            # order-7 host with three of them cannot occur here
            p = ipf_small_ham(sub, xl)
            if p.path_count != 2:
                raise ConstructionError(
                    "small bridge side did not yield a 2-path IPF")
        else:
            inside = frozenset((o2n[u], o2n[v]) for u, v in bridges
                               if u in side and v in side)
            p, tr = _repair_and_lift(sub, [xl], inside)
            trace += tr
            if 3 * p.path_count > ni + 1:
                raise ConstructionError("bridge side exceeded (n+1)/3 paths")
        edges |= _edges_up(p.edges, n2o)
    return Ipf.from_edges(g, edges), trace


def _find_reducible_k4minus(g: Graph):
    """First induced K4- whose two outside neighbours are distinct and
    nonadjacent, with a connected remainder.

    A K4- whose outside neighbours coincide hangs off a bridge, which the
    bridge split handles; one whose outside neighbours are adjacent is
    skipped."""
    for a, b, c, d in induced_k4minus_subgraphs(g):
        x0 = next(w for w in g.adj[a] if w not in (c, d))
        y0 = next(w for w in g.adj[b] if w not in (c, d))
        if x0 == y0 or g.has_edge(x0, y0):
            continue
        keep = ((1 << g.n) - 1) ^ (1 << a | 1 << b | 1 << c | 1 << d)
        if _reach([m & keep for m in g.adj_mask], x0) == keep:
            return a, b, c, d, x0, y0
    return None


def _cubic_k4minus(g: Graph, hit) -> tuple[Ipf, list[str]]:
    """Cut out an induced K4- and repair its two outside neighbours, which
    are left with degree 2; route the K4- as two path ends."""
    a, b, c, d, x0, y0 = hit
    g0, o2n, n2o = _sub(g, frozenset(range(g.n)) - {a, b, c, d})
    x0l, y0l = o2n[x0], o2n[y0]
    p, trace = _repair_and_lift(g0, [x0l, y0l],
                                block_decomposition(g0).bridges)
    ends = p.endpoints()
    if x0l not in ends or y0l not in ends:
        raise ConstructionError(
            "K4- reduction lost a required path end at an outside neighbour")
    if p.path_of[x0l] == p.path_of[y0l]:
        # both ends landed on one path: reroute the end edge at y0 to its
        # other neighbour so the ends sit on distinct paths
        path = p.paths()[p.path_of[y0l]]
        u = path[1] if path[0] == y0l else path[-2]
        (v,) = (w for w in g0.adj[y0l] if w != u)
        swapped = (p.edges - {tuple(sorted((y0l, u)))}) \
            | {tuple(sorted((y0l, v)))}
        p = Ipf.from_edges(g0, swapped)
        if not _ends_apart(p, x0l, y0l):
            raise ConstructionError(
                "K4- reduction could not separate the outside path ends")
    edges = _edges_up(p.edges, n2o)
    edges |= {(x0, a), (a, c), (y0, b), (b, d)}
    return Ipf.from_edges(g, edges), ["k4minus-reduction"] + trace
