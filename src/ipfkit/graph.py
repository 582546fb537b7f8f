"""Immutable simple graphs with graph6 I/O and the structural queries used
by the constructive pipeline: bridges and blocks (``block_decomposition``),
hamilton cycles (``hamilton_cycle``) and 2-factors of {2,3}-graphs with
long cycles (``two_factor_search``).

Vertices are dense integer indices 0..n-1.  All search routines iterate
neighbours in ascending order, so results are deterministic for a fixed
labelling.

``ladder_decomposition`` has no caller in the package, and
``find_2_edge_cut`` none but it; nor have ``solver.longest_induced_path_order``
and ``surgery.surgery``.  They stay in their modules only because the
benchmark's tracer, ``perfbench/tracing.py``, wraps them by name; the
package root does not export ``find_2_edge_cut``, ``ladder_decomposition``
or ``surgery``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class GraphError(ValueError):
    pass


class Graph6Error(GraphError):
    """Malformed graph6 input; carries the offending byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _reach(masks: Sequence[int], start: int) -> int:
    """Bit mask of the vertices reachable from `start` along `masks`."""
    comp = frontier = 1 << start
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~comp
        comp |= frontier
    return comp


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    `adj_mask[v]` has bit w set for each neighbour w of v; `adj` lists the
    same neighbours in ascending order.  Adjacency, connectivity and graph6
    coding read the masks.

    `_memo` holds what the `per_graph` functions have computed for the
    graph.  Caching is safe because nothing changes a Graph after
    construction; every derived graph is a new object with an empty memo.
    Equality and hashing read only `n` and `edges`."""

    __slots__ = ("n", "edges", "adj", "adj_mask", "_memo")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        masks, pairs = [0] * n, []
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            bit = 1 << v
            if masks[u] & bit:
                continue  # a repeat of an edge already taken
            masks[u] |= bit
            masks[v] |= 1 << u
            adj[u].append(v)
            adj[v].append(u)
            pairs.append((u, v) if u < v else (v, u))
        for row in adj:
            row.sort()  # in place: sorted(row) would copy every row
        # tuples of lists, not of generators: tuple(generator) reallocs a
        # new tuple instead of reusing the interpreter's per-length free
        # lists, which then grew by one tuple per Graph (up to 2000 per length)
        self.n = n
        self.adj_mask = tuple(masks)
        self.adj = tuple([tuple(row) for row in adj])
        self.edges = frozenset(pairs)
        self._memo = {}

    # -- basic queries -------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n \
            and self.adj_mask[u] >> v & 1 == 1

    def is_subcubic(self) -> bool:
        return max(map(len, self.adj), default=0) <= 3

    def is_k_regular(self, k: int) -> bool:
        return all(len(a) == k for a in self.adj)

    def is_cubic(self) -> bool:
        # the null graph is vacuously 3-regular, but no cubic graph
        return self.n > 0 and self.is_k_regular(3)

    def is_23_graph(self) -> bool:
        return all(len(a) in (2, 3) for a in self.adj)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return other is self or isinstance(other, Graph) \
            and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"

    # -- connectivity --------------------------------------------------

    def components(self) -> list[list[int]]:
        comps = []
        left = (1 << self.n) - 1
        while left:
            comp = _reach(self.adj_mask, (left & -left).bit_length() - 1)
            comps.append(_bits(comp))
            left &= ~comp
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or _reach(self.adj_mask, 0) == (1 << self.n) - 1

    # -- derived graphs ------------------------------------------------

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> "Graph":
        return Graph(self.n, list(self.edges) + list(extra))

    def without_edges(self, removed: Iterable[tuple[int, int]]) -> "Graph":
        gone = {(min(u, v), max(u, v)) for u, v in removed}
        missing = gone - self.edges
        if missing:
            raise GraphError(f"edges not present: {sorted(missing)}")
        return Graph(self.n, self.edges - gone)

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Subgraph on `vertices`; returns (subgraph, old->new index map)."""
        vs = sorted(set(vertices))
        old_to_new = {v: i for i, v in enumerate(vs)}
        keep = set(vs)
        edges = [(old_to_new[u], old_to_new[v]) for u, v in self.edges
                 if u in keep and v in keep]
        return Graph(len(vs), edges), old_to_new


_MISSING = object()


def per_graph(fn):
    """Decorate fn(g, *args) so that each Graph computes it once per args:
    the first call keeps the result in g's memo, and later calls return
    that same object, so callers must treat it as read-only.  An entry is
    keyed by fn's module and qualified name, then the (hashable) args, so
    functions of two modules never share one."""
    name = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def memoised(g: Graph, *args):
        key = (name, *args)
        out = g._memo.get(key, _MISSING)
        if out is _MISSING:
            out = g._memo[key] = fn(g, *args)
        return out
    return memoised


# ---------------------------------------------------------------------------
# graph6 (short form, n <= 62) and a plain adjacency-list text format
# ---------------------------------------------------------------------------

# graph6 packs the upper triangle row by row: the bit of pair (u, v), u < v,
# is bit v(v-1)/2 + u of a stream that each byte after the first carries six
# bits of, high bit first, as chr(63 + value); the last byte pads with zeros
_G6_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}
_G6_CHARS = {bits: chr(c) for c, bits in _G6_BITS.items()}
# write_graph6's memo entry, which parse_graph6 seeds with the line it read
_G6_KEY = (f"{__name__}.write_graph6",)
# the largest order the short form encodes in its one size byte
GRAPH6_MAX_N = 62


def parse_graph6(text: str) -> Graph:
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise Graph6Error("empty graph6 line")
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ASCII character {line[exc.start]!r}",
                          exc.start) from None
    first = data[0]
    if first == 126:  # '~' long-form header
        raise Graph6Error("long-form graph6 (n > 62) is not supported", 0)
    if not 63 <= first <= 126:
        raise Graph6Error(f"invalid graph6 size character {chr(first)!r}", 0)
    n = first - 63
    need = (n * (n - 1) // 2 + 5) // 6
    body = data[1:]
    if len(body) < need:
        raise Graph6Error(
            f"truncated bit field: need {need} bytes, got {len(body)}", len(data))
    if len(body) > need:
        raise Graph6Error("trailing bytes after bit field", 1 + need)
    try:
        stream = "".join([_G6_BITS[ch] for ch in body])
    except KeyError:
        i = next(i for i, ch in enumerate(body) if ch not in _G6_BITS)
        raise Graph6Error(f"out-of-range character {chr(body[i])!r}",
                          1 + i) from None
    bits = int(stream[::-1], 2) if stream else 0  # stream bit k is bit k
    if bits >> (n * (n - 1) // 2):
        raise Graph6Error("non-zero padding bits", len(data) - 1)
    edges = []
    for v in range(1, n):
        row = bits & ((1 << v) - 1)  # bit u: the pair (u, v)
        bits >>= v
        while row:
            low = row & -row
            edges.append((low.bit_length() - 1, v))
            row ^= low
    g = Graph(n, edges)
    g._memo[_G6_KEY] = line  # validated above, so it is the one encoding of g
    return g


@per_graph
def write_graph6(g: Graph) -> str:
    """g's short-form graph6 line, encoded once per graph; a graph from
    `parse_graph6` starts with its line."""
    if g.n > GRAPH6_MAX_N:
        raise Graph6Error(f"short-form graph6 supports n <= {GRAPH6_MAX_N}, "
                          f"got n={g.n}")
    stream = "".join([format(g.adj_mask[v] & ((1 << v) - 1), f"0{v}b")[::-1]
                      for v in range(1, g.n)])
    stream += "0" * (-len(stream) % 6)
    return chr(g.n + 63) + "".join([_G6_CHARS[stream[i:i + 6]]
                                    for i in range(0, len(stream), 6)])


def parse_adjlist(text: str) -> Graph:
    """Text fixture format: header line "n m", then one "u v" line per edge."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty adjacency-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"bad adjacency-list header {lines[0]!r}, expected 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise GraphError(f"header claims {m} edges but {len(lines) - 1} lines follow")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, edges)


def write_adjlist(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bridges and blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockDecomposition:
    """Bridges plus the biconnected components of order >= 3.

    Components of order 2 (single edges) are exactly the bridges and are not
    listed as blocks.  `block_decomposition` computes it once per Graph and
    hands the same object to every caller, so it is read-only.
    """

    bridges: frozenset[tuple[int, int]]
    blocks: tuple[frozenset[int], ...]


def _biconnected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the biconnected components that have an edge, in the
    order an iterative Hopcroft-Tarjan DFS completes them (roots and
    neighbours ascending, one neighbour iterator per frame)."""
    adj = g.adj
    disc = [0] * g.n
    low = [0] * g.n
    timer = 0
    comps: list[list[int]] = []
    pending: list[int] = []  # discovered, in no component yet; roots stay out
    for root in range(g.n):
        if disc[root]:
            continue
        timer += 1
        disc[root] = low[root] = timer
        stack = [(root, iter(adj[root]))]
        while stack:
            v, nbrs = stack[-1]
            for w in nbrs:
                if not disc[w]:
                    timer += 1
                    disc[w] = low[w] = timer
                    pending.append(w)
                    stack.append((w, iter(adj[w])))
                    break
                if disc[w] < low[v]:  # the parent edge lowers low[v] only
                    low[v] = disc[w]  # to disc[parent]: both tests hold alike
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= disc[p]:  # v's subtree and p: one component
                        comp = [p]
                        while comp[-1] != v:
                            comp.append(pending.pop())
                        comps.append(comp)
    return comps


@per_graph
def block_decomposition(g: Graph) -> BlockDecomposition:
    """The blocks and bridges of g, computed once per graph."""
    comps = _biconnected_components(g)
    bridges = frozenset((min(c), max(c)) for c in comps if len(c) == 2)
    blocks = sorted((frozenset(c) for c in comps if len(c) > 2), key=min)
    if g.is_subcubic() and blocks:
        total = sum(len(b) for b in blocks)
        distinct = len(frozenset().union(*blocks))
        if total != distinct:
            raise AssertionError("blocks of a subcubic graph must be vertex-disjoint")
    return BlockDecomposition(bridges, tuple(blocks))


# ---------------------------------------------------------------------------
# 2-edge-cuts and the ladder decomposition of a cubic graph
# ---------------------------------------------------------------------------

def find_2_edge_cut(g: Graph) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """First (lexicographic) pair of edges whose removal disconnects g.

    Requires g connected and bridgeless; returns None when g is
    3-edge-connected.  Since g - e is connected, a pair (e, f) cuts g
    exactly when f is a bridge of g - e.
    """
    if not g.is_connected():
        raise GraphError("find_2_edge_cut requires a connected graph")
    if block_decomposition(g).bridges:
        raise GraphError("find_2_edge_cut requires a bridgeless graph")
    for e in g.sorted_edges():
        later = [f for f in block_decomposition(g.without_edges([e])).bridges
                 if f > e]
        if later:
            return e, min(later)
    return None


@dataclass(frozen=True)
class LadderDecomposition:
    """Structure of a bridgeless cubic graph split by a 2-edge-cut.

    The graph is G1 + H + G2 where H is two vertex-disjoint paths
    u_path=[u0..us] and v_path=[v0..vs] plus the rung matching
    {u_i v_i : 1 <= i <= s-1}.  u0,v0 lie in G1 and us,vs in G2;
    u0 v0 and us vs are non-edges.
    """

    g1_vertices: frozenset[int]
    g2_vertices: frozenset[int]
    u_path: tuple[int, ...]
    v_path: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.u_path) - 1


def ladder_decomposition(g: Graph) -> Optional[LadderDecomposition]:
    """Ladder structure across a 2-edge-cut of a bridgeless cubic graph."""
    if not g.is_cubic():
        raise GraphError("ladder decomposition is defined for cubic graphs")
    cut = find_2_edge_cut(g)
    if cut is None:
        return None
    (a1, b1), (a2, b2) = cut
    comps = {frozenset(c) for c in
             Graph(g.n, g.edges - {tuple(sorted(cut[0])), tuple(sorted(cut[1]))}).components()}
    assert len(comps) == 2, "a 2-edge-cut of a bridgeless graph gives two components"
    side_a = next(c for c in comps if a1 in c)
    side_b = next(c for c in comps if a1 not in c)
    # orient both cut edges from side_a to side_b
    if a2 not in side_a:
        a2, b2 = b2, a2
    u_path = [a1, b1]
    v_path = [a2, b2]
    g1 = set(side_a)
    g2 = set(side_b)

    def shrink(side: set, end_u: int, end_v: int, prepend: bool) -> bool:
        # if the two attachment vertices are adjacent they form a rung:
        # absorb them into the ladder and move the cut one step outwards
        if not g.has_edge(end_u, end_v):
            return False
        used_u = {end_v} | set(u_path) | set(v_path)
        ru = [w for w in g.adj[end_u] if w not in used_u and w in side]
        rv = [w for w in g.adj[end_v]
              if w not in {end_u} | set(u_path) | set(v_path) and w in side]
        assert len(ru) == 1 and len(rv) == 1, "cubic ladder ends must have one outward edge"
        assert ru[0] != rv[0], "coinciding outward neighbour implies a bridge"
        side.discard(end_u)
        side.discard(end_v)
        if prepend:
            u_path.insert(0, ru[0])
            v_path.insert(0, rv[0])
        else:
            u_path.append(ru[0])
            v_path.append(rv[0])
        return True

    while shrink(g1, u_path[0], v_path[0], prepend=True):
        pass
    while shrink(g2, u_path[-1], v_path[-1], prepend=False):
        pass
    assert len(g1) >= 4 and len(g2) >= 4
    return LadderDecomposition(frozenset(g1), frozenset(g2),
                               tuple(u_path), tuple(v_path))


# ---------------------------------------------------------------------------
# Hamilton cycles and 2-factors
# ---------------------------------------------------------------------------

def hamilton_cycle(g: Graph) -> Optional[list[int]]:
    """First hamilton cycle found by backtracking from vertex 0 (sorted
    adjacency order), as a vertex list of length n; None if none exists.

    A path that is not yet spanning is dropped as soon as it provably has
    no hamiltonian completion:
    (a) vertex 0 has no unvisited neighbour left to close the cycle (so the
        last vertex appended closes it);
    (b) an unvisited neighbour of the old tip has fewer than two
        neighbours among the unvisited vertices, the new tip and vertex 0.
    Every unvisited vertex still has to be entered and left, so both rules
    cut only subtrees without a hamilton cycle, and the first cycle found
    is the one the unpruned backtracking returns.  Appending a vertex takes
    an option only from the old tip's neighbours, so (b) checks just those.
    """
    n = g.n
    if n < 2 or any(len(a) < 2 for a in g.adj):
        return None
    adj, masks = g.adj, g.adj_mask
    path = [0]
    free = (1 << n) - 2  # unvisited vertices: all but 0
    iters = [iter(adj[0])]
    while iters:
        for w in iters[-1]:
            if not free >> w & 1:
                continue
            if len(path) == n - 1:
                return path + [w]  # by (a), the last vertex w meets 0
            rest = free ^ (1 << w)
            if not masks[0] & rest:
                continue  # (a)
            ends = free | 1  # rest, w and 0
            for u in adj[path[-1]]:
                if rest >> u & 1 and (masks[u] & ends).bit_count() < 2:
                    break  # (b)
            else:
                path.append(w)
                free = rest
                iters.append(iter(adj[w]))
                break
        else:  # no child left: backtrack
            iters.pop()
            free |= 1 << path.pop()
    return None


def is_hamiltonian(g: Graph) -> bool:
    return hamilton_cycle(g) is not None


def two_factor_search(g: Graph, fewest_possible: int = 1
                      ) -> Optional[list[list[int]]]:
    """The 2-factor of a connected {2,3}-graph with the fewest cycles (the
    first found among ties) among those whose cycles all have length >= 5,
    as its cycle vertex lists, or None if there is none.  Each cycle starts
    at its lowest vertex and runs on to that vertex's lower neighbour on
    it, and the cycles come in order of their lowest vertex.

    A 2-factor is obtained by deleting a perfect matching of the subgraph
    induced on the degree-3 vertices; every such matching is tried, the
    lowest unmatched vertex first and its partners in `adj` order, except
    partners that leave an unmatched neighbour of either end with none.
    The search stops at the first factor of `fewest_possible` cycles: a
    caller that knows g has no hamilton cycle passes 2.
    """
    if not g.is_23_graph():
        raise GraphError("two_factor_search requires a {2,3}-graph")
    if not g.is_connected():
        raise GraphError("two_factor_search requires a connected graph")
    n, adj = g.n, g.adj
    deg3 = sum(1 << v for v in range(n) if len(adj[v]) == 3)
    masks = g.adj_mask
    left = list(masks)  # per vertex, its edges outside the matching
    best, fewest = None, n + 1

    def search(unmatched: int) -> None:
        nonlocal best, fewest
        if not unmatched:
            # every vertex has two edges left: walk the cycles they form
            cycles, todo = [], (1 << n) - 1
            while todo:
                s = (todo & -todo).bit_length() - 1
                cyc, prev, v = [s], s, (left[s] & -left[s]).bit_length() - 1
                while v != s:
                    cyc.append(v)
                    prev, v = v, (left[v] ^ (1 << prev)).bit_length() - 1
                if len(cyc) < 5 or len(cycles) + 1 >= fewest:
                    return  # this factor can no longer replace the best
                cycles.append(cyc)
                todo ^= sum(1 << v for v in cyc)
            best, fewest = cycles, len(cycles)
            return
        v = (unmatched & -unmatched).bit_length() - 1
        rest = unmatched ^ (1 << v)
        for w in adj[v]:
            if not rest >> w & 1:
                continue
            after = rest ^ (1 << w)
            # forward check: each unmatched neighbour of v, w needs a partner
            near = (masks[v] | masks[w]) & after
            while near and masks[(near & -near).bit_length() - 1] & after:
                near &= near - 1
            if near:
                continue
            left[v] ^= 1 << w
            left[w] ^= 1 << v
            search(after)
            if fewest <= fewest_possible:
                return  # no later factor can have fewer cycles
            left[v] ^= 1 << w
            left[w] ^= 1 << v

    search(deg3)
    return best
