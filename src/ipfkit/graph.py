"""Immutable simple graphs with graph6 I/O and the structural queries used
by the constructive pipeline: bridges/blocks, 2-edge-cuts and the cubic
ladder decomposition, hamilton cycles, and 2-factors of {2,3}-graphs.

Vertices are dense integer indices 0..n-1.  All search routines iterate
neighbours in ascending order, so results are deterministic for a fixed
labelling.
"""

from __future__ import annotations

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


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj", "adj_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        norm = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(norm)
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in nbrs)
        masks = [0] * n
        for u, v in norm:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.adj_mask = tuple(masks)

    # -- basic queries -------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def is_subcubic(self) -> bool:
        return self.max_degree() <= 3

    def is_k_regular(self, k: int) -> bool:
        return all(len(a) == k for a in self.adj)

    def is_cubic(self) -> bool:
        return self.is_k_regular(3)

    def is_23_graph(self) -> bool:
        return all(len(a) in (2, 3) for a in self.adj)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"

    # -- connectivity --------------------------------------------------

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack = [s]
            seen[s] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self.adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_connected_without_edges(self, removed: Iterable[tuple[int, int]]) -> bool:
        gone = {(min(u, v), max(u, v)) for u, v in removed}
        if self.n <= 1:
            return True
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for w in self.adj[v]:
                if not seen[w] and (min(v, w), max(v, w)) not in gone:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == self.n

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


# ---------------------------------------------------------------------------
# graph6 (short form, n <= 62) and a plain adjacency-list text format
# ---------------------------------------------------------------------------

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
    bits = []
    for i, ch in enumerate(body):
        if not 63 <= ch <= 126:
            raise Graph6Error(f"out-of-range character {chr(ch)!r}", 1 + i)
        val = ch - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def write_graph6(g: Graph) -> str:
    if g.n > 62:
        raise Graph6Error(f"short-form graph6 supports n <= 62, got n={g.n}")
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


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
    listed as blocks.  `block_of` maps each vertex that lies in a listed
    block to the index of the lowest such block; in a subcubic host the
    listed blocks are pairwise vertex-disjoint so the map is unambiguous.
    """

    bridges: frozenset[tuple[int, int]]
    blocks: tuple[frozenset[int], ...]
    block_of: dict[int, int]


def _biconnected_components(g: Graph) -> list[list[tuple[int, int]]]:
    """Edge sets of biconnected components (iterative Hopcroft-Tarjan)."""
    disc = [0] * g.n
    low = [0] * g.n
    timer = 1
    comps: list[list[tuple[int, int]]] = []
    estack: list[tuple[int, int]] = []
    for root in range(g.n):
        if disc[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, 0)]
        while stack:
            v, parent, i = stack.pop()
            if i < len(g.adj[v]):
                stack.append((v, parent, i + 1))
                w = g.adj[v][i]
                if w == parent:
                    continue
                if not disc[w]:
                    estack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, 0))
                elif disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            elif parent != -1:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    comp = []
                    while estack[-1] != (parent, v):
                        comp.append(estack.pop())
                    comp.append(estack.pop())
                    comps.append(comp)
    return comps


def block_decomposition(g: Graph) -> BlockDecomposition:
    comps = _biconnected_components(g)
    bridges = set()
    blocks: list[frozenset[int]] = []
    for comp in comps:
        verts = set()
        for u, v in comp:
            verts.add(u)
            verts.add(v)
        if len(comp) == 1:
            u, v = comp[0]
            bridges.add((min(u, v), max(u, v)))
        else:
            blocks.append(frozenset(verts))
    blocks.sort(key=lambda b: min(b))
    block_of: dict[int, int] = {}
    for i, b in enumerate(blocks):
        for v in b:
            block_of.setdefault(v, i)
    if g.is_subcubic() and blocks:
        total = sum(len(b) for b in blocks)
        distinct = len(frozenset().union(*blocks))
        if total != distinct:
            raise AssertionError("blocks of a subcubic graph must be vertex-disjoint")
    return BlockDecomposition(frozenset(bridges), tuple(blocks), block_of)


def bridges(g: Graph) -> frozenset[tuple[int, int]]:
    return block_decomposition(g).bridges


# ---------------------------------------------------------------------------
# 2-edge-cuts and the ladder decomposition of a cubic graph
# ---------------------------------------------------------------------------

def find_2_edge_cut(g: Graph) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """First (lexicographic) pair of edges whose removal disconnects g.

    Requires g connected and bridgeless; returns None when g is
    3-edge-connected.
    """
    if not g.is_connected():
        raise GraphError("find_2_edge_cut requires a connected graph")
    if bridges(g):
        raise GraphError("find_2_edge_cut requires a bridgeless graph")
    es = g.sorted_edges()
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if not g.is_connected_without_edges((es[i], es[j])):
                return es[i], es[j]
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

def hamilton_cycle(g: Graph, start: int = 0) -> Optional[list[int]]:
    """First hamilton cycle found by backtracking from `start` (sorted
    adjacency order), as a vertex list of length n; None if none exists."""
    n = g.n
    if n == 0:
        return None
    if n == 1:
        return None
    if any(len(a) < 2 for a in g.adj):
        return None
    path = [start]
    used = 1 << start
    iters = [iter(g.adj[start])]
    while iters:
        it = iters[-1]
        advanced = False
        for w in it:
            if used >> w & 1:
                continue
            path.append(w)
            used |= 1 << w
            if len(path) == n:
                if g.has_edge(w, start):
                    return list(path)
                used &= ~(1 << w)
                path.pop()
                continue
            iters.append(iter(g.adj[w]))
            advanced = True
            break
        if not advanced:
            iters.pop()
            v = path.pop()
            used &= ~(1 << v)
            if not path:
                break
            # restore for outer loop bookkeeping: nothing else to do
    return None


def is_hamiltonian(g: Graph) -> bool:
    return hamilton_cycle(g) is not None


def _canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    k = len(cycle)
    i = min(range(k), key=lambda j: cycle[j])
    fwd = [cycle[(i + j) % k] for j in range(k)]
    bwd = [cycle[(i - j) % k] for j in range(k)]
    return tuple(fwd if fwd[1] <= bwd[1] else bwd)


@dataclass(frozen=True)
class TwoFactor:
    """Spanning disjoint union of cycles; each cycle in canonical rotation
    (smallest vertex first, smaller second neighbour), sorted by first vertex."""

    cycles: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_cycles(cycles: Iterable[Sequence[int]]) -> "TwoFactor":
        canon = sorted((_canonical_cycle(c) for c in cycles), key=lambda c: c[0])
        return TwoFactor(tuple(canon))

    def validate(self, g: Graph) -> None:
        seen: set[int] = set()
        for cyc in self.cycles:
            if len(cyc) < 3:
                raise GraphError(f"cycle {cyc} too short")
            for i, v in enumerate(cyc):
                if v in seen:
                    raise GraphError(f"vertex {v} repeated in 2-factor")
                seen.add(v)
                w = cyc[(i + 1) % len(cyc)]
                if not g.has_edge(v, w):
                    raise GraphError(f"({v},{w}) not an edge of the host")
        if seen != set(range(g.n)):
            raise GraphError("2-factor does not cover all vertices")


def _cycles_of_2_regular(g: Graph, removed: frozenset[tuple[int, int]]) -> list[list[int]]:
    seen = [False] * g.n
    cycles = []
    for s in range(g.n):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = True
        prev = -1
        v = s
        while True:
            nxt = None
            for w in g.adj[v]:
                if w == prev:
                    continue
                if (min(v, w), max(v, w)) in removed:
                    continue
                nxt = w
                break
            assert nxt is not None
            if nxt == s:
                break
            cyc.append(nxt)
            seen[nxt] = True
            prev, v = v, nxt
        cycles.append(cyc)
    return cycles


def two_factor_search(g: Graph, min_cycle_len: int = 3,
                      minimize_cycles: bool = False) -> Optional[TwoFactor]:
    """Search for a 2-factor of a connected {2,3}-graph whose cycles all have
    length >= min_cycle_len.

    A 2-factor is obtained by deleting a perfect matching of the subgraph
    induced on the degree-3 vertices.  With minimize_cycles the factor with
    the fewest cycles (first found among ties) is returned.
    """
    if not g.is_23_graph():
        raise GraphError("two_factor_search requires a {2,3}-graph")
    if not g.is_connected():
        raise GraphError("two_factor_search requires a connected graph")
    deg3 = [v for v in range(g.n) if g.degree(v) == 3]
    if len(deg3) % 2:
        return None

    best: list[Optional[TwoFactor]] = [None]
    best_count = [g.n + 1]

    deg3_set = set(deg3)

    def backtrack(unmatched: list[int], removed: list[tuple[int, int]]) -> bool:
        if not unmatched:
            rem = frozenset(removed)
            cycles = _cycles_of_2_regular(g, rem)
            if any(len(c) < min_cycle_len for c in cycles):
                return False
            tf = TwoFactor.from_cycles(cycles)
            if not minimize_cycles:
                best[0] = tf
                return True
            if len(cycles) < best_count[0]:
                best_count[0] = len(cycles)
                best[0] = tf
            return False
        v = unmatched[0]
        rest = unmatched[1:]
        for w in g.adj[v]:
            if w in deg3_set and w in rest:
                removed.append((min(v, w), max(v, w)))
                nxt = [x for x in rest if x != w]
                if backtrack(nxt, removed):
                    return True
                removed.pop()
        return False

    backtrack(deg3, [])
    return best[0]
