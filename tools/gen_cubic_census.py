"""Generate tests/data/cubic_nNN.g6: every connected cubic graph for
n = 4..16, deduplicated up to isomorphism.

Generation, level by level (n = 4, 6, ..., 16):

* expansion: subdivide two distinct edges of a level n-2 graph and join
  the two new vertices (complete for the 3-connected graphs);
* bridge composition: join two one-degree-2-vertex sides by a bridge
  (complete for graphs with a cut edge);
* 2-cut composition: join two two-degree-2-vertex sides by two edges
  (complete for bridgeless graphs with a 2-edge-cut).

Sides with one degree-2 vertex of odd order m are exactly the graphs
F - v + ab for a cubic F of order m+1, v a vertex and a, b nonadjacent
neighbours of v.  Sides with two degree-2 vertices of even order m are
the graphs D - e for cubic D of order m, plus the sides obtained by
subdividing an edge at the degree-2 vertex of an odd side of order m-1
(these have their two degree-2 vertices adjacent; they cover ladder-like
chains of rungs).  A 2-cut whose edges share an endpoint forces a
bridge, so those graphs come from the bridge composition instead.

Deduplication is exact and needs only ipfkit.  A vertex's profile is
the size of each layer of a BFS from it and the number of edges inside
each layer; candidates are bucketed by their sorted vertex profiles, and
a candidate is tested against each graph kept in its bucket by
backtracking over its vertices in BFS order, each mapped to an unused
vertex with its profile whose adjacency to the vertices already placed
matches.  Candidates come in a fixed order and the first of each
isomorphism class is kept with the labels it was built with, so every
exact dedup keeps the same graphs in the same order, and the files do
not change when the isomorphism test does.

The script asserts the known counts 1, 2, 5, 19, 85, 509, 4060 of
connected cubic graphs (OEIS A002851), so any incompleteness fails
loudly.  Run it as
``python3 tools/gen_cubic_census.py``.
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from ipfkit.graph import Graph, write_graph6  # noqa: E402

EXPECTED = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509, 16: 4060}


def profile(g: Graph, root: int) -> tuple:
    """The size and the inner edge count of each layer of a BFS from root."""
    seen = layer = 1 << root
    out = []
    while layer:
        reach = inside = 0
        for v in range(g.n):
            if layer >> v & 1:
                reach |= g.adj_mask[v]
                inside += (g.adj_mask[v] & layer).bit_count()
        out.append((layer.bit_count(), inside // 2))
        layer = reach & ~seen
        seen |= layer
    return tuple(out)


def isomorphic(g: Graph, gp: list, h: Graph, hp: list) -> bool:
    """Whether connected g and h, whose vertices have the profiles gp and
    hp, are isomorphic, by the search the module docstring describes."""
    order, image = [0], {}
    for v in order:  # a BFS: the loop reaches what it appends
        order += [w for w in g.adj[v] if w not in order]

    def place(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        need = sum(1 << image[u] for u in g.adj[v] if u in image)
        for w in range(h.n):
            if not used >> w & 1 and hp[w] == gp[v] \
                    and h.adj_mask[w] & used == need:
                image[v] = w
                if place(i + 1, used | 1 << w):
                    return True
                del image[v]
        return False
    return place(0, 0)


class Dedup:
    """Keeps the first graph of each isomorphism class it is given."""

    def __init__(self):
        self.buckets = {}  # sorted vertex profiles -> [(graph, profiles)]
        self.kept = []

    def add(self, g: Graph) -> bool:
        gp = [profile(g, v) for v in range(g.n)]
        bucket = self.buckets.setdefault(tuple(sorted(gp)), [])
        if any(isomorphic(g, gp, h, hp) for h, hp in bucket):
            return False
        bucket.append((g, gp))
        self.kept.append(g)
        return True


def expansions(g: Graph):
    for e1, e2 in itertools.combinations(g.sorted_edges(), 2):
        x, y = g.n, g.n + 1
        edges = set(g.edges) - {e1, e2}
        edges |= {(e1[0], x), (e1[1], x), (e2[0], y), (e2[1], y), (x, y)}
        yield Graph(g.n + 2, edges)


def odd_sides(census_next: list) -> list:
    """Connected graphs of odd order with one degree-2 vertex, from the
    cubic census one order up."""
    out = []
    for f in census_next:
        for v in range(f.n):
            nbrs = f.adj[v]
            for a, b in itertools.combinations(nbrs, 2):
                if f.has_edge(a, b):
                    continue
                keep = [w for w in range(f.n) if w != v]
                sub, o2n = f.induced_subgraph(keep)
                s = sub.with_edges([(o2n[a], o2n[b])])
                if s.is_connected():
                    out.append(s)
    return out


def even_sides(census_same: list, odd_prev: list) -> list:
    """Connected graphs of even order with two degree-2 vertices."""
    out = []
    for d in census_same:
        for e in d.sorted_edges():
            s = d.without_edges([e])
            if s.is_connected():
                out.append(s)
    for t in odd_prev:
        x = next(v for v in range(t.n) if t.degree(v) == 2)
        for z in t.adj[x]:
            y = t.n
            edges = (t.edges - {(min(x, z), max(x, z))}) | {(x, y), (y, z)}
            out.append(Graph(t.n + 1, edges))
    return out


def shift(g: Graph, off: int):
    return [(u + off, v + off) for u, v in g.edges]


def deg2_pair(s: Graph):
    # the single-edge side has two degree-1 vertices; all other sides
    # expose degree-2 vertices
    return [v for v in range(s.n) if s.degree(v) < 3]


def main():
    out_dir = Path(__file__).resolve().parents[1] / "tests" / "data"
    out_dir.mkdir(parents=True, exist_ok=True)
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    census = {4: [k4]}
    odd = {}   # m -> odd sides of order m (needs census[m+1])
    even = {}

    for n in range(6, max(EXPECTED) + 1, 2):
        dd = Dedup()
        for parent in census[n - 2]:
            for cand in expansions(parent):
                dd.add(cand)
        # sides become available once the smaller censuses exist
        for m in range(5, n - 4, 2):
            if m not in odd and m + 1 in census:
                odd[m] = odd_sides(census[m + 1])
        for m in range(4, n - 1, 2):
            if m not in even and m in census:
                even[m] = even_sides(census[m], odd.get(m - 1, []))
        # bridge compositions
        for m1 in range(5, n // 2 + 1, 2):
            m2 = n - m1
            for s1 in odd.get(m1, []):
                x1 = deg2_pair(s1)[0]
                for s2 in odd.get(m2, []):
                    x2 = deg2_pair(s2)[0]
                    edges = list(s1.edges) + shift(s2, s1.n)
                    edges.append((x1, x2 + s1.n))
                    dd.add(Graph(n, edges))
        # 2-edge-cut compositions
        for m1 in range(4, n // 2 + 1, 2):
            m2 = n - m1
            for s1 in even.get(m1, []):
                x1, y1 = deg2_pair(s1)
                for s2 in even.get(m2, []):
                    x2, y2 = deg2_pair(s2)
                    base = list(s1.edges) + shift(s2, s1.n)
                    for a2, b2 in ((x2, y2), (y2, x2)):
                        dd.add(Graph(n, base + [(x1, a2 + s1.n),
                                                (y1, b2 + s1.n)]))
        census[n] = dd.kept
        assert len(dd.kept) == EXPECTED[n], (n, len(dd.kept), EXPECTED[n])

    for n, graphs in sorted(census.items()):
        path = out_dir / f"cubic_n{n:02d}.g6"
        with open(path, "w", encoding="ascii") as fh:
            for g in graphs:
                fh.write(write_graph6(g) + "\n")
        print(path, len(graphs))


if __name__ == "__main__":
    main()
