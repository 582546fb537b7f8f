"""Seeded cubic host generator for the benchmark panels.

Hosts are handed to the program as graph6 lines.  This module does not
import ipfkit, so the inputs do not depend on the code being measured.

* ``random_cubic_edges``: a uniformly random perfect matching of 3n points
  (pairing model); a matching that gives a loop, a multi-edge or a
  disconnected graph is rejected and redrawn.
* ``bridged_cubic_edges``: random cubic blocks joined into a tree by
  bridges.  Each join subdivides a random edge of the graph so far and one
  edge of the new block and links the two new vertices by a bridge, so
  the result stays connected and cubic.

A panel is drawn from ``PANEL_SEED`` by a fixed schedule, one host per
entry, and is never redrawn or filtered by how long a host takes to run.
Regenerate the committed panel files with::

    python3 perfbench/hosts.py --write
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

PANEL_SEED = 0

# panel name -> schedule of (kind, order); for "bridged" the order is the
# largest order allowed, the drawn block sizes decide the exact one
PANELS = {
    "solve_large": [("random", n) for n in (24, 24, 26, 26, 28, 28)],
    "construct_large": [("random", n) for n in (40, 42, 44, 46)]
    + [("bridged", n) for n in (50, 54, 58, 62)],
}
BLOCK_ORDERS = (4, 6, 8, 10, 12, 14)


def random_cubic_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges of a connected simple cubic graph on n vertices."""
    if n < 4 or n % 2:
        raise ValueError("a cubic graph needs an even order >= 4")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, 3 * n, 2):
            u, v = sorted(points[i:i + 2])
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            if _connected(n, edges):
                return sorted(edges)


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _subdivide(rng: random.Random, edges: list, w: int) -> list:
    """Replace a random edge uv by the path u-w-v."""
    u, v = edges.pop(rng.randrange(len(edges)))
    return edges + [(u, w), (v, w)]


def bridged_cubic_edges(rng: random.Random, n_max: int):
    """A tree of random cubic blocks joined by bridges, of order at most
    n_max: blocks are added while the next drawn block order still fits.
    Returns (n, edges)."""
    n = rng.choice(BLOCK_ORDERS)
    edges = random_cubic_edges(rng, n)
    while True:
        m = rng.choice(BLOCK_ORDERS)
        if n + 1 + m + 1 > n_max:
            return n, sorted(edges)
        x, y = n, n + 1 + m
        edges = _subdivide(rng, list(edges), x)
        block = [(u + n + 1, v + n + 1) for u, v in random_cubic_edges(rng, m)]
        edges += _subdivide(rng, block, y) + [(x, y)]
        n = y + 1


def write_graph6(n: int, edges) -> str:
    """Short-form graph6 (n <= 62), written here rather than by ipfkit."""
    if n > 62:
        raise ValueError("short-form graph6 holds at most 62 vertices")
    es = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (u, v) in es else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
                   for i in range(0, len(bits), 6))
    return chr(63 + n) + body


def read_graph6(line: str) -> tuple[int, frozenset]:
    """Decode short-form graph6 into (n, edges with u < v), independently
    of ipfkit's parser; the benchmark checks answers against this."""
    n = ord(line[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"not a short-form graph6 line: {line!r}")
    bits = "".join(format(ord(ch) - 63, "06b") for ch in line[1:])
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    if len(bits) != -(-len(pairs) // 6) * 6:
        raise ValueError(f"graph6 body has the wrong length: {line!r}")
    return n, frozenset(p for p, b in zip(pairs, bits) if b == "1")


def panel(name: str) -> list[str]:
    """The graph6 lines of one panel; each host has its own generator
    stream, so a host does not depend on the entries before it."""
    lines = []
    for i, (kind, order) in enumerate(PANELS[name]):
        rng = random.Random(f"{PANEL_SEED}:{name}:{i}:{kind}:{order}")
        if kind == "random":
            lines.append(write_graph6(order, random_cubic_edges(rng, order)))
        else:
            lines.append(write_graph6(*bridged_cubic_edges(rng, order)))
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="write the panels to perfbench/data")
    args = ap.parse_args()
    for name in PANELS:
        lines = panel(name)
        if args.write:
            (DATA / f"{name}.g6").write_text("\n".join(lines) + "\n")
        else:
            print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
