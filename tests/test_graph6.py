"""graph6 parsing and writing."""

import json
import sys

import pytest

from ipfkit import (
    Graph, Graph6Error, census, graph, ipf_cubic, parse_graph6, write_graph6,
)
from ipfkit import surgery
from ipfkit.cli import EXIT_OK, main

from conftest import DATA, census_graphs


def encode(g: Graph) -> str:
    """graph6 of g from its masks, bit by bit: the pair (u, v), u < v, is
    bit v(v-1)/2 + u, six bits a byte, high bit first."""
    bits = [g.adj_mask[v] >> u & 1 for v in range(g.n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    return chr(63 + g.n) + "".join(
        chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
        for i in range(0, len(bits), 6))


def kept(g: Graph):
    """The graph6 line g's memo holds, which write_graph6 returns without
    encoding, or None."""
    return g._memo.get(graph._G6_KEY)


@pytest.fixture
def encoded(monkeypatch):
    """The graphs that the package's write_graph6 calls had to encode: a
    spy in every ipfkit module that binds it records each graph whose memo
    does not yet hold its line."""
    seen = []
    real = graph.write_graph6

    def spied(g):
        if kept(g) is None:
            seen.append(g)
        return real(g)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ipfkit" \
                and getattr(module, "write_graph6", None) is real:
            monkeypatch.setattr(module, "write_graph6", spied)
    return seen


def test_k4_decodes():
    g = parse_graph6("C~")
    assert g.n == 4
    assert g.edges == Graph(4, [(i, j) for i in range(4)
                                for j in range(i + 1, 4)]).edges


def test_small_known_codes():
    # path P2, empty graph on one vertex, C5
    assert parse_graph6("A_").edges == frozenset({(0, 1)})
    assert parse_graph6("@").n == 1
    c5 = parse_graph6("Dhc")
    assert c5.n == 5
    assert sorted(map(len, c5.adj)) == [2] * 5


def test_roundtrip_census():
    for n in (4, 6, 8):
        for g in census_graphs(n):
            assert parse_graph6(write_graph6(g)).edges == g.edges


def test_roundtrip_is_byte_identical():
    lines = [line for path in sorted(DATA.glob("*.g6"))
             for line in path.read_text().splitlines()]
    assert len(lines) == 621
    for line in lines:
        assert write_graph6(parse_graph6(line)) == line


def test_parsed_graph_keeps_its_line():
    lines = [line for path in sorted(DATA.glob("cubic_n*.g6"))
             for line in path.read_text().splitlines()]
    assert len(lines) == 621
    for line in lines:
        for text in (line, ">>graph6<<" + line, " \t" + line + "\r\n"):
            g = parse_graph6(text)
            assert kept(g) == line == encode(g)
            assert write_graph6(g) is kept(g)


def test_derived_graphs_encode_their_own_edges():
    # a triangle 0 1 2 with 2 of degree 2, and a path 0 3 4 1 of
    # degree-2 vertices: every surgery's hypothesis holds on it
    g = parse_graph6(write_graph6(
        Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (1, 4)])))
    assert kept(g) is not None
    derived = [
        g.induced_subgraph([0, 1, 3, 4])[0],
        g.with_edges([(2, 3)]),
        g.without_edges([(3, 4)]),
        surgery.subdivide_edge(g, 0, 1)[0],
        surgery.suppress_vertex(g, 3)[0],
        surgery.paste_k4minus(g, 3, 4)[0],
        surgery.augment_triangle(g, 0, 1, 2)[0],
        surgery.glue_at_vertex(g, g, 2, 2)[0],
        surgery.add_edge(g, 2, 3)[0],
        surgery.delete_edges(g, [(3, 4)])[0],
        surgery.delete_vertices(g, [4])[0],
    ]
    for h in derived:
        assert kept(h) is None
        assert write_graph6(h) == encode(h)
        # encoded once, then kept
        assert write_graph6(h) is write_graph6(h) is kept(h)


def test_equality_and_hash_ignore_the_line():
    g = parse_graph6("C~")
    h = Graph(4, g.edges)
    assert kept(g) == "C~" and kept(h) is None
    assert g == h and hash(g) == hash(h)
    write_graph6(h)
    assert g == h and hash(g) == hash(h)
    assert {g: 1}[h] == 1


def test_parsed_hosts_encode_no_graph6(encoded, capsys, tmp_path):
    text = write_graph6(census_graphs(14)[0])
    encoded.clear()
    assert ipf_cubic(parse_graph6(text)).graph6 == text
    rep = census([text], mode="both")
    assert rep.graphs_processed == 1 and not rep.violations
    path = tmp_path / "host.g6"
    path.write_text(text + "\n")
    for argv in (["construct", "--json"], ["solve", "--json"]):
        assert main(argv + ["--input", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["graph6"] == text
    assert encoded == []


def test_roundtrip_padding_boundary():
    # orders where the bit field length crosses a 6-bit boundary
    for n in (1, 2, 3, 5, 6, 7, 12, 13, 62):
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        back = parse_graph6(write_graph6(g))
        assert back.n == n and back.edges == g.edges


@pytest.mark.parametrize("bad", ["", "C", "C~~", "C\x19", "~??"])
def test_malformed_lines_rejected(bad):
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_error_reports_offset():
    try:
        parse_graph6("C\x19")
    except Graph6Error as exc:
        assert exc.offset is not None
    else:
        raise AssertionError("expected a parse error")


@pytest.mark.parametrize("bad, offset", [("A\u00e9", 1), ("\u00e9", 0),
                                         ("C\u2013", 1)])
def test_non_ascii_rejected_with_offset(bad, offset):
    with pytest.raises(Graph6Error) as info:
        parse_graph6(bad)
    assert info.value.offset == offset
    assert "non-ASCII" in str(info.value)


def with_padding(line: str, bit: int) -> str:
    """line with padding bit `bit` (0 = the last) of its last byte set."""
    val = ord(line[-1]) - 63
    return line[:-1] + chr(63 + (val | 1 << bit))


@pytest.mark.parametrize("line, pad", [
    ("Dhc", 2),                  # C5: 10 bits in 2 bytes
    ("MJOg_SC?gAOD_C_A_", 5),    # first n=14 census graph: 91 bits in 16
])
def test_nonzero_padding_rejected_at_last_byte(line, pad):
    parse_graph6(line)
    for bit in range(pad):
        bad = with_padding(line, bit)
        with pytest.raises(Graph6Error) as info:
            parse_graph6(bad)
        assert info.value.offset == len(line) - 1
        assert "padding" in str(info.value)
    assert with_padding("Dhc", 0) == "Dhd"


def test_census_reports_padding_as_error_line():
    line = census_graphs(14)[0]
    lines = [write_graph6(line), with_padding(write_graph6(line), 0)]
    rep = census(lines, mode="verify_theorem")
    assert rep.graphs_processed == 1
    assert len(rep.errors) == 1
    assert rep.errors[0].startswith("line 2: non-zero padding bits")
