"""graph6 parsing and writing."""

import pytest

from ipfkit import Graph, Graph6Error, parse_graph6, write_graph6

from conftest import census_graphs


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
    assert sorted(c5.degrees()) == [2] * 5


def test_roundtrip_census():
    for n in (4, 6, 8):
        for g in census_graphs(n):
            assert parse_graph6(write_graph6(g)).edges == g.edges


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
