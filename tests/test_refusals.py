"""Public refusals: each function named here refuses an input outside its
domain with the error type and message it documents, before any work."""

import re

import pytest

from ipfkit import (
    ConstructionError, Graph, GraphError, Ipf, glue_lower_bound,
    ipf_23_with_2factor, ipf_ham23, ipf_small_ham, is_standardised,
    is_well_behaved, lift, parse_adjlist, recognize_bad, rho_tree_recurrence,
    standardise, subdivide_edge, two_factor_search,
)
from ipfkit.families import bad_graph


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def two_c5():
    return Graph(10, list(cycle(5).edges)
                 + [(u + 5, v + 5) for u, v in cycle(5).edges])


# K_{1,4}: a degree-4 centre, so no subcubic host; its empty edge set is
# an IPF of five trivial paths
CLAW4 = Graph(5, [(0, i) for i in range(1, 5)])
# K_{2,3}: a {2,3}-graph of order 5 with no hamilton cycle
K23 = Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])


def lift_through_subdivision():
    h, record = subdivide_edge(cycle(5), 0, 1)
    return lift(record, Ipf.from_edges(h, []))


REFUSALS = {
    "rho_tree_recurrence": (lambda: rho_tree_recurrence(2, 1),
                            ValueError, "need k >= 3 and h >= 0"),
    "glue_lower_bound": (lambda: glue_lower_bound(path(3), [{0, 1}, {2}]),
                         GraphError, "edge 12 crosses the decomposition"),
    "recognize_bad": (lambda: recognize_bad(two_c5()), GraphError,
                      "badness is defined for connected {2,3}-graphs"),
    "standardise": (lambda: standardise(Ipf.from_edges(CLAW4, [])),
                    GraphError,
                    "standardisation is defined for subcubic hosts"),
    "lift": (lift_through_subdivision, ConstructionError,
             "lift does not support surgery 'subdivide_edge'"),
    "ipf_small_ham-degrees": (lambda: ipf_small_ham(path(5), 2), GraphError,
                              "host must be a {2,3}-graph"),
    "ipf_small_ham-end": (lambda: ipf_small_ham(K23, 0), GraphError,
                          "vertex 0 must have degree 2"),
    "ipf_small_ham-hamiltonian": (lambda: ipf_small_ham(K23, 2), GraphError,
                                  "host is not hamiltonian"),
    "ipf_ham23-order": (lambda: ipf_ham23(cycle(5)), GraphError,
                        "ipf_ham23 requires order >= 6"),
    "ipf_ham23-degrees": (lambda: ipf_ham23(path(6)), GraphError,
                          "ipf_ham23 requires a {2,3}-graph"),
    "ipf_ham23-hamiltonian": (lambda: ipf_ham23(bad_graph(6, (0,), 1)),
                              GraphError,
                              "ipf_ham23 requires a hamiltonian host"),
    "ipf_23_with_2factor": (lambda: ipf_23_with_2factor(path(7)), GraphError,
                            "host must be a connected {2,3}-graph"),
    "parse_adjlist": (lambda: parse_adjlist("# a comment\n\n"), GraphError,
                      "empty adjacency-list input"),
    "two_factor_search-degrees": (lambda: two_factor_search(path(5)),
                                  GraphError,
                                  "two_factor_search requires a {2,3}-graph"),
    "two_factor_search-connected": (
        lambda: two_factor_search(two_c5()), GraphError,
        "two_factor_search requires a connected graph"),
    "is_well_behaved": (lambda: is_well_behaved(Ipf.from_edges(CLAW4, [])),
                        ValueError,
                        "well-behavedness is defined for subcubic hosts"),
    "is_standardised": (lambda: is_standardised(Ipf.from_edges(CLAW4, [])),
                        ValueError,
                        "standardisation is defined for subcubic hosts"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_public_refusal(case):
    call, kind, message = REFUSALS[case]
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as caught:
        call()
    assert caught.type is kind
