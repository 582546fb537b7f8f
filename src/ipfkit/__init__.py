"""ipfkit: induced path factors of small graphs.

Exact solvers, constructive certificates with explicit path-count bounds,
extremal families, and census verification over graph6 streams.
"""

from .graph import (
    Graph,
    Graph6Error,
    GraphError,
    BlockDecomposition,
    block_decomposition,
    hamilton_cycle,
    parse_adjlist,
    parse_graph6,
    two_factor_search,
    write_adjlist,
    write_graph6,
)
from .ipf import (
    Ipf,
    IpfError,
    induced_k4minus_subgraphs,
    is_standardised,
    is_well_behaved,
    verify_ipf,
)
from .solver import SolveResult, kernel_backend, rho_exact, rho_exhaustive
from .surgery import (
    SurgeryError,
    SurgeryRecord,
    add_edge,
    augment_triangle,
    delete_edges,
    delete_vertices,
    glue_at_vertex,
    paste_k4minus,
    subdivide_edge,
    suppress_vertex,
)
from .constructive import (
    Certificate,
    ConstructionError,
    ipf_23_with_2factor,
    ipf_blocktree,
    ipf_cubic,
    ipf_ham23,
    ipf_small_ham,
    is_triangle_ring,
    lift,
    recognize_bad,
    standardise,
)
from .families import generate
from .bounds import (
    CensusReport,
    census,
    ck_lower,
    ck_lower_report,
    glue_lower_bound,
    rho_tree,
    rho_tree_recurrence,
)

__version__ = "0.1.0"

__all__ = [
    "Graph", "Graph6Error", "GraphError", "BlockDecomposition",
    "block_decomposition", "hamilton_cycle", "parse_adjlist", "parse_graph6",
    "two_factor_search", "write_adjlist", "write_graph6",
    "Ipf", "IpfError", "induced_k4minus_subgraphs", "is_standardised",
    "is_well_behaved", "verify_ipf",
    "SolveResult", "kernel_backend", "rho_exact", "rho_exhaustive",
    "SurgeryError", "SurgeryRecord", "add_edge", "augment_triangle",
    "delete_edges", "delete_vertices", "glue_at_vertex", "paste_k4minus",
    "subdivide_edge", "suppress_vertex",
    "Certificate", "ConstructionError",
    "ipf_23_with_2factor", "ipf_blocktree", "ipf_cubic", "ipf_ham23",
    "ipf_small_ham", "is_triangle_ring", "lift", "recognize_bad",
    "standardise",
    "generate",
    "CensusReport", "census", "ck_lower", "ck_lower_report",
    "glue_lower_bound", "rho_tree", "rho_tree_recurrence",
    "__version__",
]
