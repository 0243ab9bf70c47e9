"""Uniform star-factor weightings of finite simple graphs.

Decides whether a graph admits a strictly positive edge-weighting under
which every star-factor has the same total weight, via a brute-force
exact-rational oracle and a structural classifier for girth >= 5,
cross-validated by an exhaustive small-graph census.
"""

__version__ = "0.1.0"

from .graph import (
    Girth,
    Graph,
    GraphError,
    connected_components,
    girth,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .factors import (
    CapExceeded,
    VacuousGraph,
    edge_count_spectrum,
    enumerate_star_factors,
    factor_stars,
    incidence_vectors,
)
from .solver import (
    OracleResult,
    Refutation,
    Verdict,
    Weighting,
    Witness,
    decide_uniform_weighting,
    omega_oracle,
    verify_outcome,
)
from .classifier import (
    CaseTag,
    Classification,
    Route,
    classify,
    classify_connected_girth5,
)
from .census import (
    CensusRow,
    cross_validate,
    generate_connected,
    generate_connected_girth5,
    report,
)

__all__ = [
    "__version__",
    "Girth",
    "Graph",
    "GraphError",
    "connected_components",
    "girth",
    "parse_edge_list",
    "parse_graph6",
    "to_graph6",
    "CapExceeded",
    "VacuousGraph",
    "edge_count_spectrum",
    "enumerate_star_factors",
    "factor_stars",
    "incidence_vectors",
    "OracleResult",
    "Refutation",
    "Weighting",
    "Witness",
    "decide_uniform_weighting",
    "omega_oracle",
    "verify_outcome",
    "CaseTag",
    "Classification",
    "Route",
    "Verdict",
    "classify",
    "classify_connected_girth5",
    "CensusRow",
    "cross_validate",
    "generate_connected",
    "generate_connected_girth5",
    "report",
]
