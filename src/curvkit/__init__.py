"""curvkit: discrete curvature toolkit for finite graphs.

Computes the normalized graph Laplacian and its gradient forms, per-vertex
girth, exact pointwise curvature under the curvature-dimension inequality,
and sampled curvature estimates under the exponential-type variant, with
generators and a CLI for verifying the girth-5 curvature bounds.
"""

from .cd import (
    CdResult,
    NonFiniteError,
    NotEliminableError,
    assemble_cd_forms,
    cd_check,
    cd_curvature,
    cd_curvatures,
    schur_minimize,
    schur_minimizer,
    smallest_eigenvalue,
)
from .cde import (
    CdeEstimate,
    InfeasibleFunctionError,
    NoFeasibleSampleError,
    cde_check,
    cde_estimate,
    cde_estimates,
    cde_ratio,
)
from .generators import (
    BadParameterError,
    complete,
    cycle,
    path,
    petersen,
    random_tree,
    random_with_girth,
    star,
)
from .girth import GirthValue, all_vertex_girths, graph_girth, has_girth_at_least
from .girth import vertex_girth
from .graph import (
    DisconnectedError,
    EdgeListParseError,
    Graph,
    GraphError,
    SelfLoopError,
    VertexFunction,
    parse_edge_list,
    serialize_edge_list,
)
from .operators import (
    IterationTooDeepError,
    NonpositiveValueError,
    approx_equal,
    gamma,
    gamma2,
    gamma2_local,
    gamma_f_ratio,
    gamma_iterate,
    gamma_local,
    laplacian,
)
from .verify import (
    CurvatureReport,
    PreconditionFailedError,
    VertexReport,
    cd_bound_girth5,
    cd_witness_value,
    verify_theorems,
)

__version__ = "0.1.0"

__all__ = [
    "BadParameterError",
    "CdResult",
    "CdeEstimate",
    "CurvatureReport",
    "DisconnectedError",
    "EdgeListParseError",
    "GirthValue",
    "Graph",
    "GraphError",
    "InfeasibleFunctionError",
    "IterationTooDeepError",
    "NoFeasibleSampleError",
    "NonFiniteError",
    "NonpositiveValueError",
    "NotEliminableError",
    "PreconditionFailedError",
    "SelfLoopError",
    "VertexFunction",
    "VertexReport",
    "all_vertex_girths",
    "approx_equal",
    "assemble_cd_forms",
    "cd_bound_girth5",
    "cd_check",
    "cd_curvature",
    "cd_curvatures",
    "cd_witness_value",
    "cde_check",
    "cde_estimate",
    "cde_estimates",
    "cde_ratio",
    "complete",
    "cycle",
    "gamma",
    "gamma2",
    "gamma2_local",
    "gamma_f_ratio",
    "gamma_iterate",
    "gamma_local",
    "graph_girth",
    "has_girth_at_least",
    "laplacian",
    "parse_edge_list",
    "path",
    "petersen",
    "random_tree",
    "random_with_girth",
    "schur_minimize",
    "schur_minimizer",
    "serialize_edge_list",
    "smallest_eigenvalue",
    "star",
    "verify_theorems",
    "vertex_girth",
]
