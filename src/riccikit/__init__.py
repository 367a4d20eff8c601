"""Exact curvature toolkit for locally finite simple graphs.

Everything numerical is an exact rational (`fractions.Fraction`): lazy-walk
curvatures, the limit-free curvature LP, transport plans and their integer
dual potentials, and combinatorial vertex curvature over sphere embeddings.
"""

from .checks import ALL_CHECKS, CheckResult, run_checks
from .curvature import (
    CurvatureReport,
    EdgeCurvature,
    EmbeddingError,
    LipschitzProgram,
    VertexCurvature,
    build_lipschitz_program,
    combinatorial_curvature,
    combinatorial_curvatures,
    curvature_report,
    kappa_alpha,
    kappa_lly,
    kappa_lly_slope,
    kappa_zero,
    moore_bound,
    report_to_csv,
    report_to_json_dict,
)
from .families import FAMILIES, FamilySpec
from .graphs import (
    DistanceMap,
    EmbeddingCheck,
    Face,
    Graph,
    GraphError,
    ParseError,
    RotationSystem,
    ball,
    bfs_distances,
    common_neighbors,
    diameter,
    parse_edgelist,
    parse_graph,
    parse_rotation,
    sniff_format,
    to_edgelist_text,
    to_rotation_text,
    trace_faces,
    validate_embedding,
)
from .lp import SimplexError, simplex_min
from .structure import (
    CapRecord,
    DegreeAudit,
    Lemma4Instance,
    LipschitzWitness,
    degree_audit,
    detect_caps,
    lemma4_check,
    lemma4_sweep,
    lemma4_witness,
)
from .transport import (
    DualPotential,
    DualityCheck,
    InternalConsistencyError,
    Measure,
    TransportError,
    TransportPlan,
    TransportResult,
    lazy_measure,
    optimal_transport,
    verify_duality,
)

__version__ = "0.1.0"
