"""Exact general position analysis of finite point sets under projections.

All arithmetic is rational and exact. The central question: given a finite
configuration in Q^N, does every orthogonal projection leave it in general
position? The verdict is decided combinatorially, violations come with a
checkable certificate naming the offending point groups and a witness kernel.
"""

from .errors import InputError, OracleGuardError, PerturbationError
from .generators import (
    AffineMap,
    IteratedFunctionSystem,
    SplitMix64,
    cantor_graph_stage,
    iterate_system,
    perturb_to_generic,
    product_cantor_system,
    random_configuration,
)
from .genericity import (
    Certificate,
    ClassicalReport,
    DegeneracyPattern,
    Verdict,
    classical_general_position,
    decide_all_projections,
    decide_all_projections_oracle,
    minimal_patterns,
    verdict_to_json,
)
from .geometry import (
    Configuration,
    FiberReport,
    Subspace,
    SubspaceCheck,
    check_general_position,
    configuration_from_json,
    configuration_to_json,
    fibers,
    subspace_from_json,
    subspace_to_json,
)
from .linalg import (
    IncrementalSpan,
    Matrix,
    Vector,
    as_rational,
    distance_sq,
    dot,
    rank,
    vector_sub,
)
from .metric import hausdorff_sq

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "Certificate",
    "ClassicalReport",
    "Configuration",
    "DegeneracyPattern",
    "FiberReport",
    "IncrementalSpan",
    "InputError",
    "IteratedFunctionSystem",
    "Matrix",
    "OracleGuardError",
    "PerturbationError",
    "SplitMix64",
    "Subspace",
    "SubspaceCheck",
    "Vector",
    "Verdict",
    "as_rational",
    "cantor_graph_stage",
    "check_general_position",
    "classical_general_position",
    "configuration_from_json",
    "configuration_to_json",
    "decide_all_projections",
    "decide_all_projections_oracle",
    "distance_sq",
    "dot",
    "fibers",
    "hausdorff_sq",
    "iterate_system",
    "minimal_patterns",
    "perturb_to_generic",
    "product_cantor_system",
    "random_configuration",
    "rank",
    "subspace_from_json",
    "subspace_to_json",
    "vector_sub",
    "verdict_to_json",
]
