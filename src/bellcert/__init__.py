"""bellcert: Bell-violation certification for assemblages with one trusted qubit.

Given a multipartite assemblage (steered states on a single trusted qubit)
and a linear Bell inequality with dichotomic trusted outcomes, the package
computes the maximal Bell value over all trusted measurements in closed
form, returns the optimal measurements, and cross-checks the result with an
independent brute-force search.
"""

from .assemblages import (
    Assemblage,
    ScenarioShape,
    UntrustedMeasurementSet,
    Violation,
    builtin_assemblage,
    generate_from_state,
    ghz_state,
    no_signaling_deviation,
    singlet_state,
    validate,
    werner_state,
    xy_plane_measurements,
    zx_measurements,
)
from .criterion import (
    CriterionReport,
    DichotomicPOVM,
    chsh_directions,
    chsh_fast,
    distribution_from,
    evaluate,
    optimal_direction,
    povm_reduce,
    povm_reduction_kernel,
)
from .inequalities import (
    BellInequality,
    Distribution,
    MixingKernel,
    apply_local_mixing,
    bell_value,
    build_chained_svetlichny,
    build_chsh,
    build_reducible_chsh,
    build_svetlichny,
    chsh_symmetries,
    deterministic_distribution,
    deterministic_kernels,
    local_bound_enumerate,
    permute_untrusted_parties,
    uniform_distribution,
)
from .oracle import (
    MixingStabilityReport,
    OracleResult,
    SearchConfig,
    max_violation_search,
    mixing_stability_check,
)
from .qubit import bloch_vector, direction_projectors, eig2, from_bloch, psd_check
from .steering import (
    PauliTriple,
    correlator,
    optimal_steering_basis,
    three_axis_steering_lhs,
    two_axis_steering_lhs,
)

__version__ = "0.1.0"

__all__ = [
    "Assemblage",
    "BellInequality",
    "CriterionReport",
    "DichotomicPOVM",
    "Distribution",
    "MixingKernel",
    "MixingStabilityReport",
    "OracleResult",
    "PauliTriple",
    "ScenarioShape",
    "SearchConfig",
    "UntrustedMeasurementSet",
    "Violation",
    "apply_local_mixing",
    "bell_value",
    "bloch_vector",
    "build_chained_svetlichny",
    "build_chsh",
    "build_reducible_chsh",
    "build_svetlichny",
    "builtin_assemblage",
    "chsh_directions",
    "chsh_fast",
    "chsh_symmetries",
    "correlator",
    "deterministic_distribution",
    "deterministic_kernels",
    "direction_projectors",
    "distribution_from",
    "eig2",
    "evaluate",
    "from_bloch",
    "generate_from_state",
    "ghz_state",
    "local_bound_enumerate",
    "max_violation_search",
    "mixing_stability_check",
    "no_signaling_deviation",
    "optimal_direction",
    "optimal_steering_basis",
    "permute_untrusted_parties",
    "povm_reduce",
    "povm_reduction_kernel",
    "psd_check",
    "singlet_state",
    "three_axis_steering_lhs",
    "two_axis_steering_lhs",
    "uniform_distribution",
    "validate",
    "werner_state",
    "xy_plane_measurements",
    "zx_measurements",
]
