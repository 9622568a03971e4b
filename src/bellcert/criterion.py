"""Closed-form certification of Bell violations with one trusted qubit.

Everything here reads one table.  For trusted output a and input x let

    D_{a,x} = sum_{b,y} beta_{a,b,x,y} sigma_{b|y};

a trusted dichotomic measurement (M, I - M) at input x scores
Tr[M D_{0,x}] + Tr[(I - M) D_{1,x}].  :func:`pauli_contraction` gives the
trace and Bloch vector of every D_{a,x}.  Over projective measurements the
score splits into the measurement-independent constant
(1/2) sum_a Tr D_{a,x} plus, per input, the Euclidean norm of
(1/2)(r(D_{0,x}) - r(D_{1,x})).

The norm is attained by the rank-1 projective measurement along that Bloch
direction, so the certificate is exact and constructive: the report carries
the optimal measurements and they reproduce the reported value through the
Born rule.  The value is the maximum over projective measurements only.  For
inequalities whose violations cannot grow under stochastic relabeling of
the trusted outputs it decides violation against arbitrary dichotomic POVMs
as well, since any POVM strategy is a projective one followed by such a
relabeling (see :func:`povm_reduce`).  For other inequalities a POVM with
unbalanced effect traces, the trivial (I, 0) among them, can score above the
projective maximum, and can violate when the projective maximum is below
the bound: a "not violated" verdict then covers projective measurements
only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qubit
from .assemblages import Assemblage, require_chsh_shape
from .inequalities import BellInequality, Distribution, MixingKernel, build_chsh
from .tolerances import (
    DEGENERATE_DIRECTION,
    POSITIVITY,
    RECONSTRUCTION,
    VIOLATION_TIE,
)

GUARANTEE_GENERAL = (
    "lhs is attained by the reported measurements; for mixing-stable "
    "inequalities no dichotomic POVM strategy achieves a larger violation"
)
GUARANTEE_CHSH = "full Bell-locality decision (2-input/2-output bipartite scenario)"

DEFAULT_DIRECTION = np.array([0.0, 0.0, 1.0])


@dataclass(eq=False)
class DichotomicPOVM:
    """Two PSD effects on the trusted qubit summing to the identity."""

    effects: tuple[np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        if len(self.effects) != 2:
            raise ValueError("a dichotomic POVM has exactly two effects")
        stack = np.array([qubit.require_hermitian(op) for op in self.effects])
        for label, lmin in zip(("first", "second"), qubit.min_eigenvalues(stack)):
            if lmin < -POSITIVITY:
                raise ValueError(f"{label} effect has eigenvalue {lmin:.3e}")
        defect = float(np.abs(stack.sum(axis=0) - qubit.IDENTITY).max())
        if defect > RECONSTRUCTION:
            raise ValueError(f"effects sum to identity only within {defect:.3e}")
        stack.setflags(write=False)
        self.effects = (stack[0], stack[1])

    @classmethod
    def from_direction(cls, direction) -> "DichotomicPOVM":
        return cls(qubit.direction_projectors(direction))


@dataclass(eq=False)
class CriterionReport:
    """Outcome of the closed-form evaluation for one assemblage/inequality pair."""

    opt_directions: np.ndarray
    constant_term: float
    lhs_value: float
    local_bound: float
    violated: bool
    marginal: bool
    direction_free: tuple[bool, ...]
    optimal_measurements: list[DichotomicPOVM]
    guarantee: str = GUARANTEE_GENERAL

    @property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.opt_directions, axis=1)

    def to_jsonable(self) -> dict:
        per_input = []
        for x in range(self.opt_directions.shape[0]):
            measurement = self.optimal_measurements[x]
            per_input.append(
                {
                    "x": x,
                    "direction": [float(v) for v in self.opt_directions[x]],
                    "norm": float(self.norms[x]),
                    "direction_free": bool(self.direction_free[x]),
                    "measurement_bloch": [
                        float(v) for v in qubit.bloch_vector(measurement.effects[0])
                    ],
                }
            )
        return {
            "constant_term": float(self.constant_term),
            "per_input": per_input,
            "lhs_value": float(self.lhs_value),
            "local_bound": float(self.local_bound),
            "violated": bool(self.violated),
            "marginal": bool(self.marginal),
            "guarantee": self.guarantee,
        }


def _require_matching(assemblage: Assemblage, inequality: BellInequality) -> None:
    if assemblage.shape != inequality.shape:
        raise ValueError(
            f"assemblage shape {assemblage.shape} does not match inequality "
            f"shape {inequality.shape}"
        )


def pauli_contraction(assemblage: Assemblage, coefficients) -> np.ndarray:
    """Pauli table K[a, x] = pauli_table(D_{a,x}), shape (2, m, 4), with
    D_{a,x} = sum_{b,y} coefficients[a, b, x, y] sigma_{b|y}.

    ``coefficients`` has the assemblage's distribution shape.  Every member
    is checked for Hermiticity first, also one whose coefficients are all
    zero.
    """
    s = assemblage.shape
    m = s.trusted_inputs
    beta = np.reshape(coefficients, (2, s.n_output_strings, m, s.n_input_strings))
    members = qubit.require_hermitian_stack(assemblage.stacked_members())
    # one matmul: rows (a, x) of beta against the members' rows (b, y)
    weights = beta.transpose(0, 2, 1, 3).reshape(2 * m, -1)
    return (weights @ qubit.pauli_table(members).reshape(-1, 4)).reshape(2, m, 4)


def _directions(table: np.ndarray) -> np.ndarray:
    """(1/2)(r(D_{0,x}) - r(D_{1,x})), one row per trusted input x."""
    return 0.5 * (table[0, :, 1:] - table[1, :, 1:]) + 0.0  # normalizes -0.0


def optimal_direction(
    assemblage: Assemblage, inequality: BellInequality, x: int
) -> np.ndarray:
    """Unnormalized optimal Bloch vector for trusted input x.

    Its direction is the best measurement axis for that input and its norm is
    the input's maximal contribution beyond the constant term.
    """
    _require_matching(assemblage, inequality)
    if not 0 <= x < inequality.shape.trusted_inputs:
        raise ValueError(f"trusted input {x} out of range")
    return _directions(pauli_contraction(assemblage, inequality.coefficients))[x]


def _verdict(lhs: float, bound: float, tie_tol: float) -> tuple[bool, bool]:
    if lhs > bound + tie_tol:
        return True, False
    if lhs > bound - tie_tol:
        return False, True
    return False, False


def evaluate(
    assemblage: Assemblage,
    inequality: BellInequality,
    *,
    tie_tol: float = VIOLATION_TIE,
) -> CriterionReport:
    """Closed-form maximal Bell value over trusted dichotomic measurements.

    The lhs equals constant term plus the sum of per-input Bloch norms; the
    report's measurements achieve it exactly.  Inputs whose optimal vector is
    no longer than ``DEGENERATE_DIRECTION`` contribute nothing and are flagged
    ``direction_free`` (any axis is optimal; +z is emitted for determinism).
    Values within ``tie_tol`` of the bound report ``violated=False`` with the
    ``marginal`` flag set, since a strict inequality cannot be certified at
    floating-point equality.
    """
    _require_matching(assemblage, inequality)
    table = pauli_contraction(assemblage, inequality.coefficients)
    return report_from_table(table, inequality.local_bound, tie_tol)


def report_from_table(
    table: np.ndarray, bound: float, tie_tol: float = VIOLATION_TIE
) -> CriterionReport:
    """:func:`evaluate`'s report read from the Pauli table K of the
    inequality's coefficients (see :func:`pauli_contraction`)."""
    return _report(
        _directions(table),
        0.5 * float(table[..., 0].sum()),
        bound,
        tie_tol,
        GUARANTEE_GENERAL,
    )


def _report(
    directions: np.ndarray,
    constant: float,
    bound: float,
    tie_tol: float,
    guarantee: str,
) -> CriterionReport:
    """Report for optimal vectors: lhs = constant + sum of their norms."""
    norms = np.linalg.norm(directions, axis=1)
    direction_free = []
    measurements = []
    for norm, direction in zip(norms, directions):
        degenerate = norm <= DEGENERATE_DIRECTION
        direction_free.append(bool(degenerate))
        axis = DEFAULT_DIRECTION if degenerate else direction / norm
        measurements.append(DichotomicPOVM.from_direction(axis))
    lhs = constant + float(norms.sum())
    violated, marginal = _verdict(lhs, bound, tie_tol)
    return CriterionReport(
        opt_directions=directions,
        constant_term=constant,
        lhs_value=lhs,
        local_bound=bound,
        violated=violated,
        marginal=marginal,
        direction_free=tuple(direction_free),
        optimal_measurements=measurements,
        guarantee=guarantee,
    )


def distribution_from(
    assemblage: Assemblage, measurements
) -> Distribution:
    """Born-rule behavior P(a, b | x, y) = Tr[M_x^(a) sigma_{b|y}]."""
    shape = assemblage.shape
    if len(measurements) != shape.trusted_inputs:
        raise ValueError(
            f"expected {shape.trusted_inputs} trusted measurements, "
            f"got {len(measurements)}"
        )
    effect_stack = np.array(
        [
            (m if isinstance(m, DichotomicPOVM) else DichotomicPOVM(tuple(m))).effects
            for m in measurements
        ]
    )
    members = assemblage.stacked_members()
    table = np.einsum("xaij,BYji->aBxY", effect_stack, members).real
    return Distribution(shape, table.reshape(shape.distribution_dims))


# ---------------------------------------------------------------------------
# Fast path for the 2-input/2-output bipartite scenario
# ---------------------------------------------------------------------------


_CHSH_COEFFICIENTS = build_chsh().coefficients  # read-only


def chsh_directions(assemblage: Assemblage) -> np.ndarray:
    """Optimal vectors r(sum_{b,y} (-1)^(b+xy) sigma_{b|y}), one row per x."""
    require_chsh_shape(assemblage.shape, "the fast path needs")
    return _directions(pauli_contraction(assemblage, _CHSH_COEFFICIENTS))


def chsh_fast(assemblage: Assemblage, *, tie_tol: float = VIOLATION_TIE) -> CriterionReport:
    """Bell-locality decision for bipartite 2-input/2-output assemblages.

    The lhs is the norm sum of the two optimal vectors against the bound 2;
    for this scenario the verdict is a complete Bell-locality decision, not
    just a CHSH-violation statement, and it agrees with ``evaluate`` on the
    CHSH inequality and each of its 8 symmetries.
    """
    return _report(chsh_directions(assemblage), 0.0, 2.0, tie_tol, GUARANTEE_CHSH)


# ---------------------------------------------------------------------------
# POVM reduction to a projective measurement plus output mixing
# ---------------------------------------------------------------------------


def povm_reduce(
    measurement: DichotomicPOVM,
) -> tuple[DichotomicPOVM, np.ndarray, tuple[float, float]]:
    """Split a dichotomic POVM into projectors followed by output mixing.

    Diagonalizing the first effect as l0*P0 + l1*P1 gives the projective
    measurement (P0, P1) and the 2x2 mixing slice q(a | a') with q(0|a') =
    l_{a'} and q(1|a') = 1 - l_{a'}; the original behavior is recovered by
    applying that mixing to the projective behavior.

    Returns (projective measurement, mixing slice, eigenvalue pair).
    """
    (l0, l1), (p0, p1) = qubit.eig2(measurement.effects[0])
    if l0 > 1.0 + POSITIVITY or l1 < -POSITIVITY:
        raise ValueError("first effect has eigenvalues outside [0, 1]")
    l0 = float(np.clip(l0, 0.0, 1.0))
    l1 = float(np.clip(l1, 0.0, 1.0))
    projective = DichotomicPOVM((p0, p1))
    q_slice = np.array([[l0, l1], [1.0 - l0, 1.0 - l1]])
    return projective, q_slice, (l0, l1)


def povm_reduction_kernel(measurements) -> tuple[list[DichotomicPOVM], MixingKernel]:
    """Reduce one POVM per trusted input to projectors plus a full kernel."""
    projectives = []
    slices = []
    for measurement in measurements:
        projective, q_slice, _ = povm_reduce(measurement)
        projectives.append(projective)
        slices.append(q_slice)
    return projectives, MixingKernel.from_slices(slices)
