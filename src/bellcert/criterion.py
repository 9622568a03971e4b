"""Closed-form certification of Bell violations with one trusted qubit.

For a dichotomic trusted party the maximal value of a linear Bell functional
over all trusted projective measurements splits into a
measurement-independent constant plus, per trusted input x, the Euclidean
norm of the Bloch vector of the coefficient-weighted member sum

    sum_{b,y} (1/2) (beta_{0,b,x,y} - beta_{1,b,x,y}) sigma_{b|y}.

The norm is attained by the rank-1 projective measurement along that Bloch
direction, so the certificate is exact and constructive: the report carries
the optimal measurements and they reproduce the reported value through the
Born rule.  The value is the maximum over projective measurements; for
inequalities whose violations cannot grow under stochastic relabeling of
the trusted outputs this decides violation against arbitrary dichotomic
POVMs as well, since any POVM strategy is a projective one followed by such
a relabeling (see :func:`povm_reduce`).  A POVM with unbalanced effect
traces can exceed the projective maximum on a NON-violating assemblage, but
it can neither violate when the projective maximum is below the bound nor
beat it when it is above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qubit
from .assemblages import Assemblage, ScenarioShape
from .inequalities import BellInequality, Distribution, MixingKernel
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


def _flat_coefficients(inequality: BellInequality) -> np.ndarray:
    """Coefficients reshaped to (2, #b strings, m, #y strings)."""
    s = inequality.shape
    return inequality.coefficients.reshape(
        2, s.n_output_strings, s.trusted_inputs, s.n_input_strings
    )


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
    beta = _flat_coefficients(inequality)
    return _directions(assemblage, 0.5 * (beta[0] - beta[1]))[x]


def _directions(assemblage: Assemblage, weights: np.ndarray) -> np.ndarray:
    """sum_{b,y} weights[b, x, y] r(sigma_{b|y}), one row per trusted input x."""
    blochs = qubit.bloch_stack(assemblage.stacked_members())
    return np.einsum("bxy,byc->xc", weights, blochs)


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
    degeneracy_tol: float = DEGENERATE_DIRECTION,
) -> CriterionReport:
    """Closed-form maximal Bell value over trusted dichotomic measurements.

    The lhs equals constant term plus the sum of per-input Bloch norms; the
    report's measurements achieve it exactly.  Inputs whose optimal vector is
    shorter than ``degeneracy_tol`` contribute nothing and are flagged
    ``direction_free`` (any axis is optimal; +z is emitted for determinism).
    Values within ``tie_tol`` of the bound report ``violated=False`` with the
    ``marginal`` flag set, since a strict inequality cannot be certified at
    floating-point equality.
    """
    _require_matching(assemblage, inequality)
    beta = _flat_coefficients(inequality)
    constant = 0.5 * float(np.einsum("abxy,by->", beta, assemblage.trace_table()))
    directions = _directions(assemblage, 0.5 * (beta[0] - beta[1]))
    return _report(
        directions,
        constant,
        inequality.local_bound,
        tie_tol,
        degeneracy_tol,
        GUARANTEE_GENERAL,
    )


def _report(
    directions: np.ndarray,
    constant: float,
    bound: float,
    tie_tol: float,
    degeneracy_tol: float,
    guarantee: str,
) -> CriterionReport:
    """Report for optimal vectors: lhs = constant + sum of their norms."""
    norms = np.linalg.norm(directions, axis=1)
    direction_free = []
    measurements = []
    for norm, direction in zip(norms, directions):
        degenerate = norm <= degeneracy_tol
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


def _require_chsh_shape(shape: ScenarioShape) -> None:
    expected = ScenarioShape(1, (2,), (2,), 2)
    if shape != expected:
        raise ValueError(
            "the fast path needs a bipartite 2-input/2-output assemblage, "
            f"got {shape}"
        )


_CHSH_SIGNS = np.fromfunction(lambda b, x, y: (-1.0) ** (b + x * y), (2, 2, 2))


def chsh_directions(assemblage: Assemblage) -> np.ndarray:
    """Optimal vectors r(sum_{b,y} (-1)^(b+xy) sigma_{b|y}), one row per x."""
    _require_chsh_shape(assemblage.shape)
    return _directions(assemblage, _CHSH_SIGNS)


def chsh_fast(
    assemblage: Assemblage,
    *,
    tie_tol: float = VIOLATION_TIE,
    degeneracy_tol: float = DEGENERATE_DIRECTION,
) -> CriterionReport:
    """Bell-locality decision for bipartite 2-input/2-output assemblages.

    The lhs is the norm sum of the two optimal vectors against the bound 2;
    for this scenario the verdict is a complete Bell-locality decision, not
    just a CHSH-violation statement, and it agrees with ``evaluate`` on the
    CHSH inequality and each of its 8 symmetries.
    """
    return _report(
        chsh_directions(assemblage), 0.0, 2.0, tie_tol, degeneracy_tol, GUARANTEE_CHSH
    )


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
