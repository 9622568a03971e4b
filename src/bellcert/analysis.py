"""The analysis report: the closed-form verdict and the blocks that check
it, all read from the assemblage's one checked member table."""

from __future__ import annotations

import numpy as np

from .assemblages import CHSH_SHAPE, Assemblage
from .criterion import chsh_fast, evaluate
from .inequalities import BellInequality, chsh_symmetries
from .oracle import SearchConfig, max_violation_search
from .steering import optimal_steering_basis, three_axis_steering_lhs, two_axis_steering_lhs
from .tolerances import VIOLATION_TIE

# The 8 CHSH variants with their enumerated bounds, built once per process.
_CHSH_FAMILY = tuple(chsh_symmetries())


def _is_chsh_family(inequality: BellInequality) -> bool:
    return inequality.shape == CHSH_SHAPE and any(
        np.array_equal(inequality.coefficients, v.coefficients)
        and inequality.local_bound == v.local_bound
        for v in _CHSH_FAMILY
    )


def analyze(
    assemblage: Assemblage,
    inequality: BellInequality,
    *,
    tie_tol: float = VIOLATION_TIE,
    oracle: SearchConfig | None = None,
    steering: bool = False,
) -> dict:
    """The ``criterion``, ``bell_locality`` (CHSH family only), ``oracle``
    (given a search config) and ``steering`` (bipartite 2x2 only) blocks of
    the ``analyze`` report, as JSON-ready values.  The oracle block adds the
    ``gap`` lhs - value and the ``grid_error_bound`` (lhs - constant term) *
    angular step to the search result."""
    report = evaluate(assemblage, inequality, tie_tol=tie_tol)
    blocks = {"criterion": report.to_jsonable()}
    if _is_chsh_family(inequality):
        fast = chsh_fast(assemblage, tie_tol=tie_tol)
        blocks["bell_locality"] = {
            "applicable": True,
            "lhs_value": fast.lhs_value,
            "bell_local": not fast.violated,
            "marginal": fast.marginal,
        }
    if oracle is not None:
        result = max_violation_search(assemblage, inequality, oracle)
        spread = max(report.lhs_value - report.constant_term, 0.0)
        blocks["oracle"] = {
            **result.to_jsonable(),
            "gap": report.lhs_value - result.value,
            "grid_error_bound": spread * oracle.angular_step,
        }
    if steering:
        basis = optimal_steering_basis(assemblage)
        two = two_axis_steering_lhs(assemblage, basis)
        three = three_axis_steering_lhs(assemblage, basis)
        blocks["steering"] = {
            "optimal_basis": [[float(v) for v in row] for row in basis.directions],
            "two_axis_lhs": two,
            "three_axis_lhs": three,
            "gap": three - two,
        }
    return blocks
