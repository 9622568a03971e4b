"""Brute-force cross-checks: measurement search and local-bound enumeration.

The search maximizes the Bell functional over trusted measurements by direct
Born-rule evaluation (projective grid over the sphere, golden-section
refinement, random POVM samples, optional injection of the closed-form
candidate).  Because the functional splits over trusted inputs, each input
is searched independently; the returned value is recomputed end to end from
the chosen measurements through ``distribution_from`` and ``bell_value`` so
that it never relies on the closed-form expression being checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, prod, sqrt

import numpy as np

from . import qubit
from .assemblages import Assemblage
from .criterion import DichotomicPOVM, distribution_from, evaluate, pauli_contraction
from .inequalities import BellInequality, bell_value
from .sampling import random_dichotomic_povm

_INV_PHI = (sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the measurement search; identical configs give identical results."""

    grid_resolution: int = 180
    povm_samples: int = 20
    refine_iterations: int = 24
    seed: int = 0
    inject_closed_form: bool = True

    def __post_init__(self) -> None:
        if self.grid_resolution < 1:
            raise ValueError("grid_resolution must be positive")
        if self.povm_samples < 0:
            raise ValueError("povm_samples must be nonnegative")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be nonnegative")

    @property
    def angular_step(self) -> float:
        """Grid spacing per angle; the documented linear error bound is
        (lhs - constant term) * angular_step."""
        return pi / self.grid_resolution


@dataclass(eq=False)
class OracleResult:
    value: float
    measurements: list[DichotomicPOVM]
    config: SearchConfig
    per_input: np.ndarray
    candidates_evaluated: int

    def to_jsonable(self) -> dict:
        return {
            "value": float(self.value),
            "per_input": [float(v) for v in self.per_input],
            "candidates_evaluated": int(self.candidates_evaluated),
            "config": {
                "grid_resolution": self.config.grid_resolution,
                "povm_samples": self.config.povm_samples,
                "refine_iterations": self.config.refine_iterations,
                "seed": self.config.seed,
                "inject_closed_form": self.config.inject_closed_form,
                "angular_step": self.config.angular_step,
            },
        }


def _direction(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )


def _projective_score(theta, phi, constant: float, spread: np.ndarray):
    """Vectorized score constant + (1/2) n(theta, phi) . spread of the
    projective pair along n, where constant = (1/2)(Tr D_0 + Tr D_1) and
    spread = r(D_0) - r(D_1) at one input."""
    sin_theta = np.sin(theta)
    along = (
        sin_theta * np.cos(phi) * spread[0]
        + sin_theta * np.sin(phi) * spread[1]
        + np.cos(theta) * spread[2]
    )
    return constant + 0.5 * along


def _score(effects, table: np.ndarray) -> float:
    """Tr[M_0 D_0] + Tr[M_1 D_1] = (1/2) sum_a pauli_table(M_a) . K[a] for
    the rows K[a] = pauli_table(D_a) of one input."""
    return 0.5 * float(np.sum(qubit.pauli_table(np.asarray(effects)) * table))


def _golden_max(f, lo: float, hi: float, iterations: int) -> float:
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return c if fc >= fd else d


def max_violation_search(
    assemblage: Assemblage,
    inequality: BellInequality,
    config: SearchConfig | None = None,
) -> OracleResult:
    """Directly search trusted measurements maximizing the Bell functional.

    Candidates per trusted input: a uniform (theta, phi) grid of projective
    measurements, golden-section refinement around the best grid cell,
    ``povm_samples`` random dichotomic POVMs (random eigenvalues and random
    projectors, exercising the full POVM space), and optionally the
    closed-form direction as a seed candidate so the search attains the
    certified value exactly rather than up to grid resolution.  Ties keep
    the earliest candidate, so results are reproducible for a fixed config.
    """
    cfg = config or SearchConfig()
    if assemblage.shape != inequality.shape:
        raise ValueError("assemblage and inequality shapes differ")
    rng = np.random.default_rng(cfg.seed)
    # per input x, the rows (Tr D_a, r(D_a)) of D_a = sum_{b,y} beta[a,b,x,y] sigma_{b|y}
    tables = pauli_contraction(assemblage, inequality.coefficients).swapaxes(0, 1)

    thetas = np.linspace(0.0, pi, cfg.grid_resolution + 1)
    phis = np.arange(2 * cfg.grid_resolution) * (pi / cfg.grid_resolution)
    theta_grid = thetas[:, None]
    phi_grid = phis[None, :]

    closed_form = evaluate(assemblage, inequality) if cfg.inject_closed_form else None

    best_measurements: list[DichotomicPOVM] = []
    per_input = np.zeros(inequality.shape.trusted_inputs)
    candidates = 0

    for x, table in enumerate(tables):
        constant = 0.5 * (table[0, 0] + table[1, 0])
        spread = table[0, 1:] - table[1, 1:]
        values = _projective_score(theta_grid, phi_grid, constant, spread)
        candidates += values.size
        flat_best = int(np.argmax(values))
        ti, pi_idx = np.unravel_index(flat_best, values.shape)
        best_theta = float(thetas[ti])
        best_phi = float(phis[pi_idx])
        best_value = float(values[ti, pi_idx])

        step = cfg.angular_step
        if cfg.refine_iterations > 0:
            fine_theta = _golden_max(
                lambda t: _projective_score(t, best_phi, constant, spread),
                max(best_theta - step, 0.0),
                min(best_theta + step, pi),
                cfg.refine_iterations,
            )
            fine_phi = _golden_max(
                lambda p: _projective_score(fine_theta, p, constant, spread),
                best_phi - step,
                best_phi + step,
                cfg.refine_iterations,
            )
            candidates += 2 * (cfg.refine_iterations + 2)
            refined = float(_projective_score(fine_theta, fine_phi, constant, spread))
            if refined > best_value:  # keep the grid point if refinement regressed
                best_theta, best_phi, best_value = fine_theta, fine_phi, refined
        best = DichotomicPOVM.from_direction(_direction(best_theta, best_phi))

        for _ in range(cfg.povm_samples):
            povm = random_dichotomic_povm(rng)
            candidates += 1
            value = _score(povm.effects, table)
            if value > best_value:
                best_value = value
                best = povm

        if closed_form is not None:
            candidate = closed_form.optimal_measurements[x]
            candidates += 1
            value = _score(candidate.effects, table)
            if value > best_value:
                best_value = value
                best = candidate

        per_input[x] = best_value
        best_measurements.append(best)

    value = bell_value(inequality, distribution_from(assemblage, best_measurements))
    return OracleResult(value, best_measurements, cfg, per_input, candidates)


# ---------------------------------------------------------------------------
# Exact local bound by deterministic-strategy enumeration
# ---------------------------------------------------------------------------


def strategy_count(shape) -> int:
    """Number of local deterministic strategies for a scenario shape."""
    untrusted = prod(
        o**m for o, m in zip(shape.outputs_per_party, shape.inputs_per_party)
    )
    return (shape.trusted_outputs**shape.trusted_inputs) * untrusted


def local_bound_enumerate(
    inequality: BellInequality, cap: int = 100_000_000
) -> float:
    """Exact maximum of beta . P over all local deterministic strategies.

    Every untrusted response function is visited, one party at a time: beta
    is contracted against each party's one-hot response table over that
    party's (b, y) axes, which leaves one (a, x) table per strategy.  For each
    untrusted strategy the trusted party's best response decomposes per
    input, so the trusted optimum is taken in closed form, the sum over x of
    the max over a, instead of looping over the trusted party's 2**m
    functions (the result is identical).  Response functions are generated
    in blocks, so no working array holds more than ``_BLOCK`` floats (unless
    beta itself does), whatever the strategy count.  Sums of integer
    coefficients are exact in floats at these sizes.
    """
    shape = inequality.shape
    total = strategy_count(shape)
    if total > cap:
        raise ValueError(
            f"{total} deterministic strategies exceed the enumeration cap {cap}"
        )
    k = shape.untrusted_parties
    # (b_1, y_1, ..., b_k, y_k, a, x) and a trailing axis of strategies so far
    axes = [ax for p in range(k) for ax in (1 + p, 2 + k + p)] + [0, 1 + k]
    work = np.ascontiguousarray(inequality.coefficients.transpose(axes))[..., None]
    parties = list(zip(shape.outputs_per_party, shape.inputs_per_party))
    return _best_strategy(work, parties)


# Largest working array of the enumeration, in float64 entries (32 MiB).
_BLOCK = 1 << 22


def _best_strategy(work: np.ndarray, parties: list[tuple[int, int]]) -> float:
    """Max over the parties' response functions of sum_x max_a.

    ``work`` has axes (b, y, later parties' (b, y) pairs, a, x, strategies
    so far), where (b, y) belong to ``parties[0]``.  Its response functions
    run in blocks: the functions of one block share their answers to the
    first ``high`` inputs, which add one fixed term, and run through every
    answer to the last ``low`` inputs, whose contraction every block shares.
    """
    (outputs, inputs), later = parties[0], parties[1:]
    per_function = max(outputs * inputs, prod(work.shape[2:]))
    low = inputs
    while low and outputs**low * per_function > _BLOCK:
        low -= 1
    high = inputs - low
    # (functions, later parties' (b, y) pairs, a, x, strategies so far)
    shared = np.tensordot(_response_table(outputs, low), work[:, high:], axes=2)
    best = -np.inf
    for block in range(outputs**high):
        answers = [block // outputs ** (high - 1 - y) % outputs for y in range(high)]
        part = shared + work[answers, range(high)].sum(axis=0) if high else shared
        if later:  # fold the functions into the strategies axis
            part = np.ascontiguousarray(np.moveaxis(part, 0, -2))
            value = _best_strategy(part.reshape(*part.shape[:-2], -1), later)
        else:  # the trusted party is dichotomic
            value = float(np.maximum(part[:, 0], part[:, 1]).sum(axis=1).max())
        best = max(best, value)
    return best


def _response_table(outputs: int, inputs: int) -> np.ndarray:
    """One-hot table T[s, b, y] = [response function s answers b to input y].

    Function s answers input y with base-``outputs`` digit y of s, the first
    input taking the most significant digit, as in ``itertools.product``.
    """
    index = np.arange(outputs**inputs)
    table = np.zeros((outputs**inputs, outputs, inputs))
    for y in range(inputs):
        digit = index // outputs ** (inputs - 1 - y) % outputs
        table[:, :, y] = digit[:, None] == np.arange(outputs)
    return table
