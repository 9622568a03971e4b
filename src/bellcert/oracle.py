"""Randomized searches: the measurement oracle and the mixing-stability check.

The measurement search maximizes the Bell functional over trusted
measurements by direct Born-rule evaluation (projective grid over the
sphere, golden-section refinement, random POVM samples, optional injection
of the closed-form candidate).  Because the functional splits over trusted
inputs, each input is searched independently; the returned value is
recomputed end to end from the chosen measurements through
``distribution_from`` and ``bell_value`` so that it never relies on the
closed-form expression being checked.

The mixing-stability check samples violating behaviors and looks for a
trusted-output relabeling that raises their Bell value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from . import qubit
from .assemblages import Assemblage
from .criterion import (
    DichotomicPOVM,
    distribution_from,
    evaluate,
    pauli_contraction,
    report_from_table,
)
# local_bound_enumerate and strategy_count are re-exported for callers that
# import them from here, as the benchmark does
from .inequalities import (
    BellInequality,
    Distribution,
    MixingKernel,
    apply_local_mixing,
    bell_value,
    deterministic_kernels,
    local_bound_enumerate,
    strategy_count,
)
from .sampling import (
    random_assemblage,
    random_deterministic_distribution,
    random_dichotomic_povm,
)

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
    # K[a, x] = (Tr D_{a,x}, r(D_{a,x})), D_{a,x} = sum_{b,y} beta[a,b,x,y] sigma_{b|y}
    contraction = pauli_contraction(assemblage, inequality.coefficients)
    tables = contraction.swapaxes(0, 1)  # per input x, the rows of D_0 and D_1

    thetas = np.linspace(0.0, pi, cfg.grid_resolution + 1)
    phis = np.arange(2 * cfg.grid_resolution) * (pi / cfg.grid_resolution)
    theta_grid = thetas[:, None]
    phi_grid = phis[None, :]

    closed_form = None
    if cfg.inject_closed_form:
        closed_form = report_from_table(contraction, inequality.local_bound)

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
# Mixing-stability heuristic
# ---------------------------------------------------------------------------


@dataclass
class MixingCounterexample:
    kernel_index: int
    value_before: float
    value_after: float
    distribution: Distribution
    kernel: MixingKernel


@dataclass
class MixingStabilityReport:
    inequality_name: str | None
    samples_requested: int
    violating_sampled: int
    trials: int
    counterexample: MixingCounterexample | None

    @property
    def stable_so_far(self) -> bool:
        return self.counterexample is None

    def summary(self) -> str:
        if self.counterexample is not None:
            c = self.counterexample
            return (
                f"counterexample found: kernel #{c.kernel_index} lifts the value "
                f"{c.value_before:.6g} -> {c.value_after:.6g} (NOT mixing stable)"
            )
        return (
            f"no counterexample found over {self.violating_sampled} violating "
            f"behaviors ({self.trials} trials); inconclusive pass"
        )


def mixing_stability_check(
    inequality: BellInequality,
    samples: int = 100,
    seed: int = 0,
) -> MixingStabilityReport:
    """Search for violations that grow under trusted-output mixing.

    Samples violating behaviors (optimal trusted measurements on random
    assemblages, plus convex blends with random local deterministic points)
    and applies every deterministic mixing kernel; by linearity of the mixing
    in the kernel, deterministic kernels suffice to detect any increase.  A
    found counterexample certifies the inequality is NOT mixing stable; a
    clean pass over ``samples`` violating behaviors, or the end of the
    budget of 60 trials per sample, is inconclusive.
    """
    rng = np.random.default_rng(seed)
    shape = inequality.shape
    kernels = deterministic_kernels(shape.trusted_inputs)
    budget = 60 * samples
    plantable = shape.untrusted_parties == 1 and shape.outputs_per_party == (2,)
    violating = 0
    trials = 0
    while violating < samples and trials < budget:
        trials += 1
        planted = plantable and trials % 2 == 1
        assemblage = random_assemblage(shape, rng, pure=True, planted=planted)
        report = evaluate(assemblage, inequality)
        base = distribution_from(assemblage, report.optimal_measurements)
        mixer = random_deterministic_distribution(shape, rng)
        blend = float(rng.uniform(0.6, 1.0))
        blended = Distribution(
            shape, blend * base.table + (1.0 - blend) * mixer.table
        )
        for dist in (base, blended):
            if violating >= samples:
                break
            value = bell_value(inequality, dist)
            if value <= inequality.local_bound + 1e-9:
                continue
            violating += 1
            for idx, kernel in enumerate(kernels):
                mixed_value = bell_value(inequality, apply_local_mixing(dist, kernel))
                if mixed_value > value + 1e-9:
                    return MixingStabilityReport(
                        inequality.name,
                        samples,
                        violating,
                        trials,
                        MixingCounterexample(idx, value, mixed_value, dist, kernel),
                    )
    return MixingStabilityReport(inequality.name, samples, violating, trials, None)
