"""Linear Bell inequalities, behaviors, and trusted-output mixing.

A Bell inequality is a dense real coefficient tensor beta indexed by
(a, b_1..b_k, x, y_1..y_k) together with a local bound, stored so that the
inequality always reads ``beta . P <= local_bound``.  Built-in constructors
cover CHSH (with its 8 relabeling/sign symmetries), the three-party
Svetlichny inequality, its chained m-input generalization, and a reducible
demonstration inequality whose violations can grow under output mixing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .assemblages import CHSH_SHAPE, ScenarioShape
from .tolerances import NORMALIZATION


@dataclass(eq=False)
class BellInequality:
    shape: ScenarioShape
    coefficients: np.ndarray
    local_bound: float
    name: str | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.coefficients, dtype=float)
        if arr.shape != self.shape.distribution_dims:
            raise ValueError(
                f"coefficient tensor has shape {arr.shape}, expected "
                f"{self.shape.distribution_dims}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficient tensor has non-finite entries")
        self.local_bound = float(self.local_bound)
        if not np.isfinite(self.local_bound):
            raise ValueError("local bound must be finite")
        arr.setflags(write=False)
        self.coefficients = arr


@dataclass(eq=False)
class Distribution:
    """Conditional probability table P(a, b | x, y) over all parties."""

    shape: ScenarioShape
    table: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.table, dtype=float)
        if arr.shape != self.shape.distribution_dims:
            raise ValueError(
                f"table has shape {arr.shape}, expected {self.shape.distribution_dims}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("table has non-finite entries")
        arr.setflags(write=False)
        self.table = arr

    def validate(self, tol: float = NORMALIZATION) -> list[str]:
        """Nonnegativity and per-context normalization findings."""
        findings = []
        low = float(self.table.min())
        if low < -tol:
            findings.append(f"negative probability {low:.3e}")
        flat = self._context_view()
        sums = flat.sum(axis=0)
        worst = float(np.abs(sums - 1.0).max())
        if worst > tol:
            findings.append(f"context normalization off by {worst:.3e}")
        return findings

    def _context_view(self) -> np.ndarray:
        """Table reshaped to (joint outputs, joint inputs)."""
        s = self.shape
        n_out = s.trusted_outputs * s.n_output_strings
        n_in = s.trusted_inputs * s.n_input_strings
        return self.table.reshape(n_out, n_in)


@dataclass(eq=False)
class MixingKernel:
    """Stochastic relabeling q(a | a', x) of the trusted party's outputs."""

    q: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.q, dtype=float)
        if arr.ndim != 3 or arr.shape[0] != 2 or arr.shape[1] != 2:
            raise ValueError(f"kernel must have shape (2, 2, m), got {arr.shape}")
        if float(arr.min()) < -NORMALIZATION:
            raise ValueError("kernel has negative entries")
        col_sums = arr.sum(axis=0)
        if float(np.abs(col_sums - 1.0).max()) > NORMALIZATION:
            raise ValueError("kernel columns must sum to 1 for every (a', x)")
        arr.setflags(write=False)
        self.q = arr

    @property
    def trusted_inputs(self) -> int:
        return self.q.shape[2]

    @classmethod
    def identity(cls, trusted_inputs: int) -> "MixingKernel":
        q = np.zeros((2, 2, trusted_inputs))
        q[0, 0, :] = q[1, 1, :] = 1.0
        return cls(q)

    @classmethod
    def from_slices(cls, slices) -> "MixingKernel":
        """Assemble a kernel from per-input 2x2 maps q(a | a')."""
        return cls(np.stack([np.asarray(s, dtype=float) for s in slices], axis=2))


def bell_value(inequality: BellInequality, distribution: Distribution) -> float:
    """Full contraction beta . P."""
    if inequality.shape != distribution.shape:
        raise ValueError("inequality and distribution shapes differ")
    return float(np.sum(inequality.coefficients * distribution.table))


def apply_local_mixing(
    distribution: Distribution, kernel: MixingKernel
) -> Distribution:
    """Relabel the trusted outputs: P'(a,b|x,y) = sum_a' q(a|a',x) P(a',b|x,y)."""
    shape = distribution.shape
    if kernel.trusted_inputs != shape.trusted_inputs:
        raise ValueError("kernel input count does not match the distribution shape")
    flat = distribution.table.reshape(
        shape.trusted_outputs,
        shape.n_output_strings,
        shape.trusted_inputs,
        shape.n_input_strings,
    )
    mixed = np.einsum("cax,abxy->cbxy", kernel.q, flat)
    return Distribution(shape, mixed.reshape(shape.distribution_dims))


def deterministic_kernels(trusted_inputs: int) -> list[MixingKernel]:
    """All 4**m kernels whose entries are 0/1 (one per choice of map per input)."""
    identity = np.eye(2)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    const0 = np.array([[1.0, 1.0], [0.0, 0.0]])
    const1 = np.array([[0.0, 0.0], [1.0, 1.0]])
    base = (identity, flip, const0, const1)
    kernels = []
    for choice in product(base, repeat=trusted_inputs):
        kernels.append(MixingKernel.from_slices(choice))
    return kernels


def uniform_distribution(shape: ScenarioShape) -> Distribution:
    total_outputs = shape.trusted_outputs * shape.n_output_strings
    table = np.full(shape.distribution_dims, 1.0 / total_outputs)
    return Distribution(shape, table)


def deterministic_distribution(
    shape: ScenarioShape, trusted_responses, untrusted_responses
) -> Distribution:
    """Product deterministic behavior: a = f(x), b_i = g_i(y_i).

    ``trusted_responses[x]`` gives a; ``untrusted_responses[i][y_i]`` gives
    b_i for party i.
    """
    table = np.zeros(shape.distribution_dims)
    for x in range(shape.trusted_inputs):
        a = int(trusted_responses[x])
        for y in shape.input_strings():
            b = tuple(int(untrusted_responses[i][y[i]]) for i in range(shape.untrusted_parties))
            table[(a, *b, x, *y)] = 1.0
    return Distribution(shape, table)


def permute_untrusted_parties(
    inequality: BellInequality, order
) -> BellInequality:
    """Reindex the untrusted parties; new party j plays old party order[j]."""
    k = inequality.shape.untrusted_parties
    perm = tuple(int(p) for p in order)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"order must be a permutation of 0..{k - 1}")
    shape = inequality.shape
    new_shape = ScenarioShape(
        k,
        tuple(shape.inputs_per_party[p] for p in perm),
        tuple(shape.outputs_per_party[p] for p in perm),
        shape.trusted_inputs,
    )
    axes = (0, *(1 + p for p in perm), 1 + k, *(2 + k + p for p in perm))
    coeffs = np.ascontiguousarray(np.transpose(inequality.coefficients, axes))
    return BellInequality(new_shape, coeffs, inequality.local_bound, inequality.name)


# ---------------------------------------------------------------------------
# Built-in inequalities
# ---------------------------------------------------------------------------


def _chsh_tensor() -> np.ndarray:
    beta = np.zeros((2, 2, 2, 2))
    for a, b, x, y in np.ndindex(2, 2, 2, 2):
        beta[a, b, x, y] = (-1.0) ** (a + b) * (-1.0) ** (x * y)
    return beta


def build_chsh() -> BellInequality:
    """CHSH: beta = (-1)^(a+b) (-1)^(xy), local bound 2."""
    return BellInequality(CHSH_SHAPE, _chsh_tensor(), 2.0, name="chsh")


def chsh_symmetries() -> list[BellInequality]:
    """The 8 CHSH variants: input relabelings, overall sign flip, compositions.

    Every variant is normalized to the <= direction (a sign flip negates the
    tensor) and its bound is re-enumerated over deterministic strategies.
    """
    from .oracle import local_bound_enumerate  # oracle imports this module

    base = _chsh_tensor()
    variants = []
    for flip_x, flip_y, negate in product((False, True), repeat=3):
        coeffs = base
        tags = []
        if flip_x:
            coeffs = coeffs[:, :, ::-1, :]
            tags.append("xneg")
        if flip_y:
            coeffs = coeffs[:, :, :, ::-1]
            tags.append("yneg")
        if negate:
            coeffs = -coeffs
            tags.append("sign")
        name = "chsh" if not tags else "chsh/" + "+".join(tags)
        candidate = BellInequality(CHSH_SHAPE, np.ascontiguousarray(coeffs), 0.0, name)
        bound = local_bound_enumerate(candidate)
        variants.append(BellInequality(CHSH_SHAPE, candidate.coefficients, bound, name))
    return variants


def build_svetlichny() -> BellInequality:
    """Three-party Svetlichny inequality with its enumerated local bound.

    Coefficients are (-1)^(a+b1+b2) when (x, y1, y2) is (0,0,0) or (1,1,1)
    and (-1)^(a+b1+b2+1) otherwise.
    """
    from .oracle import local_bound_enumerate

    shape = ScenarioShape(2, (2, 2), (2, 2), 2)
    beta = np.zeros((2, 2, 2, 2, 2, 2))
    for a, b1, b2, x, y1, y2 in np.ndindex(*beta.shape):
        exponent = a + b1 + b2
        if (x, y1, y2) not in ((0, 0, 0), (1, 1, 1)):
            exponent += 1
        beta[a, b1, b2, x, y1, y2] = (-1.0) ** exponent
    candidate = BellInequality(shape, beta, 0.0, "svetlichny")
    bound = local_bound_enumerate(candidate)
    return BellInequality(shape, beta, bound, "svetlichny")


def build_chained_svetlichny(
    m: int, local_bound: float | None = None
) -> BellInequality:
    """Chained Svetlichny-like inequality for three parties with m inputs each.

    beta = (-1)^(a + b1 + b2 + floor((y2 + x)/m) + 1) * delta(y1, (y2+x) mod 2);
    the local bound is enumerated unless supplied (for m > 6 enumeration can
    be slow, so a warning is emitted before computing on demand).
    """
    from .oracle import local_bound_enumerate

    m = int(m)
    if m < 2:
        raise ValueError(f"chained inequality needs m >= 2, got {m}")
    shape = ScenarioShape(2, (m, m), (2, 2), m)
    beta = np.zeros((2, 2, 2, m, m, m))
    for a, b1, b2, x, y1, y2 in np.ndindex(*beta.shape):
        if y1 != (y2 + x) % 2:
            continue
        beta[a, b1, b2, x, y1, y2] = (-1.0) ** (a + b1 + b2 + (y2 + x) // m + 1)
    name = f"chained-svetlichny-{m}"
    if local_bound is None:
        if m > 6:
            warnings.warn(
                f"enumerating the local bound for m={m}; this may take a while",
                stacklevel=2,
            )
        local_bound = local_bound_enumerate(BellInequality(shape, beta, 0.0, name))
    return BellInequality(shape, beta, float(local_bound), name)


def build_reducible_chsh(weight: float = 0.5) -> BellInequality:
    """CHSH padded with a superfluous trusted input rewarding a = 0.

    A third trusted input carries coefficient ``weight`` on a = 0 only, for
    every (b, y).  The term is reducible, and violations of the combined
    inequality can grow under the mixing that pins the extra input's output
    to 0, so this inequality is certifiably not mixing stable.  Violating
    behaviors exist for 0 < weight < 2*sqrt(2) - 2.
    """
    from .oracle import local_bound_enumerate

    w = float(weight)
    if w <= 0.0:
        raise ValueError("weight must be positive")
    shape = ScenarioShape(1, (2,), (2,), 3)
    beta = np.zeros((2, 2, 3, 2))
    beta[:, :, :2, :] = _chsh_tensor()
    beta[0, :, 2, :] = w
    name = "reducible-chsh"
    bound = local_bound_enumerate(BellInequality(shape, beta, 0.0, name))
    return BellInequality(shape, beta, bound, name)


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
    *,
    increase_tol: float = 1e-9,
    max_trials: int | None = None,
) -> MixingStabilityReport:
    """Search for violations that grow under trusted-output mixing.

    Samples violating behaviors (optimal trusted measurements on random
    assemblages, plus convex blends with random local deterministic points)
    and applies every deterministic mixing kernel; by linearity of the mixing
    in the kernel, deterministic kernels suffice to detect any increase.  A
    found counterexample certifies the inequality is NOT mixing stable; a
    clean pass over ``samples`` violating behaviors is inconclusive.
    """
    from .criterion import distribution_from, evaluate
    from .sampling import random_assemblage, random_deterministic_distribution

    rng = np.random.default_rng(seed)
    shape = inequality.shape
    kernels = deterministic_kernels(shape.trusted_inputs)
    budget = max_trials if max_trials is not None else 60 * samples
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
                if mixed_value > value + increase_tol:
                    return MixingStabilityReport(
                        inequality.name,
                        samples,
                        violating,
                        trials,
                        MixingCounterexample(idx, value, mixed_value, dist, kernel),
                    )
    return MixingStabilityReport(inequality.name, samples, violating, trials, None)
