"""Linear Bell inequalities, behaviors, and trusted-output mixing.

A Bell inequality is a dense real coefficient tensor beta indexed by
(a, b_1..b_k, x, y_1..y_k) together with a local bound, stored so that the
inequality always reads ``beta . P <= local_bound``.  Built-in constructors
cover CHSH (with its 8 relabeling/sign symmetries), the three-party
Svetlichny inequality, its chained m-input generalization, and a reducible
demonstration inequality whose violations can grow under output mixing.
Their local bounds come from :func:`local_bound_enumerate`, the exact
maximum over local deterministic strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

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
    the local bound is enumerated unless supplied.
    """
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
