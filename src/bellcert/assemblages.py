"""Assemblages: indexed families of steered (subnormalized) qubit states.

An assemblage collects, for every untrusted input string y and output string
b, the operator sigma_{b|y} = P(b|y) * rho_{b|y} on the trusted qubit.  This
module provides the data model, physical validation, Born-rule generation
from an explicit global state, and a handful of canonical built-ins.

Index convention: output/input strings are tuples with party 1 first (most
significant when flattened row-major).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod

import numpy as np

from . import qubit
from .tolerances import (
    HERMITICITY,
    NO_SIGNALING,
    NORMALIZATION,
    POSITIVITY,
    RECONSTRUCTION,
)

MemberKey = tuple[tuple[int, ...], tuple[int, ...]]

# generate_from_state's einsum gives each untrusted party four of its 52
# labels and the trusted qubit two
MAX_UNTRUSTED_PARTIES = 12


@dataclass(frozen=True)
class ScenarioShape:
    """Input/output counts for one trusted qubit plus N-1 untrusted parties."""

    untrusted_parties: int
    inputs_per_party: tuple[int, ...]
    outputs_per_party: tuple[int, ...]
    trusted_inputs: int
    trusted_outputs: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "inputs_per_party", tuple(int(v) for v in self.inputs_per_party)
        )
        object.__setattr__(
            self, "outputs_per_party", tuple(int(v) for v in self.outputs_per_party)
        )
        if self.untrusted_parties < 1:
            raise ValueError("at least one untrusted party is required")
        if len(self.inputs_per_party) != self.untrusted_parties:
            raise ValueError("inputs_per_party length must match untrusted_parties")
        if len(self.outputs_per_party) != self.untrusted_parties:
            raise ValueError("outputs_per_party length must match untrusted_parties")
        if any(m < 1 for m in self.inputs_per_party):
            raise ValueError("every party needs at least one input")
        if any(o < 1 for o in self.outputs_per_party):
            raise ValueError("every party needs at least one output")
        if self.trusted_inputs < 1:
            raise ValueError("the trusted party needs at least one input")
        if self.trusted_outputs != 2:
            raise ValueError("the trusted party is dichotomic (exactly 2 outputs)")

    def output_strings(self):
        return product(*(range(o) for o in self.outputs_per_party))

    def input_strings(self):
        return product(*(range(m) for m in self.inputs_per_party))

    @property
    def n_output_strings(self) -> int:
        return prod(self.outputs_per_party)

    @property
    def n_input_strings(self) -> int:
        return prod(self.inputs_per_party)

    @property
    def distribution_dims(self) -> tuple[int, ...]:
        return (
            self.trusted_outputs,
            *self.outputs_per_party,
            self.trusted_inputs,
            *self.inputs_per_party,
        )


# the bipartite scenario with two inputs and two outputs per party (CHSH's)
CHSH_SHAPE = ScenarioShape(1, (2,), (2,), 2)


def require_chsh_shape(shape: ScenarioShape, needs: str) -> None:
    """Raise ``ValueError`` unless ``shape`` is :data:`CHSH_SHAPE`; the
    message starts with ``needs`` (what the caller needs it for)."""
    if shape != CHSH_SHAPE:
        raise ValueError(
            f"{needs} a bipartite 2-input/2-output assemblage, got {shape}"
        )


@dataclass(frozen=True)
class Violation:
    """One validation finding: which invariant failed, where, and by how much."""

    kind: str
    b: tuple[int, ...] | None
    y: tuple[int, ...] | None
    magnitude: float

    def __str__(self) -> str:
        where = []
        if self.b is not None:
            where.append("b=" + ",".join(map(str, self.b)))
        if self.y is not None:
            where.append("y=" + ",".join(map(str, self.y)))
        loc = f" at {'|'.join(where)}" if where else ""
        return f"{self.kind}{loc}: magnitude {self.magnitude:.3e}"


class Assemblage:
    """Immutable map from (output string, input string) to a 2x2 operator.

    The members are stored as one read-only complex array of shape
    (#b strings, #y strings, 2, 2), strings in row-major order;
    :attr:`members` is a dict of read-only views into it, built on first
    use.  The constructor enforces structure only (complete key set, 2x2
    finite complex entries); physical invariants are reported by
    :func:`validate` so that defective assemblages can be held and diagnosed.
    """

    def __init__(self, shape: ScenarioShape, members: dict[MemberKey, np.ndarray]):
        # list the shape's strings only while that costs at most twice the members given
        count = shape.n_output_strings * shape.n_input_strings
        if count > 2 * len(members):
            raise ValueError(f"member keys do not match shape (got {len(members)}, need {count})")
        expected = {
            (b, y) for b in shape.output_strings() for y in shape.input_strings()
        }
        got = set(members)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ValueError(
                f"member keys do not match shape (missing {missing[:3]}, extra {extra[:3]})"
            )
        stacked = np.empty(
            (shape.n_output_strings, shape.n_input_strings, 2, 2), dtype=complex
        )
        for i, b in enumerate(shape.output_strings()):
            for j, y in enumerate(shape.input_strings()):
                arr = np.asarray(members[(b, y)], dtype=complex)
                if arr.shape != (2, 2):
                    raise ValueError(f"member {(b, y)} is not a 2x2 operator")
                stacked[i, j] = arr
        self._store(shape, stacked)

    @classmethod
    def _from_stacked(cls, shape: ScenarioShape, stacked: np.ndarray) -> "Assemblage":
        """Take ownership of a dense (#b, #y, 2, 2) complex array as storage."""
        assemblage = cls.__new__(cls)
        assemblage._store(shape, stacked)
        return assemblage

    def _store(self, shape: ScenarioShape, stacked: np.ndarray) -> None:
        finite = np.isfinite(stacked).all(axis=(2, 3))
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            key = (_string(i, shape.outputs_per_party), _string(j, shape.inputs_per_party))
            raise ValueError(f"member {key} has non-finite entries")
        stacked.setflags(write=False)
        self.shape = shape
        self._stacked = stacked

    @cached_property
    def pauli_table(self) -> np.ndarray:
        """Read-only (Tr, Tr X, Tr Y, Tr Z) of every member, shape (#b, #y, 4),
        which every Bell functional reads.  A non-Hermitian member raises
        ``ValueError`` on each read, since a failed read caches nothing."""
        table = qubit.pauli_table(qubit.require_hermitian_stack(self._stacked))
        table.setflags(write=False)
        return table

    @cached_property
    def members(self) -> dict[MemberKey, np.ndarray]:
        return {
            (b, y): self._stacked[i, j]
            for i, b in enumerate(self.shape.output_strings())
            for j, y in enumerate(self.shape.input_strings())
        }

    def member(self, b, y) -> np.ndarray:
        key = (tuple(int(v) for v in b), tuple(int(v) for v in y))
        try:
            return self.members[key]
        except KeyError:
            raise IndexError(f"no member for b={key[0]}, y={key[1]}") from None

    def conditional_probability(self, b, y) -> float:
        """P(b|y) = Tr[sigma_{b|y}]."""
        return float(np.trace(self.member(b, y)).real)

    def stacked_members(self) -> np.ndarray:
        """The read-only storage array, shape (#b strings, #y strings, 2, 2)."""
        return self._stacked

    def trace_table(self) -> np.ndarray:
        """P(b|y) for every member, shaped (#b strings, #y strings)."""
        return np.einsum("byii->by", self._stacked).real

    def reduced_state(self, y) -> np.ndarray:
        """Trusted-side operator sum_b sigma_{b|y} for one input string."""
        yt = tuple(int(v) for v in y)
        return sum(self.members[(b, yt)] for b in self.shape.output_strings())

    def scaled(self, factor: float) -> "Assemblage":
        return Assemblage._from_stacked(self.shape, factor * self._stacked)


def _string(index: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    """The output or input string at a row-major position of the storage."""
    return tuple(int(v) for v in np.unravel_index(index, dims))


def validate(
    assemblage: Assemblage,
    strict_no_signaling: bool = False,
    *,
    hermiticity_tol: float = HERMITICITY,
    positivity_tol: float = POSITIVITY,
    normalization_tol: float = NORMALIZATION,
    no_signaling_tol: float = NO_SIGNALING,
) -> list[Violation]:
    """Diagnose physical invariants; returns an empty list iff all hold.

    Member findings come first, in row-major (b, y) order: a member that is
    not Hermitian is reported as such and not checked for positivity, whose
    magnitude is -lambda_min = (|r| - tr)/2 of the member's Hermitian part.
    Per-input normalization findings follow, then no-signaling findings.
    The latter are included only under ``strict_no_signaling``; the
    certification formulas are well defined without that property, so by
    default it is surfaced separately (the CLI prints it as a warning).
    """
    shape = assemblage.shape
    stacked = assemblage.stacked_members()
    defects = qubit.hermiticity_defects(stacked)
    lmin = qubit.min_eigenvalues(0.5 * (stacked + stacked.conj().swapaxes(-1, -2)))
    non_hermitian = defects > hermiticity_tol
    non_positive = ~non_hermitian & (lmin < -positivity_tol)

    outputs, inputs = shape.outputs_per_party, shape.inputs_per_party
    findings: list[Violation] = []
    for i, j in np.argwhere(non_hermitian | non_positive):
        b, y = _string(i, outputs), _string(j, inputs)
        if non_hermitian[i, j]:
            findings.append(Violation("hermiticity", b, y, float(defects[i, j])))
        else:
            findings.append(Violation("positivity", b, y, float(-lmin[i, j])))
    errors = np.abs(assemblage.trace_table().sum(axis=0) - 1.0)
    for j in np.flatnonzero(errors > normalization_tol):
        findings.append(
            Violation("normalization", None, _string(j, inputs), float(errors[j]))
        )
    if strict_no_signaling:
        deviations = _no_signaling_deviations(assemblage)
        for j in np.flatnonzero(deviations[1:] > no_signaling_tol) + 1:
            findings.append(
                Violation("no-signaling", None, _string(j, inputs), float(deviations[j]))
            )
    return findings


def _no_signaling_deviations(assemblage: Assemblage) -> np.ndarray:
    """Per input string, the largest entrywise difference between its reduced
    state sum_b sigma_{b|y} and that of the first input string."""
    reduced = assemblage.stacked_members().sum(axis=0)
    return np.abs(reduced - reduced[0]).max(axis=(1, 2))


def no_signaling_deviation(assemblage: Assemblage) -> float:
    """Largest entrywise spread of sum_b sigma_{b|y} across input strings."""
    return float(_no_signaling_deviations(assemblage).max())


@dataclass(eq=False)
class UntrustedMeasurementSet:
    """Per party and per input, a complete list of PSD effects.

    ``effects[party]`` is a read-only (inputs, outcomes, d, d) array, so
    ``effects[party][input][outcome]`` is one d x d effect; every input of a
    party has the same outcome count and its effects sum to the identity.
    """

    effects: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        self.effects = tuple(
            _effect_stack(p, per_input) for p, per_input in enumerate(self.effects)
        )

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(stack.shape[-1] for stack in self.effects)

    @property
    def inputs_per_party(self) -> tuple[int, ...]:
        return tuple(stack.shape[0] for stack in self.effects)

    @property
    def outputs_per_party(self) -> tuple[int, ...]:
        return tuple(stack.shape[1] for stack in self.effects)

    @classmethod
    def from_directions(cls, directions) -> "UntrustedMeasurementSet":
        """Projective qubit measurements from unit Bloch directions.

        ``directions[party][input]`` is a 3-vector; each becomes the +/-
        projector pair along that axis.
        """
        effects = tuple(
            tuple(qubit.direction_projectors(d) for d in per_party)
            for per_party in directions
        )
        return cls(effects)


def _effect_stack(p: int, per_input) -> np.ndarray:
    """One party's effects as a checked read-only (inputs, outcomes, d, d) array."""
    if len(per_input) == 0:
        raise ValueError(f"party {p} has no inputs")
    counts = [len(effect_list) for effect_list in per_input]
    if 0 in counts:
        raise ValueError(f"party {p} input {counts.index(0)} has no effects")
    if len(set(counts)) > 1:
        raise ValueError(f"party {p}: outcome count differs between inputs")
    shapes = [np.shape(e) for effect_list in per_input for e in effect_list]
    square = [len(sh) == 2 and sh[0] == sh[1] for sh in shapes]
    if not all(square):
        yi = square.index(False) // counts[0]
        raise ValueError(f"party {p} input {yi}: effects must be square")
    if len(set(shapes)) > 1:
        raise ValueError(f"party {p}: inconsistent effect dimensions")
    stack = np.array(per_input, dtype=complex)
    # "not <=" also rejects the NaN deviation of a non-finite entry
    non_hermitian = ~(qubit.hermiticity_defects(stack) <= HERMITICITY)
    if non_hermitian.any():
        yi = np.argwhere(non_hermitian)[0, 0]
        raise ValueError(f"party {p} input {yi}: non-Hermitian effect")
    lmin = qubit.min_eigenvalues(stack)
    if (lmin < -POSITIVITY).any():
        yi, bi = np.argwhere(lmin < -POSITIVITY)[0]
        raise ValueError(f"party {p} input {yi}: effect has eigenvalue {lmin[yi, bi]:.3e}")
    identity = np.eye(stack.shape[-1])
    incomplete = np.abs(stack.sum(axis=1) - identity).max(axis=(1, 2)) > RECONSTRUCTION
    if incomplete.any():
        raise ValueError(
            f"party {p} input {np.argmax(incomplete)}: effects do not sum to the identity"
        )
    stack.setflags(write=False)
    return stack


def generate_from_state(
    state,
    measurements: UntrustedMeasurementSet,
    trusted_inputs: int = 2,
) -> Assemblage:
    """Born-rule assemblage from an explicit global state.

    ``state`` lives on trusted qubit (first factor) tensor the untrusted
    parties in order; member (b, y) is the partial trace over the untrusted
    parties of (I (x) M^1_{b1|y1} (x) ...) applied to the state.

    Parameters
    ----------
    state : array
        Density matrix of dimension 2 * prod(party dims); must be Hermitian,
        unit trace, and PSD within tolerance.
    measurements : UntrustedMeasurementSet
        One complete measurement per untrusted party and input.
    trusted_inputs : int
        Number of trusted-side settings recorded in the shape metadata.
    """
    rho = np.asarray(state, dtype=complex)
    dims = measurements.dims
    total_dim = 2 * prod(dims)
    if rho.shape != (total_dim, total_dim):
        raise ValueError(
            f"state has shape {rho.shape}, expected ({total_dim}, {total_dim}) "
            f"for untrusted dimensions {dims}"
        )
    if not qubit.hermiticity_defects(rho) <= 1e-9:
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > NORMALIZATION:
        raise ValueError(f"state trace is {np.trace(rho).real!r}, expected 1")
    if qubit.min_eigenvalues(rho) < -POSITIVITY:
        raise ValueError("state is not positive semidefinite")

    shape = ScenarioShape(
        untrusted_parties=len(dims),
        inputs_per_party=measurements.inputs_per_party,
        outputs_per_party=measurements.outputs_per_party,
        trusted_inputs=trusted_inputs,
    )
    # Labels: trusted row/column s, t; party p's row/column legs a_p, c_p and
    # its output/input b_p, y_p.  sigma_{b|y}[s, t] =
    # sum rho[s a.., t c..] prod_p M^p_{b_p|y_p}[c_p, a_p].
    k = len(dims)
    if k > MAX_UNTRUSTED_PARTIES:
        raise ValueError(
            f"generation supports at most {MAX_UNTRUSTED_PARTIES} untrusted parties, got {k}"
        )
    s_, t_ = 0, 1
    a = range(2, 2 + k)
    c = range(2 + k, 2 + 2 * k)
    b = range(2 + 2 * k, 2 + 3 * k)
    y = range(2 + 3 * k, 2 + 4 * k)
    operands = [rho.reshape(2, *dims, 2, *dims), [s_, *a, t_, *c]]
    for p in range(k):
        operands += [measurements.effects[p], [y[p], b[p], c[p], a[p]]]
    stacked = np.empty(
        (shape.n_output_strings, shape.n_input_strings, 2, 2), dtype=complex
    )
    out = stacked.reshape(*shape.outputs_per_party, *shape.inputs_per_party, 2, 2)
    # contract the state with one party's effects at a time
    path = ["einsum_path", *((0, k - p) for p in range(k))]
    np.einsum(*operands, [*b, *y, s_, t_], out=out, optimize=path)
    return Assemblage._from_stacked(shape, stacked)


# ---------------------------------------------------------------------------
# Canonical states and built-in assemblages
# ---------------------------------------------------------------------------

Z_DIRECTION = (0.0, 0.0, 1.0)
X_DIRECTION = (1.0, 0.0, 0.0)


def singlet_state() -> np.ndarray:
    """Two-qubit singlet (|01> - |10>)/sqrt(2) as an exact density matrix."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = rho[2, 1] = -0.5
    return rho


def ghz_state(n_parties: int) -> np.ndarray:
    """n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2) as a density matrix.

    ``n_parties`` is at most ``MAX_UNTRUSTED_PARTIES + 1``, the most
    :func:`generate_from_state` takes, and is checked before allocating.
    """
    if n_parties < 2:
        raise ValueError("a GHZ state needs at least 2 parties")
    if n_parties - 1 > MAX_UNTRUSTED_PARTIES:
        raise ValueError(
            f"a GHZ state of {n_parties} parties has {n_parties - 1} untrusted "
            f"parties; generation supports at most {MAX_UNTRUSTED_PARTIES}"
        )
    dim = 2**n_parties
    rho = np.zeros((dim, dim), dtype=complex)
    for i in (0, dim - 1):
        for j in (0, dim - 1):
            rho[i, j] = 0.5
    return rho


def werner_state(visibility: float) -> np.ndarray:
    """Convex mixture v * singlet + (1 - v) * I/4."""
    v = float(visibility)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    return v * singlet_state() + (1.0 - v) * np.eye(4, dtype=complex) / 4.0


def zx_measurements(n_parties: int = 1) -> UntrustedMeasurementSet:
    """Each untrusted party measures Z on input 0 and X on input 1."""
    return UntrustedMeasurementSet.from_directions(
        [[Z_DIRECTION, X_DIRECTION]] * n_parties
    )


def xy_plane_measurements(angles_per_party) -> UntrustedMeasurementSet:
    """Projective measurements along (cos a, sin a, 0) for given angles.

    ``angles_per_party[party]`` is the list of equator angles (radians), one
    per input of that party.
    """
    directions = [
        [(float(np.cos(a)), float(np.sin(a)), 0.0) for a in angles]
        for angles in angles_per_party
    ]
    return UntrustedMeasurementSet.from_directions(directions)


BUILTIN_ASSEMBLAGE_NAMES = ("uniform-noise", "singlet-ZX", "werner-ZX", "ghz-N")


def builtin_assemblage(name: str, **params) -> Assemblage:
    """Canonical test assemblages addressable by name.

    Supported names: ``uniform-noise``, ``singlet-ZX``, ``werner-ZX``
    (needs ``visibility``), and ``ghz-<N>`` (GHZ state of N parties total,
    every untrusted party measuring Z on input 0 and X on input 1).
    """
    if name == "uniform-noise":
        _reject_params(name, params)
        members = {
            ((b,), (y,)): np.eye(2, dtype=complex) / 4.0
            for b in range(2)
            for y in range(2)
        }
        return Assemblage(CHSH_SHAPE, members)
    if name == "singlet-ZX":
        _reject_params(name, params)
        return generate_from_state(singlet_state(), zx_measurements())
    if name == "werner-ZX":
        visibility = params.pop("visibility", None)
        _reject_params(name, params)
        if visibility is None:
            raise ValueError("werner-ZX needs a visibility parameter")
        return generate_from_state(werner_state(visibility), zx_measurements())
    if name.startswith("ghz-"):
        _reject_params(name, params)
        try:
            n = int(name[len("ghz-") :])
        except ValueError:
            raise ValueError(f"malformed GHZ assemblage name {name!r}") from None
        if n < 3:
            raise ValueError("ghz-N needs at least 3 parties (2 untrusted)")
        return generate_from_state(ghz_state(n), zx_measurements(n - 1))
    raise ValueError(
        f"unknown built-in assemblage {name!r}; expected one of "
        f"{', '.join(BUILTIN_ASSEMBLAGE_NAMES)}"
    )


def _reject_params(name: str, params: dict) -> None:
    if params:
        raise ValueError(f"unexpected parameters for {name!r}: {sorted(params)}")
