"""Seeded random generators for states, measurements, and assemblages.

Everything takes an explicit ``numpy.random.Generator`` so that test runs
and heuristics are reproducible from a single seed.
"""

from __future__ import annotations

from math import prod

import numpy as np

from . import qubit
from .assemblages import (
    Assemblage,
    ScenarioShape,
    UntrustedMeasurementSet,
    generate_from_state,
    singlet_state,
)
from .criterion import DichotomicPOVM
from .inequalities import Distribution, deterministic_distribution
from .steering import PauliTriple


def random_direction(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_density_matrix(
    dim: int, rng: np.random.Generator, *, pure: bool = False
) -> np.ndarray:
    if pure:
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_dichotomic_povm(rng: np.random.Generator) -> DichotomicPOVM:
    """Random POVM: eigenvalue pair uniform on [0,1]^2, random projector axis."""
    l0, l1 = rng.uniform(size=2)
    p0, p1 = qubit.direction_projectors(random_direction(rng))
    first = l0 * p0 + l1 * p1
    return DichotomicPOVM((first, np.eye(2, dtype=complex) - first))


def _random_qubit_povm(n_outcomes: int, rng: np.random.Generator):
    """Random complete n-outcome POVM on a qubit via Gram normalization."""
    while True:
        raw = []
        for _ in range(n_outcomes):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            raw.append(g @ g.conj().T)
        total = sum(raw)
        (lmax, lmin), (p0, p1) = qubit.eig2(total)
        if lmin < 1e-6:  # nearly singular normalizer; redraw
            continue
        inv_sqrt = p0 / np.sqrt(lmax) + p1 / np.sqrt(lmin)
        return [inv_sqrt @ g @ inv_sqrt for g in raw]


def random_untrusted_measurements(
    shape: ScenarioShape, rng: np.random.Generator
) -> UntrustedMeasurementSet:
    """Random qubit measurements matching the shape.

    Two-outcome parties get random projective axes; parties with more
    outcomes get random complete POVMs.
    """
    effects = []
    for party in range(shape.untrusted_parties):
        outputs = shape.outputs_per_party[party]
        per_input = []
        for _ in range(shape.inputs_per_party[party]):
            if outputs == 2:
                per_input.append(qubit.direction_projectors(random_direction(rng)))
            else:
                per_input.append(tuple(_random_qubit_povm(outputs, rng)))
        effects.append(tuple(per_input))
    return UntrustedMeasurementSet(tuple(effects))


def random_assemblage(
    shape: ScenarioShape,
    rng: np.random.Generator,
    *,
    pure: bool = False,
    planted: bool = False,
) -> Assemblage:
    """Random valid assemblage of the given shape (Born rule on a random state).

    ``planted`` uses the singlet with random measurement axes instead of a
    random state; only available for a single 2-output untrusted party, where
    it yields Bell-violating assemblages almost surely.
    """
    if planted:
        if shape.untrusted_parties != 1 or shape.outputs_per_party != (2,):
            raise ValueError("planted sampling needs one 2-output untrusted party")
        state = singlet_state()
    else:
        state = random_density_matrix(2 * prod([2] * shape.untrusted_parties), rng, pure=pure)
    measurements = random_untrusted_measurements(shape, rng)
    return generate_from_state(state, measurements, trusted_inputs=shape.trusted_inputs)


def random_deterministic_distribution(
    shape: ScenarioShape, rng: np.random.Generator
) -> Distribution:
    trusted = [int(rng.integers(2)) for _ in range(shape.trusted_inputs)]
    untrusted = [
        [int(rng.integers(shape.outputs_per_party[i])) for _ in range(shape.inputs_per_party[i])]
        for i in range(shape.untrusted_parties)
    ]
    return deterministic_distribution(shape, trusted, untrusted)


def random_pauli_triple(rng: np.random.Generator) -> PauliTriple:
    """Haar-ish random orthonormal right-handed triple."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[2] = -q[2]
    return PauliTriple(q)
