"""Independent reference for the benchmark's checks (numpy only).

Nothing here imports ``bellcert``.  Every quantity is computed from the
global state and explicit measurement directions:

- Born-rule probabilities P(o_1..o_N | s_1..s_N) for N qubits, each party
  measuring the projective observable ``d . sigma`` (outcome 0 is the +1
  eigenvalue), with party 0 the trusted qubit;
- the paper's closed form: a constant term plus, per trusted input x, the
  norm of the Bloch vector of sum_{b,y} (1/2)(beta_0bxy - beta_1bxy)
  sigma_{b|y}, with the steered members taken from the state directly;
- the local bound by brute force over every deterministic strategy of every
  party, the trusted one included, vectorised over the strategies;
- the coefficient tensors of CHSH, Svetlichny, the chained inequality and
  the N-party Mermin inequality, laid out as (a, b_1..b_k, x, y_1..y_k).
"""

from __future__ import annotations

import string
from itertools import product
from math import sqrt

import numpy as np

IDENTITY = np.eye(2, dtype=complex)
PAULIS = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


# ---------------------------------------------------------------------------
# States and directions
# ---------------------------------------------------------------------------


def ket_density(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def singlet() -> np.ndarray:
    return ket_density([0, 1, -1, 0])


def werner(v: float) -> np.ndarray:
    return v * singlet() + (1.0 - v) * np.eye(4) / 4.0


def ghz(n: int) -> np.ndarray:
    psi = np.zeros(2**n)
    psi[0] = psi[-1] = 1.0
    return ket_density(psi)


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Density matrix of rank 1 or 2 from Gaussian vectors, so both violating
    and non-violating assemblages occur."""
    dim = 2**n_qubits
    rank = int(rng.integers(1, 3))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_directions(count: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def equator(angles) -> np.ndarray:
    a = np.asarray(angles, dtype=float)
    return np.stack([np.cos(a), np.sin(a), np.zeros_like(a)], axis=-1)


def bloch(op) -> np.ndarray:
    """(Tr[O X], Tr[O Y], Tr[O Z]) for a stack of 2x2 operators."""
    return np.einsum("...ij,cji->...c", np.asarray(op), PAULIS).real


def projectors(directions) -> np.ndarray:
    """Shape (inputs, 2, 2, 2): the +1 and -1 eigenprojectors per direction."""
    d = np.asarray(directions, dtype=float)
    dsigma = np.einsum("sc,cij->sij", d, PAULIS)
    return 0.5 * (IDENTITY + np.stack([dsigma, -dsigma], axis=1))


# ---------------------------------------------------------------------------
# Born rule and closed form
# ---------------------------------------------------------------------------

_LETTERS = string.ascii_letters


def born_table(state, directions) -> np.ndarray:
    """P(o_1..o_N | s_1..s_N) with party p measuring along directions[p][s_p].

    ``directions[p]`` has shape (inputs of party p, 3).  The result has shape
    (2,)*N + (inputs,)*N, the layout of a Bell coefficient tensor.
    """
    n = len(directions)
    rho = np.asarray(state, dtype=complex).reshape((2,) * (2 * n))
    ket, bra = _LETTERS[:n], _LETTERS[n : 2 * n]
    outs, ins = _LETTERS[2 * n : 3 * n], _LETTERS[3 * n : 4 * n]
    operands = [rho]
    terms = [ket + bra]
    for p, d in enumerate(directions):
        operands.append(projectors(d))
        terms.append(ins[p] + outs[p] + bra[p] + ket[p])
    spec = ",".join(terms) + "->" + outs + ins
    return np.einsum(spec, *operands, optimize="greedy").real


def bell_value(beta, state, directions) -> float:
    return float(np.sum(np.asarray(beta) * born_table(state, directions)))


def sampled_values(beta, state, trusted_samples, untrusted) -> np.ndarray:
    """Born-rule values for K trusted measurement sets at once.

    ``trusted_samples`` has shape (K, m, 3); the K*m directions are measured
    as one trusted party with K*m inputs, then regrouped per sample.
    """
    k, m, _ = trusted_samples.shape
    table = born_table(state, [trusted_samples.reshape(k * m, 3), *untrusted])
    n = len(untrusted) + 1
    table = table.reshape(table.shape[:n] + (k, m) + table.shape[n + 1 :])
    beta = np.asarray(beta)
    axes = tuple(range(n)) + tuple(range(n + 1, n + 1 + n))
    return np.tensordot(table, beta, axes=(axes, tuple(range(2 * n))))


def steered_members(state, untrusted) -> np.ndarray:
    """sigma_{b|y} on the trusted qubit, shape (2,)*k + (inputs,)*k + (2, 2)."""
    k = len(untrusted)
    n = k + 1
    rho = np.asarray(state, dtype=complex).reshape((2,) * (2 * n))
    ket, bra = _LETTERS[:n], _LETTERS[n : 2 * n]
    outs, ins = _LETTERS[2 * n : 3 * n], _LETTERS[3 * n : 4 * n]
    operands = [rho]
    terms = [ket + bra]
    for p, d in enumerate(untrusted, start=1):
        operands.append(projectors(d))
        terms.append(ins[p] + outs[p] + bra[p] + ket[p])
    spec = ",".join(terms) + "->" + outs[1:] + ins[1:] + ket[0] + bra[0]
    return np.einsum(spec, *operands, optimize="greedy")


def closed_form(beta, members) -> tuple[float, np.ndarray]:
    """(lhs, optimal Bloch vector per trusted input) from the members."""
    beta = np.asarray(beta)
    k = (beta.ndim - 2) // 2
    m = beta.shape[1 + k]
    n_b = int(np.prod(beta.shape[1 : 1 + k]))
    n_y = int(np.prod(beta.shape[2 + k :]))
    flat = beta.reshape(2, n_b, m, n_y)
    sig = np.asarray(members).reshape(n_b, n_y, 2, 2)
    traces = np.einsum("byii->by", sig).real
    constant = 0.5 * float(np.einsum("abxy,by->", flat, traces))
    vectors = np.einsum("bxy,byc->xc", 0.5 * (flat[0] - flat[1]), bloch(sig))
    return constant + float(np.linalg.norm(vectors, axis=1).sum()), vectors


# ---------------------------------------------------------------------------
# Local bound by brute force
# ---------------------------------------------------------------------------


def local_bound(beta) -> float:
    """max of beta . P over every product of deterministic response functions.

    Each party's functions f: input -> output are one-hot tensors
    D[f, o, s]; contracting them into beta one party at a time leaves the
    value of every joint strategy, whose maximum is the bound.
    """
    beta = np.asarray(beta, dtype=float)
    n = beta.ndim // 2
    values = beta
    for p in range(n):
        outputs, inputs = beta.shape[p], beta.shape[n + p]
        functions = np.array(list(product(range(outputs), repeat=inputs)))
        onehot = (functions[:, None, :] == np.arange(outputs)[None, :, None])
        # values keeps the strategy axes of earlier parties first; party p's
        # output and input axes sit after them at offsets p and n.
        values = np.tensordot(onehot.astype(float), values, axes=([1, 2], [p, n]))
        values = np.moveaxis(values, 0, p)
    return float(values.max())


# ---------------------------------------------------------------------------
# Coefficient tensors
# ---------------------------------------------------------------------------


def chsh() -> np.ndarray:
    beta = np.zeros((2, 2, 2, 2))
    for a, b, x, y in product(range(2), repeat=4):
        beta[a, b, x, y] = (-1.0) ** (a + b + x * y)
    return beta


def svetlichny() -> np.ndarray:
    beta = np.zeros((2,) * 6)
    for a, b1, b2, x, y1, y2 in product(range(2), repeat=6):
        sign = 1 if (x, y1, y2) in ((0, 0, 0), (1, 1, 1)) else -1
        beta[a, b1, b2, x, y1, y2] = sign * (-1.0) ** (a + b1 + b2)
    return beta


def chained(m: int) -> np.ndarray:
    """(-1)^(a+b1+b2+floor((y2+x)/m)+1) where y1 = (y2+x) mod 2, else 0."""
    beta = np.zeros((2, 2, 2, m, m, m))
    for a, b1, b2, x, y1, y2 in product(range(2), range(2), range(2), range(m), range(m), range(m)):
        if y1 == (y2 + x) % 2:
            beta[a, b1, b2, x, y1, y2] = (-1.0) ** (a + b1 + b2 + (y2 + x) // m + 1)
    return beta


def mermin(n: int) -> np.ndarray:
    """Re prod_j (A_j^0 + i A_j^1) for n parties, party 0 trusted.

    The term of an input string with k ones is (-1)^(k/2) times the
    correlator when k is even and absent when k is odd.
    """
    beta = np.zeros((2,) * (2 * n))
    for outs in product(range(2), repeat=n):
        for ins in product(range(2), repeat=n):
            k = sum(ins)
            if k % 2 == 0:
                beta[outs + ins] = (-1.0) ** (k // 2 + sum(outs))
    return beta


def mermin_quantum_value(n: int) -> float:
    return float(2 ** (n - 1))


def mermin_local_bound(n: int) -> float:
    return float(2 ** (n // 2))


def werner_chsh_value(v: float) -> float:
    return 2.0 * sqrt(2.0) * v


WERNER_THRESHOLD = 1.0 / sqrt(2.0)
ZX = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def ghz_untrusted(deltas) -> list[np.ndarray]:
    """Equator directions (delta_p, delta_p + 90 degrees) per untrusted party."""
    return [equator([d, d + np.pi / 2]) for d in deltas]


def ghz_trusted(deltas) -> np.ndarray:
    """Trusted equator directions that realise the Mermin value 2^(N-1)."""
    shift = -float(np.sum(deltas))
    return equator([shift, shift + np.pi / 2])
