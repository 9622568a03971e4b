"""2x2 Hermitian operator arithmetic in the Bloch representation.

Everything acts on a single qubit in a globally fixed computational basis
{|0>, |1|>}; the Pauli matrices X, Y, Z always refer to that basis.  An
operator O is identified by its trace together with the Pauli trace triple
(Tr[OX], Tr[OY], Tr[OZ]).
"""

from __future__ import annotations

import numpy as np

from .tolerances import DEGENERATE_DIRECTION, HERMITICITY, POSITIVITY

IDENTITY = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

# Tr[O P] = sum_ij O_ij P_ji: a row-major flattened operator times the
# matching column of flattened transposed matrices, one column each for
# I, X, Y and Z
_PAULI_COLUMNS = np.stack([p.T.reshape(4) for p in (IDENTITY, *PAULIS)], axis=1)

for _m in (IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, _PAULI_COLUMNS):
    _m.setflags(write=False)


def require_hermitian(op) -> np.ndarray:
    """Return ``op`` as a 2x2 complex array, raising if it is not Hermitian."""
    arr = np.asarray(op, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("operator has non-finite entries")
    return require_hermitian_stack(arr)


def require_hermitian_stack(ops) -> np.ndarray:
    """Return ``ops`` as a (..., 2, 2) complex array, raising if any operator
    in it deviates from its adjoint by more than ``HERMITICITY`` in some
    entry."""
    arr = np.asarray(ops, dtype=complex)
    if arr.ndim < 2 or arr.shape[-2:] != (2, 2):
        raise ValueError(f"expected a stack of 2x2 operators, got shape {arr.shape}")
    # "not <=" also rejects the NaN deviation of a non-finite entry
    deviation = float(hermiticity_defects(arr).max(initial=0.0))
    if not deviation <= HERMITICITY:
        raise ValueError(
            f"operator is not Hermitian (deviation {deviation:.3e} exceeds "
            f"{HERMITICITY:.1e})"
        )
    return arr


def hermiticity_defects(ops) -> np.ndarray:
    """Largest entrywise |A - A^dagger| of each operator in a (..., d, d) stack."""
    arr = np.asarray(ops)
    return np.abs(arr - arr.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def min_eigenvalues(ops) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian operator in a (..., d, d) stack.

    Qubit operators (d = 2) use the closed form (tr - |r|)/2 with r the
    Pauli trace triple; other dimensions use ``np.linalg.eigvalsh``.
    """
    arr = np.asarray(ops, dtype=complex)
    if arr.shape[-2:] != (2, 2):
        return np.linalg.eigvalsh(arr)[..., 0]
    table = pauli_table(arr)
    return 0.5 * (table[..., 0] - np.linalg.norm(table[..., 1:], axis=-1))


def pauli_table(ops) -> np.ndarray:
    """(Tr O, Tr OX, Tr OY, Tr OZ) of each operator in a (..., 2, 2) stack.

    The result has shape (..., 4) and holds the real parts; Hermiticity is
    not checked here (the Bloch functions below are checked slices of it).
    Every entry is one rounded sum of two exact products, so the trace
    column equals the diagonal sum bit for bit.
    """
    arr = np.asarray(ops, dtype=complex)
    return (arr.reshape(*arr.shape[:-2], 4) @ _PAULI_COLUMNS).real


def bloch_vector(op) -> np.ndarray:
    """Pauli trace triple (Tr[OX], Tr[OY], Tr[OZ]) of a Hermitian operator."""
    return pauli_table(require_hermitian(op))[1:]


def bloch_stack(ops) -> np.ndarray:
    """Pauli trace triples of a stack of Hermitian operators.

    ``ops`` has shape (..., 2, 2); the result has shape (..., 3).  Raises
    ``ValueError`` if any operator in the stack deviates from its adjoint by
    more than the Hermiticity tolerance in some entry.
    """
    return pauli_table(require_hermitian_stack(ops))[..., 1:]


def from_bloch(trace: float, r) -> np.ndarray:
    """Hermitian operator (1/2)(trace*I + r . sigma) with Bloch vector ``r``."""
    x, y, z = (float(c) for c in r)
    t = float(trace)
    return 0.5 * np.array(
        [[t + z, x - 1j * y], [x + 1j * y, t - z]], dtype=complex
    )


def eig2(op):
    """Closed-form eigendecomposition of a 2x2 Hermitian operator.

    Returns ``((lmax, lmin), (p0, p1))`` with eigenvalues in descending order
    and rank-1 orthogonal projectors satisfying ``lmax*p0 + lmin*p1 == op``.
    Degenerate spectra (Bloch norm at most ``DEGENERATE_DIRECTION``)
    deterministically fall back to the computational-basis projectors.
    """
    table = pauli_table(require_hermitian(op))
    trace, r = table[0], table[1:]
    gap = float(np.linalg.norm(r))
    lmax = 0.5 * (trace + gap)
    lmin = 0.5 * (trace - gap)
    if gap <= DEGENERATE_DIRECTION:
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    else:
        axis = r / gap
        p0 = from_bloch(1.0, axis)
        p1 = from_bloch(1.0, -axis)
    return (lmax, lmin), (p0, p1)


def psd_check(op, tol: float = POSITIVITY) -> bool:
    """True iff both eigenvalues of the Hermitian ``op`` are >= -tol."""
    return bool(min_eigenvalues(require_hermitian(op)) >= -tol)


def direction_projectors(direction) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the +1/-1 eigenstates of ``direction . sigma``."""
    d = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(d))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, got norm {norm!r}")
    return from_bloch(1.0, d), from_bloch(1.0, -d)
