"""Correlator steering functionals and their relation to the CHSH fast path.

For a bipartite 2-output assemblage the correlator of a trusted Pauli axis A
with the untrusted observable B_y is computable entirely from the members:
<A B_y> = r(sum_b (-1)^b sigma_{b|y}) . v_A.  The two-axis functional
(bounded by 2 for unsteerable assemblages) uses two of the three axes of an
orthonormal triple; extending the sums to all three axes makes the value
basis independent and equal to the CHSH fast-path lhs, and choosing the
triple so its first two axes span the plane of the two optimal vectors makes
the two- and three-axis values coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qubit
from .assemblages import Assemblage, require_chsh_shape
from .criterion import chsh_directions
from .tolerances import DEGENERATE_DIRECTION

_AXES = np.eye(3)


@dataclass(eq=False)
class PauliTriple:
    """Three orthonormal Bloch directions defining rotated Pauli operators."""

    directions: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.directions, dtype=float)
        if arr.shape != (3, 3):
            raise ValueError(f"expected three 3-vectors, got shape {arr.shape}")
        gram_defect = float(np.abs(arr @ arr.T - np.eye(3)).max())
        if gram_defect > 1e-9:
            raise ValueError(
                f"directions are not orthonormal (defect {gram_defect:.3e})"
            )
        arr.setflags(write=False)
        self.directions = arr

    @property
    def right_handed(self) -> bool:
        return float(np.linalg.det(self.directions)) > 0.0

    @classmethod
    def computational(cls) -> "PauliTriple":
        return cls(np.eye(3))

    def operators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rotated Pauli operators v_alpha . sigma."""
        return tuple(qubit.from_bloch(0.0, 2.0 * v) for v in self.directions)


def correlator(assemblage: Assemblage, direction, y: int) -> float:
    """<A B_y> = sum_b (-1)^b Tr[sigma_{b|y} A] for A along a unit direction."""
    shape = assemblage.shape
    if shape.untrusted_parties != 1 or shape.outputs_per_party != (2,):
        raise ValueError("correlators need a single 2-output untrusted party")
    if not 0 <= y < shape.inputs_per_party[0]:
        raise ValueError(f"input {y} out of range")
    v = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, got norm {norm!r}")
    return float(_correlator_vectors(assemblage)[y] @ v)


def _correlator_vectors(assemblage: Assemblage) -> np.ndarray:
    """r(sigma_{0|y}) - r(sigma_{1|y}) for every input y, one row each."""
    blochs = qubit.bloch_stack(assemblage.stacked_members())
    return blochs[0] - blochs[1]


def two_axis_steering_lhs(assemblage: Assemblage, basis: PauliTriple) -> float:
    """Correlator functional over the first two axes of ``basis``.

    sqrt(sum_x <A_x (B_0 + B_1)>^2) + sqrt(sum_x <A_x (B_0 - B_1)>^2) with
    x over axes 0 and 1.  A value above 2 certifies steering and implies a
    CHSH violation.
    """
    return _axis_sum(assemblage, basis.directions[:2])


def three_axis_steering_lhs(assemblage: Assemblage, basis: PauliTriple) -> float:
    """Same functional over all three axes; basis independent and equal to
    the CHSH fast-path lhs."""
    return _axis_sum(assemblage, basis.directions)


def _axis_sum(assemblage: Assemblage, axes: np.ndarray) -> float:
    require_chsh_shape(assemblage.shape, "steering functionals need")
    correlators = axes @ _correlator_vectors(assemblage).T
    plus = correlators[:, 0] + correlators[:, 1]
    minus = correlators[:, 0] - correlators[:, 1]
    return float(np.sqrt(np.sum(plus**2)) + np.sqrt(np.sum(minus**2)))


def optimal_steering_basis(assemblage: Assemblage) -> PauliTriple:
    """Triple whose first two axes span the plane of the optimal vectors.

    With that choice the two-axis functional loses nothing to the dropped
    axis and equals the three-axis value.  Degenerate cases (norms at most
    ``DEGENERATE_DIRECTION``) resolve deterministically: both vectors (near)
    zero gives the computational triple; collinear vectors keep the common
    line as the first axis and complete the plane with the smallest-index
    computational axis that is not collinear with it.  No component is -0.0.
    """
    t = chsh_directions(assemblage)
    t0, t1 = t[0], t[1]
    normal = np.cross(t0, t1)
    normal_norm = float(np.linalg.norm(normal))
    scale = max(1.0, float(np.linalg.norm(t0)) * float(np.linalg.norm(t1)))
    if normal_norm > DEGENERATE_DIRECTION * scale:
        v0 = t0 / np.linalg.norm(t0)
        v2 = normal / normal_norm
        return _triple(v0, np.cross(v2, v0), v2)
    lead = t0 if np.linalg.norm(t0) > DEGENERATE_DIRECTION else t1
    if float(np.linalg.norm(lead)) <= DEGENERATE_DIRECTION:
        return PauliTriple.computational()
    v0 = lead / np.linalg.norm(lead)
    for axis in _AXES:
        if float(np.linalg.norm(np.cross(v0, axis))) > DEGENERATE_DIRECTION:
            raw = axis - (axis @ v0) * v0
            v1 = raw / np.linalg.norm(raw)
            return _triple(v0, v1, np.cross(v0, v1))
    raise AssertionError("unreachable: a unit vector cannot be collinear with all axes")


def _triple(*rows: np.ndarray) -> PauliTriple:
    return PauliTriple(np.vstack(rows) + 0.0)  # normalizes -0.0
