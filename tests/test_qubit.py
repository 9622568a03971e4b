import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcert import qubit
from bellcert.sampling import random_density_matrix

from conftest import assert_operators_close

SQRT2 = np.sqrt(2.0)

finite_reals = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
bloch_components = st.tuples(finite_reals, finite_reals, finite_reals)


class TestBlochVector:
    def test_identity_is_traceless_against_paulis(self):
        assert np.allclose(qubit.bloch_vector(np.eye(2)), [0.0, 0.0, 0.0])

    def test_projector_onto_zero_points_along_z(self):
        proj = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(qubit.bloch_vector(proj), [0.0, 0.0, 1.0])

    def test_diagonal_xz_state(self):
        # (1/2)(I + (X+Z)/sqrt(2)) has Bloch vector (1/sqrt2, 0, 1/sqrt2)
        op = 0.5 * (np.eye(2) + (qubit.PAULI_X + qubit.PAULI_Z) / SQRT2)
        assert np.allclose(qubit.bloch_vector(op), [1 / SQRT2, 0.0, 1 / SQRT2])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            qubit.bloch_vector(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            qubit.bloch_vector(np.eye(3))


class TestFromBloch:
    def test_identity(self):
        assert_operators_close(qubit.from_bloch(2.0, (0, 0, 0)), np.eye(2))

    def test_projector_onto_zero(self):
        assert_operators_close(
            qubit.from_bloch(1.0, (0, 0, 1)), [[1.0, 0.0], [0.0, 0.0]]
        )

    def test_plus_x_projector(self):
        assert_operators_close(
            qubit.from_bloch(1.0, (1, 0, 0)), [[0.5, 0.5], [0.5, 0.5]]
        )

    @given(trace=finite_reals, r=bloch_components)
    @settings(max_examples=150)
    def test_round_trip(self, trace, r):
        op = qubit.from_bloch(trace, r)
        assert np.allclose(qubit.bloch_vector(op), r, atol=1e-12)
        assert abs(np.trace(op).real - trace) <= 1e-12
        rebuilt = qubit.from_bloch(np.trace(op).real, qubit.bloch_vector(op))
        assert_operators_close(rebuilt, op)

    @given(
        alpha=finite_reals,
        beta=finite_reals,
        ra=bloch_components,
        rb=bloch_components,
        ta=finite_reals,
        tb=finite_reals,
    )
    @settings(max_examples=100)
    def test_linearity(self, alpha, beta, ra, rb, ta, tb):
        op_a = qubit.from_bloch(ta, ra)
        op_b = qubit.from_bloch(tb, rb)
        combined = qubit.bloch_vector(alpha * op_a + beta * op_b)
        expected = alpha * qubit.bloch_vector(op_a) + beta * qubit.bloch_vector(op_b)
        assert np.allclose(combined, expected, atol=1e-9)


class TestEig2:
    def test_degenerate_uses_computational_projectors(self):
        (l0, l1), (p0, p1) = qubit.eig2(0.5 * np.eye(2))
        assert l0 == pytest.approx(0.5) and l1 == pytest.approx(0.5)
        assert_operators_close(p0, [[1, 0], [0, 0]])
        assert_operators_close(p1, [[0, 0], [0, 1]])

    def test_pauli_z_spectrum(self):
        (l0, l1), (p0, p1) = qubit.eig2(qubit.PAULI_Z)
        assert (l0, l1) == (1.0, -1.0)
        assert_operators_close(p0, [[1, 0], [0, 0]])
        assert_operators_close(p1, [[0, 0], [0, 1]])

    def test_unit_bloch_norm_gives_rank_one(self):
        op = qubit.from_bloch(1.0, (0.6, 0.0, 0.8))
        (l0, l1), (p0, p1) = qubit.eig2(op)
        assert l0 == pytest.approx(1.0) and l1 == pytest.approx(0.0, abs=1e-12)
        assert_operators_close(l0 * p0 + l1 * p1, op)

    @given(trace=finite_reals, r=bloch_components)
    @settings(max_examples=150)
    def test_reconstruction_and_orthogonality(self, trace, r):
        op = qubit.from_bloch(trace, r)
        (l0, l1), (p0, p1) = qubit.eig2(op)
        assert l0 >= l1
        assert_operators_close(l0 * p0 + l1 * p1, op, atol=1e-10)
        assert_operators_close(p0 + p1, np.eye(2), atol=1e-12)
        assert_operators_close(p0 @ p1, np.zeros((2, 2)), atol=1e-12)
        assert_operators_close(p0 @ p0, p0, atol=1e-12)


class TestPsdCheck:
    def test_identity_is_psd(self):
        assert qubit.psd_check(np.eye(2), 1e-9)

    def test_negative_identity_is_not(self):
        assert not qubit.psd_check(-np.eye(2), 1e-9)

    def test_overlong_bloch_vector_is_not(self):
        # min eigenvalue (1 - 1.2)/2 = -0.1
        assert not qubit.psd_check(qubit.from_bloch(1.0, (0, 0, 1.2)), 1e-9)


def test_density_matrix_bloch_norm_bounded(rng):
    for _ in range(50):
        rho = random_density_matrix(2, rng)
        assert np.linalg.norm(qubit.bloch_vector(rho)) <= 1.0 + 1e-9


def test_direction_projectors_requires_unit_vector():
    with pytest.raises(ValueError, match="unit"):
        qubit.direction_projectors((1.0, 1.0, 0.0))


def test_direction_projectors_rejects_a_nan_direction():
    with pytest.raises(ValueError, match="unit vector, got norm nan"):
        qubit.direction_projectors([np.nan, np.nan, np.nan])
