import numpy as np
import pytest

from bellcert import (
    Assemblage,
    PauliTriple,
    builtin_assemblage,
    chsh_fast,
    correlator,
    optimal_steering_basis,
    three_axis_steering_lhs,
    two_axis_steering_lhs,
)
from bellcert.qubit import from_bloch
from bellcert.sampling import random_assemblage, random_pauli_triple

from conftest import TWO_TWO

SQRT2 = np.sqrt(2.0)

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])


def basis(v0, v1, v2):
    return PauliTriple(np.vstack([v0, v1, v2]))


class TestCorrelator:
    def test_singlet_z_anticorrelation(self):
        a = builtin_assemblage("singlet-ZX")
        assert correlator(a, Z_HAT, 0) == pytest.approx(-1.0)

    def test_singlet_cross_basis_vanishes(self):
        a = builtin_assemblage("singlet-ZX")
        assert correlator(a, Z_HAT, 1) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_noise_has_no_correlations(self, rng):
        a = builtin_assemblage("uniform-noise")
        for _ in range(5):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            for y in range(2):
                assert correlator(a, direction, y) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_unit_direction(self):
        a = builtin_assemblage("singlet-ZX")
        with pytest.raises(ValueError, match="unit"):
            correlator(a, (1.0, 1.0, 0.0), 0)

    def test_rejects_a_nan_direction(self):
        a = builtin_assemblage("singlet-ZX")
        with pytest.raises(ValueError, match="unit vector, got norm nan"):
            correlator(a, (np.nan, 0.0, 0.0), 0)

    def test_rejects_bad_input_index(self):
        a = builtin_assemblage("singlet-ZX")
        with pytest.raises(ValueError, match="out of range"):
            correlator(a, Z_HAT, 2)


class TestTwoAxis:
    def test_singlet_in_the_xz_plane_reaches_tsirelson(self):
        a = builtin_assemblage("singlet-ZX")
        value = two_axis_steering_lhs(a, basis(X_HAT, Z_HAT, Y_HAT))
        assert value == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_singlet_in_the_xy_plane_loses_the_z_component(self):
        a = builtin_assemblage("singlet-ZX")
        value = two_axis_steering_lhs(a, basis(X_HAT, Y_HAT, Z_HAT))
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_uniform_noise_vanishes(self, rng):
        a = builtin_assemblage("uniform-noise")
        assert two_axis_steering_lhs(a, random_pauli_triple(rng)) == pytest.approx(
            0.0, abs=1e-12
        )


class TestThreeAxis:
    def test_singlet_value_for_any_basis(self, rng):
        a = builtin_assemblage("singlet-ZX")
        for _ in range(10):
            value = three_axis_steering_lhs(a, random_pauli_triple(rng))
            assert value == pytest.approx(2 * SQRT2, abs=1e-10)

    def test_werner_scaling(self, rng):
        a = builtin_assemblage("werner-ZX", visibility=0.5)
        value = three_axis_steering_lhs(a, random_pauli_triple(rng))
        assert value == pytest.approx(SQRT2, abs=1e-10)

    def test_equals_the_fast_path(self, rng):
        for _ in range(15):
            a = random_assemblage(TWO_TWO, rng)
            value = three_axis_steering_lhs(a, random_pauli_triple(rng))
            assert value == pytest.approx(chsh_fast(a).lhs_value, abs=1e-10)

    def test_dominates_the_two_axis_value(self, rng):
        for _ in range(15):
            a = random_assemblage(TWO_TWO, rng)
            triple = random_pauli_triple(rng)
            assert two_axis_steering_lhs(a, triple) <= three_axis_steering_lhs(
                a, triple
            ) + 1e-12


class TestProjectionIdentity:
    def test_two_axis_equals_projected_norms(self, rng):
        from bellcert import chsh_directions

        for _ in range(10):
            a = random_assemblage(TWO_TWO, rng)
            triple = random_pauli_triple(rng)
            t = chsh_directions(a)
            plane = triple.directions[:2]
            expected = sum(np.linalg.norm(plane @ t[x]) for x in range(2))
            assert two_axis_steering_lhs(a, triple) == pytest.approx(
                expected, abs=1e-12
            )


class TestOptimalBasis:
    def test_singlet_plane_normal_is_y(self):
        a = builtin_assemblage("singlet-ZX")
        triple = optimal_steering_basis(a)
        assert abs(abs(triple.directions[2] @ Y_HAT) - 1.0) < 1e-12
        assert triple.right_handed

    def test_equality_at_the_optimal_basis(self, rng):
        for _ in range(15):
            a = random_assemblage(TWO_TWO, rng)
            triple = optimal_steering_basis(a)
            two = two_axis_steering_lhs(a, triple)
            three = three_axis_steering_lhs(a, triple)
            assert two == pytest.approx(three, abs=1e-10)

    def test_degenerate_case_returns_computational_triple(self):
        triple = optimal_steering_basis(builtin_assemblage("uniform-noise"))
        assert np.array_equal(triple.directions, np.eye(3))

    def test_collinear_case_keeps_the_common_line(self):
        # members (1/4)(I + (-1)^b w_y . sigma) give t_0 = w_0 + w_1, t_1 = w_0 - w_1
        w0 = np.array([0.45, 0.0, 0.0])
        w1 = np.array([0.15, 0.0, 0.0])
        members = {}
        for b in range(2):
            for y, w in ((0, w0), (1, w1)):
                members[((b,), (y,))] = from_bloch(0.5, (-1.0) ** b * w / 2.0)
        a = Assemblage(TWO_TWO, members)
        triple = optimal_steering_basis(a)
        assert np.allclose(np.abs(triple.directions[0]), [1.0, 0.0, 0.0])
        assert two_axis_steering_lhs(a, triple) == pytest.approx(
            three_axis_steering_lhs(a, triple), abs=1e-12
        )

    def test_one_sided_degenerate_case(self):
        # same measurement on both inputs: t_1 = 0, t_0 along -2z
        members = {}
        for b in range(2):
            for y in range(2):
                members[((b,), (y,))] = from_bloch(0.5, (0.0, 0.0, -((-1.0) ** b) / 2.0))
        a = Assemblage(TWO_TWO, members)
        triple = optimal_steering_basis(a)
        assert np.allclose(np.abs(triple.directions[0]), [0.0, 0.0, 1.0])
        assert two_axis_steering_lhs(a, triple) == pytest.approx(
            three_axis_steering_lhs(a, triple), abs=1e-12
        )


class TestPauliTriple:
    def test_rejects_non_orthonormal_rows(self):
        with pytest.raises(ValueError, match="orthonormal"):
            PauliTriple(np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 0, 1.0]]))

    def test_rejects_nan_rows(self):
        with pytest.raises(ValueError, match="orthonormal"):
            PauliTriple([[np.nan] * 3] * 3)

    def test_handedness_flag(self):
        assert basis(X_HAT, Y_HAT, Z_HAT).right_handed
        assert not basis(X_HAT, Z_HAT, Y_HAT).right_handed

    def test_operators_square_to_identity(self, rng):
        triple = random_pauli_triple(rng)
        for op in triple.operators():
            assert np.allclose(op @ op, np.eye(2), atol=1e-12)

    def test_wrong_shape_for_steering_functionals(self):
        a = builtin_assemblage("ghz-3")
        with pytest.raises(ValueError):
            two_axis_steering_lhs(a, PauliTriple.computational())
