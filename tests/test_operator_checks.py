"""Checks on untrusted effect sets, trusted POVMs and the operator kernels.

Each rejection of ``UntrustedMeasurementSet`` and ``DichotomicPOVM`` is
pinned by its message fragment, and the stack kernels are compared with a
per-operator ``eigvalsh`` / entrywise reference written here.
"""

import numpy as np
import pytest

from bellcert import DichotomicPOVM, UntrustedMeasurementSet, qubit

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
MINUS = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex)
TRINE = tuple(np.diag(row).astype(complex) for row in np.eye(3))
THIRDS = (np.eye(2, dtype=complex) / 3,) * 3
RAISING = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


class TestUntrustedMeasurementSetRejections:
    @pytest.mark.parametrize(
        "effects, fragment",
        [
            (((),), "party 0 has no inputs"),
            ((((KET0, KET1), ()),), "party 0 input 1 has no effects"),
            ((((KET0, KET1), THIRDS),), "outcome count differs between inputs"),
            ((((np.ones((2, 3)), np.ones((2, 3))),),), "effects must be square"),
            ((((np.ones(2), np.ones(2)),),), "effects must be square"),
            ((((KET0, KET1), TRINE[:2]),), "inconsistent effect dimensions"),
            ((((KET0, KET1), (KET0, np.ones(2))),), "input 1: effects must be square"),
            ((((KET0, KET1),), ((KET0 + RAISING, KET1 - RAISING),)), "non-Hermitian effect"),
            (
                ((((KET0, KET1), (np.diag([1.2, 0.0]), np.diag([-0.2, 1.0]))),)),
                "effect has eigenvalue",
            ),
            (((TRINE, (TRINE[0], TRINE[1], 0.5 * TRINE[2])),), "do not sum to the identity"),
        ],
    )
    def test_rejection(self, effects, fragment):
        with pytest.raises(ValueError, match=fragment):
            UntrustedMeasurementSet(effects)

    def test_non_numeric_effect_is_not_a_dimension_fault(self):
        words = np.array([["x", "0"], ["0", "1"]])
        with pytest.raises(ValueError) as info:
            UntrustedMeasurementSet((((KET0, words),),))
        assert "dimension" not in str(info.value)

    def test_negative_eigenvalue_is_named_with_its_input(self):
        bad = (np.diag([1.2, 0.0]), np.diag([-0.2, 1.0]))
        with pytest.raises(ValueError, match=r"party 1 input 1: effect has eigenvalue -2\.000e-01"):
            UntrustedMeasurementSet((((KET0, KET1),), ((PLUS, MINUS), bad)))


class TestUntrustedMeasurementSetShape:
    @pytest.fixture
    def mixed(self):
        return UntrustedMeasurementSet(
            (((KET0, KET1), (PLUS, MINUS)), (TRINE, (TRINE[2], TRINE[0], TRINE[1]), TRINE))
        )

    def test_counts_and_dims(self, mixed):
        assert mixed.dims == (2, 3)
        assert mixed.inputs_per_party == (2, 3)
        assert mixed.outputs_per_party == (2, 3)

    def test_effects_index_party_input_outcome(self, mixed):
        assert np.array_equal(mixed.effects[0][1][0], PLUS)
        assert np.array_equal(mixed.effects[0][0][1], KET1)
        assert np.array_equal(mixed.effects[1][1][0], TRINE[2])
        assert np.array_equal(mixed.effects[1][2][2], TRINE[2])

    def test_effects_are_read_only_copies(self):
        first = KET0.copy()
        measurements = UntrustedMeasurementSet((((first, KET1),),))
        first[0, 0] = 0.5
        stored = measurements.effects[0][0][0]
        assert np.array_equal(stored, KET0)
        with pytest.raises(ValueError):
            stored[0, 0] = 0.5


class TestDichotomicPOVMChecks:
    def test_rejects_three_effects(self):
        with pytest.raises(ValueError, match="exactly two effects"):
            DichotomicPOVM(THIRDS)

    def test_rejects_a_qutrit_effect(self):
        with pytest.raises(ValueError, match="2x2"):
            DichotomicPOVM((TRINE[0], TRINE[1] + TRINE[2]))

    def test_rejects_a_non_hermitian_effect(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DichotomicPOVM((KET0 + RAISING, KET1 - RAISING))

    def test_rejects_a_negative_effect(self):
        with pytest.raises(ValueError, match="second effect has eigenvalue"):
            DichotomicPOVM((np.diag([1.0, 1.5]), np.diag([0.0, -0.5])))

    def test_rejects_an_incomplete_pair(self):
        with pytest.raises(ValueError, match="sum to identity"):
            DichotomicPOVM((KET0, 0.5 * KET1))

    def test_effects_are_read_only_and_do_not_alias(self):
        first, second = PLUS.copy(), MINUS.copy()
        povm = DichotomicPOVM((first, second))
        for stored, given in zip(povm.effects, (first, second)):
            assert not stored.flags.writeable
            assert not np.shares_memory(stored, given)
        first[0, 0] = 0.0
        assert np.array_equal(povm.effects[0], PLUS)


def random_stack(shape, dim, rng, hermitian):
    g = rng.normal(size=(*shape, dim, dim)) + 1j * rng.normal(size=(*shape, dim, dim))
    return g + g.conj().swapaxes(-1, -2) if hermitian else g


class TestStackKernels:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_min_eigenvalues_match_eigvalsh(self, dim, rng):
        ops = random_stack((4, 5), dim, rng, hermitian=True)
        expected = [[np.linalg.eigvalsh(op).min() for op in row] for row in ops]
        assert np.abs(qubit.min_eigenvalues(ops) - expected).max() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_hermiticity_defects_match_a_per_operator_max(self, dim, rng):
        ops = random_stack((4, 5), dim, rng, hermitian=False)
        expected = [[np.abs(op - op.conj().T).max() for op in row] for row in ops]
        assert np.abs(qubit.hermiticity_defects(ops) - expected).max() <= 1e-12

    def test_single_operator_gives_a_scalar(self):
        assert qubit.min_eigenvalues(np.diag([0.3, -0.2])) == pytest.approx(-0.2)
        assert qubit.hermiticity_defects(RAISING) == 1.0
