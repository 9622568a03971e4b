"""The one functional kernel: Pauli tables of beta-weighted member sums.

Every Bell functional reads K[a, x] = pauli_table(D_{a,x}) with
D_{a,x} = sum_{b,y} beta[a, b, x, y] sigma_{b|y}; these tests hold the
kernel and its readers against loops and Born-rule values written here.
"""

import numpy as np
import pytest

from bellcert import (
    Assemblage,
    BellInequality,
    DichotomicPOVM,
    ScenarioShape,
    bell_value,
    build_chsh,
    builtin_assemblage,
    chsh_fast,
    distribution_from,
    evaluate,
    max_violation_search,
    optimal_direction,
    qubit,
)
from bellcert.criterion import pauli_contraction
from bellcert.oracle import _direction, _projective_score, _score
from bellcert.sampling import random_assemblage, random_dichotomic_povm

OPERATORS = (qubit.IDENTITY, qubit.PAULI_X, qubit.PAULI_Y, qubit.PAULI_Z)


def _shapes(count=20, seed=11):
    rng = np.random.default_rng(seed)
    shapes = []
    for i in range(count):
        parties = 1 + i % 3
        shapes.append(
            ScenarioShape(
                parties,
                tuple(int(v) for v in rng.integers(1, 4, size=parties)),
                tuple(int(v) for v in rng.integers(2, 4, size=parties)),
                1 + (i // 3) % 3,
            )
        )
    return shapes


SHAPES = _shapes()


def _per_member_table(assemblage, beta):
    """K[a, x] summed member by member, one Pauli trace at a time."""
    s = assemblage.shape
    table = np.zeros((2, s.trusted_inputs, 4))
    for (b, y), member in assemblage.members.items():
        traces = np.array([np.trace(member @ op).real for op in OPERATORS])
        for a in range(2):
            for x in range(s.trusted_inputs):
                table[a, x] += beta[(a, *b, x, *y)] * traces
    return table


def _case(shape, seed):
    rng = np.random.default_rng(seed)
    assemblage = random_assemblage(shape, rng)
    beta = rng.normal(size=shape.distribution_dims)
    return assemblage, BellInequality(shape, beta, 0.0), rng


def test_shapes_cover_parties_outputs_and_trusted_inputs():
    assert {s.untrusted_parties for s in SHAPES} == {1, 2, 3}
    assert {o for s in SHAPES for o in s.outputs_per_party} == {2, 3}
    assert {s.trusted_inputs for s in SHAPES} == {1, 2, 3}
    assert {m for s in SHAPES for m in s.inputs_per_party} == {1, 2, 3}


@pytest.mark.parametrize("index", range(len(SHAPES)))
def test_contraction_matches_a_per_member_loop(index):
    assemblage, inequality, _ = _case(SHAPES[index], index)
    expected = _per_member_table(assemblage, inequality.coefficients)
    got = pauli_contraction(assemblage, inequality.coefficients)
    assert got.shape == (2, SHAPES[index].trusted_inputs, 4)
    assert np.abs(got - expected).max() <= 1e-12

    report = evaluate(assemblage, inequality)
    assert report.constant_term == pytest.approx(0.5 * expected[..., 0].sum(), abs=1e-12)
    directions = 0.5 * (expected[0, :, 1:] - expected[1, :, 1:])
    assert np.abs(report.opt_directions - directions).max() <= 1e-12
    for x in range(SHAPES[index].trusted_inputs):
        assert np.abs(optimal_direction(assemblage, inequality, x) - directions[x]).max() <= 1e-12


def _per_input_born_values(assemblage, inequality, measurements):
    """Born value of the functional restricted to each trusted input."""
    distribution = distribution_from(assemblage, measurements)
    values = []
    for x in range(inequality.shape.trusted_inputs):
        at_x = (slice(None),) * (1 + inequality.shape.untrusted_parties) + (x,)
        beta = np.zeros_like(inequality.coefficients)
        beta[at_x] = inequality.coefficients[at_x]
        values.append(bell_value(BellInequality(inequality.shape, beta, 0.0), distribution))
    return np.array(values)


@pytest.mark.parametrize("index", range(0, len(SHAPES), 3))
def test_grid_scores_are_born_values(index):
    assemblage, inequality, rng = _case(SHAPES[index], 100 + index)
    table = pauli_contraction(assemblage, inequality.coefficients)
    for _ in range(5):
        angles = rng.uniform([0.0, 0.0], [np.pi, 2 * np.pi], size=(table.shape[1], 2))
        measurements = [DichotomicPOVM.from_direction(_direction(t, p)) for t, p in angles]
        born = _per_input_born_values(assemblage, inequality, measurements)
        for x, (theta, phi) in enumerate(angles):
            constant = 0.5 * (table[0, x, 0] + table[1, x, 0])
            spread = table[0, x, 1:] - table[1, x, 1:]
            assert _projective_score(theta, phi, constant, spread) == pytest.approx(
                born[x], abs=1e-12
            )


@pytest.mark.parametrize("index", range(1, len(SHAPES), 3))
def test_povm_scores_are_born_values(index):
    assemblage, inequality, rng = _case(SHAPES[index], 200 + index)
    table = pauli_contraction(assemblage, inequality.coefficients)
    for _ in range(5):
        measurements = [random_dichotomic_povm(rng) for _ in range(table.shape[1])]
        born = _per_input_born_values(assemblage, inequality, measurements)
        for x, povm in enumerate(measurements):
            assert _score(povm.effects, table[:, x]) == pytest.approx(born[x], abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_chsh_fast_equals_evaluate_on_chsh(seed):
    rng = np.random.default_rng(300 + seed)
    assemblage = random_assemblage(ScenarioShape(1, (2,), (2,), 2), rng, planted=seed % 2 == 0)
    fast = chsh_fast(assemblage)
    general = evaluate(assemblage, build_chsh())
    assert fast.constant_term == 0.0
    assert general.constant_term == pytest.approx(0.0, abs=1e-12)
    assert fast.lhs_value == pytest.approx(general.lhs_value, abs=1e-12)
    assert np.abs(fast.opt_directions - general.opt_directions).max() <= 1e-12
    assert fast.violated == general.violated


def test_a_non_hermitian_member_is_rejected_even_at_zero_weight():
    members = dict(builtin_assemblage("singlet-ZX").members)
    members[((1,), (1,))] = members[((1,), (1,))] + np.array([[0.0, 1e-3], [0.0, 0.0]])
    assemblage = Assemblage(ScenarioShape(1, (2,), (2,), 2), members)
    chsh = build_chsh()
    beta = np.array(chsh.coefficients)
    beta[:, 1, :, 1] = 0.0  # the defective member carries no weight
    inequality = BellInequality(chsh.shape, beta, 2.0)
    with pytest.raises(ValueError, match="Hermitian"):
        evaluate(assemblage, inequality)
    with pytest.raises(ValueError, match="Hermitian"):
        max_violation_search(assemblage, inequality)


def test_trace_column_is_the_diagonal_sum_bit_for_bit():
    rng = np.random.default_rng(5)
    ops = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
    ops *= rng.choice([1e-9, 1.0, 1e7], size=(500, 1, 1))
    table = qubit.pauli_table(ops)
    assert table.shape == (500, 4)
    assert np.array_equal(table[:, 0], np.einsum("nii->n", ops).real)
    hermitian = ops + ops.conj().swapaxes(-1, -2)
    assert np.array_equal(qubit.bloch_stack(hermitian), qubit.pauli_table(hermitian)[:, 1:])
