"""The dense assemblage core against member-by-member references.

Generation is checked against the Kronecker-product Born rule, validation
against a per-member eigenvalue check, and the storage for read-only
views; the references are written here, independently of the package.
"""

from functools import reduce
from itertools import product
from math import prod

import numpy as np
import pytest

from bellcert import (
    Assemblage,
    ScenarioShape,
    UntrustedMeasurementSet,
    build_chsh,
    builtin_assemblage,
    chsh_fast,
    evaluate,
    generate_from_state,
    validate,
)
from bellcert import qubit
from bellcert.sampling import (
    random_assemblage,
    random_density_matrix,
    random_untrusted_measurements,
)

from conftest import TWO_TWO


def kron_reference(rho, measurements):
    """sigma_{b|y} = Tr_U[(I (x) M_{b1|y1} (x) ... ) rho], one Kronecker
    product per member."""
    dims = measurements.dims
    untrusted = prod(dims)
    members = {}
    for b in product(*(range(o) for o in measurements.outputs_per_party)):
        for y in product(*(range(m) for m in measurements.inputs_per_party)):
            joint = reduce(
                np.kron, [measurements.effects[p][y[p]][b[p]] for p in range(len(dims))]
            )
            applied = (np.kron(np.eye(2), joint) @ rho).reshape(2, untrusted, 2, untrusted)
            members[(b, y)] = np.trace(applied, axis1=1, axis2=3)
    return members


def random_basis_measurement(dim, inputs, rng):
    """Projective measurements in random orthonormal bases of C^dim."""
    per_input = []
    for _ in range(inputs):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(g)
        per_input.append(tuple(np.outer(q[:, k], q[:, k].conj()) for k in range(dim)))
    return tuple(per_input)


QUBIT_SHAPES = [
    ScenarioShape(1, (2,), (2,), 2),
    ScenarioShape(1, (3,), (3,), 2),
    ScenarioShape(2, (1, 3), (2, 2), 2),
    ScenarioShape(2, (2, 3), (3, 2), 2),
    ScenarioShape(3, (3, 1, 2), (2, 2, 2), 2),
]


class TestGenerationMatchesKroneckerBornRule:
    @pytest.mark.parametrize("shape", QUBIT_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_random_mixed_states_on_qubit_parties(self, shape, seed):
        rng = np.random.default_rng([seed, shape.untrusted_parties, shape.n_input_strings])
        measurements = random_untrusted_measurements(shape, rng)
        rho = random_density_matrix(2 * 2**shape.untrusted_parties, rng)
        assemblage = generate_from_state(rho, measurements)
        assert assemblage.shape == shape
        for key, expected in kron_reference(rho, measurements).items():
            assert np.abs(assemblage.members[key] - expected).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_qutrit_party_among_qubits(self, seed):
        rng = np.random.default_rng([seed, 3])
        qubit_shape = ScenarioShape(2, (2, 1), (2, 2), 2)
        qubits = random_untrusted_measurements(qubit_shape, rng).effects
        effects = (qubits[0], random_basis_measurement(3, 3, rng), qubits[1])
        measurements = UntrustedMeasurementSet(effects)
        assert measurements.dims == (2, 3, 2)
        rho = random_density_matrix(2 * 12, rng)
        assemblage = generate_from_state(rho, measurements, trusted_inputs=3)
        assert assemblage.shape == ScenarioShape(3, (2, 3, 1), (2, 3, 2), 3)
        for key, expected in kron_reference(rho, measurements).items():
            assert np.abs(assemblage.members[key] - expected).max() <= 1e-12
        assert validate(assemblage, strict_no_signaling=True) == []


def reference_findings(assemblage, strict):
    """Findings of a member-by-member check at the default tolerances."""
    shape = assemblage.shape
    found = []
    for b in shape.output_strings():
        for y in shape.input_strings():
            op = assemblage.member(b, y)
            defect = float(np.abs(op - op.conj().T).max())
            if defect > 1e-12:
                found.append(("hermiticity", b, y, defect))
                continue
            lmin = float(np.linalg.eigvalsh(0.5 * (op + op.conj().T)).min())
            if lmin < -1e-9:
                found.append(("positivity", b, y, -lmin))
    for y in shape.input_strings():
        total = sum(assemblage.conditional_probability(b, y) for b in shape.output_strings())
        if abs(total - 1.0) > 1e-9:
            found.append(("normalization", None, y, abs(total - 1.0)))
    if strict:
        inputs = list(shape.input_strings())
        first = assemblage.reduced_state(inputs[0])
        for y in inputs[1:]:
            deviation = float(np.abs(assemblage.reduced_state(y) - first).max())
            if deviation > 1e-9:
                found.append(("no-signaling", None, y, deviation))
    return found


# its Hermitian part has a negative eigenvalue too
NON_HERMITIAN_AND_NEGATIVE = np.array([[0.2, 0.5], [0.0, -0.3]], dtype=complex)


def plant(op, kind, rng):
    if kind == "non-hermitian":
        op = op.copy()
        op[0, 1] += 1e-3 * (1 + rng.uniform())
        return op
    if kind == "non-hermitian-and-negative":
        return NON_HERMITIAN_AND_NEGATIVE
    if kind == "negative":
        return op - (0.05 + rng.uniform(0.0, 0.1)) * np.eye(2)
    if kind == "unnormalized":
        return (1.0 + rng.uniform(0.1, 0.5)) * op
    if kind == "signaling":
        # trace-preserving, so only the reduced state moves
        return op + 0.01 * qubit.PAULI_Z
    raise AssertionError(kind)


KINDS = ("non-hermitian", "non-hermitian-and-negative", "negative", "unnormalized", "signaling")


class TestValidateMatchesPerMemberReference:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("strict", [False, True])
    def test_planted_defects(self, seed, strict):
        rng = np.random.default_rng([seed, 7])
        shape = ScenarioShape(2, (2, 3), (2, 2), 2)
        members = dict(random_assemblage(shape, rng).members)
        keys = list(members)
        for index in rng.choice(len(keys), size=4, replace=False):
            kind = KINDS[int(rng.integers(len(KINDS)))]
            members[keys[index]] = plant(members[keys[index]], kind, rng)
        assemblage = Assemblage(shape, members)
        got = [(f.kind, f.b, f.y, f.magnitude) for f in validate(assemblage, strict)]
        expected = reference_findings(assemblage, strict)
        assert [g[:3] for g in got] == [e[:3] for e in expected]
        for g, e in zip(got, expected):
            assert g[3] == pytest.approx(e[3], rel=1e-9, abs=1e-12)
        assert got  # every seed plants at least one reportable defect

    def test_non_hermitian_member_gets_no_positivity_check(self):
        members = dict(builtin_assemblage("uniform-noise").members)
        members[((1,), (0,))] = NON_HERMITIAN_AND_NEGATIVE
        findings = validate(Assemblage(TWO_TWO, members))
        assert [(f.kind, f.b, f.y) for f in findings] == [
            ("hermiticity", (1,), (0,)),
            ("normalization", None, (0,)),
        ]


class TestStorage:
    def test_stacked_members_and_member_views_are_read_only(self):
        assemblage = builtin_assemblage("ghz-3")
        stacked = assemblage.stacked_members()
        assert stacked.shape == (4, 4, 2, 2)
        assert not stacked.flags.writeable
        with pytest.raises(ValueError):
            stacked[0, 0, 0, 0] = 1.0
        assert assemblage.stacked_members() is stacked
        for i, b in enumerate(assemblage.shape.output_strings()):
            for j, y in enumerate(assemblage.shape.input_strings()):
                view = assemblage.members[(b, y)]
                assert not view.flags.writeable
                assert np.shares_memory(view, stacked)
                assert np.array_equal(view, stacked[i, j])
                with pytest.raises(ValueError):
                    view[1, 1] = 1.0

    def test_constructor_copies_its_input(self):
        members = {key: np.array(op) for key, op in builtin_assemblage("singlet-ZX").members.items()}
        assemblage = Assemblage(TWO_TWO, members)
        before = assemblage.stacked_members().copy()
        members[((0,), (0,))][0, 0] = 7.0
        assert np.array_equal(assemblage.stacked_members(), before)

    def test_structural_errors_keep_their_messages(self):
        members = dict(builtin_assemblage("uniform-noise").members)
        members[((1,), (1,))] = np.eye(3)
        with pytest.raises(ValueError, match=r"member \(\(1,\), \(1,\)\) is not a 2x2 operator"):
            Assemblage(TWO_TWO, members)
        members[((1,), (1,))] = np.array([[np.nan, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match=r"member \(\(1,\), \(1,\)\) has non-finite entries"):
            Assemblage(TWO_TWO, members)
        with np.errstate(invalid="ignore"):  # inf * 0 off the diagonal
            with pytest.raises(ValueError, match=r"member \(\(0,\), \(0,\)\) has non-finite"):
                builtin_assemblage("uniform-noise").scaled(np.inf)


class TestBlochKernel:
    def test_bloch_stack_matches_bloch_vector(self, rng):
        ops = random_assemblage(ScenarioShape(2, (2, 2), (2, 2), 2), rng).stacked_members()
        blochs = qubit.bloch_stack(ops)
        assert blochs.shape == (4, 4, 3)
        for i, j in np.ndindex(4, 4):
            assert np.abs(blochs[i, j] - qubit.bloch_vector(ops[i, j])).max() <= 1e-15

    def test_bloch_stack_rejects_any_non_hermitian_operator(self):
        ops = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]).astype(complex)
        with pytest.raises(ValueError, match="Hermitian"):
            qubit.bloch_stack(ops)
        with pytest.raises(ValueError, match="2x2"):
            qubit.bloch_stack(np.eye(3))

    def test_evaluate_rejects_a_non_hermitian_member(self):
        members = dict(builtin_assemblage("singlet-ZX").members)
        members[((1,), (1,))] = members[((1,), (1,))] + np.array([[0.0, 1e-3], [0.0, 0.0]])
        assemblage = Assemblage(TWO_TWO, members)
        with pytest.raises(ValueError, match="Hermitian"):
            evaluate(assemblage, build_chsh())
        with pytest.raises(ValueError, match="Hermitian"):
            chsh_fast(assemblage)


def test_ghz8_builds_valid_with_maximally_mixed_reduced_states():
    assemblage = builtin_assemblage("ghz-8")
    assert assemblage.stacked_members().shape == (2**7, 2**7, 2, 2)
    assert validate(assemblage, strict_no_signaling=True) == []
    reduced = assemblage.stacked_members().sum(axis=0)
    assert np.abs(reduced - np.eye(2) / 2).max() <= 1e-12
