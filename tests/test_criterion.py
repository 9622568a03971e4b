import numpy as np
import pytest

from bellcert import (
    Assemblage,
    DichotomicPOVM,
    ScenarioShape,
    apply_local_mixing,
    bell_value,
    build_chsh,
    build_reducible_chsh,
    builtin_assemblage,
    chsh_fast,
    chsh_symmetries,
    distribution_from,
    evaluate,
    generate_from_state,
    optimal_direction,
    povm_reduce,
    povm_reduction_kernel,
    werner_state,
    zx_measurements,
)
from bellcert.qubit import IDENTITY, from_bloch
from bellcert.sampling import random_assemblage, random_dichotomic_povm

from conftest import TWO_TWO, assert_operators_close

SQRT2 = np.sqrt(2.0)


class TestOptimalDirection:
    def test_chsh_singlet_x0(self):
        a = builtin_assemblage("singlet-ZX")
        assert np.allclose(optimal_direction(a, build_chsh(), 0), [-1.0, 0.0, -1.0])

    def test_chsh_singlet_x1(self):
        a = builtin_assemblage("singlet-ZX")
        assert np.allclose(optimal_direction(a, build_chsh(), 1), [1.0, 0.0, -1.0])

    def test_uniform_noise_gives_zero_vector(self):
        a = builtin_assemblage("uniform-noise")
        assert np.allclose(optimal_direction(a, build_chsh(), 0), [0.0, 0.0, 0.0])

    def test_out_of_range_input(self):
        a = builtin_assemblage("uniform-noise")
        with pytest.raises(ValueError, match="out of range"):
            optimal_direction(a, build_chsh(), 2)


class TestEvaluate:
    def test_tsirelson_on_the_singlet(self):
        report = evaluate(builtin_assemblage("singlet-ZX"), build_chsh())
        assert report.constant_term == pytest.approx(0.0, abs=1e-12)
        assert report.lhs_value == pytest.approx(2 * SQRT2, abs=1e-12)
        assert report.violated and not report.marginal

    def test_uniform_noise_is_not_violating(self):
        report = evaluate(builtin_assemblage("uniform-noise"), build_chsh())
        assert report.lhs_value == pytest.approx(0.0, abs=1e-12)
        assert not report.violated
        assert report.direction_free == (True, True)
        # degenerate inputs emit the +z measurement for determinism
        assert_operators_close(
            report.optimal_measurements[0].effects[0], [[1, 0], [0, 0]]
        )

    def test_werner_scaling_and_threshold(self):
        ineq = build_chsh()
        half = evaluate(builtin_assemblage("werner-ZX", visibility=0.5), ineq)
        assert half.lhs_value == pytest.approx(SQRT2, abs=1e-12)
        assert not half.violated
        high = evaluate(builtin_assemblage("werner-ZX", visibility=0.8), ineq)
        assert high.violated

    def test_marginal_flag_at_the_threshold(self):
        critical = builtin_assemblage("werner-ZX", visibility=1 / SQRT2)
        report = evaluate(critical, build_chsh())
        assert report.marginal and not report.violated
        assert abs(report.lhs_value - 2.0) < 1e-10

    def test_report_internal_consistency(self, rng):
        for _ in range(10):
            a = random_assemblage(TWO_TWO, rng)
            report = evaluate(a, build_chsh())
            assert report.lhs_value == pytest.approx(
                report.constant_term + report.norms.sum(), abs=1e-12
            )

    def test_achievability_of_reported_measurements(self, rng):
        ineq = build_chsh()
        for _ in range(25):
            a = random_assemblage(TWO_TWO, rng)
            report = evaluate(a, ineq)
            achieved = bell_value(ineq, distribution_from(a, report.optimal_measurements))
            assert achieved == pytest.approx(report.lhs_value, abs=1e-12)

    def test_sampled_povms_never_achieve_a_larger_violation(self, rng):
        ineq = build_chsh()
        for _ in range(20):
            a = random_assemblage(TWO_TWO, rng, pure=True, planted=True)
            report = evaluate(a, ineq)
            assert report.violated  # planted singlet assemblages violate a.s.
            for _ in range(10):
                povms = [random_dichotomic_povm(rng) for _ in range(2)]
                value = bell_value(ineq, distribution_from(a, povms))
                assert value <= report.lhs_value + 1e-10

    def test_povms_never_violate_when_the_closed_form_is_local(self, rng):
        ineq = build_chsh()
        for _ in range(20):
            a = random_assemblage(TWO_TWO, rng)
            report = evaluate(a, ineq)
            if report.violated:
                continue
            for _ in range(10):
                povms = [random_dichotomic_povm(rng) for _ in range(2)]
                value = bell_value(ineq, distribution_from(a, povms))
                assert value <= ineq.local_bound + 1e-10

    def test_povms_can_exceed_the_projective_maximum_without_violating(self):
        # The closed form maximizes over projective measurements; collapsing
        # an output (trace-2 first effect) trades the correlation term for
        # the untrusted marginal bias, which can win on non-violating
        # assemblages while staying below the bound.  Guards against
        # "tightening" the optimality checks above into an unconditional one.
        members = {}
        for y, w in ((0, (0.3, 0.0, 0.0)), (1, (0.2, 0.0, 0.1))):
            members[((0,), (y,))] = from_bloch(0.9, w)
            members[((1,), (y,))] = from_bloch(0.1, (0.0, 0.0, 0.0))
        a = Assemblage(TWO_TWO, members)
        ineq = build_chsh()
        report = evaluate(a, ineq)
        collapse = DichotomicPOVM((IDENTITY, np.zeros((2, 2))))
        value = bell_value(ineq, distribution_from(a, [collapse, collapse]))
        assert not report.violated
        assert value > report.lhs_value + 0.1
        assert value <= ineq.local_bound + 1e-12

    def test_homogeneity_in_the_assemblage(self, rng):
        ineq = build_chsh()
        a = random_assemblage(TWO_TWO, rng)
        scaled = a.scaled(0.37)
        rep = evaluate(a, ineq)
        rep_scaled = evaluate(scaled, ineq)
        assert rep_scaled.lhs_value == pytest.approx(0.37 * rep.lhs_value, abs=1e-12)
        assert rep_scaled.constant_term == pytest.approx(
            0.37 * rep.constant_term, abs=1e-12
        )
        assert np.allclose(rep_scaled.opt_directions, 0.37 * rep.opt_directions)

    def test_lhs_invariant_under_joint_trusted_input_permutation(self, rng):
        from bellcert.inequalities import BellInequality

        a = random_assemblage(TWO_TWO, rng)
        beta = rng.normal(size=TWO_TWO.distribution_dims)
        ineq = BellInequality(TWO_TWO, beta, 1.0)
        permuted = BellInequality(TWO_TWO, beta[:, :, ::-1, :].copy(), 1.0)
        assert evaluate(a, permuted).lhs_value == pytest.approx(
            evaluate(a, ineq).lhs_value, abs=1e-12
        )

    def test_shape_mismatch_raises(self):
        from bellcert import build_svetlichny

        with pytest.raises(ValueError, match="does not match"):
            evaluate(builtin_assemblage("uniform-noise"), build_svetlichny())


class TestDistributionFrom:
    def test_trivial_povm_reproduces_marginals(self):
        a = builtin_assemblage("singlet-ZX")
        trivial = DichotomicPOVM((IDENTITY, np.zeros((2, 2))))
        dist = distribution_from(a, [trivial, trivial])
        for b in range(2):
            for y in range(2):
                assert dist.table[0, b, 0, y] == pytest.approx(
                    a.conditional_probability((b,), (y,))
                )
                assert dist.table[1, b, 0, y] == pytest.approx(0.0)

    def test_singlet_perfect_anticorrelation_in_z(self):
        a = builtin_assemblage("singlet-ZX")
        z_meas = DichotomicPOVM.from_direction((0, 0, 1))
        dist = distribution_from(a, [z_meas, z_meas])
        for a_out in range(2):
            for b_out in range(2):
                expected = 0.5 if a_out != b_out else 0.0
                assert dist.table[a_out, b_out, 0, 0] == pytest.approx(expected)

    def test_uniform_noise_halves_everything(self):
        a = builtin_assemblage("uniform-noise")
        meas = [DichotomicPOVM.from_direction((1, 0, 0))] * 2
        dist = distribution_from(a, meas)
        assert np.allclose(dist.table, 0.25)

    def test_output_is_a_valid_distribution(self, rng):
        a = random_assemblage(ScenarioShape(2, (2, 2), (2, 2), 2), rng)
        meas = [random_dichotomic_povm(rng) for _ in range(2)]
        assert distribution_from(a, meas).validate() == []

    def test_wrong_measurement_count(self):
        a = builtin_assemblage("uniform-noise")
        with pytest.raises(ValueError, match="trusted measurements"):
            distribution_from(a, [DichotomicPOVM.from_direction((0, 0, 1))])


class TestChshFast:
    def test_singlet_is_nonlocal(self):
        report = chsh_fast(builtin_assemblage("singlet-ZX"))
        assert report.lhs_value == pytest.approx(2 * SQRT2, abs=1e-12)
        assert report.violated

    def test_uniform_noise_is_local(self):
        report = chsh_fast(builtin_assemblage("uniform-noise"))
        assert report.lhs_value == pytest.approx(0.0, abs=1e-12)
        assert not report.violated

    def test_werner_half_visibility_is_local(self):
        report = chsh_fast(builtin_assemblage("werner-ZX", visibility=0.5))
        assert report.lhs_value == pytest.approx(SQRT2, abs=1e-12)
        assert not report.violated

    def test_agrees_with_evaluate_and_all_symmetries(self, rng):
        variants = chsh_symmetries()
        for _ in range(15):
            a = random_assemblage(TWO_TWO, rng)
            fast = chsh_fast(a).lhs_value
            for variant in variants:
                assert evaluate(a, variant).lhs_value == pytest.approx(
                    fast, abs=1e-12
                )

    def test_wrong_shape_raises(self):
        a = builtin_assemblage("ghz-3")
        with pytest.raises(ValueError, match="bipartite"):
            chsh_fast(a)


class TestPovmReduce:
    def test_projective_input_gives_identity_kernel(self):
        povm = DichotomicPOVM.from_direction((0, 0, 1))
        projective, q, lambdas = povm_reduce(povm)
        assert lambdas == (1.0, 0.0)
        assert np.array_equal(q, np.eye(2))
        assert_operators_close(projective.effects[0], povm.effects[0])

    def test_white_noise_povm_gives_uniform_kernel(self):
        povm = DichotomicPOVM((0.5 * IDENTITY, 0.5 * IDENTITY))
        _, q, lambdas = povm_reduce(povm)
        assert lambdas == (0.5, 0.5)
        assert np.allclose(q, 0.5)

    def test_reconstruction_of_the_effects(self, rng):
        for _ in range(50):
            povm = random_dichotomic_povm(rng)
            projective, q, _ = povm_reduce(povm)
            p0, p1 = projective.effects
            for a in range(2):
                rebuilt = q[a, 0] * p0 + q[a, 1] * p1
                assert_operators_close(rebuilt, povm.effects[a], atol=1e-12)

    def test_distribution_factorizes_through_the_mixing(self, rng):
        ineq = build_chsh()
        for _ in range(25):
            a = random_assemblage(TWO_TWO, rng)
            povms = [random_dichotomic_povm(rng) for _ in range(2)]
            direct = distribution_from(a, povms)
            projectives, kernel = povm_reduction_kernel(povms)
            factored = apply_local_mixing(
                distribution_from(a, projectives), kernel
            )
            assert np.abs(direct.table - factored.table).max() <= 1e-12
            assert bell_value(ineq, direct) == pytest.approx(
                bell_value(ineq, factored), abs=1e-12
            )

    def test_invalid_povm_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DichotomicPOVM((from_bloch(1.0, (0, 0, 1.5)), from_bloch(1.0, (0, 0, -1.5))))
        with pytest.raises(ValueError, match="identity"):
            DichotomicPOVM((0.5 * IDENTITY, 0.4 * IDENTITY))


def test_defective_assemblage_can_still_be_held_for_diagnosis():
    # evaluate works on any member set; validation is surfaced separately
    members = {
        ((b,), (y,)): from_bloch(0.25, (0.5, 0.0, 0.0)) for b in range(2) for y in range(2)
    }
    a = Assemblage(TWO_TWO, members)
    report = evaluate(a, build_chsh())
    assert np.isfinite(report.lhs_value)


def test_projective_verdict_misses_a_povm_violation_of_a_non_mixing_stable_inequality():
    # evaluate maximizes over projective measurements only.  reducible-chsh
    # is not mixing stable: answering a = 0 on trusted input 2, the POVM
    # (I, 0), violates although the projective maximum is below the bound.
    a = generate_from_state(werner_state(0.8), zx_measurements(), trusted_inputs=3)
    ineq = build_reducible_chsh()
    report = evaluate(a, ineq)
    assert report.lhs_value == pytest.approx(2.7627417, abs=1e-7)
    assert not report.violated and not report.marginal
    measurements = [*report.optimal_measurements[:2], DichotomicPOVM((IDENTITY, np.zeros((2, 2))))]
    povm_value = bell_value(ineq, distribution_from(a, measurements))
    assert povm_value == pytest.approx(3.2627417, abs=1e-7)
    assert povm_value > ineq.local_bound > report.lhs_value
