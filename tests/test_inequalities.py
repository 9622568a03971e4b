import warnings

import numpy as np
import pytest

from bellcert import (
    Distribution,
    MixingKernel,
    apply_local_mixing,
    bell_value,
    build_chained_svetlichny,
    build_chsh,
    build_reducible_chsh,
    build_svetlichny,
    chsh_symmetries,
    deterministic_distribution,
    deterministic_kernels,
    mixing_stability_check,
    uniform_distribution,
)
from bellcert.sampling import random_assemblage, random_deterministic_distribution

from conftest import TWO_TWO


class TestChsh:
    def test_quoted_coefficient_values(self):
        beta = build_chsh().coefficients
        assert beta[0, 0, 1, 1] == -1.0
        assert beta[1, 0, 0, 1] == -1.0
        assert beta[0, 0, 0, 0] == 1.0

    def test_local_bound(self):
        assert build_chsh().local_bound == 2.0

    def test_coefficients_sum_to_zero_over_a(self):
        beta = build_chsh().coefficients
        assert np.array_equal(beta.sum(axis=0), np.zeros((2, 2, 2)))


class TestBellValue:
    def test_chsh_on_uniform_distribution_vanishes(self):
        assert bell_value(build_chsh(), uniform_distribution(TWO_TWO)) == 0.0

    def test_chsh_on_all_zero_deterministic_point(self):
        dist = deterministic_distribution(TWO_TWO, (0, 0), [(0, 0)])
        assert bell_value(build_chsh(), dist) == 2.0

    def test_shape_mismatch_raises(self):
        sv = build_svetlichny()
        with pytest.raises(ValueError, match="shapes"):
            bell_value(sv, uniform_distribution(TWO_TWO))


class TestLocalMixing:
    def test_identity_kernel_is_a_no_op(self):
        dist = uniform_distribution(TWO_TWO)
        mixed = apply_local_mixing(dist, MixingKernel.identity(2))
        assert np.array_equal(mixed.table, dist.table)

    def test_total_randomization_makes_a_uniform(self, rng):
        from bellcert.criterion import distribution_from, evaluate

        a = random_assemblage(TWO_TWO, rng)
        report = evaluate(a, build_chsh())
        dist = distribution_from(a, report.optimal_measurements)
        kernel = MixingKernel(np.full((2, 2, 2), 0.5))
        mixed = apply_local_mixing(dist, kernel)
        assert np.allclose(mixed.table[0], mixed.table[1])

    def test_bit_flip_on_one_input_swaps_rows(self):
        dist = deterministic_distribution(TWO_TWO, (0, 0), [(0, 0)])
        flip_x0 = MixingKernel.from_slices(
            [np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)]
        )
        mixed = apply_local_mixing(dist, flip_x0)
        assert np.array_equal(mixed.table[0, :, 0, :], dist.table[1, :, 0, :])
        assert np.array_equal(mixed.table[1, :, 0, :], dist.table[0, :, 0, :])
        assert np.array_equal(mixed.table[:, :, 1, :], dist.table[:, :, 1, :])

    def test_mixing_preserves_distribution_invariants(self, rng):
        a = random_assemblage(TWO_TWO, rng)
        from bellcert.criterion import distribution_from, evaluate

        dist = distribution_from(a, evaluate(a, build_chsh()).optimal_measurements)
        q = rng.uniform(size=(2, 2, 2))
        q /= q.sum(axis=0, keepdims=True)
        mixed = apply_local_mixing(dist, MixingKernel(q))
        assert mixed.validate() == []

    def test_kernel_composition(self, rng):
        dist = uniform_distribution(TWO_TWO)
        table = rng.uniform(size=TWO_TWO.distribution_dims)
        table /= table.reshape(4, 4).sum(axis=0).reshape(1, 1, 2, 2)
        dist = Distribution(TWO_TWO, table)
        q1 = rng.uniform(size=(2, 2, 2))
        q1 /= q1.sum(axis=0, keepdims=True)
        q2 = rng.uniform(size=(2, 2, 2))
        q2 /= q2.sum(axis=0, keepdims=True)
        k1, k2 = MixingKernel(q1), MixingKernel(q2)
        step_by_step = apply_local_mixing(apply_local_mixing(dist, k1), k2)
        composed = MixingKernel(np.einsum("abx,bcx->acx", q2, q1))
        assert np.allclose(
            step_by_step.table, apply_local_mixing(dist, composed).table, atol=1e-14
        )

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixingKernel(np.ones((2, 2, 2)))

    def test_deterministic_kernels_are_the_vertices(self, rng):
        # any kernel's mixed value is dominated by the best deterministic one
        from bellcert.criterion import distribution_from, evaluate

        ineq = build_chsh()
        a = random_assemblage(TWO_TWO, rng)
        dist = distribution_from(a, evaluate(a, ineq).optimal_measurements)
        vertices = deterministic_kernels(2)
        assert len(vertices) == 16
        vertex_best = max(
            bell_value(ineq, apply_local_mixing(dist, k)) for k in vertices
        )
        for _ in range(20):
            q = rng.uniform(size=(2, 2, 2))
            q /= q.sum(axis=0, keepdims=True)
            value = bell_value(ineq, apply_local_mixing(dist, MixingKernel(q)))
            assert value <= vertex_best + 1e-12


class TestChshSymmetries:
    def test_eight_distinct_variants_including_original(self):
        variants = chsh_symmetries()
        assert len(variants) == 8
        tensors = {v.coefficients.tobytes() for v in variants}
        assert len(tensors) == 8
        base = build_chsh()
        assert any(
            np.array_equal(v.coefficients, base.coefficients) for v in variants
        )

    def test_all_variants_normalized_with_bound_two(self):
        for variant in chsh_symmetries():
            assert variant.local_bound == 2.0

    def test_x_negation_relabels_coefficients(self):
        variants = {v.name: v for v in chsh_symmetries()}
        base = variants["chsh"].coefficients
        xneg = variants["chsh/xneg"].coefficients
        for a, b, x, y in np.ndindex(2, 2, 2, 2):
            assert xneg[a, b, x, y] == base[a, b, 1 - x, y]


class TestSvetlichny:
    def test_quoted_coefficients(self):
        beta = build_svetlichny().coefficients
        assert beta[0, 0, 0, 0, 0, 0] == 1.0  # aligned context
        assert beta[0, 0, 0, 1, 0, 0] == -1.0  # "otherwise" branch
        assert beta[1, 0, 1, 1, 1, 1] == 1.0  # (-1)^(1+0+1)

    def test_enumerated_local_bound_is_four(self):
        assert build_svetlichny().local_bound == 4.0

    def test_algebraic_maximum_is_eight(self):
        beta = build_svetlichny().coefficients
        per_context = beta.reshape(8, 8).max(axis=0)
        assert per_context.sum() == 8.0


class TestChainedSvetlichny:
    def test_quoted_coefficients_m2(self):
        beta = build_chained_svetlichny(2).coefficients
        assert beta[0, 0, 0, 0, 0, 0] == -1.0  # delta holds, exponent 1
        assert beta[0, 0, 0, 1, 0, 1] == 1.0  # floor((1+1)/2) + 1 = 2
        assert beta[0, 0, 0, 0, 1, 0] == 0.0  # y1 != (y2+x) mod 2

    def test_enumerated_bound_m2(self):
        assert build_chained_svetlichny(2).local_bound == 2.0

    def test_rejects_m_below_two(self):
        with pytest.raises(ValueError, match="m >= 2"):
            build_chained_svetlichny(1)

    def test_caller_supplied_bound_is_used(self):
        assert build_chained_svetlichny(2, local_bound=7.0).local_bound == 7.0

    def test_large_m_enumeration_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ineq = build_chained_svetlichny(7)
        assert ineq.local_bound == 25.0


class TestMixingStability:
    def test_identity_kernel_never_changes_the_value(self, rng):
        from bellcert.criterion import distribution_from, evaluate

        ineq = build_chsh()
        a = random_assemblage(TWO_TWO, rng)
        dist = distribution_from(a, evaluate(a, ineq).optimal_measurements)
        value = bell_value(ineq, dist)
        mixed = bell_value(ineq, apply_local_mixing(dist, MixingKernel.identity(2)))
        assert mixed == pytest.approx(value, abs=1e-14)

    def test_chsh_shows_no_counterexample(self):
        report = mixing_stability_check(build_chsh(), samples=30, seed=5)
        assert report.stable_so_far
        assert report.violating_sampled == 30

    def test_reducible_inequality_is_caught(self):
        report = mixing_stability_check(build_reducible_chsh(0.5), samples=30, seed=5)
        assert not report.stable_so_far
        c = report.counterexample
        assert c.value_after > c.value_before + 1e-6
        assert "NOT mixing stable" in report.summary()

    def test_reducible_bound_matches_construction(self):
        # CHSH bound 2 plus the superfluous term collected on both y values
        assert build_reducible_chsh(0.5).local_bound == 3.0


def test_random_deterministic_distribution_is_deterministic_point(rng):
    dist = random_deterministic_distribution(TWO_TWO, rng)
    assert dist.validate() == []
    assert set(np.unique(dist.table)) == {0.0, 1.0}
