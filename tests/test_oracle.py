import numpy as np
import pytest

from bellcert import (
    SearchConfig,
    bell_value,
    build_chained_svetlichny,
    build_chsh,
    build_svetlichny,
    builtin_assemblage,
    distribution_from,
    evaluate,
    local_bound_enumerate,
    max_violation_search,
    permute_untrusted_parties,
)
from bellcert import criterion, oracle
from bellcert.cli import main
from bellcert.oracle import strategy_count
from bellcert.sampling import random_assemblage

from conftest import TWO_TWO

SQRT2 = np.sqrt(2.0)


class TestMaxViolationSearch:
    def test_singlet_without_injection_hits_tsirelson_to_grid_accuracy(self):
        a = builtin_assemblage("singlet-ZX")
        cfg = SearchConfig(grid_resolution=360, seed=0, inject_closed_form=False)
        result = max_violation_search(a, build_chsh(), cfg)
        assert abs(result.value - 2 * SQRT2) < 1e-4
        assert result.value <= 2 * SQRT2 + 1e-12

    def test_injection_makes_the_search_exact(self):
        a = builtin_assemblage("singlet-ZX")
        cfg = SearchConfig(grid_resolution=30, refine_iterations=0, seed=0)
        result = max_violation_search(a, build_chsh(), cfg)
        assert result.value == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_uniform_noise_searches_to_zero(self):
        a = builtin_assemblage("uniform-noise")
        cfg = SearchConfig(grid_resolution=24, seed=0)
        result = max_violation_search(a, build_chsh(), cfg)
        assert result.value == pytest.approx(0.0, abs=1e-12)

    def test_never_finds_a_larger_violation_than_the_closed_form(self, rng):
        # the POVM samples may beat the projective maximum on non-violating
        # assemblages (below the bound), so the comparison is conditional
        ineq = build_chsh()
        cfg = SearchConfig(grid_resolution=40, povm_samples=15, seed=2)
        for _ in range(8):
            a = random_assemblage(TWO_TWO, rng, pure=True, planted=True)
            closed = evaluate(a, ineq).lhs_value
            assert closed > ineq.local_bound
            result = max_violation_search(a, ineq, cfg)
            assert result.value <= closed + 1e-10

    def test_never_crosses_the_bound_when_the_closed_form_is_local(self, rng):
        ineq = build_chsh()
        cfg = SearchConfig(grid_resolution=40, povm_samples=15, seed=2)
        for _ in range(8):
            a = random_assemblage(TWO_TWO, rng)
            closed = evaluate(a, ineq).lhs_value
            result = max_violation_search(a, ineq, cfg)
            assert result.value <= max(closed, ineq.local_bound) + 1e-10

    def test_deterministic_for_a_fixed_config(self):
        a = builtin_assemblage("werner-ZX", visibility=0.9)
        cfg = SearchConfig(grid_resolution=36, povm_samples=25, seed=11)
        first = max_violation_search(a, build_chsh(), cfg)
        second = max_violation_search(a, build_chsh(), cfg)
        assert first.value == second.value
        for m1, m2 in zip(first.measurements, second.measurements):
            assert np.array_equal(m1.effects[0], m2.effects[0])

    def test_value_is_recomputed_through_the_born_rule(self):
        a = builtin_assemblage("singlet-ZX")
        cfg = SearchConfig(grid_resolution=30, seed=0)
        result = max_violation_search(a, build_chsh(), cfg)
        direct = bell_value(build_chsh(), distribution_from(a, result.measurements))
        assert result.value == direct

    def test_per_input_contributions_sum_to_the_value(self, rng):
        a = builtin_assemblage("singlet-ZX")
        result = max_violation_search(
            a, build_chsh(), SearchConfig(grid_resolution=60, seed=0)
        )
        assert result.per_input.sum() == pytest.approx(result.value, abs=1e-12)
        # the chosen measurements must reproduce per_input even when the
        # refinement step regresses and the grid point is kept
        for trial in range(5):
            a = random_assemblage(TWO_TWO, rng)
            cfg = SearchConfig(
                grid_resolution=12, refine_iterations=3, povm_samples=4, seed=trial
            )
            result = max_violation_search(a, build_chsh(), cfg)
            assert result.per_input.sum() == pytest.approx(result.value, abs=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shapes differ"):
            max_violation_search(builtin_assemblage("uniform-noise"), build_svetlichny())


def test_chained_three_input_ghz_violation_cross_checks():
    # seeded-search optimum of the equator-angle landscape, frozen; the
    # closed form, the injected search, and the grid-only search must all
    # agree on this genuinely multi-input three-party violation
    from bellcert import (
        build_chained_svetlichny,
        generate_from_state,
        ghz_state,
        xy_plane_measurements,
    )

    phis = np.radians([152.349787, 260.514870, 0.0])  # third input never enters
    psis = np.radians([214.397844, 346.232760, 81.737511])
    assemblage = generate_from_state(
        ghz_state(3),
        xy_plane_measurements([list(phis), list(psis)]),
        trusted_inputs=3,
    )
    ineq = build_chained_svetlichny(3)
    closed = evaluate(assemblage, ineq)
    assert closed.violated
    assert closed.lhs_value == pytest.approx(7.146067230869917, abs=1e-9)
    injected = max_violation_search(
        assemblage, ineq, SearchConfig(grid_resolution=60, seed=0)
    )
    assert injected.value == pytest.approx(closed.lhs_value, abs=1e-10)
    grid_only = max_violation_search(
        assemblage, ineq, SearchConfig(grid_resolution=60, seed=0, inject_closed_form=False)
    )
    assert abs(grid_only.value - closed.lhs_value) <= closed.lhs_value * np.pi / 60
    assert grid_only.value <= closed.lhs_value + 1e-10


def test_heterogeneous_scenario_agrees_with_the_closed_form(rng):
    from bellcert import BellInequality, ScenarioShape

    shape = ScenarioShape(2, (2, 3), (3, 2), 2)
    a = random_assemblage(shape, rng)
    ineq = BellInequality(shape, rng.normal(size=shape.distribution_dims), 1.0)
    closed = evaluate(a, ineq)
    achieved = bell_value(ineq, distribution_from(a, closed.optimal_measurements))
    assert achieved == pytest.approx(closed.lhs_value, abs=1e-10)
    # projective candidates only: the search can approach but never beat it
    cfg = SearchConfig(grid_resolution=60, povm_samples=0, seed=0, inject_closed_form=False)
    searched = max_violation_search(a, ineq, cfg)
    assert searched.value <= closed.lhs_value + 1e-10
    assert searched.value >= closed.lhs_value - 0.05
    injected = max_violation_search(
        a, ineq, SearchConfig(grid_resolution=20, povm_samples=0, seed=0)
    )
    assert injected.value == pytest.approx(closed.lhs_value, abs=1e-10)


class TestLocalBoundEnumerate:
    def test_chsh_bound_is_exactly_two(self):
        assert local_bound_enumerate(build_chsh()) == 2.0

    def test_svetlichny_bound_is_exactly_four(self):
        assert local_bound_enumerate(build_svetlichny()) == 4.0

    def test_chained_two_bound(self):
        assert local_bound_enumerate(build_chained_svetlichny(2)) == 2.0

    def test_bound_is_invariant_under_party_permutation(self):
        for ineq in (build_svetlichny(), build_chained_svetlichny(2)):
            swapped = permute_untrusted_parties(ineq, (1, 0))
            assert local_bound_enumerate(swapped) == local_bound_enumerate(ineq)

    def test_cap_is_enforced(self):
        ineq = build_chsh()
        with pytest.raises(ValueError, match="cap"):
            local_bound_enumerate(ineq, cap=10)

    def test_strategy_count(self):
        assert strategy_count(build_chsh().shape) == 16
        assert strategy_count(build_svetlichny().shape) == 64


class TestSearchConfig:
    def test_angular_step(self):
        assert SearchConfig(grid_resolution=180).angular_step == pytest.approx(
            np.pi / 180
        )

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SearchConfig(grid_resolution=0)
        with pytest.raises(ValueError):
            SearchConfig(povm_samples=-1)


@pytest.fixture
def contractions(monkeypatch):
    """Records every member contraction, from criterion or the oracle."""
    calls = []
    real = criterion.pauli_contraction

    def counted(assemblage, coefficients):
        calls.append(assemblage.shape)
        return real(assemblage, coefficients)

    monkeypatch.setattr(criterion, "pauli_contraction", counted)
    monkeypatch.setattr(oracle, "pauli_contraction", counted)
    return calls


class TestContractionCount:
    def test_the_search_contracts_once(self, contractions):
        a = builtin_assemblage("ghz-3")
        max_violation_search(a, build_svetlichny(), SearchConfig(grid_resolution=12))
        assert len(contractions) == 1

    def test_analyze_with_the_oracle_contracts_twice(self, capsys, contractions):
        code = main(["analyze", "ghz-3", "svetlichny", "--oracle", "--grid", "12"])
        capsys.readouterr()
        assert code == 1
        assert len(contractions) == 2
