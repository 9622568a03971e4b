"""Exact local bounds: the party-wise contraction against a per-strategy loop."""

import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest

from bellcert import (
    BellInequality,
    ScenarioShape,
    build_chained_svetlichny,
    inequalities,
    local_bound_enumerate,
    permute_untrusted_parties,
)
from bellcert.oracle import strategy_count


def reference_bound(inequality: BellInequality) -> float:
    """Max of beta . P over every deterministic strategy, trusted party included."""
    shape = inequality.shape
    beta = inequality.coefficients
    untrusted = [
        list(product(range(o), repeat=m))
        for o, m in zip(shape.outputs_per_party, shape.inputs_per_party)
    ]
    inputs = list(shape.input_strings())
    best = -np.inf
    for trusted in product(range(2), repeat=shape.trusted_inputs):
        for responses in product(*untrusted):
            value = 0.0
            for x, a in enumerate(trusted):
                for y in inputs:
                    b = tuple(r[yi] for r, yi in zip(responses, y))
                    value += beta[(a, *b, x, *y)]
            best = max(best, value)
    return best


def random_shapes(count: int, seed: int = 6) -> list[ScenarioShape]:
    """Seeded shapes of 1-3 untrusted parties, 1-3 inputs and outputs each,
    1-3 trusted inputs, small enough for the reference loop."""
    rng = np.random.default_rng(seed)
    shapes = [
        ScenarioShape(1, (1,), (3,), 2),  # a 1-input party
        ScenarioShape(2, (2, 3), (1, 2), 1),  # a 1-output party
        ScenarioShape(3, (1, 2, 1), (2, 1, 3), 3),
    ]
    while len(shapes) < count:
        k = int(rng.integers(1, 4))
        shape = ScenarioShape(
            k,
            tuple(int(v) for v in rng.integers(1, 4, size=k)),
            tuple(int(v) for v in rng.integers(1, 4, size=k)),
            int(rng.integers(1, 4)),
        )
        if strategy_count(shape) <= 1500:
            shapes.append(shape)
    return shapes


SHAPES = random_shapes(30)


def random_inequality(shape, rng, integer: bool) -> BellInequality:
    dims = shape.distribution_dims
    beta = rng.integers(-3, 4, size=dims).astype(float) if integer else rng.normal(size=dims)
    return BellInequality(shape, beta, 0.0)


def test_shapes_cover_the_edges():
    assert {s.untrusted_parties for s in SHAPES} == {1, 2, 3}
    assert {s.trusted_inputs for s in SHAPES} == {1, 2, 3}
    assert any(1 in s.inputs_per_party for s in SHAPES)
    assert any(1 in s.outputs_per_party for s in SHAPES)
    assert max(max(s.inputs_per_party) for s in SHAPES) == 3
    assert max(max(s.outputs_per_party) for s in SHAPES) == 3


@pytest.mark.parametrize("index", range(len(SHAPES)))
def test_matches_the_per_strategy_loop(index):
    shape = SHAPES[index]
    rng = np.random.default_rng(index)
    integer = random_inequality(shape, rng, integer=True)
    assert local_bound_enumerate(integer) == reference_bound(integer)
    real = random_inequality(shape, rng, integer=False)
    assert local_bound_enumerate(real) == pytest.approx(reference_bound(real), rel=1e-12)


@pytest.mark.parametrize("block", [1, 5, 64])
def test_blocks_do_not_change_the_bound(monkeypatch, block):
    """A tiny block size splits every party's response functions into blocks."""
    monkeypatch.setattr(inequalities, "_BLOCK", block)
    rng = np.random.default_rng(block)
    for shape in SHAPES[:12]:
        inequality = random_inequality(shape, rng, integer=True)
        assert local_bound_enumerate(inequality) == reference_bound(inequality)


@pytest.mark.parametrize(
    "m, bound", [(2, 2), (3, 5), (4, 8), (5, 13), (6, 18), (7, 25), (8, 32)]
)
def test_chained_bounds(m, bound):
    assert local_bound_enumerate(build_chained_svetlichny(m, 0.0)) == bound


def test_invariant_under_party_permutations():
    shape = ScenarioShape(3, (2, 3, 1), (3, 2, 2), 2)
    inequality = random_inequality(shape, np.random.default_rng(3), integer=True)
    bound = local_bound_enumerate(inequality)
    assert bound == reference_bound(inequality)
    for order in permutations(range(3)):
        assert local_bound_enumerate(permute_untrusted_parties(inequality, order)) == bound


def test_working_memory_is_bounded_by_the_block():
    """One party with 22 inputs: its response table alone would take 1.5 GB."""
    shape = ScenarioShape(1, (22,), (2,), 1)
    beta = np.random.default_rng(4).integers(-2, 3, size=shape.distribution_dims)
    inequality = BellInequality(shape, beta.astype(float), 0.0)
    tracemalloc.start()
    try:
        bound = local_bound_enumerate(inequality)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    # the one trusted input: for each a, every y takes its best b independently
    assert bound == max(beta[a, :, 0, :].max(axis=0).sum() for a in range(2))
