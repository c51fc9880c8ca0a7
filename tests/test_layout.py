"""The CHSH layout that core owns: context columns, outcome codes, and the order of every exact sum."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as nph

from bellsim.behaviors import Behavior, behavior_correlation, behavior_s
from bellsim.core import (
    CANONICAL_CONTEXTS,
    OUTCOME_PAIRS,
    PAIR_PRODUCTS,
    chsh_sum,
    context_products,
    fixed_sum,
    outcome_codes,
    outcome_rows,
    s_from_counts,
)
from bellsim.feasibility import PROJECTION
from bellsim.lhv import exact_lhv_correlation, exact_lhv_s, mixture_model
from bellsim.quantum import AngleQuadruple, expectation, maximally_mixed, random_density_matrix, s_quantum

PLUS_MINUS = st.sampled_from([-1, 1])
ANGLE = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)


def plus_minus_arrays(columns):
    """int8 arrays of +/-1 with the given columns and 0 to 50 rows."""
    return nph.arrays(np.int8, st.tuples(st.integers(0, 50), st.just(columns)), elements=PLUS_MINUS)


class TestOutcomeCodes:
    @pytest.mark.parametrize("columns", [1, 2, 3, 4])
    def test_codes_of_outcome_rows_count_up(self, columns):
        rows = outcome_rows(columns)
        assert rows.dtype == np.int8 and rows.shape == (2**columns, columns)
        assert np.array_equal(outcome_codes(rows), np.arange(2**columns))

    @settings(max_examples=200)
    @given(st.integers(1, 4).flatmap(plus_minus_arrays))
    def test_code_is_index_in_outcome_rows(self, outcomes):
        index = {row: k for k, row in enumerate(map(tuple, outcome_rows(outcomes.shape[1]).tolist()))}
        assert outcome_codes(outcomes).tolist() == [index[row] for row in map(tuple, outcomes.tolist())]

    def test_outcome_pairs_and_products(self):
        assert OUTCOME_PAIRS.tolist() == [[1, 1], [1, -1], [-1, 1], [-1, -1]]
        assert OUTCOME_PAIRS.dtype == np.int8
        assert PAIR_PRODUCTS.tolist() == [1.0, -1.0, -1.0, 1.0]
        assert PAIR_PRODUCTS.dtype == np.float64
        assert not OUTCOME_PAIRS.flags.writeable and not PAIR_PRODUCTS.flags.writeable


class TestContextProducts:
    def test_columns(self):
        assert [c.columns for c in CANONICAL_CONTEXTS] == [(0, 2), (0, 3), (1, 2), (1, 3)]

    @settings(max_examples=100)
    @given(nph.arrays(np.float64, st.tuples(st.integers(0, 20), st.just(4)), elements=st.floats(-1e3, 1e3)))
    def test_matches_products_written_out(self, rows):
        a1, a2, b1, b2 = (rows[:, k] for k in range(4))
        expected = (a1 * b1, a1 * b2, a2 * b1, a2 * b2)
        for got, want in zip(context_products(rows), expected, strict=True):
            assert np.array_equal(got, want)


def test_chsh_sum_leaves_its_inputs():
    values = [np.arange(3.0) * k for k in (1, 2, 3, 5)]
    copies = [v.copy() for v in values]
    assert np.array_equal(chsh_sum(values), values[0] + values[1] + values[2] - values[3])
    assert all(np.array_equal(v, c) for v, c in zip(values, copies))


def test_projection_matches_per_assignment_loop():
    """PROJECTION against the tensor built one assignment at a time, the reference it replaced."""
    tensor = np.zeros((4, 4, 16))
    for c, context in enumerate(CANONICAL_CONTEXTS):
        for k, (a1, a2, b1, b2) in enumerate(itertools.product((1, -1), repeat=4)):
            a = (a1, a2)[context.alice - 1]
            b = (b1, b2)[context.bob - 1]
            tensor[c, (1 - a) + (1 - b) // 2, k] = 1.0
    assert PROJECTION.dtype == np.float64
    assert np.array_equal(PROJECTION, tensor)


def left_to_right(correlations):
    """S as a sum started from 0.0 and added left to right: the order every S function keeps."""
    e11, e12, e21, e22 = correlations
    return 0.0 + e11 + e12 + e21 - e22


def assert_bitwise(value, correlations):
    assert float.hex(value) == float.hex(left_to_right(correlations))


def mixture_models():
    def build(strategies_and_weights):
        strategies, weights = strategies_and_weights
        return mixture_model(strategies, weights / weights.sum())

    return st.integers(1, 6).flatmap(
        lambda m: st.tuples(
            nph.arrays(np.int8, (m, 4), elements=PLUS_MINUS),
            nph.arrays(np.float64, (m,), elements=st.floats(0.01, 1.0)),
        )
    ).map(build)


def behaviors():
    def normalize(raw):
        raw = raw + 1e-9  # keep rows strictly positive before normalizing
        return Behavior(raw / raw.sum(axis=1, keepdims=True))

    return nph.arrays(np.float64, (4, 4), elements=st.floats(0.0, 1.0)).map(normalize)


def left_to_right_dot(weights, values):
    """The sum of weights[k] * values[k] in Python floats, started from 0.0 and added left to right."""
    total = 0.0
    for weight, value in zip(weights, values):
        total += float(weight) * float(value)
    return total


COUNT_PAIR = st.integers(1, 10**6).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n)))


class TestSumOrder:
    """Every S function adds its four correlations as 0.0 + E11 + E12 + E21 - E22, bit for bit.

    Each exact correlation is itself ``fixed_sum``'s left-to-right sum of weight
    times product, never a BLAS dot, whose order depends on the CPU.

    Built-in ``sum`` of floats is compensated from Python 3.12 on, so it does
    not keep this order on every supported interpreter.
    """

    @settings(max_examples=200, deadline=None)
    @given(mixture_models())
    def test_exact_lhv_s(self, model):
        assert_bitwise(exact_lhv_s(model), [exact_lhv_correlation(model, c) for c in CANONICAL_CONTEXTS])

    @settings(max_examples=200, deadline=None)
    @given(behaviors())
    def test_behavior_s(self, behavior):
        assert_bitwise(behavior_s(behavior), [behavior_correlation(behavior, c) for c in CANONICAL_CONTEXTS])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), ANGLE, ANGLE, ANGLE, ANGLE)
    def test_s_quantum(self, seed, a1, a2, b1, b2):
        rho = random_density_matrix(np.random.default_rng(seed))
        angles = AngleQuadruple(a1, a2, b1, b2)
        correlations = [expectation(rho, angles.alice(c.alice), angles.bob(c.bob)) for c in CANONICAL_CONTEXTS]
        assert_bitwise(s_quantum(rho, angles), correlations)

    @settings(max_examples=200)
    @given(st.lists(COUNT_PAIR, min_size=4, max_size=4))
    def test_s_from_counts(self, counts):
        assert_bitwise(s_from_counts(counts), [(2 * k - n) / n for k, n in counts])

    def test_fixed_sum_adds_left_to_right(self):
        ones = [1.0, 1.0, 1.0]
        assert fixed_sum(ones, [1e16, 1.0, -1e16]) == 0.0  # 1e16 + 1 rounds to 1e16; math.fsum gives 1.0
        assert fixed_sum(ones, [1e16, -1e16, 1.0]) == 1.0
        assert float.hex(fixed_sum([1.0], [-0.0])) == float.hex(0.0)
        assert fixed_sum([], []) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(mixture_models())
    def test_exact_lhv_correlation(self, model):
        table = np.array(model.strategies)
        for context in CANONICAL_CONTEXTS:
            i, j = context.columns
            expected = left_to_right_dot(model.weights, table[:, i] * table[:, j])
            assert float.hex(exact_lhv_correlation(model, context)) == float.hex(expected)

    @settings(max_examples=200, deadline=None)
    @given(behaviors())
    def test_behavior_correlation(self, behavior):
        for context in CANONICAL_CONTEXTS:
            expected = left_to_right_dot(behavior.probs[context.index], PAIR_PRODUCTS)
            assert float.hex(behavior_correlation(behavior, context)) == float.hex(expected)

    def test_exact_zero_is_positive_zero(self):
        angles = AngleQuadruple(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
        values = [
            exact_lhv_s(mixture_model([(1, 1, 1, 1), (-1, 1, 1, 1)], [0.5, 0.5])),
            behavior_s(Behavior(np.full((4, 4), 0.25))),
            s_quantum(maximally_mixed(), angles),
            s_from_counts([(5, 10)] * 4),
        ]
        assert [float.hex(v) for v in values] == [float.hex(0.0)] * 4
