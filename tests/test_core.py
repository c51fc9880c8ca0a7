import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as nph

from bellsim.behaviors import Behavior, behavior_from_quantum, behavior_streams
from bellsim.core import (
    BLOCK_VALUES,
    CANONICAL_CONTEXTS,
    Context,
    ContextDataset,
    ContextStreams,
    CounterfactualTable,
    ExperimentBundle,
    b_statistic,
    correlation,
    plus_count,
    project_bundle,
    project_context,
    row_c_values,
    s_statistic,
)
from bellsim.errors import DomainError
from bellsim.lhv import boundary_mixture_model, deterministic_model, model_streams, sign_cosine_model
from bellsim.quantum import TSIRELSON_ANGLES, AngleQuadruple, singlet
from bellsim.rng import categorical, category_runs, derive_seeds, spawn_rng


def tables(max_rows=200):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda n: nph.arrays(np.int8, (n, 4), elements=st.sampled_from([-1, 1]))
    ).map(CounterfactualTable)


def bundles(max_pairs=64):
    def build(sizes_and_bits):
        datasets = []
        for context, pairs in zip(CANONICAL_CONTEXTS, sizes_and_bits):
            datasets.append(ContextDataset(context, pairs))
        return ExperimentBundle(tuple(datasets))

    one = st.integers(min_value=1, max_value=max_pairs).flatmap(
        lambda n: nph.arrays(np.int8, (n, 2), elements=st.sampled_from([-1, 1]))
    )
    return st.tuples(one, one, one, one).map(build)


class TestRowC:
    def test_exhaustive_sixteen_rows(self):
        table = CounterfactualTable.from_rows(itertools.product((1, -1), repeat=4))
        values = row_c_values(table)
        assert values.shape == (16,)
        assert set(values.tolist()) <= {-2, 2}

    def test_examples(self):
        table = CounterfactualTable.from_rows([(1, 1, 1, 1), (1, -1, 1, -1), (-1, -1, -1, -1)])
        # the third row is the global sign flip of the first: all products unchanged
        assert row_c_values(table).tolist() == [2, -2, 2]

    def test_vectorized_matches_scalar(self):
        rows = list(itertools.product((1, -1), repeat=4))
        table = CounterfactualTable.from_rows(rows)
        expected = [a1 * b1 + a1 * b2 + a2 * b1 - a2 * b2 for a1, a2, b1, b2 in rows]
        assert row_c_values(table).tolist() == expected


class TestBStatistic:
    def test_all_identical_rows(self):
        table = CounterfactualTable.from_rows([(1, 1, 1, 1)] * 7)
        assert b_statistic(table) == 2.0

    def test_two_row_cancellation(self):
        # hand evaluation: C = +2 and C = -2
        table = CounterfactualTable.from_rows([(1, 1, 1, 1), (1, -1, 1, -1)])
        assert b_statistic(table) == 0.0

    def test_uniform_random_table_in_range(self):
        rng = np.random.default_rng(2024)
        table = CounterfactualTable(rng.choice([-1, 1], size=(10_000, 4)))
        assert -2.0 <= b_statistic(table) <= 2.0

    def test_empty_table_rejected(self):
        table = CounterfactualTable(np.empty((0, 4), dtype=np.int8))
        with pytest.raises(DomainError, match="N=0"):
            b_statistic(table)

    @settings(max_examples=200)
    @given(tables())
    def test_bound_holds_for_every_table(self, table):
        assert abs(b_statistic(table)) <= 2.0
        assert set(np.unique(row_c_values(table))) <= {-2, 2}

    @given(tables())
    def test_global_sign_flip_invariance(self, table):
        flipped = CounterfactualTable(-table.outcomes)
        assert b_statistic(flipped) == b_statistic(table)


class TestProjection:
    def test_field_selection(self):
        table = CounterfactualTable.from_rows([(1, -1, 1, -1)])
        assert project_context(table, Context(1, 1)).pairs.tolist() == [[1, 1]]
        assert project_context(table, Context(2, 2)).pairs.tolist() == [[-1, -1]]

    def test_projected_correlation_is_column_mean(self):
        rng = np.random.default_rng(5)
        table = CounterfactualTable(rng.choice([-1, 1], size=(500, 4)))
        dataset = project_context(table, Context(1, 1))
        products = table.outcomes[:, 0].astype(int) * table.outcomes[:, 2]
        assert correlation(dataset) == pytest.approx(products.mean(), abs=0)

    def test_empty_table_rejected(self):
        table = CounterfactualTable(np.empty((0, 4), dtype=np.int8))
        with pytest.raises(DomainError):
            project_context(table, Context(1, 1))

    @settings(max_examples=150)
    @given(tables())
    def test_bundle_identity_bridge(self, table):
        # same rows averaged four ways equal the one-table statistic
        assert s_statistic(project_bundle(table)) == pytest.approx(
            b_statistic(table), abs=1e-12
        )


class TestCorrelation:
    def test_examples(self):
        ctx = Context(1, 1)
        assert correlation(ContextDataset(ctx, [[1, 1]] * 4)) == 1.0
        assert correlation(ContextDataset(ctx, [[1, 1], [1, -1]])) == 0.0
        assert correlation(ContextDataset(ctx, [[1, 1], [1, 1], [-1, 1]])) == pytest.approx(1 / 3)

    def test_empty_rejected(self):
        dataset = ContextDataset(Context(1, 2), np.empty((0, 2), dtype=np.int8))
        with pytest.raises(DomainError):
            correlation(dataset)


class TestSStatistic:
    def test_all_perfectly_correlated(self):
        datasets = tuple(ContextDataset(c, [[1, 1]] * 3) for c in CANONICAL_CONTEXTS)
        assert s_statistic(ExperimentBundle(datasets)) == 2.0

    def test_pr_box_data_reaches_four(self):
        # perfect correlation in (1,1), (1,2), (2,1); perfect anticorrelation in (2,2)
        datasets = []
        for context in CANONICAL_CONTEXTS:
            pair = [1, -1] if (context.alice, context.bob) == (2, 2) else [1, 1]
            datasets.append(ContextDataset(context, [pair] * 5))
        assert s_statistic(ExperimentBundle(tuple(datasets))) == 4.0

    @settings(max_examples=150)
    @given(bundles())
    def test_range_and_sign_flip(self, bundle):
        value = s_statistic(bundle)
        assert -4.0 <= value <= 4.0
        flipped = ExperimentBundle(
            tuple(ContextDataset(d.context, -d.pairs) for d in bundle.datasets)
        )
        assert s_statistic(flipped) == value

    def test_empty_dataset_rejected(self):
        datasets = [ContextDataset(c, [[1, 1]]) for c in CANONICAL_CONTEXTS[:3]]
        datasets.append(ContextDataset(Context(2, 2), np.empty((0, 2), dtype=np.int8)))
        with pytest.raises(DomainError):
            s_statistic(ExperimentBundle(tuple(datasets)))


class TestValidation:
    def test_bad_outcome_values(self):
        with pytest.raises(DomainError, match="must be \\+1 or -1"):
            CounterfactualTable([[1, 1, 0, 1]])
        with pytest.raises(DomainError):
            ContextDataset(Context(1, 1), [[1, 3]])

    def test_non_integer_outcomes(self):
        with pytest.raises(DomainError, match="integers"):
            CounterfactualTable([[1.0, 1.0, 0.5, 1.0]])

    def test_context_settings(self):
        with pytest.raises(DomainError):
            Context(0, 1)
        with pytest.raises(DomainError):
            Context(1, 3)
        assert [c.index for c in CANONICAL_CONTEXTS] == [0, 1, 2, 3]

    def test_bundle_must_cover_contexts(self):
        same = tuple(ContextDataset(Context(1, 1), [[1, 1]]) for _ in range(4))
        with pytest.raises(DomainError, match="cover all four"):
            ExperimentBundle(same)

    def test_bundle_reorders_to_canonical(self):
        datasets = [ContextDataset(c, [[1, 1]]) for c in reversed(CANONICAL_CONTEXTS)]
        bundle = ExperimentBundle(tuple(datasets))
        assert [d.context for d in bundle.datasets] == list(CANONICAL_CONTEXTS)

    def test_outcome_arrays_read_only(self):
        table = CounterfactualTable.from_rows([(1, 1, 1, 1)])
        with pytest.raises(ValueError):
            table.outcomes[0, 0] = -1


def random_laws(rng):
    """Four laws over 1-9 indices, each recording arbitrary (a, b) pairs."""
    laws = []
    for _ in CANONICAL_CONTEXTS:
        m = int(rng.integers(1, 10))
        probs = rng.dirichlet(np.ones(m))
        laws.append((probs, rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, 2))))
    return laws


class TestPerContextSampler:
    def test_each_context_draws_its_law_on_its_own_stream(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            laws, n, seed = random_laws(rng), int(rng.integers(1, 300)), int(rng.integers(2**63))
            bundle = ContextStreams(laws, "test-context").sample(n, seed)
            for context, (probs, pairs), dataset in zip(CANONICAL_CONTEXTS, laws, bundle.datasets):
                draws = categorical(spawn_rng(seed, "test-context", context.index), probs, n)
                assert dataset.context == context
                assert np.array_equal(dataset.pairs, pairs[draws])

    def test_pairs_that_are_not_c_contiguous_draw_alike(self):
        # model_streams slices the strategy columns, which gives Fortran-ordered pairs
        rng = np.random.default_rng(13)
        for _ in range(20):
            laws, n, seed = random_laws(rng), int(rng.integers(1, 300)), int(rng.integers(2**63))
            strided = [(probs, np.repeat(pairs, 2, axis=1)[:, ::2]) for probs, pairs in laws]
            fortran = [(probs, np.asfortranarray(pairs)) for probs, pairs in laws]
            assert not any(pairs.flags.c_contiguous for _, pairs in strided)
            expected = ContextStreams(laws, "test-context").sample(n, seed)
            assert ContextStreams(strided, "test-context").sample(n, seed) == expected
            assert ContextStreams(fortran, "test-context").sample(n, seed) == expected

    def test_samplers_do_not_search_the_edges(self, monkeypatch):
        # every sampler reads its draws off run edges; categorical (searchsorted) is the tests' reference only
        from bellsim.behaviors import pr_box, sample_bundle_from_behavior
        from bellsim.lhv import sample_bundle, sample_counterfactual_table, sign_cosine_model
        from bellsim.quantum import TSIRELSON_ANGLES, sample_bundle_quantum, singlet

        def refuse(*args, **kwargs):
            raise AssertionError("a sampler called np.searchsorted")

        monkeypatch.setattr(np, "searchsorted", refuse)
        model = sign_cosine_model(0.2, 1.1, -0.5, 2.5)
        sample_bundle(model, 50, 1)
        sample_counterfactual_table(model, 50, 1)
        sample_bundle_quantum(singlet(), TSIRELSON_ANGLES, 50, 1)
        sample_bundle_from_behavior(pr_box(), 50, 1)

    def test_counts_are_the_bundle_plus_counts(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            laws, n, seed = random_laws(rng), int(rng.integers(1, 300)), int(rng.integers(2**63))
            bundle = ContextStreams(laws, "test-context").sample(n, seed)
            expected = tuple(plus_count(dataset) for dataset in bundle.datasets)
            assert ContextStreams(laws, "test-context").plus_counts(n, [seed]) == [expected]


# (name, laws): 0, 1, 2, 2 and 4 drawn contexts.  Every LHV or singlet law draws an even
# number: each strategy's four products multiply to +1, so three fixed contexts fix the fourth.
# A behavior does not: half PR box, half the box with a = b everywhere, has E = (1, 1, 1, 0).
BLOCK_LAWS = [
    ("deterministic", model_streams(deterministic_model(1, -1, 1, 1)).laws),
    ("one-drawn-behavior", behavior_streams(Behavior([[0.5, 0, 0, 0.5]] * 3 + [[0.25] * 4])).laws),
    ("boundary-mixture", model_streams(boundary_mixture_model()).laws),
    ("singlet-two-drawn", behavior_streams(behavior_from_quantum(singlet(), AngleQuadruple(0, np.pi / 2, 0, np.pi / 2))).laws),
    ("singlet", behavior_streams(behavior_from_quantum(singlet(), TSIRELSON_ANGLES)).laws),
    ("sign-cosine", model_streams(sign_cosine_model(0.1, 1.7, 0.9, -0.8, bob_sign=-1)).laws),
]


class TestBlockPath:
    """``plus_counts`` fills a buffer with a block of streams; every count is still its own bundle's."""

    def test_laws_draw_the_named_number_of_contexts(self):
        drawn = [
            sum(bool(category_runs(probs, pairs[:, 0] == pairs[:, 1]).edges) for probs, pairs in laws)
            for _, laws in BLOCK_LAWS
        ]
        assert drawn == [0, 1, 2, 2, 4, 4]

    @pytest.mark.parametrize(
        "n,seeds",
        [
            (1, 5),  # one block of five rows
            (1000, 2 * (BLOCK_VALUES // 1000) + 1),  # 131 rows a block, the last block one row
            (BLOCK_VALUES // 3, 8),  # three rows a block, the last block two rows
            (BLOCK_VALUES // 2, 5),  # two rows a block, the last block one row
            (BLOCK_VALUES // 2 + 1, 3),  # one row a block from here on
            (BLOCK_VALUES, 3),
            (BLOCK_VALUES + 1, 2),
        ],
    )
    @pytest.mark.parametrize("name,laws", BLOCK_LAWS, ids=[name for name, _ in BLOCK_LAWS])
    def test_counts_are_each_seeds_bundle_plus_counts(self, name, laws, n, seeds):
        seeds = derive_seeds([n], ("block",), range(seeds))
        expected = [
            tuple(plus_count(d) for d in ContextStreams(laws, "block-context").sample(n, seed).datasets) for seed in seeds
        ]
        assert ContextStreams(laws, "block-context").plus_counts(n, seeds) == expected

    def test_no_seeds(self):
        assert model_streams(boundary_mixture_model()).plus_counts(10, []) == []
