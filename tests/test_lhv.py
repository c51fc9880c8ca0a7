import dataclasses
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellsim
from bellsim.core import CANONICAL_CONTEXTS, Context, b_statistic, s_statistic
from bellsim.errors import ConfigError
from bellsim.lhv import (
    ANGLE_LIMIT,
    MixtureModel,
    boundary_mixture_model,
    deterministic_model,
    exact_lhv_correlation,
    exact_lhv_s,
    mixture_model,
    model_from_mapping,
    sample_bundle,
    sample_counterfactual_table,
    sign_cosine_model,
)
from bellsim.rng import spawn_rng

TWO_PI = 2.0 * math.pi


def folded_distance(x, y):
    """Angular distance folded to [0, pi]."""
    d = abs(x - y) % TWO_PI
    return min(d, TWO_PI - d)


def sign_cosine_closed_form(a, b):
    """E(a, b) = (2/pi) * d - 1 for the default anticorrelating Bob sign."""
    return (2.0 / math.pi) * folded_distance(a, b) - 1.0


def sign_cosine_responses(lam, angles, bob_sign):
    """Columns (A1, A2, B1, B2) at each lambda: sign(cos(lambda - angle)), Bob's times bob_sign."""
    signs = np.where(np.cos(np.asarray(lam)[:, None] - np.asarray(angles, dtype=float)) >= 0.0, 1, -1)
    return signs * np.array([1, 1, bob_sign, bob_sign])


def brute_force_correlation(angles, bob_sign, context, k=200_000):
    """Independent oracle: midpoint discretization of lambda over [0, 2pi).

    Sums sign(cos(lambda - a_i)) * bob_sign * sign(cos(lambda - b_j)) against
    the uniform density 1/(2pi).
    """
    lam = (np.arange(k) + 0.5) * (TWO_PI / k)
    responses = sign_cosine_responses(lam, angles, bob_sign)
    product = responses[:, context.alice - 1] * responses[:, 2 + context.bob - 1]
    density = 1.0 / TWO_PI
    return float((product * density).sum() * (TWO_PI / k))


PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def exact_sign_cosine_correlation(a, b, bob_sign):
    """bob_sign * (1 - 2 d / pi) with d the folded distance of the floats a, b, in 50-digit arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = abs(Decimal(a) - Decimal(b)) % (2 * PI_50)
        d = min(d, 2 * PI_50 - d)
        return bob_sign * (1 - 2 * d / PI_50)


FOUR_PI = 2 * TWO_PI


@st.composite
def sign_cosine_angles(draw):
    """Four angles in [-4pi, 4pi]; each may repeat an earlier one or sit pi/2 or pi from it."""
    angles = draw(st.lists(st.floats(-FOUR_PI, FOUR_PI, allow_nan=False), min_size=4, max_size=4))
    offsets = st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi])
    for k in range(1, 4):
        tie = draw(st.none() | st.tuples(st.integers(0, k - 1), offsets))
        if tie is not None:
            angles[k] = min(max(angles[tie[0]] + tie[1], -FOUR_PI), FOUR_PI)
    return angles


class TestSignCosine:
    def test_closed_form_rederived_by_brute_force(self):
        model = sign_cosine_model(0.3, 1.9, 0.8, 4.4)
        for context in CANONICAL_CONTEXTS:
            a = (0.3, 1.9)[context.alice - 1]
            b = (0.8, 4.4)[context.bob - 1]
            closed = sign_cosine_closed_form(a, b)
            assert exact_lhv_correlation(model, context) == pytest.approx(closed, abs=1e-12)
            assert brute_force_correlation((0.3, 1.9, 0.8, 4.4), -1, context) == pytest.approx(closed, abs=2e-4)

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(*[st.floats(-2 * TWO_PI, 2 * TWO_PI, allow_nan=False) for _ in range(4)]),
        st.sampled_from([-1, 1]),
    )
    def test_closed_form_matches_midpoint_sum(self, angles, bob_sign):
        # A_i * B_j jumps at most 4 times on [0, 2pi); each jump can put at most
        # one of the K midpoint cells on the wrong side, costing <= 2/K.
        k = 2**16
        model = sign_cosine_model(*angles, bob_sign=bob_sign)
        for context in CANONICAL_CONTEXTS:
            reference = brute_force_correlation(angles, bob_sign, context, k)
            assert abs(exact_lhv_correlation(model, context) - reference) <= 8 / k

    @settings(max_examples=200, deadline=None)
    @given(sign_cosine_angles(), st.sampled_from([-1, 1]))
    def test_arc_mixture_matches_exact_closed_form(self, angles, bob_sign):
        # Each cut (angle +/- pi/2) mod 2pi is off by < 2.1e-15 rad: one rounding below
        # 16 (2**-50), one in the mod's wrap (2**-52) and up to three times the float
        # 2pi's error (2.5e-16).  E = 1 - (measure where the signs disagree) / pi, a set
        # of two arcs with four ends, so E is off by < 4 * 2.1e-15 / pi < 2.7e-15, plus
        # the rounding of the weighted sum.
        model = sign_cosine_model(*angles, bob_sign=bob_sign)
        assert len(model.strategies) <= 9
        for context in CANONICAL_CONTEXTS:
            a, b = angles[context.alice - 1], angles[2 + context.bob - 1]
            exact = exact_sign_cosine_correlation(a, b, bob_sign)
            assert abs(Decimal(exact_lhv_correlation(model, context)) - exact) <= Decimal("4e-15")

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(*[st.floats(-2 * TWO_PI, 2 * TWO_PI, allow_nan=False) for _ in range(4)]),
        st.sampled_from([-1, 1]),
        st.integers(0, 2**63),
    )
    def test_table_stream_is_the_sign_cosine_of_uniform_lambda(self, angles, bob_sign, seed):
        # lambda = 2pi * u on the table's stream, as rng.uniform(0, 2pi) draws it
        n = 500
        model = sign_cosine_model(*angles, bob_sign=bob_sign)
        u = spawn_rng(seed, "lhv-table").random(n)
        expected = sign_cosine_responses(TWO_PI * u, angles, bob_sign)
        assert np.array_equal(sample_counterfactual_table(model, n, seed).outcomes, expected)

    def test_equal_angles_give_perfect_anticorrelation(self):
        model = sign_cosine_model(0.7, 2.0, 0.7, 3.0)
        assert exact_lhv_correlation(model, Context(1, 1)) == pytest.approx(-1.0, abs=1e-9)
        table = sample_counterfactual_table(model, 500, seed=1)
        assert np.array_equal(table.outcomes[:, 0], -table.outcomes[:, 2])

    def test_positive_bob_sign_flips_correlation(self):
        model = sign_cosine_model(0.7, 2.0, 0.7, 3.0, bob_sign=1.0)
        assert exact_lhv_correlation(model, Context(1, 1)) == pytest.approx(1.0, abs=1e-9)

    def test_example_angles_give_s_zero(self):
        model = sign_cosine_model(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
        assert exact_lhv_s(model) == pytest.approx(0.0, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(*[st.floats(0, TWO_PI, allow_nan=False) for _ in range(4)]))
    def test_exact_s_within_chsh_bound(self, angles):
        model = sign_cosine_model(*angles)
        assert abs(exact_lhv_s(model)) <= 2.0 + 1e-8


class TestFiniteModels:
    def test_deterministic_all_plus(self):
        model = deterministic_model(1, 1, 1, 1)
        table = sample_counterfactual_table(model, 5, seed=0)
        assert table.outcomes.tolist() == [[1, 1, 1, 1]] * 5
        for context in CANONICAL_CONTEXTS:
            assert exact_lhv_correlation(model, context) == 1.0
        assert exact_lhv_s(model) == 2.0

    def test_boundary_mixture_exact_values(self):
        # hand mixture arithmetic: E = (1, 0, 1, 0) so S = 2 exactly
        model = boundary_mixture_model()
        expected = {(1, 1): 1.0, (1, 2): 0.0, (2, 1): 1.0, (2, 2): 0.0}
        for context in CANONICAL_CONTEXTS:
            assert exact_lhv_correlation(model, context) == expected[
                (context.alice, context.bob)
            ]
        assert exact_lhv_s(model) == 2.0

    def test_boundary_mixture_rejects_non_boundary_strategies(self):
        with pytest.raises(ConfigError, match="C \\= \\+2"):
            boundary_mixture_model([(1, 1, 1, 1), (-1, 1, 1, 1)], [0.5, 0.5])

    def test_general_mixture_reaches_sub_boundary_values(self):
        model = mixture_model(
            [(1, 1, 1, 1), (1, 1, 1, -1), (-1, 1, 1, 1)], [0.475, 0.475, 0.05]
        )
        assert exact_lhv_s(model) == pytest.approx(1.8)

    def test_sampled_tables_respect_b_bound(self):
        model = boundary_mixture_model()
        for seed in range(5):
            table = sample_counterfactual_table(model, 400, seed=seed)
            assert abs(b_statistic(table)) <= 2.0


class TestSampling:
    def test_determinism(self):
        model = boundary_mixture_model()
        t1 = sample_counterfactual_table(model, 100, seed=7)
        t2 = sample_counterfactual_table(model, 100, seed=7)
        assert np.array_equal(t1.outcomes, t2.outcomes)
        b1 = sample_bundle(model, 100, seed=7)
        b2 = sample_bundle(model, 100, seed=7)
        for d1, d2 in zip(b1.datasets, b2.datasets):
            assert np.array_equal(d1.pairs, d2.pairs)
        assert not np.array_equal(
            sample_counterfactual_table(model, 100, seed=8).outcomes, t1.outcomes
        )

    def test_bundle_streams_differ_from_table_stream(self):
        # fresh lambda per context: bundle contexts are not row-aligned with the table
        model = boundary_mixture_model()
        table = sample_counterfactual_table(model, 200, seed=3)
        bundle = sample_bundle(model, 200, seed=3)
        projected = table.outcomes[:, [0, 3]]  # context (1, 2) columns
        assert not np.array_equal(bundle.datasets[1].pairs, projected)

    def test_estimator_consistency_against_quadrature(self):
        # |E_hat - E| <= 4*sqrt((1 - E^2)/n) in >= 99% of seeded runs
        model = sign_cosine_model(0.2, 1.1, 2.3, 5.1)
        exact = [exact_lhv_correlation(model, c) for c in CANONICAL_CONTEXTS]
        n = 4000
        hits = 0
        runs = 100
        for seed in range(runs):
            bundle = sample_bundle(model, n, seed=seed)
            ok = True
            for dataset, e in zip(bundle.datasets, exact):
                err = abs(
                    dataset.pairs[:, 0].astype(float) @ dataset.pairs[:, 1] / n - e
                )
                ok = ok and err <= 4.0 * math.sqrt((1 - e * e) / n) + 1e-12
            hits += ok
        assert hits >= 99

    def test_n_must_be_positive(self):
        model = deterministic_model(1, 1, 1, 1)
        with pytest.raises(ConfigError):
            sample_counterfactual_table(model, 0, seed=1)
        with pytest.raises(ConfigError):
            sample_bundle(model, 0, seed=1)

    def test_deterministic_bundle_s_exactly_two(self):
        bundle = sample_bundle(deterministic_model(1, 1, 1, 1), 50, seed=9)
        assert s_statistic(bundle) == 2.0


class TestValidation:
    def test_bad_mixture_weights(self):
        with pytest.raises(ConfigError, match="sum"):
            mixture_model([(1, 1, 1, 1), (1, 1, 1, -1)], [0.7, 0.6])
        with pytest.raises(ConfigError, match="negative"):
            mixture_model([(1, 1, 1, 1), (1, 1, 1, -1)], [1.5, -0.5])
        with pytest.raises(ConfigError, match="\\+1 or -1"):
            mixture_model([(1, 0, 1, 1)], [1.0])

    def test_response_range_checked(self):
        with pytest.raises(ConfigError, match="\\+1 or -1"):
            MixtureModel("bad-response", ((2, 1, 1, 1), (1, 1, 1, 1)), (0.5, 0.5))

    def test_replace_revalidates_masses(self):
        with pytest.raises(ConfigError, match="sum"):
            dataclasses.replace(boundary_mixture_model(), weights=(0.9, 0.9))

    def test_angles_beyond_the_limit_rejected(self):
        # at 1e17 rad, a1 +/- pi/2 rounds to a1 itself, so the arc cuts would collapse
        # and the arcs would not describe the responses
        with pytest.raises(ConfigError, match="a1"):
            sign_cosine_model(1e17, 1.0, 0.5, 2.0)
        with pytest.raises(ConfigError, match="finite"):
            sign_cosine_model(0.0, 1.0, 2.0, math.inf)
        with pytest.raises(ConfigError, match="bob_sign"):
            sign_cosine_model(0.0, 1.0, 2.0, 3.0, bob_sign=0)
        sign_cosine_model(ANGLE_LIMIT, -ANGLE_LIMIT, 0.5, 2.0)


class TestValueSemantics:
    """Models hold plain tuples and numbers, so they compare and hash by value."""

    def test_equal_builds_compare_equal(self):
        assert boundary_mixture_model() == boundary_mixture_model()
        assert sign_cosine_model(0.1, 0.2, 0.3, 0.4, 1) == sign_cosine_model(0.1, 0.2, 0.3, 0.4, 1)
        assert deterministic_model(1, 1, 1, -1) == model_from_mapping(
            {"variant": "deterministic", "outcomes": [1, 1, 1, -1]}
        )

    def test_models_are_hashable(self):
        models = {boundary_mixture_model(), boundary_mixture_model(), sign_cosine_model(0, 1, 2, 3)}
        assert len(models) == 2
        assert hash(sign_cosine_model(0, 1, 2, 3)) == hash(sign_cosine_model(0, 1, 2, 3))

    def test_different_parameters_compare_unequal(self):
        strategies = boundary_mixture_model().strategies
        assert boundary_mixture_model(strategies, (0.25, 0.75)) != boundary_mixture_model()
        assert sign_cosine_model(0, 1, 2, 3) != sign_cosine_model(0, 1, 2, 3, bob_sign=1)
        assert isinstance(boundary_mixture_model(), MixtureModel)
        assert isinstance(sign_cosine_model(0, 1, 2, 3), MixtureModel)


class TestModelMapping:
    def test_variants(self):
        m = model_from_mapping({"variant": "deterministic", "outcomes": [1, 1, 1, -1]})
        assert exact_lhv_s(m) == 2.0
        m = model_from_mapping({"variant": "boundary_mixture"})
        assert exact_lhv_s(m) == 2.0
        m = model_from_mapping(
            {"variant": "sign_cosine", "a1": 0.0, "a2": 1.0, "b1": 2.0, "b2": 3.0}
        )
        assert abs(exact_lhv_s(m)) <= 2 + 1e-8

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            model_from_mapping({"variant": "boundary_mixture", "extra": 1})
        with pytest.raises(ConfigError, match="variant"):
            model_from_mapping({"outcomes": [1, 1, 1, 1]})
        with pytest.raises(ConfigError, match="missing"):
            model_from_mapping({"variant": "sign_cosine", "a1": 0.0})


class TestNoScipy:
    """bellsim needs no scipy: every model is built, sampled and solved without it."""

    def test_models_and_lhv_commands_leave_scipy_out(self, tmp_path):
        code = (
            "import sys\n"
            "import bellsim.cli\n"
            "from bellsim.lhv import (boundary_mixture_model, deterministic_model, exact_lhv_s,\n"
            "    mixture_model, model_from_mapping, sample_bundle, sample_counterfactual_table,\n"
            "    sign_cosine_model)\n"
            "models = [boundary_mixture_model(), deterministic_model(1, 1, 1, -1),\n"
            "          mixture_model([(1, 1, 1, 1), (-1, 1, 1, 1)], [0.3, 0.7]),\n"
            "          sign_cosine_model(0.0, 1.0, 2.0, 3.0),\n"
            "          model_from_mapping({'variant': 'sign_cosine', 'a1': 0, 'a2': 1, 'b1': 2, 'b2': 3})]\n"
            "for model in models:\n"
            "    exact_lhv_s(model); sample_bundle(model, 10, 1); sample_counterfactual_table(model, 10, 1)\n"
            "angles = ['--angles', '0.2', '1.1', '-0.5', '2.5']\n"
            "assert bellsim.cli.main(['simulate-lhv', '--variant', 'sign_cosine', *angles,\n"
            "                         '--n', '20', '--seed', '1', '--out', 'lhv']) == 0\n"
            "assert bellsim.cli.main(['violation-curve', '--generator', 'sign_cosine', *angles,\n"
            "                         '--n', '10', '--trials', '3', '--seed', '1', '--out', 'curve']) == 0\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(bellsim.__path__[0])}
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]"]
