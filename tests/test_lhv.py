import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellsim
from bellsim.core import CANONICAL_CONTEXTS, Context, b_statistic, s_statistic
from bellsim.errors import ConfigError
from bellsim.lhv import (
    FiniteSpace,
    IntervalSpace,
    LhvModel,
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

TWO_PI = 2.0 * math.pi


def folded_distance(x, y):
    """Angular distance folded to [0, pi]."""
    d = abs(x - y) % TWO_PI
    return min(d, TWO_PI - d)


def sign_cosine_closed_form(a, b):
    """E(a, b) = (2/pi) * d - 1 for the default anticorrelating Bob sign."""
    return (2.0 / math.pi) * folded_distance(a, b) - 1.0


def brute_force_correlation(model, context, k=200_000):
    """Independent oracle: midpoint discretization of lambda over [0, 2pi)."""
    lam = (np.arange(k) + 0.5) * (TWO_PI / k)
    product = model.alice_response(context.alice, lam) * model.bob_response(context.bob, lam)
    density = model.density(lam)
    return float((product * density).sum() * (TWO_PI / k))


class TestSignCosine:
    def test_closed_form_rederived_by_brute_force(self):
        model = sign_cosine_model(0.3, 1.9, 0.8, 4.4)
        for context in CANONICAL_CONTEXTS:
            a = (0.3, 1.9)[context.alice - 1]
            b = (0.8, 4.4)[context.bob - 1]
            closed = sign_cosine_closed_form(a, b)
            assert brute_force_correlation(model, context) == pytest.approx(closed, abs=2e-4)

    def test_quadrature_matches_closed_form(self):
        model = sign_cosine_model(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
        for context in CANONICAL_CONTEXTS:
            a = (0.0, math.pi / 2)[context.alice - 1]
            b = (math.pi / 4, 3 * math.pi / 4)[context.bob - 1]
            assert exact_lhv_correlation(model, context) == pytest.approx(
                sign_cosine_closed_form(a, b), abs=1e-9
            )

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

    def test_interval_model_requires_density_and_sampler(self):
        def resp(setting, lam):
            return np.ones_like(lam, dtype=np.int8)

        with pytest.raises(ConfigError, match="density"):
            LhvModel("broken", IntervalSpace(0.0, 1.0), resp, resp)

    def test_unnormalized_density_rejected(self):
        def resp(setting, lam):
            return np.ones_like(lam, dtype=np.int8)

        with pytest.raises(ConfigError, match="integrates"):
            LhvModel(
                "unnormalized",
                IntervalSpace(0.0, 1.0),
                resp,
                resp,
                density=lambda lam: np.full_like(lam, 2.0),
                sample_lambda=lambda rng, size: rng.uniform(0, 1, size),
            )

    def test_response_range_checked(self):
        def bad(setting, lam):
            return np.full_like(lam, 2, dtype=np.int8)

        def good(setting, lam):
            return np.ones_like(lam, dtype=np.int8)

        with pytest.raises(ConfigError, match="outside"):
            LhvModel("bad-response", FiniteSpace(np.arange(2), np.array([0.5, 0.5])), bad, good)

    def test_replace_revalidates_masses(self):
        with pytest.raises(ConfigError, match="sum"):
            dataclasses.replace(
                boundary_mixture_model(), space=FiniteSpace(np.arange(2), np.array([0.9, 0.9]))
            )

    def test_replace_revalidates_density(self):
        with pytest.raises(ConfigError, match="integrates"):
            dataclasses.replace(
                sign_cosine_model(0.0, 1.0, 2.0, 3.0), density=lambda lam: np.full_like(lam, 0.5)
            )


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


class TestLazyQuadratureImport:
    """scipy.integrate is most of bellsim's import time; only interval models load it."""

    def test_cli_import_and_finite_models_leave_it_out(self):
        code = (
            "import sys\n"
            "import bellsim.cli\n"
            "print('scipy.integrate' in sys.modules)\n"
            "from bellsim.lhv import boundary_mixture_model, deterministic_model, exact_lhv_s, "
            "sample_bundle, sign_cosine_model, validate_model\n"
            "for model in (boundary_mixture_model(), deterministic_model(1, 1, 1, -1)):\n"
            "    validate_model(model); exact_lhv_s(model); sample_bundle(model, 10, 1)\n"
            "print('scipy.integrate' in sys.modules)\n"
            "exact_lhv_s(sign_cosine_model(0.0, 1.0, 2.0, 3.0))\n"
            "print('scipy.integrate' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(bellsim.__path__[0])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "False", "True"]
