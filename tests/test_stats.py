import math

import numpy as np
import pytest
from scipy.stats import binomtest

from bellsim.behaviors import pr_box
from bellsim.core import CANONICAL_CONTEXTS, ContextDataset, ExperimentBundle
from bellsim.errors import ConfigError, DomainError
from bellsim.lhv import boundary_mixture_model, deterministic_model, sign_cosine_model
from bellsim.quantum import TSIRELSON_ANGLES, singlet
from bellsim.stats import (
    ViolationStudy,
    generator_from_behavior,
    generator_from_lhv,
    generator_from_quantum,
    significance_curve,
    standard_error_s,
    violation_frequency,
    wilson_interval,
)

BOUNDARY = generator_from_lhv(boundary_mixture_model())
# angles chosen so the piecewise-linear correlations sum to exactly 1.8
SUB_BOUNDARY = generator_from_lhv(
    sign_cosine_model(0.0, math.pi / 20, math.pi, 5 * math.pi / 4)
)
SINGLET = generator_from_quantum(singlet(), TSIRELSON_ANGLES)


class TestWilson:
    @pytest.mark.parametrize("k,n", [(0, 10), (5, 10), (10, 10), (500, 1000), (13, 977)])
    def test_matches_scipy_oracle(self, k, n):
        lo, hi = wilson_interval(k, n)
        ref = binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
        assert lo == pytest.approx(ref.low, abs=1e-12)
        assert hi == pytest.approx(ref.high, abs=1e-12)

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 100)
        assert lo <= 0.37 <= hi

    def test_validation(self):
        with pytest.raises(DomainError):
            wilson_interval(5, 0)
        with pytest.raises(DomainError):
            wilson_interval(11, 10)


class TestStandardError:
    def test_zero_correlation_four_contexts(self):
        pairs = [[1, 1], [1, -1]] * 50  # exactly E = 0 with n = 100
        bundle = ExperimentBundle(tuple(ContextDataset(c, pairs) for c in CANONICAL_CONTEXTS))
        assert standard_error_s(bundle) == pytest.approx(0.2)

    def test_perfect_correlation_gives_zero(self):
        bundle = ExperimentBundle(
            tuple(ContextDataset(c, [[1, 1]] * 10) for c in CANONICAL_CONTEXTS)
        )
        assert standard_error_s(bundle) == 0.0

    def test_matches_monte_carlo_spread(self):
        # empirical sd of S-hat over trials within 10% of the formula
        n = 10_000
        result = violation_frequency(
            ViolationStudy(BOUNDARY, n_per_context=n, trials=1000, seed=77)
        )
        formula = math.sqrt((1 - 1.0) / n + (1 - 0.0) / n + (1 - 1.0) / n + (1 - 0.0) / n)
        assert result.sd_s == pytest.approx(formula, rel=0.10)

    def test_short_datasets_rejected(self):
        bundle = ExperimentBundle(
            tuple(ContextDataset(c, [[1, 1]]) for c in CANONICAL_CONTEXTS)
        )
        with pytest.raises(DomainError):
            standard_error_s(bundle)


class TestViolationFrequency:
    def test_deterministic_generator_never_violates(self):
        # S-hat == 2 every trial; ties are non-violations by convention
        generator = generator_from_lhv(deterministic_model(1, 1, 1, 1))
        result = violation_frequency(ViolationStudy(generator, 50, trials=64, seed=1))
        assert result.violation_frequency == 0.0
        assert result.mean_s == 2.0
        assert result.sd_s == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_spread_at_threshold_gives_zero_z_without_warning(self):
        generator = generator_from_lhv(deterministic_model(1, 1, 1, 1))
        assert significance_curve(generator, [10], 5, 1).rows[0].z == 0.0
        assert significance_curve(generator, [10], 5, 1, threshold=1.0).rows[0].z == math.inf
        assert significance_curve(generator, [10], 5, 1, threshold=3.0).rows[0].z == -math.inf

    def test_boundary_model_near_half(self):
        result = violation_frequency(
            ViolationStudy(BOUNDARY, n_per_context=10_000, trials=2_000, seed=5)
        )
        assert 0.46 <= result.violation_frequency <= 0.54
        lo, hi = result.frequency_ci95
        assert lo <= result.violation_frequency <= hi

    def test_sub_boundary_rarely_violates_at_large_n(self):
        result = violation_frequency(
            ViolationStudy(SUB_BOUNDARY, n_per_context=10_000, trials=400, seed=5)
        )
        assert result.violation_frequency < 0.01
        assert result.mean_s == pytest.approx(1.8, abs=0.01)

    def test_singlet_nearly_always_violates(self):
        result = violation_frequency(
            ViolationStudy(SINGLET, n_per_context=1_000, trials=300, seed=5)
        )
        assert result.violation_frequency > 0.99

    def test_negative_exact_s_resolved_by_sign(self):
        # the singlet at Tsirelson angles has exact S = -2*sqrt(2); signed mode
        # counts -S-hat > 2, so mean_s reports the positive magnitude
        result = violation_frequency(ViolationStudy(SINGLET, 500, trials=100, seed=3))
        assert result.mean_s > 2.5

    def test_absolute_mode(self):
        generator = generator_from_behavior(pr_box())
        result = violation_frequency(
            ViolationStudy(generator, 100, trials=50, seed=2, threshold=3.0, mode="absolute")
        )
        assert result.violation_frequency == 1.0

    def test_reproducible(self):
        study = ViolationStudy(BOUNDARY, 500, trials=200, seed=11)
        assert violation_frequency(study) == violation_frequency(study)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ViolationStudy(BOUNDARY, 0, trials=10, seed=1)
        with pytest.raises(ConfigError):
            ViolationStudy(BOUNDARY, 10, trials=0, seed=1)
        with pytest.raises(ConfigError):
            ViolationStudy(BOUNDARY, 10, trials=10, seed=1, threshold=-1.0)
        with pytest.raises(ConfigError):
            ViolationStudy(BOUNDARY, 10, trials=10, seed=1, mode="both")


class TestSignificanceCurve:
    def test_sub_boundary_frequency_decays(self):
        result = significance_curve(SUB_BOUNDARY, [100, 10_000], trials=1000, seed=19)
        first, last = result.rows[0], result.rows[-1]
        assert last.frequency < first.frequency
        assert last.frequency < 0.01

    def test_boundary_frequency_stable_near_half(self):
        result = significance_curve(BOUNDARY, [100, 1600, 6400], trials=1500, seed=19)
        for row in result.rows:
            assert 0.42 <= row.frequency <= 0.55

    def test_singlet_z_grows_like_sqrt_n(self):
        result = significance_curve(SINGLET, [500, 2000, 8000], trials=400, seed=19)
        z = np.array([row.z for row in result.rows])
        # quadrupling n should double z, within 20%
        assert z[1] / z[0] == pytest.approx(2.0, rel=0.2)
        assert z[2] / z[1] == pytest.approx(2.0, rel=0.2)

    def test_result_summarizes_last_row(self):
        result = significance_curve(BOUNDARY, [50, 200], trials=100, seed=4)
        assert result.violation_frequency == result.rows[-1].frequency
        assert result.rows[0].n == 50 and result.rows[-1].n == 200

    def test_n_values_validated(self):
        with pytest.raises(ConfigError):
            significance_curve(BOUNDARY, [], trials=10, seed=1)
        with pytest.raises(ConfigError):
            significance_curve(BOUNDARY, [100, 50], trials=10, seed=1)
        with pytest.raises(ConfigError):
            significance_curve(BOUNDARY, [100, 100], trials=10, seed=1)


class TestWilsonCoverage:
    def test_boundary_ci_covers_half(self):
        # known violation probability -> 1/2 as n grows; the 95% Wilson CI at
        # trials = 1000 must cover 0.5 in >= 93% of meta-repetitions
        meta = 30
        covered = 0
        for rep in range(meta):
            result = violation_frequency(
                ViolationStudy(BOUNDARY, n_per_context=10_000, trials=1000, seed=3000 + rep)
            )
            lo, hi = result.frequency_ci95
            covered += lo <= 0.5 <= hi
        assert covered / meta >= 0.93
