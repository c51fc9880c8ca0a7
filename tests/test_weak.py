import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from bellsim.core import CounterfactualTable, b_statistic, row_c_values
from bellsim.errors import BellSimError, ConfigError, DomainError
from bellsim.lhv import boundary_mixture_model, sample_counterfactual_table
from bellsim.rng import spawn_rng
from bellsim.weak import (
    PointerConfig,
    PointerRun,
    exceedance_fraction,
    per_pair_b_values_calibrated,
    per_pair_b_values_lhv,
)
from scalars import SCALARS

TSIRELSON = 2.0 * math.sqrt(2.0)


@pytest.fixture(scope="module")
def source_table():
    return sample_counterfactual_table(boundary_mixture_model(), 100_000, seed=41)


class TestLhvSource:
    def test_noiseless_limit_recovers_row_c(self, source_table):
        run = per_pair_b_values_lhv(source_table, PointerConfig(2.0, 0.0), seed=1)
        assert np.array_equal(run.b_values, row_c_values(source_table).astype(float))
        assert set(np.unique(run.b_values)) <= {-2.0, 2.0}

    def test_mean_unbiased_for_b_statistic(self, source_table):
        run = per_pair_b_values_lhv(source_table, PointerConfig(1.0, 1.0), seed=2)
        se = run.b_values.std(ddof=1) / math.sqrt(len(run))
        assert abs(run.b_values.mean() - b_statistic(source_table)) <= 4 * se

    def test_per_pair_values_unbounded(self, source_table):
        # individual b-values respect neither 2 nor 2*sqrt(2)
        for sigma in (0.3, 1.0):
            run = per_pair_b_values_lhv(source_table, PointerConfig(1.0, sigma), seed=3)
            assert run.b_values.max() > TSIRELSON
        assert run.b_values.min() < -2.0  # wide spread at sigma = 1

    def test_deterministic_given_seed(self, source_table):
        r1 = per_pair_b_values_lhv(source_table, PointerConfig(1.0, 0.5), seed=9)
        r2 = per_pair_b_values_lhv(source_table, PointerConfig(1.0, 0.5), seed=9)
        assert np.array_equal(r1.readings, r2.readings)

    def test_empty_table_rejected(self):
        empty = CounterfactualTable(np.empty((0, 4), dtype=np.int8))
        with pytest.raises(DomainError):
            per_pair_b_values_lhv(empty, PointerConfig(), seed=0)

    @pytest.mark.parametrize("coupling,noise_sd", [(0.3, 1.7), (2.0, 0.0)])
    def test_readings_are_built_in_place(self, coupling, noise_sd):
        # bitwise the formula g*v + sigma*eps, with no (n, 4) array of means or scaled noise held
        # beside the readings: the readings, the run's copy and the b-values' products stay
        # under 3.25 times the readings' bytes (the formula held 3.75 times)
        n = 4096
        table = sample_counterfactual_table(boundary_mixture_model(), n, seed=5)
        noise = spawn_rng(8, "weak-lhv").standard_normal((n, 4))
        expected = coupling * table.outcomes.astype(np.float64) + noise_sd * noise
        tracemalloc.start()
        try:
            run = per_pair_b_values_lhv(table, PointerConfig(coupling, noise_sd), seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.readings.tobytes() == expected.tobytes()
        assert peak < 3.25 * expected.nbytes


class TestCalibratedSource:
    def test_exceedance_half_at_tsirelson(self):
        run = per_pair_b_values_calibrated(TSIRELSON, PointerConfig(1.0, 1.0), 10_000, seed=8)
        assert exceedance_fraction(run.b_values, TSIRELSON) == pytest.approx(0.5, abs=0.02)

    def test_exceedance_half_at_zero_target(self):
        run = per_pair_b_values_calibrated(0.0, PointerConfig(1.0, 1.0), 10_000, seed=8)
        assert exceedance_fraction(run.b_values, 0.0) == pytest.approx(0.5, abs=0.02)

    def test_median_sign_test(self):
        # two-sided sign test of median == target at the 1% level
        run = per_pair_b_values_calibrated(TSIRELSON, PointerConfig(1.0, 1.0), 20_000, seed=13)
        above = int((run.b_values > TSIRELSON).sum())
        assert binomtest(above, len(run), 0.5).pvalue > 0.01

    def test_negative_target(self):
        run = per_pair_b_values_calibrated(-TSIRELSON, PointerConfig(1.0, 1.0), 20_000, seed=8)
        assert run.b_values.mean() == pytest.approx(-TSIRELSON, abs=0.1)
        assert exceedance_fraction(run.b_values, -TSIRELSON) == pytest.approx(0.5, abs=0.02)

    def test_noiseless_limit_collapses_to_target(self):
        run = per_pair_b_values_calibrated(TSIRELSON, PointerConfig(1.0, 1e-12), 500, seed=8)
        assert run.b_values.std() <= 1e-10
        assert run.b_values == pytest.approx(TSIRELSON, abs=1e-9)

    def test_mean_matches_target(self):
        run = per_pair_b_values_calibrated(1.3, PointerConfig(2.0, 0.7), 200_000, seed=8)
        se = run.b_values.std(ddof=1) / math.sqrt(len(run))
        assert abs(run.b_values.mean() - 1.3) <= 4 * se

    def test_validation(self):
        with pytest.raises(ConfigError):
            per_pair_b_values_calibrated(TSIRELSON, PointerConfig(), 0, seed=1)
        with pytest.raises(ConfigError):
            per_pair_b_values_calibrated(math.nan, PointerConfig(), 10, seed=1)

    @pytest.mark.parametrize(
        "target",
        [np.int64(-(2**63)), np.int32(-(2**31)), np.int8(-128), np.int64(-(2**63) + 1)],
        ids=["int64-min", "int32-min", "int8-min", "int64-min+1"],
    )
    def test_numpy_integer_target_gives_the_float_run(self, target):
        # abs() of a numpy integer at its type's minimum overflowed: a RuntimeWarning under -W error
        run, expected = (per_pair_b_values_calibrated(t, PointerConfig(), 20, 5) for t in (target, float(target)))
        assert np.array_equal(run.readings, expected.readings)
        assert run.description == expected.description


class TestRecordsAndConfig:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PointerConfig(coupling=0.0)
        with pytest.raises(ConfigError):
            PointerConfig(noise_sd=-0.1)

    def test_record_invariant_enforced(self):
        readings = np.array([[1.0, 2.0, 3.0, 5.0]])
        run = PointerRun(readings, PointerConfig(2.0, 0.0), "test")
        # (r_A1 r_B1 + r_A1 r_B2 + r_A2 r_B1 - r_A2 r_B2) / g^2 = (3 + 5 + 6 - 10) / 4
        assert run.b_values.tolist() == [1.0]

    @pytest.mark.parametrize("reading,gain", [(1e200, 1.0), (1.0, 1e-200), (0.0, 1e-200)])
    def test_overflowing_b_values_rejected_without_warning(self, reading, gain):
        # the products overflow to inf (inf - inf to NaN), or g^2 is 0; the suite runs under -W error
        with pytest.raises(DomainError, match="b-values must be finite"):
            PointerRun(np.full((1, 4), reading), PointerConfig(coupling=gain), "t")

    def test_readings_need_four_columns(self):
        with pytest.raises(DomainError, match="shape"):
            PointerRun(np.zeros((5, 3)), PointerConfig(), "test")

    @pytest.mark.parametrize("gain", [Fraction(1, 2), np.float32(0.5), np.int64(2)], ids=str)
    def test_gain_of_any_real_type_gives_the_float_run(self, source_table, gain):
        # the config holds floats, so g * g is float64 arithmetic whatever type the gain came as
        config = PointerConfig(gain, Fraction(3, 4))
        assert type(config.coupling) is float and type(config.noise_sd) is float
        for sample in (
            lambda config: per_pair_b_values_calibrated(1.0, config, 50, seed=3),
            lambda config: per_pair_b_values_lhv(source_table, config, seed=3),
        ):
            run, expected = sample(PointerConfig(gain, Fraction(3, 4))), sample(PointerConfig(float(gain), 0.75))
            assert np.array_equal(run.readings, expected.readings)
            assert np.array_equal(run.b_values, expected.b_values)

    def test_record_access(self):
        run = per_pair_b_values_calibrated(1.0, PointerConfig(1.0, 0.5), 5, seed=2)
        assert len(run) == 5
        assert run.readings.shape == (5, 4)
        assert run.b_values.shape == (5,)
        g = run.config.coupling
        for (r_a1, r_a2, r_b1, r_b2), b_value in zip(run.readings, run.b_values):
            reconstructed = (r_a1 * r_b1 + r_a1 * r_b2 + r_a2 * r_b1 - r_a2 * r_b2) / g**2
            assert b_value == pytest.approx(reconstructed, abs=1e-12)


class TestExceedance:
    def test_examples(self):
        assert exceedance_fraction([1.0, 3.0], 2.0) == 0.5
        assert exceedance_fraction([0.1, 0.5, 1.9], 2.0) == 0.0
        assert exceedance_fraction([2.0, 2.0], 2.0) == 0.0  # strict inequality
        assert exceedance_fraction([math.inf, -math.inf], 0.0) == 0.5  # only NaN is rejected

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            exceedance_fraction([], 1.0)

    def test_nan_values_rejected(self):
        with pytest.raises(DomainError, match="NaN"):
            exceedance_fraction([1.0, math.nan], 0.0)
        with pytest.raises(DomainError):
            exceedance_fraction(["a"], 0.0)

    @pytest.mark.parametrize("threshold", ["2", None, math.nan, math.inf, -math.inf])
    def test_bad_threshold_rejected(self, threshold):
        with pytest.raises(ConfigError, match="threshold"):
            exceedance_fraction([1.0, 3.0], threshold)


# Sample sizes: any scalar but a large integer, which would ask for that many readings.
SIZES = SCALARS.filter(lambda n: not (isinstance(n, (int, np.integer)) and n > 50))


@settings(max_examples=500, deadline=None)
@given(coupling=SCALARS, noise_sd=SCALARS, target_s=SCALARS, n=SIZES, seed=SCALARS,
       values=st.lists(SCALARS, max_size=4) | SCALARS, threshold=SCALARS)
# abs() of the int64 minimum overflowed: a RuntimeWarning, or "math domain error" from math.sqrt
@example(coupling=1.0, noise_sd=1.0, target_s=np.int64(-(2**63)), n=3, seed=1, values=[], threshold=0.0)
def test_bare_scalar_inputs_raise_only_bellsim_errors(coupling, noise_sd, target_s, n, seed, values, threshold):
    table = CounterfactualTable(np.ones((3, 4)))
    calls = [
        lambda: PointerConfig(coupling, noise_sd),
        lambda: per_pair_b_values_calibrated(target_s, PointerConfig(), n, seed),
        lambda: per_pair_b_values_lhv(table, PointerConfig(), seed),
        lambda: per_pair_b_values_calibrated(1.0, PointerConfig(coupling, noise_sd), 3, 1),
        lambda: per_pair_b_values_lhv(table, PointerConfig(coupling, noise_sd), 1),
        lambda: exceedance_fraction(values, threshold),
    ]
    for call in calls:
        try:
            call()
        except BellSimError:
            pass
