import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binomtest

from bellsim.behaviors import (
    Behavior,
    behavior_from_quantum,
    behavior_laws,
    pr_box,
    sample_bundle_from_behavior,
)
from bellsim.core import (
    CANONICAL_CONTEXTS,
    CHSH_SIGNS,
    ContextDataset,
    ExperimentBundle,
    context_plus_counts,
    plus_count,
    s_from_counts,
    s_statistic,
)
from bellsim.errors import ConfigError, DomainError
from bellsim.lhv import (
    boundary_mixture_model,
    deterministic_model,
    mixture_model,
    model_laws,
    sample_bundle,
    sign_cosine_model,
)
from bellsim.quantum import (
    TSIRELSON_ANGLES,
    AngleQuadruple,
    random_density_matrix,
    sample_bundle_quantum,
    singlet,
)
from bellsim.rng import derive_seed
from bellsim.stats import (
    TRIAL_BLOCK,
    BundleGenerator,
    StudyRow,
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

    @pytest.mark.parametrize(
        "successes,trials", [(1.5, 3), (True, 3), ("1", 3), (1, 3.0), (1, True), (None, 3)],
        ids=["float", "bool", "text", "float-trials", "bool-trials", "none"],
    )
    def test_counts_must_be_integers(self, successes, trials):
        with pytest.raises(DomainError, match="successes and trials must be integers"):
            wilson_interval(successes, trials)

    def test_numpy_integer_counts_match_python_ints(self):
        assert wilson_interval(np.int64(1), np.int32(3)) == wilson_interval(1, 3)


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
        for n_values in (10, None):
            with pytest.raises(ConfigError, match="n_values must be a sequence of integers"):
                significance_curve(BOUNDARY, n_values, trials=10, seed=1)


def random_mixture(rng):
    m = int(rng.integers(1, 17))
    weights = rng.random(m) * (rng.random(m) < 0.8)  # some strategies carry no mass
    weights[rng.integers(m)] += 0.1
    return mixture_model(rng.choice([-1, 1], size=(m, 4)), weights / weights.sum())


def random_sign_cosine(rng, bob_sign):
    return sign_cosine_model(*rng.uniform(-2 * math.pi, 2 * math.pi, 4), bob_sign=bob_sign)


def random_behavior(rng):
    rows = rng.random((4, 4)) * (rng.random((4, 4)) < 0.8)
    rows[:, rng.integers(4)] += 0.1
    return Behavior(rows / rows.sum(axis=1, keepdims=True))


def bundle_plus_counts(bundle):
    return tuple(plus_count(dataset) for dataset in bundle.datasets)


class TestCountPath:
    """Trials draw per-context plus counts on the bundle samplers' own streams."""

    def test_lhv_counts_match_the_sampled_bundle(self):
        rng = np.random.default_rng(2024)
        models = [random_mixture(rng) for _ in range(24)]
        models += [random_sign_cosine(rng, sign) for sign in (-1, 1) for _ in range(8)]
        for model in models:
            n, seed = int(rng.integers(1, 400)), int(rng.integers(2**63))
            bundle = sample_bundle(model, n, seed)
            assert context_plus_counts(model_laws(model), "lhv-context")(n, [seed]) == [bundle_plus_counts(bundle)]
            assert generator_from_lhv(model).plus_counts(n, [seed]) == [bundle_plus_counts(bundle)]

    def test_behavior_and_born_counts_match_the_sampled_bundle(self):
        rng = np.random.default_rng(2025)
        behaviors = [random_behavior(rng) for _ in range(16)] + [pr_box()]
        for _ in range(8):
            angles = AngleQuadruple(*rng.uniform(-math.pi, math.pi, 4))
            behaviors.append(behavior_from_quantum(random_density_matrix(rng), angles))
        for behavior in behaviors:
            n, seed = int(rng.integers(1, 400)), int(rng.integers(2**63))
            for label in ("behavior-context", "quantum-context"):
                bundle = sample_bundle_from_behavior(behavior, n, seed, label)
                assert context_plus_counts(behavior_laws(behavior), label)(n, [seed]) == [bundle_plus_counts(bundle)]
            assert generator_from_behavior(behavior).plus_counts(n, [seed]) == [
                bundle_plus_counts(sample_bundle_from_behavior(behavior, n, seed))
            ]

    def test_trial_s_hat_is_bitwise_the_bundle_statistic(self):
        rng = np.random.default_rng(2026)
        for model in [boundary_mixture_model(), random_mixture(rng), random_sign_cosine(rng, -1)]:
            for n in (1, 7, 100, 999):
                seed = int(rng.integers(2**63))
                bundle = sample_bundle(model, n, seed)
                (plus,) = generator_from_lhv(model).plus_counts(n, [seed])
                assert s_from_counts(zip(plus, (n,) * 4)) == s_statistic(bundle)

    def test_study_matches_the_bundle_loop(self):
        # reference: the per-trial bundle loop the count path replaces
        model, n, trials, seed = boundary_mixture_model(), 300, 64, 8
        bundles = [sample_bundle(model, n, derive_seed(seed, "trial", t)) for t in range(trials)]
        exact = [
            sum(sign * Fraction(2 * plus_count(d) - n, n) for sign, d in zip(CHSH_SIGNS, bundle.datasets))
            for bundle in bundles
        ]
        s_values = np.array([s_statistic(bundle) for bundle in bundles])
        result = violation_frequency(ViolationStudy(generator_from_lhv(model), n, trials, seed))
        assert result.mean_s == float(s_values.mean())
        assert result.sd_s == float(s_values.std(ddof=1))
        assert result.violation_frequency == sum(s > 2 for s in exact) / trials

    @pytest.mark.parametrize("n", [1, 3, 10, 1000])
    def test_ties_never_violate(self, n):
        # counts (n, k, n, k) give S-hat = 2 exactly, (n, k + 1, n, k) give 2 + 2/n;
        # the seed -> k table hands trial t the count k = t
        k_of = {derive_seed(7, "trial", k): k for k in range(n + 1)}
        cases = [
            (2.0, "signed", lambda n, seeds: [(n, k_of[s], n, k_of[s]) for s in seeds], n + 1, 0.0),
            (2.0, "signed", lambda n, seeds: [(n, k_of[s] + 1, n, k_of[s]) for s in seeds], n, 1.0),
            (-2.0, "signed", lambda n, seeds: [(0, k_of[s], 0, k_of[s]) for s in seeds], n + 1, 0.0),
            (-2.0, "signed", lambda n, seeds: [(0, k_of[s], 0, k_of[s] + 1) for s in seeds], n, 1.0),
            (2.0, "absolute", lambda n, seeds: [(0, k_of[s], 0, k_of[s]) for s in seeds], n + 1, 0.0),
        ]
        for exact_s, mode, plus_counts, trials, frequency in cases:
            study = ViolationStudy(BundleGenerator(exact_s, plus_counts), n, trials, 7, mode=mode)
            assert violation_frequency(study).violation_frequency == frequency

    def test_some_float_ties_round_above_the_threshold(self):
        # why ties are decided in integers: at n = 1000 the float S-hat of a tie can exceed 2
        n = 1000
        assert any(s_from_counts(zip((n, k, n, k), (n,) * 4)) > 2.0 for k in range(n + 1))


NINE_ARCS = sign_cosine_model(0.1, 1.7, 0.9, -0.8, bob_sign=-1)  # 9 arcs per context, exact S = -2


class TestTrialBlocks:
    """A row runs its trials in blocks; the rows equal the per-trial bundle loop at and across block edges."""

    @pytest.mark.parametrize(
        "generator,sample,mode",
        [
            (BOUNDARY, lambda n, seed: sample_bundle(boundary_mixture_model(), n, seed), "signed"),
            (BOUNDARY, lambda n, seed: sample_bundle(boundary_mixture_model(), n, seed), "absolute"),
            (generator_from_lhv(NINE_ARCS), lambda n, seed: sample_bundle(NINE_ARCS, n, seed), "signed"),
            (SINGLET, lambda n, seed: sample_bundle_quantum(singlet(), TSIRELSON_ANGLES, n, seed), "signed"),
            (
                generator_from_behavior(pr_box()),
                lambda n, seed: sample_bundle_from_behavior(pr_box(), n, seed),
                "absolute",
            ),
        ],
        ids=["boundary", "boundary-absolute", "nine-arcs", "singlet", "pr-box-absolute"],
    )
    def test_rows_match_the_bundle_loop(self, generator, sample, mode):
        n, seed, threshold = 8, 21, 2.0
        row_seed = derive_seed(seed, "curve-n", n)
        bundles = [sample(n, derive_seed(row_seed, "trial", t)) for t in range(2 * TRIAL_BLOCK + 3)]
        flip = -1 if generator.exact_s < 0 else 1
        resolve = abs if mode == "absolute" else (lambda v: flip * v)
        resolved = [
            resolve(sum(s * Fraction(2 * plus_count(d) - n, n) for s, d in zip(CHSH_SIGNS, bundle.datasets)))
            for bundle in bundles
        ]
        s_values = np.array([resolve(s_statistic(bundle)) for bundle in bundles])
        for trials in (TRIAL_BLOCK, TRIAL_BLOCK + 1, 2 * TRIAL_BLOCK + 3):
            violations = sum(r > threshold for r in resolved[:trials])
            mean_s, sd_s = float(s_values[:trials].mean()), float(s_values[:trials].std(ddof=1))
            z = (mean_s - threshold) / sd_s if sd_s > 0 else math.copysign(math.inf, mean_s - threshold)
            expected = StudyRow(n, trials, violations / trials, *wilson_interval(violations, trials), mean_s, sd_s, z)
            result = significance_curve(generator, [n], trials, seed, threshold, mode)
            assert result.rows == (expected,)


class TestOneStudyPerRow:
    """A curve runs one ViolationStudy per n, on the seed (seed, "curve-n", n)."""

    @pytest.mark.parametrize("mode", ["signed", "absolute"])
    @pytest.mark.parametrize(
        "generator",
        [BOUNDARY, generator_from_lhv(NINE_ARCS), SINGLET, generator_from_behavior(pr_box())],
        ids=["lhv", "lhv-negative", "quantum", "behavior"],
    )
    def test_each_row_is_one_violation_study(self, generator, mode):
        n_values, trials, seed, threshold = [7, 30, 120], 40, 11, 1.5
        result = significance_curve(generator, n_values, trials, seed, threshold, mode)
        studies = [ViolationStudy(generator, n, trials, derive_seed(seed, "curve-n", n), threshold, mode)
                   for n in n_values]
        assert result.rows == tuple(violation_frequency(study).rows[0] for study in studies)


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
