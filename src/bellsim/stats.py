"""Finite-sample violation studies: how often does S-hat exceed the bound?

One ``ViolationStudy`` describes one row: a generator with a known exact S,
the per-context sample size n, the trial count, the seed, the threshold
(default 2) and the mode.  Its construction checks every setting but the seed.
``violation_frequency`` runs one study; ``significance_curve`` runs one per n,
on the seed (seed, "curve-n", n).  A row reports how often S-hat strictly
exceeds the threshold, with a Wilson interval, and the z-score
(mean - threshold) / sd of the per-trial estimates.  At the local boundary
(exact S = 2, nonzero estimator variance) the frequency sits at one half up to
the tie atom of the discrete estimator; below it the frequency decays to zero
as n grows; for quantum generators above the bound the z-score grows like
sqrt(n).

A trial's S-hat depends only on the four per-context counts K_c of pairs with
a*b = +1: S-hat = sum of sign_c * (2 K_c - n) / n.  A trial draws those counts
on the per-context streams of its source's bundle sampler, without building
the pairs, so its S-hat is bitwise the ``s_statistic`` of that bundle.  Trial
seeds derive from (study seed, "trial", index) and per-context seeds from the
trial seed, so results are identical under any schedule.  A row seeds and
counts ``TRIAL_BLOCK`` trials per ``plus_counts`` call (bitwise the per-trial
streams: see ``bellsim.rng`` and ``core.BLOCK_VALUES``), then computes its
S-hats and exact margins from all its counts at once.

Counting is sign-resolved by default: S-hat is compared on the side of the
exact S (-S-hat for negative exact S); "absolute" mode uses |S-hat|.  The
comparison is exact: n * S-hat = 2 (K_11 + K_12 + K_21 - K_22) - 2n is an
integer, and a trial violates iff it exceeds floor(threshold * n), so a tie
never counts, however the float S-hat rounds.  The mean, sd and z-score use
the float S-hat.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .behaviors import Behavior, behavior_from_quantum, behavior_laws, behavior_s
from .core import ExperimentBundle, PlusCounts, chsh_sum, context_plus_counts, correlation, finite_real, s_from_counts
from .errors import ConfigError, DomainError
from .lhv import MixtureModel, exact_lhv_s, model_laws
from .quantum import AngleQuadruple, DensityMatrix, s_quantum
from .rng import derive_seed, derive_seeds, sample_size

__all__ = [
    "BundleGenerator",
    "StudyResult",
    "StudyRow",
    "ViolationStudy",
    "generator_from_behavior",
    "generator_from_lhv",
    "generator_from_quantum",
    "significance_curve",
    "standard_error_s",
    "violation_frequency",
    "wilson_interval",
]


@dataclass(frozen=True)
class BundleGenerator:
    """A source of four-context experiments with a known exact S.

    A trial needs only its four counts of pairs with a*b = +1 per context, in
    canonical order, of the bundle the source's sampler would draw from the
    trial's seed.  Its S-hat and its exact violation verdict (ties never
    count) both follow from them.  ``plus_counts(n_per_context, seeds)`` draws
    them for a block of trials at once, one 4-tuple per seed.
    """

    exact_s: float
    plus_counts: PlusCounts


def generator_from_lhv(model: MixtureModel) -> BundleGenerator:
    """Trials on the streams of ``sample_bundle(model, ...)``; the laws are built once per generator."""
    plus_counts = context_plus_counts(model_laws(model), "lhv-context")
    return BundleGenerator(exact_lhv_s(model), plus_counts)


def generator_from_quantum(rho: DensityMatrix, angles: AngleQuadruple) -> BundleGenerator:
    """Born sampling at the given angles, on the streams of ``sample_bundle_quantum``."""
    laws = behavior_laws(behavior_from_quantum(rho, angles))
    plus_counts = context_plus_counts(laws, "quantum-context")
    return BundleGenerator(s_quantum(rho, angles), plus_counts)


def generator_from_behavior(behavior: Behavior) -> BundleGenerator:
    """Trials on the streams of ``sample_bundle_from_behavior(behavior, ...)``."""
    plus_counts = context_plus_counts(behavior_laws(behavior), "behavior-context")
    return BundleGenerator(behavior_s(behavior), plus_counts)


@dataclass(frozen=True)
class ViolationStudy:
    """One violation-frequency experiment, a row of a study; checks n, threshold, mode and trials, in that order."""

    generator: BundleGenerator
    n_per_context: int
    trials: int
    seed: int
    threshold: float = 2.0
    mode: str = "signed"  # "signed" | "absolute"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_per_context", sample_size(self.n_per_context))
        if not (finite_real(self.threshold) and self.threshold > 0):
            raise ConfigError(f"threshold must be finite and positive, got {self.threshold}")
        if self.mode not in ("signed", "absolute"):
            raise ConfigError(f"mode must be 'signed' or 'absolute', got {self.mode!r}")
        object.__setattr__(self, "trials", sample_size(self.trials, "trials"))


@dataclass(frozen=True)
class StudyRow:
    """One per-n row of a study: frequency, Wilson CI, moments, z-score."""

    n: int
    trials: int
    frequency: float
    ci_lo: float
    ci_hi: float
    mean_s: float
    sd_s: float
    z: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.ci_lo <= self.frequency <= self.ci_hi <= 1.0):
            raise DomainError(
                f"CI ({self.ci_lo}, {self.ci_hi}) must contain frequency {self.frequency}"
            )


@dataclass(frozen=True)
class StudyResult:
    """Rows per sample size; the summary properties read the last (largest n) row."""

    rows: tuple[StudyRow, ...]

    @property
    def violation_frequency(self) -> float:
        return self.rows[-1].frequency

    @property
    def frequency_ci95(self) -> tuple[float, float]:
        return (self.rows[-1].ci_lo, self.rows[-1].ci_hi)

    @property
    def mean_s(self) -> float:
        return self.rows[-1].mean_s

    @property
    def sd_s(self) -> float:
        return self.rows[-1].sd_s


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval (95%) for a binomial proportion; both counts are integers of any integer type."""
    if not all(isinstance(k, numbers.Integral) and not isinstance(k, bool) for k in (successes, trials)):
        raise DomainError(f"successes and trials must be integers, got {successes!r} and {trials!r}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise DomainError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    z = 1.959963984540054  # two-sided 95% normal quantile
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials))
    # the interval contains p-hat exactly; clamp away float residue at the edges
    return (max(0.0, min(center - half, p)), min(1.0, max(center + half, p)))


def standard_error_s(bundle: ExperimentBundle) -> float:
    """Plug-in standard error of S-hat: sqrt(sum (1 - E_ij^2) / n_ij).

    The four contexts are sampled independently by construction, so their
    variances add.
    """
    total = 0.0
    for dataset in bundle.datasets:
        n = dataset.n_pairs
        if n < 2:
            raise DomainError(
                f"standard error needs >= 2 pairs per context, got {n} in {dataset.context}"
            )
        e = correlation(dataset)
        total += (1.0 - e * e) / n
    return math.sqrt(total)


# trials seeded and counted per plus_counts call; bounds a row's seed and state lists,
# while core.BLOCK_VALUES bounds the uniforms each call holds at once
TRIAL_BLOCK = 256


def _signed_values(s_values: np.ndarray, exact_s: float, mode: str) -> np.ndarray:
    if mode == "absolute":
        return np.abs(s_values)
    return s_values if exact_s >= 0 else -s_values


def _run_row(study: ViolationStudy) -> StudyRow:
    n, trials, threshold, exact_s = study.n_per_context, study.trials, study.threshold, study.generator.exact_s
    plus = np.empty((trials, 4), dtype=np.int64)
    for start in range(0, trials, TRIAL_BLOCK):
        seeds = derive_seeds([study.seed], ("trial",), range(start, min(start + TRIAL_BLOCK, trials)))
        plus[start : start + len(seeds)] = study.generator.plus_counts(n, seeds)
    s_values = s_from_counts(zip(plus.T, (n,) * 4))
    margins = 2 * chsh_sum(plus.T) - 2 * n  # n * S-hat, an exact integer
    # n * S-hat > n * threshold, decided in integers so that a tie never counts,
    # however the float S-hat rounds: with threshold = num / den exactly, the
    # limit is floor(num * n / den); |n * S-hat| <= 4n bounds it
    num, den = float(threshold).as_integer_ratio()
    limit = min(num * n // den, 4 * n)
    violations = int((_signed_values(margins, exact_s, study.mode) > limit).sum())
    resolved = _signed_values(s_values, exact_s, study.mode)
    mean_s = float(resolved.mean())
    sd_s = float(resolved.std(ddof=1)) if trials > 1 else 0.0
    if sd_s > 0:
        z = (mean_s - threshold) / sd_s
    elif mean_s == threshold:
        z = 0.0
    else:
        z = math.copysign(math.inf, mean_s - threshold)
    return StudyRow(n, trials, violations / trials, *wilson_interval(violations, trials), mean_s, sd_s, float(z))


def violation_frequency(study: ViolationStudy) -> StudyResult:
    """Fraction of trials whose sign-resolved S-hat strictly exceeds the threshold; ties never count."""
    return StudyResult((_run_row(study),))


def significance_curve(
    generator: BundleGenerator,
    n_values: list[int],
    trials: int,
    seed: int,
    threshold: float = 2.0,
    mode: str = "signed",
) -> StudyResult:
    """Violation frequency and z-score per sample size; n_values must ascend, and the summary reads the last row."""
    try:
        n_values = [sample_size(n, "each n") for n in n_values]
    except TypeError:  # not iterable; sample_size raises only ConfigError
        raise ConfigError(f"n_values must be a sequence of integers, got {type(n_values).__name__}") from None
    if not n_values:
        raise ConfigError("n_values must be nonempty")
    if n_values != sorted(n_values) or len(set(n_values)) != len(n_values):
        raise ConfigError(f"n_values must be strictly ascending, got {n_values}")
    # one study per n, on the seed (seed, "curve-n", n); the first n's study checks the settings before the seed
    study = ViolationStudy(generator, n_values[0], trials, seed, threshold, mode)
    return StudyResult(
        tuple(_run_row(replace(study, n_per_context=n, seed=derive_seed(seed, "curve-n", n))) for n in n_values)
    )
