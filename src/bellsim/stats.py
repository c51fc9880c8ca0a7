"""Finite-sample violation studies: how often does S-hat exceed the bound?

Repeats bundle generation many times under a fixed generator, counts how
often the S estimate strictly exceeds a threshold (default 2), and reports
the frequency with a Wilson interval plus the z-score (mean - threshold) / sd
of the per-trial estimates.  At the local boundary (exact S = 2 with nonzero
estimator variance) the violation frequency sits at one half up to the tie
atom of the discrete estimator; below the boundary it decays to zero as the
per-context sample size grows; for quantum generators above the bound the
z-score grows like sqrt(n).

Per-trial seeds derive from (master seed, trial index) and per-context seeds
from the trial seed, so results are identical under any parallel schedule.
Violation counting is sign-resolved by default: the estimate is compared on
the side of the generator's exact S (S-hat > 2 for positive exact S,
-S-hat > 2 for negative); "absolute" mode uses |S-hat| instead.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .behaviors import Behavior, behavior_from_quantum, behavior_s, sample_bundle_from_behavior
from .core import ExperimentBundle, correlation, s_statistic
from .errors import ConfigError, DomainError
from .lhv import LhvModel, exact_lhv_s, sample_bundle
from .quantum import AngleQuadruple, DensityMatrix, s_quantum
from .rng import derive_seed, sample_size

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

_WILSON_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class BundleGenerator:
    """A named source of experiment bundles with a known exact S."""

    label: str
    exact_s: float
    sample: Callable[[int, int], ExperimentBundle]  # (n_per_context, seed) -> bundle


def generator_from_lhv(model: LhvModel) -> BundleGenerator:
    exact = exact_lhv_s(model)

    def sample(n_per_context: int, seed: int) -> ExperimentBundle:
        return sample_bundle(model, n_per_context, seed)

    return BundleGenerator(f"lhv:{model.name}", exact, sample)


def generator_from_quantum(rho: DensityMatrix, angles: AngleQuadruple) -> BundleGenerator:
    """Born sampling at the given angles, on the streams of ``sample_bundle_quantum``."""
    behavior = behavior_from_quantum(rho, angles)  # once per generator, not once per trial

    def sample(n_per_context: int, seed: int) -> ExperimentBundle:
        return sample_bundle_from_behavior(behavior, n_per_context, seed, "quantum-context")

    return BundleGenerator("quantum", s_quantum(rho, angles), sample)


def generator_from_behavior(behavior: Behavior, label: str = "behavior") -> BundleGenerator:
    exact = behavior_s(behavior)

    def sample(n_per_context: int, seed: int) -> ExperimentBundle:
        return sample_bundle_from_behavior(behavior, n_per_context, seed)

    return BundleGenerator(label, exact, sample)


@dataclass(frozen=True)
class ViolationStudy:
    """Specification of one violation-frequency experiment."""

    generator: BundleGenerator
    n_per_context: int
    trials: int
    seed: int
    threshold: float = 2.0
    mode: str = "signed"  # "signed" | "absolute"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        sample_size(self.n_per_context)
        if not (self.threshold > 0):
            raise ConfigError(f"threshold must be positive, got {self.threshold}")
        if self.mode not in ("signed", "absolute"):
            raise ConfigError(f"mode must be 'signed' or 'absolute', got {self.mode!r}")


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


@dataclass(frozen=True)
class StudyResult:
    """Violation frequency with its 95% Wilson interval; rows per sample size."""

    violation_frequency: float
    frequency_ci95: tuple[float, float]
    mean_s: float
    sd_s: float
    rows: tuple[StudyRow, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        lo, hi = self.frequency_ci95
        if not (0.0 <= lo <= self.violation_frequency <= hi <= 1.0):
            raise DomainError(
                f"CI ({lo}, {hi}) must contain frequency {self.violation_frequency}"
            )


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise DomainError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
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


def _signed_values(s_values: np.ndarray, exact_s: float, mode: str) -> np.ndarray:
    if mode == "absolute":
        return np.abs(s_values)
    return s_values if exact_s >= 0 else -s_values


def _run_row(
    generator: BundleGenerator,
    n_per_context: int,
    trials: int,
    threshold: float,
    seed: int,
    mode: str,
) -> StudyRow:
    s_values = np.empty(trials)
    for t in range(trials):
        bundle = generator.sample(n_per_context, derive_seed(seed, "trial", t))
        s_values[t] = s_statistic(bundle)
    resolved = _signed_values(s_values, generator.exact_s, mode)
    violations = int((resolved > threshold).sum())  # ties count as non-violations
    frequency = violations / trials
    ci_lo, ci_hi = wilson_interval(violations, trials)
    mean_s = float(resolved.mean())
    sd_s = float(resolved.std(ddof=1)) if trials > 1 else 0.0
    if sd_s > 0:
        z = (mean_s - threshold) / sd_s
    elif mean_s == threshold:
        z = 0.0
    else:
        z = math.copysign(math.inf, mean_s - threshold)
    return StudyRow(n_per_context, trials, frequency, ci_lo, ci_hi, mean_s, sd_s, float(z))


def violation_frequency(study: ViolationStudy) -> StudyResult:
    """Fraction of trials whose sign-resolved S-hat strictly exceeds the threshold."""
    row = _run_row(
        study.generator,
        study.n_per_context,
        study.trials,
        study.threshold,
        study.seed,
        study.mode,
    )
    return StudyResult(
        violation_frequency=row.frequency,
        frequency_ci95=(row.ci_lo, row.ci_hi),
        mean_s=row.mean_s,
        sd_s=row.sd_s,
        rows=(row,),
    )


def significance_curve(
    generator: BundleGenerator,
    n_values: list[int],
    trials: int,
    seed: int,
    threshold: float = 2.0,
    mode: str = "signed",
) -> StudyResult:
    """Violation frequency and z-score per sample size; n_values must ascend.

    The top-level scalars summarize the largest n (the last row).
    """
    n_values = [sample_size(n, "each n") for n in n_values]
    if not n_values:
        raise ConfigError("n_values must be nonempty")
    if n_values != sorted(n_values) or len(set(n_values)) != len(n_values):
        raise ConfigError(f"n_values must be strictly ascending, got {n_values}")
    if mode not in ("signed", "absolute"):
        raise ConfigError(f"mode must be 'signed' or 'absolute', got {mode!r}")
    rows = tuple(
        _run_row(generator, n, trials, threshold, derive_seed(seed, "curve-n", n), mode)
        for n in n_values
    )
    last = rows[-1]
    return StudyResult(
        violation_frequency=last.frequency,
        frequency_ci95=(last.ci_lo, last.ci_hi),
        mean_s=last.mean_s,
        sd_s=last.sd_s,
        rows=rows,
    )
