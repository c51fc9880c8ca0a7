"""Gaussian-pointer toy model of sequential weak measurements per pair.

Each trial produces four pointer readings (r_A1, r_A2, r_B1, r_B2) and one
per-pair "B-value"

    b = (r_A1*r_B1 + r_A1*r_B2 + r_A2*r_B1 - r_A2*r_B2) / g^2.

Readings are r = g*v + sigma*eps with independent standard normal eps, so
each product is unbiased for g^2 * (product of means) and the mean of the
b-values recovers the source statistic, while individual b-values are
unbounded: they respect neither 2 nor 2*sqrt(2).  No state update is modeled
between readings; this reproduces the statistical phenomenon (per-pair
spread around an accurate average), not any optical implementation.

Two sources are provided: an LHV source reading the predetermined +/-1
outcomes of a counterfactual table (mean b-value -> B of the table), and a
calibrated source whose b-value distribution is exactly symmetric about a
target S, so values exceed the target half the time by construction -- the
vehicle for targets like 2*sqrt(2) that no counterfactual table can reach.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import CounterfactualTable
from .errors import ConfigError, DomainError
from .rng import sample_size, spawn_rng

__all__ = [
    "PerPairRecord",
    "PointerConfig",
    "PointerRun",
    "exceedance_fraction",
    "per_pair_b_values_calibrated",
    "per_pair_b_values_lhv",
]


@dataclass(frozen=True)
class PointerConfig:
    """Readout gain g and per-reading pointer spread sigma."""

    coupling: float = 1.0
    noise_sd: float = 1.0

    def __post_init__(self) -> None:
        if not (self.coupling > 0 and math.isfinite(self.coupling)):
            raise ConfigError(f"coupling g must be positive, got {self.coupling}")
        if not (self.noise_sd >= 0 and math.isfinite(self.noise_sd)):
            raise ConfigError(f"noise_sd must be >= 0, got {self.noise_sd}")


@dataclass(frozen=True)
class PerPairRecord:
    """Four pointer readings and the b-value they imply."""

    r_a1: float
    r_a2: float
    r_b1: float
    r_b2: float
    b_value: float


def _b_values(readings: np.ndarray, g: float) -> np.ndarray:
    ra1, ra2, rb1, rb2 = readings.T
    return (ra1 * rb1 + ra1 * rb2 + ra2 * rb1 - ra2 * rb2) / (g * g)


@dataclass(frozen=True)
class PointerRun(Sequence):
    """A batch of per-pair records, stored columnar; indexes as PerPairRecord."""

    readings: np.ndarray  # (n, 4) float: r_A1, r_A2, r_B1, r_B2
    b_values: np.ndarray  # (n,)
    config: PointerConfig
    description: str

    def __post_init__(self) -> None:
        readings = np.asarray(self.readings, dtype=np.float64)
        b_values = np.asarray(self.b_values, dtype=np.float64)
        if readings.ndim != 2 or readings.shape[1] != 4 or b_values.shape != (readings.shape[0],):
            raise DomainError(
                f"inconsistent run shapes: readings {readings.shape}, b_values {b_values.shape}"
            )
        recomputed = _b_values(readings, self.config.coupling)
        if readings.shape[0] and float(np.abs(recomputed - b_values).max()) > 1e-9:
            raise DomainError("b_values do not match the readings' bilinear combination")
        readings.setflags(write=False)
        b_values.setflags(write=False)
        object.__setattr__(self, "readings", readings)
        object.__setattr__(self, "b_values", b_values)

    def __len__(self) -> int:
        return self.readings.shape[0]

    def __getitem__(self, k: Any) -> PerPairRecord:
        if isinstance(k, slice):
            raise TypeError("PointerRun does not support slicing; index single records")
        row = self.readings[k]
        return PerPairRecord(*(float(v) for v in row), float(self.b_values[k]))

    def __iter__(self) -> Iterator[PerPairRecord]:
        for k in range(len(self)):
            yield self[k]


def per_pair_b_values_lhv(
    table: CounterfactualTable, config: PointerConfig, seed: int
) -> PointerRun:
    """Read each row's predetermined outcomes through the noisy pointer.

    All four readings carry independent noise (including Alice's two
    sequential ones), which is exactly what makes each product unbiased:
    E[(g*u + s*eps)(g*v + s*eps')] = g^2*u*v.  The mean b-value is therefore
    an unbiased estimate of the table's B statistic.
    """
    if table.n_rows == 0:
        raise DomainError("cannot read an empty table")
    rng = spawn_rng(seed, "weak-lhv")
    g, sigma = config.coupling, config.noise_sd
    means = g * table.outcomes.astype(np.float64)
    readings = means + sigma * rng.standard_normal(means.shape)
    return PointerRun(
        readings,
        _b_values(readings, g),
        config,
        "lhv-source: readings g*v + sigma*eps around predetermined outcomes",
    )


def per_pair_b_values_calibrated(
    target_s: float, config: PointerConfig, n: int, seed: int
) -> PointerRun:
    """Records whose b-value distribution is exactly symmetric about target_s.

    Reading means are (a, a, b, 0) with 2*a*b = target_s, so the product
    means sum to target_s under the CHSH signs.  The r_B1 reading is held
    noiseless: with it fixed, the mean-carrying term g*b*(r_A1 + r_A2) is
    Gaussian and the residual term (r_A1 - r_A2)*r_B2 is symmetric about 0
    and independent of it, so the b-value's median equals target_s exactly.
    (With noise on every reading the bilinear cross terms skew the
    distribution and the median drifts off the target; the noiseless
    reference reading is what makes the 50% exceedance exact.)
    """
    n = sample_size(n, "n")
    if not math.isfinite(target_s):
        raise ConfigError(f"target_s must be finite, got {target_s}")
    rng = spawn_rng(seed, "weak-calibrated")
    g, sigma = config.coupling, config.noise_sd
    a = math.sqrt(abs(target_s) / 2.0)
    b = math.copysign(a, target_s) if target_s != 0 else 0.0
    noise = sigma * rng.standard_normal((n, 3))
    readings = np.empty((n, 4))
    readings[:, 0] = g * a + noise[:, 0]  # r_A1
    readings[:, 1] = g * a + noise[:, 1]  # r_A2
    readings[:, 2] = g * b  # r_B1: noiseless reference
    readings[:, 3] = noise[:, 2]  # r_B2: zero-mean
    return PointerRun(
        readings,
        _b_values(readings, g),
        config,
        f"calibrated-source: symmetric about target_s={target_s!r}; no counterfactual "
        "table underlies these readings (targets beyond 2 are unreachable by one)",
    )


def exceedance_fraction(values: Sequence[float] | np.ndarray, threshold: float) -> float:
    """Fraction of values strictly above the threshold."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise DomainError("exceedance fraction undefined for an empty list")
    return float((arr > threshold).mean())
