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
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import ArrayValue, CounterfactualTable, chsh_sum, context_products, finite_real, frozen_array
from .errors import ConfigError, DomainError
from .rng import sample_size, spawn_rng

__all__ = [
    "PointerConfig",
    "PointerRun",
    "exceedance_fraction",
    "per_pair_b_values_calibrated",
    "per_pair_b_values_lhv",
]


@dataclass(frozen=True)
class PointerConfig:
    """Readout gain g and per-reading pointer spread sigma, stored as floats."""

    coupling: float = 1.0
    noise_sd: float = 1.0

    def __post_init__(self) -> None:
        g, sigma = self.coupling, self.noise_sd
        if not (finite_real(g) and g > 0):
            raise ConfigError(f"coupling g must be positive, got {g!r}")
        if not (finite_real(sigma) and sigma >= 0):
            raise ConfigError(f"noise_sd must be >= 0, got {sigma!r}")
        # a Fraction or an int64 would otherwise reach the samplers' float arithmetic as itself
        object.__setattr__(self, "coupling", float(g))
        object.__setattr__(self, "noise_sd", float(sigma))


@dataclass(frozen=True, eq=False)
class PointerRun(ArrayValue):
    """A batch of per-pair pointer readings and the b-value of each pair.

    ``b_values`` is derived from ``readings`` when the run is built.
    """

    readings: np.ndarray  # (n, 4) float: r_A1, r_A2, r_B1, r_B2
    config: PointerConfig
    description: str
    b_values: np.ndarray = field(init=False)  # (n,)

    def __post_init__(self) -> None:
        readings = frozen_array(self.readings, np.float64, (None, 4), "readings")
        g = self.config.coupling
        with np.errstate(all="ignore"):  # overflow or a gain whose square is 0 ends as inf or NaN, rejected below
            b_values = chsh_sum(context_products(readings)) / (g * g)
        object.__setattr__(self, "readings", readings)
        object.__setattr__(self, "b_values", frozen_array(b_values, np.float64, (None,), "b-values"))

    def __len__(self) -> int:
        return self.readings.shape[0]


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
    g, sigma = config.coupling, config.noise_sd
    # in place, so no (n, 4) array of means or of scaled noise is held beside the readings
    readings = spawn_rng(seed, "weak-lhv").standard_normal(table.outcomes.shape)
    with np.errstate(all="ignore"):  # readings beyond float64 end as inf or NaN, rejected by PointerRun
        readings *= sigma
        readings += np.multiply(table.outcomes, g, dtype=np.float64)  # g * v exactly, on numpy 1 too
    return PointerRun(
        readings,
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
    if not finite_real(target_s):
        raise ConfigError(f"target_s must be finite, got {target_s}")
    target_s = float(target_s)  # abs() of a numpy integer at its type's minimum overflows
    rng = spawn_rng(seed, "weak-calibrated")
    g, sigma = config.coupling, config.noise_sd
    a = math.sqrt(abs(target_s) / 2.0)
    b = math.copysign(a, target_s) if target_s != 0 else 0.0
    readings = np.empty((n, 4))
    with np.errstate(all="ignore"):  # readings beyond float64 end as inf or NaN, rejected by PointerRun
        noise = sigma * rng.standard_normal((n, 3))
        readings[:, 0] = g * a + noise[:, 0]  # r_A1
        readings[:, 1] = g * a + noise[:, 1]  # r_A2
    readings[:, 2] = g * b  # r_B1: noiseless reference
    readings[:, 3] = noise[:, 2]  # r_B2: zero-mean
    del noise  # not held while PointerRun copies the readings: n = 10^6 peaks 24 MB lower
    return PointerRun(
        readings,
        config,
        f"calibrated-source: symmetric about target_s={target_s!r}; no counterfactual "
        "table underlies these readings (targets beyond 2 are unreachable by one)",
    )


def exceedance_fraction(values: Sequence[float] | np.ndarray, threshold: float) -> float:
    """Fraction of values strictly above the threshold."""
    if not finite_real(threshold):
        raise ConfigError(f"threshold must be a finite number, got {threshold!r}")
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError("values must be numbers") from exc
    if arr.size == 0:
        raise DomainError("exceedance fraction undefined for an empty list")
    if np.isnan(arr).any():
        raise DomainError("values must not be NaN")
    return float((arr > threshold).mean())
