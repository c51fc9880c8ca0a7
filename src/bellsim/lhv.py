"""Local-hidden-variable couplings: shared lambda, deterministic responses.

A model is a hidden variable lambda with a known law plus deterministic
response functions A_i(lambda), B_j(lambda) in {+1,-1}.  By Fine's theorem
(A. Fine, PRL 48, 291 (1982)) every such model of the CHSH scenario is a
mixture of deterministic strategies (a1, a2, b1, b2), so one type,
``MixtureModel``, holds them all as read-only arrays: lambda indexes finitely
many strategies drawn with the given weights, and the exact per-context
correlation

    E_ij = sum over strategies of weight * a_i * b_j

is a finite sum.  The ``deterministic`` and ``boundary_mixture`` variants
list their strategies.  The ``sign_cosine`` variant has lambda uniform on
[0, 2pi), A_i = sign(cos(lambda - a_i)) and B_j = bob_sign * sign(cos(lambda
- b_j)).  Its responses only flip at a_i +/- pi/2 and b_j +/- pi/2, so it is
built as the mixture of at most 9 arcs, each one strategy weighted by its
length / 2pi, and E_ij = bob_sign * (1 - 2 d / pi), where d is the angular
distance between a_i and b_j folded to [0, pi].

Because all four responses coexist per lambda, sampling one lambda stream
yields a counterfactual table (|B| <= 2 by construction), while sampling four
independent streams, one per context, yields the bundle whose S estimate
fluctuates around the exact S and can exceed 2.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import CANONICAL_CONTEXTS, ArrayValue, Context, ContextLaw, CounterfactualTable, ExperimentBundle
from .core import chsh_sum, context_products, fixed_sum, frozen_array, sample_contexts
from .errors import ConfigError
from .rng import categorical, sample_size, spawn_rng

__all__ = [
    "MixtureModel",
    "boundary_mixture_model",
    "deterministic_model",
    "exact_lhv_correlation",
    "exact_lhv_s",
    "mixture_model",
    "model_from_mapping",
    "model_laws",
    "sample_bundle",
    "sample_counterfactual_table",
    "sign_cosine_model",
]

MASS_TOL = 1e-9
# Beyond 2**20 rad, angle +/- pi/2 rounds so coarsely (ulp over 2**-32) that the
# sign-cosine arcs' cuts collapse and the arcs stop following the closed form.
ANGLE_LIMIT = 2.0**20
TWO_PI = 2.0 * math.pi
ANGLE_KEYS = ("a1", "a2", "b1", "b2")


@dataclass(frozen=True, eq=False)
class MixtureModel(ArrayValue):
    """Lambda indexes deterministic strategies (a1, a2, b1, b2), drawn with the given weights.

    Checked once when built (``dataclasses.replace`` included) and stored as
    read-only arrays: the strategies an (m, 4) int8 array of +/-1, the m float64
    weights nonnegative with sum 1.
    """

    name: str
    strategies: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        table, weights = validate_model(self)
        object.__setattr__(self, "strategies", frozen_array(table, np.int8, (None, 4), "strategies"))
        object.__setattr__(self, "weights", frozen_array(weights, np.float64, (None,), "weights"))


def validate_model(model: MixtureModel) -> tuple[np.ndarray, np.ndarray]:
    """Check the model's strategies and weights (every model does, once, when built); return them as arrays."""
    table = _strategy_table(model.strategies)
    weights = _numbers("weights", model.weights, (len(table),)).astype(np.float64)
    if (weights < 0).any():
        raise ConfigError(f"model {model.name!r}: negative probability mass")
    with np.errstate(over="ignore"):  # masses near float64's limit sum to inf, which fails the check
        total = weights.sum()
    if not abs(float(total) - 1.0) <= MASS_TOL:  # NaN masses fail too
        raise ConfigError(f"model {model.name!r}: masses sum to {total!r}, not 1 within {MASS_TOL}")
    return table, weights


def sample_counterfactual_table(model: MixtureModel, n: int, seed: int) -> CounterfactualTable:
    """Draw n lambdas from one stream; row k holds (A1, A2, B1, B2) at lambda_k."""
    n = sample_size(n, "n")
    lam = categorical(spawn_rng(seed, "lhv-table"), model.weights, n)
    return CounterfactualTable(model.strategies[lam])


def model_laws(model: MixtureModel) -> tuple[ContextLaw, ...]:
    """Per context: lambda drawn with the model's weights, recording the strategy columns (a_i, b_j)."""
    return tuple((model.weights, model.strategies[:, context.columns]) for context in CANONICAL_CONTEXTS)


def sample_bundle(model: MixtureModel, n_per_context: int, seed: int) -> ExperimentBundle:
    """Four datasets from four independent lambda streams (fresh lambda per trial per context)."""
    return sample_contexts(model_laws(model), n_per_context, seed, "lhv-context")


def exact_lhv_correlation(model: MixtureModel, context: Context) -> float:
    """The coupling integral E_ij in closed form: the weighted sum of a_i * b_j."""
    i, j = context.columns
    return fixed_sum(model.weights, model.strategies[:, i] * model.strategies[:, j])


def exact_lhv_s(model: MixtureModel) -> float:
    """Exact S of the coupling; lies in [-2, 2]."""
    return chsh_sum([exact_lhv_correlation(model, context) for context in CANONICAL_CONTEXTS]) + 0.0


def _numbers(key: str, value: object, shape: tuple[int, ...] | None = ()) -> np.ndarray:
    """``value`` as an array of real numbers, of the given shape unless that is None."""
    try:
        array = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ConfigError(f"{key} must be a rectangular array of numbers, got {value!r}") from exc
    if array.dtype.kind not in "iuf" or shape not in (None, array.shape):
        of_shape = "" if shape is None else f" of shape {shape}"
        raise ConfigError(f"{key} must be numbers{of_shape}, got {value!r}")
    return array


def _strategy_table(strategies: object) -> np.ndarray:
    table = _numbers("strategies", strategies, None)
    if table.ndim != 2 or table.shape[1] != 4 or table.size == 0:
        raise ConfigError(f"strategies must be an (m, 4) array of +/-1, got shape {table.shape}")
    if not np.isin(table, (-1, 1)).all():
        raise ConfigError("strategy entries must be +1 or -1")
    return table.astype(np.int8)


def mixture_model(strategies: object, weights: object, name: str = "mixture") -> MixtureModel:
    """Finite model: lambda indexes a deterministic strategy (a1, a2, b1, b2)."""
    return MixtureModel(name, strategies, weights)


def deterministic_model(a1: int, a2: int, b1: int, b2: int) -> MixtureModel:
    """Single fixed assignment; zero-variance responses."""
    return mixture_model([(a1, a2, b1, b2)], [1.0], name=f"deterministic({a1},{a2},{b1},{b2})")


DEFAULT_BOUNDARY_STRATEGIES = ((1, 1, 1, 1), (1, 1, 1, -1))
DEFAULT_BOUNDARY_WEIGHTS = (0.5, 0.5)


def boundary_mixture_model(
    strategies: object = DEFAULT_BOUNDARY_STRATEGIES,
    weights: object = DEFAULT_BOUNDARY_WEIGHTS,
) -> MixtureModel:
    """Mixture of C=+2 strategies: exact S = 2 with nonzero estimator variance.

    The default mixes (1,1,1,1) and (1,1,1,-1) half-half, giving exact
    correlations (1, 0, 1, 0).  A fully deterministic model would sit on the
    boundary with zero variance and never show chance violations; this one
    makes the 50% exceedance of S-hat > 2 observable.
    """
    table = _strategy_table(strategies)
    c_values = chsh_sum(context_products(table))
    if not (c_values == 2).all():
        raise ConfigError(
            f"boundary mixture requires strategies with C = +2, got C = {c_values.tolist()}"
        )
    return mixture_model(table, weights, name="boundary_mixture")


def sign_cosine_model(
    a1: float, a2: float, b1: float, b2: float, bob_sign: float = -1.0
) -> MixtureModel:
    """Uniform lambda on [0, 2pi); A_i = sign(cos(lambda - a_i)), B_j = bob_sign * sign(cos(lambda - b_j)).

    Built as the mixture of the arcs between the cuts 0, 2pi and
    (angle +/- pi/2) mod 2pi, in ascending lambda order: each arc is the
    strategy of cosine signs at its midpoint, weighted by its length / 2pi.
    ``categorical`` then picks the arc holding lambda = 2pi * u from the same
    uniforms u that drawing lambda uniformly on [0, 2pi) would use.

    With the default bob_sign = -1 (singlet-like anticorrelation at equal
    angles), E(a, b) = (2/pi) * d(a, b) - 1 where d is the angular distance
    folded to [0, pi].
    """
    sign = float(_numbers("bob_sign", bob_sign))
    if sign not in (-1.0, 1.0):
        raise ConfigError(f"bob_sign must be +1 or -1, got {bob_sign}")
    angles = np.array([float(_numbers(key, value)) for key, value in zip(ANGLE_KEYS, (a1, a2, b1, b2))])
    for key, angle in zip(ANGLE_KEYS, angles):
        if not abs(angle) <= ANGLE_LIMIT:  # NaN fails too
            raise ConfigError(f"angle {key} must be finite and within +/-{ANGLE_LIMIT:.0f} rad, got {angle}")
    flips = np.mod(np.concatenate([angles - math.pi / 2, angles + math.pi / 2]), TWO_PI)
    cuts = np.array(sorted({0.0, TWO_PI, *flips.tolist()}))  # np.unique would import numpy.ma
    midpoints = (cuts[:-1] + cuts[1:]) / 2
    signs = np.where(np.cos(midpoints[:, None] - angles) >= 0.0, 1, -1) * np.array([1, 1, sign, sign])
    return mixture_model(
        signs,
        np.diff(cuts) / TWO_PI,
        name=f"sign_cosine(a1={a1!r},a2={a2!r},b1={b1!r},b2={b2!r},bob_sign={int(sign)})",
    )


_VARIANT_KEYS = {
    "deterministic": {"outcomes"},
    "sign_cosine": {*ANGLE_KEYS, "bob_sign"},
    "boundary_mixture": {"strategies", "weights"},
}


def model_from_mapping(spec: Mapping[str, Any]) -> MixtureModel:
    """Build a built-in model from a parsed key/value specification.

    Expected keys per variant:
      deterministic:    outcomes = four +/-1 integers
      sign_cosine:      a1 a2 b1 b2 (radians), optional bob_sign (+1 or -1)
      boundary_mixture: optional strategies (list of 4-tuples), weights

    Unknown keys are rejected.
    """
    spec = dict(spec)
    variant = spec.pop("variant", None)
    if variant not in _VARIANT_KEYS:
        raise ConfigError(
            f"unknown or missing variant {variant!r}; expected one of {sorted(_VARIANT_KEYS)}"
        )
    unknown = set(spec) - _VARIANT_KEYS[variant]
    if unknown:
        raise ConfigError(f"unknown keys for variant {variant!r}: {sorted(unknown)}")
    if variant == "deterministic":
        outcomes = _numbers("deterministic outcomes", spec.get("outcomes"), (4,))
        return deterministic_model(*outcomes.tolist())  # entries other than +/-1 are rejected there
    if variant == "sign_cosine":
        missing = set(ANGLE_KEYS) - set(spec)
        if missing:
            raise ConfigError(f"sign_cosine variant missing keys: {sorted(missing)}")
        a1, a2, b1, b2, bob_sign = (  # bob_sign defaults to -1
            float(_numbers(key, spec.get(key, -1.0))) for key in (*ANGLE_KEYS, "bob_sign")
        )
        return sign_cosine_model(a1, a2, b1, b2, bob_sign=bob_sign)
    table = _strategy_table(spec.get("strategies", DEFAULT_BOUNDARY_STRATEGIES))
    weights = spec.get("weights")
    if weights is None:
        weights = np.full(len(table), 1.0 / len(table))
    return boundary_mixture_model(table, weights)
