"""Local-hidden-variable couplings: shared lambda, deterministic responses.

A model is a hidden variable lambda with a known law plus deterministic
response functions A_i(lambda), B_j(lambda) in {+1,-1}.  Its exact
per-context correlation is the coupling integral

    E_ij = integral of A_i(lambda) * B_j(lambda) over the law of lambda.

Two families are built in, and both give that integral in closed form:

* ``MixtureModel``: lambda indexes finitely many deterministic strategies
  (a1, a2, b1, b2) drawn with the given weights, so E_ij is the weighted sum
  of a_i * b_j.  The ``deterministic`` and ``boundary_mixture`` variants are
  mixtures.
* ``SignCosineModel``: lambda is uniform on [0, 2pi), A_i = sign(cos(lambda -
  a_i)) and B_j = bob_sign * sign(cos(lambda - b_j)), so E_ij = bob_sign *
  (1 - 2 d / pi), where d is the angular distance between a_i and b_j folded
  to [0, pi].

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

from .core import CANONICAL_CONTEXTS, CHSH_SIGNS, Context, ContextDataset, CounterfactualTable, ExperimentBundle
from .errors import ConfigError
from .rng import categorical, category_counts, sample_size, spawn_rng

__all__ = [
    "LhvModel",
    "MixtureModel",
    "SignCosineModel",
    "boundary_mixture_model",
    "deterministic_model",
    "exact_lhv_correlation",
    "exact_lhv_s",
    "mixture_model",
    "model_from_mapping",
    "sample_bundle",
    "sample_counterfactual_table",
    "sample_plus_counts",
    "sign_cosine_model",
]

MASS_TOL = 1e-9
# Beyond 2**20 rad, rounding in lambda - angle (ulp up to 2**-32) would move the
# responses' sign flips enough that they stop following the closed form.
ANGLE_LIMIT = 2.0**20
TWO_PI = 2.0 * math.pi
ANGLE_KEYS = ("a1", "a2", "b1", "b2")


@dataclass(frozen=True)
class MixtureModel:
    """Lambda indexes deterministic strategies (a1, a2, b1, b2), drawn with the given weights.

    Validated when built (``dataclasses.replace`` included): the strategies
    are +/-1 and the weights are nonnegative and sum to 1.
    """

    name: str
    strategies: tuple[tuple[int, int, int, int], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        validate_model(self)

    def draw_lambda(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return categorical(rng, self.weights, size)

    def alice_response(self, setting: int, lam: np.ndarray) -> np.ndarray:
        return np.asarray(self.strategies)[lam, setting - 1].astype(np.int8)

    def bob_response(self, setting: int, lam: np.ndarray) -> np.ndarray:
        return np.asarray(self.strategies)[lam, 2 + setting - 1].astype(np.int8)

    def plus_count(self, context: Context, rng: np.random.Generator, size: int) -> int:
        """Pairs with a*b = +1 among ``size`` draws: the strategy counts where a_i * b_j = +1."""
        counts = category_counts(rng, self.weights, size).tolist()
        i, j = context.alice - 1, 2 + context.bob - 1
        return sum(k for k, s in zip(counts, self.strategies) if s[i] == s[j])

    def correlation(self, context: Context) -> float:
        points = np.arange(len(self.strategies))
        product = self.alice_response(context.alice, points) * self.bob_response(context.bob, points)
        return float(np.dot(product.astype(np.float64), self.weights))


@dataclass(frozen=True)
class SignCosineModel:
    """Uniform lambda on [0, 2pi); A_i = sign(cos(lambda - a_i)), B_j = bob_sign * sign(cos(lambda - b_j)).

    Validated when built: the angles are finite and at most ``ANGLE_LIMIT`` in
    magnitude, and bob_sign is +1 or -1.
    """

    name: str
    a1: float
    a2: float
    b1: float
    b2: float
    bob_sign: int = -1

    def __post_init__(self) -> None:
        validate_model(self)

    def draw_lambda(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(0.0, TWO_PI, size=size)

    def alice_response(self, setting: int, lam: np.ndarray) -> np.ndarray:
        return _sign_pm(np.cos(lam - (self.a1, self.a2)[setting - 1]))

    def bob_response(self, setting: int, lam: np.ndarray) -> np.ndarray:
        return (self.bob_sign * _sign_pm(np.cos(lam - (self.b1, self.b2)[setting - 1]))).astype(np.int8)

    def plus_count(self, context: Context, rng: np.random.Generator, size: int) -> int:
        """Pairs with a*b = +1 among ``size`` draws: where the two cosine signs agree, or disagree if bob_sign is -1."""
        lam = self.draw_lambda(rng, size)
        alice = np.cos(lam - (self.a1, self.a2)[context.alice - 1]) >= 0.0
        bob = np.cos(lam - (self.b1, self.b2)[context.bob - 1]) >= 0.0
        agree = int(np.count_nonzero(alice == bob))
        return agree if self.bob_sign == 1 else size - agree

    def correlation(self, context: Context) -> float:
        """bob_sign * (1 - 2 d / pi): the two signs disagree on a set of measure 2d out of 2pi."""
        d = abs((self.a1, self.a2)[context.alice - 1] - (self.b1, self.b2)[context.bob - 1]) % TWO_PI
        d = min(d, TWO_PI - d)
        return self.bob_sign * (1.0 - 2.0 * d / math.pi)


LhvModel = MixtureModel | SignCosineModel


def _sign_pm(x: np.ndarray) -> np.ndarray:
    # sign with the measure-zero tie broken deterministically upward
    return np.where(x >= 0.0, 1, -1).astype(np.int8)


def validate_model(model: LhvModel) -> None:
    """Check the model's parameters; both model types run it when built."""
    if isinstance(model, SignCosineModel):
        for key in ANGLE_KEYS:
            angle = float(_numbers(key, getattr(model, key)))
            if not abs(angle) <= ANGLE_LIMIT:  # NaN fails too
                raise ConfigError(f"angle {key} must be finite and within +/-{ANGLE_LIMIT:.0f} rad, got {angle}")
        if model.bob_sign not in (-1, 1):
            raise ConfigError(f"bob_sign must be +1 or -1, got {model.bob_sign}")
        return
    table = _strategy_table(model.strategies)
    weights = _numbers("weights", model.weights, (len(table),)).astype(np.float64)
    if (weights < 0).any():
        raise ConfigError(f"model {model.name!r}: negative probability mass")
    if not abs(float(weights.sum()) - 1.0) <= MASS_TOL:  # NaN masses fail too
        raise ConfigError(f"model {model.name!r}: masses sum to {weights.sum()!r}, not 1 within {MASS_TOL}")


def sample_counterfactual_table(model: LhvModel, n: int, seed: int) -> CounterfactualTable:
    """Draw n lambdas from one stream; row k holds (A1, A2, B1, B2) at lambda_k."""
    n = sample_size(n, "n")
    lam = model.draw_lambda(spawn_rng(seed, "lhv-table"), n)
    columns = [
        model.alice_response(1, lam),
        model.alice_response(2, lam),
        model.bob_response(1, lam),
        model.bob_response(2, lam),
    ]
    outcomes = np.column_stack(columns)
    return CounterfactualTable(outcomes, {"seed": seed, "generator": f"lhv:{model.name}"})


def sample_bundle(model: LhvModel, n_per_context: int, seed: int) -> ExperimentBundle:
    """Four datasets from four independent lambda streams (fresh lambda per trial per context).

    Per-context streams derive from (seed, context index), so any evaluation
    order produces identical bytes.
    """
    n_per_context = sample_size(n_per_context)
    datasets = []
    for context in CANONICAL_CONTEXTS:
        lam = model.draw_lambda(spawn_rng(seed, "lhv-context", context.index), n_per_context)
        pairs = np.column_stack(
            [model.alice_response(context.alice, lam), model.bob_response(context.bob, lam)]
        )
        datasets.append(
            ContextDataset(context, pairs, {"seed": seed, "generator": f"lhv:{model.name}"})
        )
    return ExperimentBundle(tuple(datasets))


def sample_plus_counts(model: LhvModel, n_per_context: int, seed: int) -> tuple[int, int, int, int]:
    """Per-context counts of pairs with a*b = +1 in ``sample_bundle(model, n_per_context, seed)``.

    Draws the same streams as ``sample_bundle`` but builds no datasets.
    """
    n_per_context = sample_size(n_per_context)
    return tuple(
        model.plus_count(context, spawn_rng(seed, "lhv-context", context.index), n_per_context)
        for context in CANONICAL_CONTEXTS
    )


def exact_lhv_correlation(model: LhvModel, context: Context) -> float:
    """The coupling integral E_ij in closed form: a weighted sum, or the sign-cosine formula."""
    return model.correlation(context)


def exact_lhv_s(model: LhvModel) -> float:
    """Exact S of the coupling; lies in [-2, 2]."""
    return sum(
        sign * exact_lhv_correlation(model, context)
        for sign, context in zip(CHSH_SIGNS, CANONICAL_CONTEXTS)
    )


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
    return table.astype(np.int64)


def mixture_model(strategies: object, weights: object, name: str = "mixture") -> MixtureModel:
    """Finite model: lambda indexes a deterministic strategy (a1, a2, b1, b2)."""
    table = _strategy_table(strategies)
    weights = _numbers("weights", weights, (len(table),)).astype(np.float64)
    return MixtureModel(name, tuple(map(tuple, table.tolist())), tuple(weights.tolist()))


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
    c_values = (
        table[:, 0] * table[:, 2]
        + table[:, 0] * table[:, 3]
        + table[:, 1] * table[:, 2]
        - table[:, 1] * table[:, 3]
    )
    if not (c_values == 2).all():
        raise ConfigError(
            f"boundary mixture requires strategies with C = +2, got C = {c_values.tolist()}"
        )
    return mixture_model(table, weights, name="boundary_mixture")


def sign_cosine_model(
    a1: float, a2: float, b1: float, b2: float, bob_sign: float = -1.0
) -> SignCosineModel:
    """Uniform lambda on [0, 2pi); A_i = sign(cos(lambda - a_i)), B_j = bob_sign * sign(cos(lambda - b_j)).

    With the default bob_sign = -1 (singlet-like anticorrelation at equal
    angles), E(a, b) = (2/pi) * d(a, b) - 1 where d is the angular distance
    folded to [0, pi].
    """
    if bob_sign not in (-1, 1):
        raise ConfigError(f"bob_sign must be +1 or -1, got {bob_sign}")
    angles = (float(_numbers(key, value)) for key, value in zip(ANGLE_KEYS, (a1, a2, b1, b2)))
    return SignCosineModel(
        f"sign_cosine(a1={a1!r},a2={a2!r},b1={b1!r},b2={b2!r},bob_sign={int(bob_sign)})",
        *angles,
        bob_sign=int(bob_sign),
    )


_VARIANT_KEYS = {
    "deterministic": {"outcomes"},
    "sign_cosine": {*ANGLE_KEYS, "bob_sign"},
    "boundary_mixture": {"strategies", "weights"},
}


def model_from_mapping(spec: Mapping[str, Any]) -> LhvModel:
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
