"""Local-hidden-variable couplings: shared lambda, deterministic responses.

A model is a hidden-variable space Lambda with a probability density (or mass)
rho, plus deterministic response functions A_i(lambda), B_j(lambda) in {+1,-1}.
Its exact per-context correlation is the coupling integral

    E_ij = integral over Lambda of A_i(lambda) * B_j(lambda) * rho(lambda)

evaluated by quadrature for interval spaces and by exact summation for finite
ones.  Because all four responses coexist per lambda, sampling one lambda
stream yields a counterfactual table (|B| <= 2 by construction), while
sampling four independent streams, one per context, yields the bundle whose
S estimate fluctuates around the exact S and can exceed 2.

Response functions must accept numpy arrays of lambda values and return +/-1
arrays of the same shape (all built-ins do).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import CANONICAL_CONTEXTS, CHSH_SIGNS, Context, ContextDataset, CounterfactualTable, ExperimentBundle
from .errors import ConfigError, NumericError
from .rng import categorical, sample_size, spawn_rng

__all__ = [
    "FiniteSpace",
    "IntervalSpace",
    "LhvModel",
    "boundary_mixture_model",
    "deterministic_model",
    "exact_lhv_correlation",
    "exact_lhv_s",
    "mixture_model",
    "model_from_mapping",
    "sample_bundle",
    "sample_counterfactual_table",
    "sign_cosine_model",
]

DENSITY_TOL = 1e-9
QUADRATURE_TOL = 1e-8


@dataclass(frozen=True)
class IntervalSpace:
    """Lambda ranges over the real interval [lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ConfigError(f"invalid interval [{self.lo}, {self.hi})")


@dataclass(frozen=True)
class FiniteSpace:
    """Lambda ranges over finitely many points with the given probability masses."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if points.ndim != 1 or weights.shape != points.shape or points.size == 0:
            raise ConfigError("finite space needs matching 1-d points and weights")
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class LhvModel:
    """Hidden-variable space, density, and deterministic +/-1 response functions.

    ``sample_lambda(rng, size)`` draws lambda values; a bare density does not
    determine a sampler, so interval-space models must provide one (the
    built-ins do).  ``breakpoints`` optionally maps ("alice"|"bob", setting)
    to the lambdas where that response flips sign, letting the quadrature
    split the discontinuous integrand analytically.

    Every model is validated when it is built (``dataclasses.replace``
    included), so an existing model always has normalized masses or density
    and +/-1 responses.
    """

    name: str
    space: IntervalSpace | FiniteSpace
    alice_response: Callable[[int, np.ndarray], np.ndarray]
    bob_response: Callable[[int, np.ndarray], np.ndarray]
    density: Callable[[np.ndarray], np.ndarray] | None = None
    sample_lambda: Callable[[np.random.Generator, int], np.ndarray] | None = None
    breakpoints: Mapping[tuple[str, int], tuple[float, ...]] | None = None

    def __post_init__(self) -> None:
        validate_model(self)


def validate_model(model: LhvModel) -> None:
    """Check density normalization and response ranges; ``LhvModel`` runs it when built."""
    if isinstance(model.space, FiniteSpace):
        weights = model.space.weights
        if (weights < 0).any():
            raise ConfigError(f"model {model.name!r}: negative probability mass")
        if not abs(float(weights.sum()) - 1.0) <= DENSITY_TOL:  # NaN masses fail too
            raise ConfigError(
                f"model {model.name!r}: masses sum to {weights.sum()!r}, not 1 within {DENSITY_TOL}"
            )
        probe = model.space.points
    else:
        if model.density is None:
            raise ConfigError(f"model {model.name!r}: interval space requires a density")
        if model.sample_lambda is None:
            raise ConfigError(f"model {model.name!r}: interval space requires sample_lambda")
        from scipy import integrate  # deferred: loading it is most of bellsim's import time

        total, abserr = integrate.quad(
            model.density, model.space.lo, model.space.hi, epsabs=1e-10, limit=500
        )
        if abs(total - 1.0) > DENSITY_TOL:
            raise ConfigError(
                f"model {model.name!r}: density integrates to {total!r}, not 1 within {DENSITY_TOL}"
            )
        probe = np.linspace(model.space.lo, model.space.hi, 257, endpoint=False)
        if (np.asarray(model.density(probe)) < 0).any():
            raise ConfigError(f"model {model.name!r}: density takes negative values")
    for party, response in (("alice", model.alice_response), ("bob", model.bob_response)):
        for setting in (1, 2):
            values = np.asarray(response(setting, probe))
            if not np.isin(values, (-1, 1)).all():
                raise ConfigError(
                    f"model {model.name!r}: {party} response for setting {setting} "
                    "returned values outside {+1, -1}"
                )


def _draw_lambda(model: LhvModel, rng: np.random.Generator, size: int) -> np.ndarray:
    if model.sample_lambda is not None:
        return model.sample_lambda(rng, size)
    # validation leaves only finite spaces without a sampler
    return model.space.points[categorical(rng, model.space.weights, size)]


def sample_counterfactual_table(model: LhvModel, n: int, seed: int) -> CounterfactualTable:
    """Draw n lambdas from one stream; row k holds (A1, A2, B1, B2) at lambda_k."""
    n = sample_size(n, "n")
    lam = _draw_lambda(model, spawn_rng(seed, "lhv-table"), n)
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
        lam = _draw_lambda(model, spawn_rng(seed, "lhv-context", context.index), n_per_context)
        pairs = np.column_stack(
            [model.alice_response(context.alice, lam), model.bob_response(context.bob, lam)]
        )
        datasets.append(
            ContextDataset(context, pairs, {"seed": seed, "generator": f"lhv:{model.name}"})
        )
    return ExperimentBundle(tuple(datasets))


def exact_lhv_correlation(model: LhvModel, context: Context) -> float:
    """The coupling integral E_ij = int A_i(l) B_j(l) rho(l) dl, exact to 1e-8.

    Finite spaces are summed exactly; interval spaces go through adaptive
    quadrature, split at the responses' sign-change points when the model
    exposes them.
    """
    space = model.space
    if isinstance(space, FiniteSpace):
        product = model.alice_response(context.alice, space.points) * model.bob_response(
            context.bob, space.points
        )
        return float(np.dot(product.astype(np.float64), space.weights))

    def integrand(lam: float) -> float:
        arr = np.asarray([lam], dtype=np.float64)
        value = (
            model.alice_response(context.alice, arr)
            * model.bob_response(context.bob, arr)
            * model.density(arr)
        )
        return float(value[0])

    points: list[float] = []
    if model.breakpoints is not None:
        points.extend(model.breakpoints.get(("alice", context.alice), ()))
        points.extend(model.breakpoints.get(("bob", context.bob), ()))
    points = sorted({p for p in points if space.lo < p < space.hi})
    from scipy import integrate  # deferred, as in validate_model

    value, abserr = integrate.quad(
        integrand, space.lo, space.hi, points=points or None, epsabs=1e-10, limit=1000
    )
    if abserr > QUADRATURE_TOL:
        raise NumericError(
            f"quadrature for context {context} did not converge: "
            f"estimated error {abserr:.3e} exceeds {QUADRATURE_TOL}"
        )
    return value


def exact_lhv_s(model: LhvModel) -> float:
    """Exact S of the coupling; lies in [-2, 2] up to quadrature tolerance."""
    total = sum(
        sign * exact_lhv_correlation(model, context)
        for sign, context in zip(CHSH_SIGNS, CANONICAL_CONTEXTS)
    )
    if abs(total) > 2.0 + QUADRATURE_TOL:
        raise NumericError(
            f"model {model.name!r} yields |S| = {abs(total)!r} > 2; "
            "its density or responses cannot form a valid local coupling"
        )
    return total


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


def mixture_model(strategies: object, weights: object, name: str = "mixture") -> LhvModel:
    """Finite model: lambda indexes a deterministic strategy (a1, a2, b1, b2)."""
    table = _strategy_table(strategies)
    weights = _numbers("weights", weights, None).astype(np.float64)
    if weights.shape != (table.shape[0],):
        raise ConfigError(f"need one weight per strategy, got {weights.shape} for {table.shape[0]}")

    def alice(setting: int, lam: np.ndarray) -> np.ndarray:
        return table[lam, setting - 1].astype(np.int8)

    def bob(setting: int, lam: np.ndarray) -> np.ndarray:
        return table[lam, 2 + setting - 1].astype(np.int8)

    return LhvModel(
        name=name,
        space=FiniteSpace(np.arange(table.shape[0]), weights),
        alice_response=alice,
        bob_response=bob,
    )


def deterministic_model(a1: int, a2: int, b1: int, b2: int) -> LhvModel:
    """Single fixed assignment; zero-variance responses."""
    return mixture_model([(a1, a2, b1, b2)], [1.0], name=f"deterministic({a1},{a2},{b1},{b2})")


DEFAULT_BOUNDARY_STRATEGIES = ((1, 1, 1, 1), (1, 1, 1, -1))
DEFAULT_BOUNDARY_WEIGHTS = (0.5, 0.5)


def boundary_mixture_model(
    strategies: object = DEFAULT_BOUNDARY_STRATEGIES,
    weights: object = DEFAULT_BOUNDARY_WEIGHTS,
) -> LhvModel:
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


def _sign_pm(x: np.ndarray) -> np.ndarray:
    # sign with the measure-zero tie broken deterministically upward
    return np.where(x >= 0.0, 1, -1).astype(np.int8)


def sign_cosine_model(
    a1: float, a2: float, b1: float, b2: float, bob_sign: float = -1.0
) -> LhvModel:
    """Uniform lambda on [0, 2pi); A_i = sign(cos(lambda - a_i)), B_j = bob_sign * sign(cos(lambda - b_j)).

    With the default bob_sign = -1 (singlet-like anticorrelation at equal
    angles), E(a, b) = (2/pi) * d(a, b) - 1 where d is the angular distance
    folded to [0, pi].
    """
    if bob_sign not in (-1.0, 1.0, -1, 1):
        raise ConfigError(f"bob_sign must be +1 or -1, got {bob_sign}")
    keys = ("a1", "a2", "b1", "b2")
    angles = {key: float(_numbers(key, value)) for key, value in zip(keys, (a1, a2, b1, b2))}
    for key, angle in angles.items():
        if not math.isfinite(angle):
            raise ConfigError(f"angle {key} must be finite, got {angle}")
    alice_angles = {1: angles["a1"], 2: angles["a2"]}
    bob_angles = {1: angles["b1"], 2: angles["b2"]}
    two_pi = 2.0 * math.pi

    def alice(setting: int, lam: np.ndarray) -> np.ndarray:
        return _sign_pm(np.cos(lam - alice_angles[setting]))

    def bob(setting: int, lam: np.ndarray) -> np.ndarray:
        return (int(bob_sign) * _sign_pm(np.cos(lam - bob_angles[setting]))).astype(np.int8)

    def density(lam: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(lam, dtype=np.float64), 1.0 / two_pi)

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(0.0, two_pi, size=size)

    def flips(angle: float) -> tuple[float, ...]:
        return tuple(sorted(((angle + k * math.pi / 2) % two_pi) for k in (1, 3)))

    breakpoints = {("alice", i): flips(alice_angles[i]) for i in (1, 2)}
    breakpoints.update({("bob", j): flips(bob_angles[j]) for j in (1, 2)})
    return LhvModel(
        name=f"sign_cosine(a1={a1!r},a2={a2!r},b1={b1!r},b2={b2!r},bob_sign={int(bob_sign)})",
        space=IntervalSpace(0.0, two_pi),
        alice_response=alice,
        bob_response=bob,
        density=density,
        sample_lambda=sampler,
        breakpoints=breakpoints,
    )


_VARIANT_KEYS = {
    "deterministic": {"outcomes"},
    "sign_cosine": {"a1", "a2", "b1", "b2", "bob_sign"},
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
        missing = {"a1", "a2", "b1", "b2"} - set(spec)
        if missing:
            raise ConfigError(f"sign_cosine variant missing keys: {sorted(missing)}")
        a1, a2, b1, b2, bob_sign = (  # bob_sign defaults to -1
            float(_numbers(key, spec.get(key, -1.0))) for key in ("a1", "a2", "b1", "b2", "bob_sign")
        )
        return sign_cosine_model(a1, a2, b1, b2, bob_sign=bob_sign)
    table = _strategy_table(spec.get("strategies", DEFAULT_BOUNDARY_STRATEGIES))
    weights = spec.get("weights")
    if weights is None:
        weights = np.full(len(table), 1.0 / len(table))
    return boundary_mixture_model(table, weights)
