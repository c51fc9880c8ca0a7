"""Context-labeled behaviors: four outcome-pair distributions, one per context.

A behavior stores, for each canonical context (i, j), the probability vector
over the outcome pairs (+,+), (+,-), (-,+), (-,-).  Nothing ties the four
vectors together a priori, so |S| <= 4 is the only built-in bound; whether a
single joint distribution over (A1, A2, B1, B2) could reproduce them is the
feasibility module's question.  Empirical behaviors keep raw integer counts
alongside frequencies so count-level reshuffling checks stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CANONICAL_CONTEXTS, CHSH_SIGNS, Context, ContextDataset, ExperimentBundle
from .core import ArrayValue, frozen_array
from .errors import DomainError
from .quantum import OUTCOME_PAIRS, AngleQuadruple, Convention, DensityMatrix, born_probabilities
from .rng import categorical, category_counts, sample_size, spawn_rng

__all__ = [
    "Behavior",
    "SignalingReport",
    "behavior_correlation",
    "behavior_from_bundle",
    "behavior_from_quantum",
    "behavior_s",
    "no_signaling",
    "pr_box",
    "random_no_signaling_behavior",
    "sample_bundle_from_behavior",
    "sample_plus_counts_from_behavior",
]

PROB_TOL = 1e-12

# a*b weights for the outcome pairs (+,+), (+,-), (-,+), (-,-)
_CORRELATION_WEIGHTS = np.array([1.0, -1.0, -1.0, 1.0])


@dataclass(frozen=True, eq=False)
class Behavior(ArrayValue):
    """Per-context probability vectors; rows follow the canonical context order."""

    probs: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        probs = frozen_array(self.probs, np.float64, (4, 4), "behavior probabilities")
        if probs.min() < -PROB_TOL:
            raise DomainError(f"negative probability {probs.min():.3e} in behavior")
        sums = probs.sum(axis=1)
        if np.abs(sums - 1.0).max() > PROB_TOL:
            raise DomainError(f"context rows must each sum to 1, got sums {sums.tolist()}")
        object.__setattr__(self, "probs", probs)
        if self.counts is not None:
            counts = frozen_array(self.counts, np.int64, (4, 4), "counts")
            if counts.min() < 0:
                raise DomainError("counts must be nonnegative")
            object.__setattr__(self, "counts", counts)


def behavior_correlation(behavior: Behavior, context: Context) -> float:
    """<A_ij B_ij> = p(++) + p(--) - p(+-) - p(-+) for the labeled context."""
    return float(behavior.probs[context.index] @ _CORRELATION_WEIGHTS)


def behavior_s(behavior: Behavior) -> float:
    """Signed sum of the four context correlations; a priori within [-4, 4]."""
    return sum(
        sign * behavior_correlation(behavior, context)
        for sign, context in zip(CHSH_SIGNS, CANONICAL_CONTEXTS)
    )


def pr_box() -> Behavior:
    """The extremal no-signaling behavior: |S| = 4 with uniform marginals."""
    correlated = np.array([0.5, 0.0, 0.0, 0.5])
    anticorrelated = np.array([0.0, 0.5, 0.5, 0.0])
    return Behavior(np.vstack([correlated, correlated, correlated, anticorrelated]))


@dataclass(frozen=True)
class SignalingReport:
    """Largest drift of one party's marginal across the other party's settings."""

    alice_deficit: float
    bob_deficit: float

    def __post_init__(self) -> None:
        if min(self.alice_deficit, self.bob_deficit) < 0:
            raise DomainError("signaling deficits cannot be negative")

    @property
    def max_deficit(self) -> float:
        return max(self.alice_deficit, self.bob_deficit)


def no_signaling(behavior: Behavior) -> SignalingReport:
    """Compare P(a=+1 | i) across Bob's settings and P(b=+1 | j) across Alice's."""
    p = behavior.probs.reshape(2, 2, 4)  # [alice setting - 1, bob setting - 1, outcome pair]
    alice_plus = p[:, :, 0] + p[:, :, 1]  # P(a = +1)
    bob_plus = p[:, :, 0] + p[:, :, 2]  # P(b = +1)
    alice_deficit = float(np.abs(alice_plus[:, 0] - alice_plus[:, 1]).max())
    bob_deficit = float(np.abs(bob_plus[0, :] - bob_plus[1, :]).max())
    return SignalingReport(alice_deficit, bob_deficit)


def behavior_from_quantum(
    rho: DensityMatrix, angles: AngleQuadruple, convention: Convention = "spin"
) -> Behavior:
    """Born distributions of the four contexts at the given setting angles."""
    rows = [
        born_probabilities(
            rho, angles.alice(context.alice), angles.bob(context.bob), convention
        )
        for context in CANONICAL_CONTEXTS
    ]
    return Behavior(np.clip(np.vstack(rows), 0.0, None))


def _pair_index(pairs: np.ndarray) -> np.ndarray:
    # (+,+)->0, (+,-)->1, (-,+)->2, (-,-)->3
    return ((1 - pairs[:, 0]) + (1 - pairs[:, 1]) // 2).astype(np.int64)


def behavior_from_bundle(bundle: ExperimentBundle) -> Behavior:
    """Per-context relative frequencies, with the raw counts attached."""
    counts = np.zeros((4, 4), dtype=np.int64)
    for dataset in bundle.datasets:
        if dataset.n_pairs == 0:
            raise DomainError(f"empty dataset in context {dataset.context}")
        counts[dataset.context.index] = np.bincount(
            _pair_index(dataset.pairs), minlength=4
        )
    probs = counts / counts.sum(axis=1, keepdims=True)
    return Behavior(probs, counts)


def sample_bundle_from_behavior(
    behavior: Behavior, n_per_context: int, seed: int, label: str = "behavior-context"
) -> ExperimentBundle:
    """Multinomial draws from each context's distribution; deterministic given seed.

    Context c draws from the stream (seed, label, c.index), so sources that share
    this sampler keep their own streams by passing their own label.
    """
    n_per_context = sample_size(n_per_context)
    probs = _sampling_probs(behavior)
    datasets = []
    for context in CANONICAL_CONTEXTS:
        rng = spawn_rng(seed, label, context.index)
        draws = categorical(rng, probs[context.index], n_per_context)
        datasets.append(
            ContextDataset(context, OUTCOME_PAIRS[draws], {"seed": seed, "generator": label})
        )
    return ExperimentBundle(tuple(datasets))


def sample_plus_counts_from_behavior(
    behavior: Behavior, n_per_context: int, seed: int, label: str = "behavior-context"
) -> tuple[int, int, int, int]:
    """Per-context counts of (+,+) and (-,-) pairs in ``sample_bundle_from_behavior``'s bundle.

    Draws the same streams as that sampler but builds no datasets.
    """
    n_per_context = sample_size(n_per_context)
    probs = _sampling_probs(behavior)
    plus = []
    for context in CANONICAL_CONTEXTS:
        rng = spawn_rng(seed, label, context.index)
        counts = category_counts(rng, probs[context.index], n_per_context)
        plus.append(int(counts[0] + counts[3]))
    return tuple(plus)


def _sampling_probs(behavior: Behavior) -> np.ndarray:
    # a row may dip below 0 by up to PROB_TOL; the samplers draw from each row clipped and renormalized
    probs = np.clip(behavior.probs, 0.0, None)
    return probs / probs.sum(axis=1, keepdims=True)


def random_no_signaling_behavior(rng: np.random.Generator) -> Behavior:
    """Uniformly drawn marginals plus a joint inside each context's Frechet interval.

    Shared marginals per party/setting guarantee no-signaling by construction;
    the per-context p(+,+) is drawn between the Frechet-Hoeffding bounds.
    """
    alice_plus = rng.uniform(0.0, 1.0, size=2)
    bob_plus = rng.uniform(0.0, 1.0, size=2)
    rows = np.empty((4, 4))
    for context in CANONICAL_CONTEXTS:
        pa = alice_plus[context.alice - 1]
        pb = bob_plus[context.bob - 1]
        lo = max(0.0, pa + pb - 1.0)
        hi = min(pa, pb)
        p_pp = lo + (hi - lo) * rng.uniform()
        row = np.array([p_pp, pa - p_pp, pb - p_pp, 1.0 - pa - pb + p_pp])
        rows[context.index] = np.clip(row, 0.0, None)
        rows[context.index] /= rows[context.index].sum()
    return Behavior(rows)
