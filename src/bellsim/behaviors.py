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

from .core import CANONICAL_CONTEXTS, OUTCOME_PAIRS, PAIR_PRODUCTS, Context, ContextLaw, ExperimentBundle
from .core import ArrayValue, chsh_sum, fixed_sum, frozen_array, outcome_codes, sample_contexts
from .errors import DomainError
from .quantum import AngleQuadruple, DensityMatrix, born_probabilities

__all__ = [
    "Behavior",
    "SignalingReport",
    "behavior_correlation",
    "behavior_from_bundle",
    "behavior_from_quantum",
    "behavior_laws",
    "behavior_s",
    "no_signaling",
    "pr_box",
    "random_no_signaling_behavior",
    "sample_bundle_from_behavior",
]

PROB_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Behavior(ArrayValue):
    """Per-context probability vectors; rows follow the canonical context order."""

    probs: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        probs = frozen_array(self.probs, np.float64, (4, 4), "behavior probabilities")
        if probs.min() < -PROB_TOL:
            raise DomainError(f"negative probability {probs.min():.3e} in behavior")
        with np.errstate(over="ignore"):  # probabilities near float64's limit sum to inf, which fails the check
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
    return fixed_sum(behavior.probs[context.index], PAIR_PRODUCTS)


def behavior_s(behavior: Behavior) -> float:
    """Signed sum of the four context correlations; a priori within [-4, 4]."""
    return chsh_sum([behavior_correlation(behavior, context) for context in CANONICAL_CONTEXTS]) + 0.0


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
    plus = p @ (OUTCOME_PAIRS == 1)  # [..., 0] is P(a = +1), [..., 1] is P(b = +1)
    alice_deficit = float(np.abs(plus[:, 0, 0] - plus[:, 1, 0]).max())
    bob_deficit = float(np.abs(plus[0, :, 1] - plus[1, :, 1]).max())
    return SignalingReport(alice_deficit, bob_deficit)


def behavior_from_quantum(rho: DensityMatrix, angles: AngleQuadruple) -> Behavior:
    """Born distributions of the four contexts at the given setting angles."""
    rows = [
        born_probabilities(rho, angles.alice(context.alice), angles.bob(context.bob))
        for context in CANONICAL_CONTEXTS
    ]
    return Behavior(np.clip(np.vstack(rows), 0.0, None))


def behavior_from_bundle(bundle: ExperimentBundle) -> Behavior:
    """Per-context relative frequencies, with the raw counts attached."""
    counts = np.zeros((4, 4), dtype=np.int64)
    for dataset in bundle.datasets:
        if dataset.n_pairs == 0:
            raise DomainError(f"empty dataset in context {dataset.context}")
        counts[dataset.context.index] = np.bincount(outcome_codes(dataset.pairs), minlength=4)
    probs = counts / counts.sum(axis=1, keepdims=True)
    return Behavior(probs, counts)


def behavior_laws(behavior: Behavior) -> tuple[ContextLaw, ...]:
    """Per context: its row over ``OUTCOME_PAIRS``, clipped at 0 (it may dip to -PROB_TOL) and renormalized."""
    probs = np.clip(behavior.probs, 0.0, None)
    probs = probs / probs.sum(axis=1, keepdims=True)
    return tuple((row, OUTCOME_PAIRS) for row in probs)


def sample_bundle_from_behavior(
    behavior: Behavior, n_per_context: int, seed: int, label: str = "behavior-context"
) -> ExperimentBundle:
    """Multinomial draws from each context's distribution on the streams (seed, label, context index)."""
    return sample_contexts(behavior_laws(behavior), n_per_context, seed, label)


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
        cells = {(1, 1): p_pp, (1, -1): pa - p_pp, (-1, 1): pb - p_pp, (-1, -1): 1.0 - pa - pb + p_pp}
        row = np.array([cells[a, b] for a, b in OUTCOME_PAIRS.tolist()])
        rows[context.index] = np.clip(row, 0.0, None)
        rows[context.index] /= rows[context.index].sum()
    return Behavior(rows)
