"""Joint-distribution feasibility: can four context tables come from one spreadsheet?

The proofs bounding |S| by 2 tacitly assume a single joint distribution over
the sixteen deterministic assignments (a1, a2, b1, b2) in {+1,-1}^4 whose four
pairwise marginals reproduce the observed context distributions.  This module
decides that question exactly:

  * ``fine_feasible_lp`` -- phase-1 LP over the 16 assignment weights with
    3 independent probabilities per context plus total mass (13 equality
    rows; the 4th outcome of each context is implied).  Feasible results
    carry a witness joint distribution; infeasible ones carry the maximal
    violated CHSH form, or a marginal-inconsistency certificate when the
    input signals (possible off the no-signaling set, where the CHSH
    criterion is not exhaustive).
  * ``chsh_certificate`` -- the analytic route: maximum of the 8 signed CHSH
    forms; for no-signaling behaviors, feasibility holds iff it is <= 2.
  * ``reshuffle_feasible`` -- the count-level variant: can four N x 2 data
    tables be reordered into N consistent quadruples?  Solved by the same LP
    on count tables (optional per-context L1 slack).  At slack 0 a feasible
    answer is an exact integer reshuffle: the marginal system is
    unimodular (every basis of its 9 independent rows has determinant +-1),
    so each vertex of {w >= 0 : P w = counts} is integral (Veinott & Dantzig,
    SIAM Rev. 10, 371 (1968)).  The phase-1 simplex stops at a vertex, so
    rounding its witness removes only float noise, and the rounded witness
    is checked exactly against the counts.  That holds while float64
    resolves the counts (N up to ~10^15).  Past that the check raises
    ``NumericError`` for most feasible tables at N = 10^16 and for all
    tested ones from N = 10^17; it never returns a wrong witness or
    verdict.  ROADMAP item 2 plans an exact integer construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._simplex import phase1_solve
from .behaviors import Behavior, behavior_correlation, behavior_from_bundle
from .core import CANONICAL_CONTEXTS, ArrayValue, Context, CounterfactualTable
from .core import finite_real, fixed_sum, frozen_array, outcome_codes, outcome_rows, project_bundle
from .errors import DomainError, NumericError

__all__ = [
    "ASSIGNMENTS",
    "Certificate",
    "FeasibilityResult",
    "JointDistribution",
    "ReshuffleProblem",
    "chsh_certificate",
    "chsh_certificate_detail",
    "fine_feasible_lp",
    "reshuffle_feasible",
    "reshuffle_problem_from_table",
]

LP_TOL = 1e-9
WITNESS_TOL = 1e-8

# All deterministic assignments (a1, a2, b1, b2), lexicographic with +1 first: assignment k has code k.
ASSIGNMENTS: tuple[tuple[int, int, int, int], ...] = tuple(map(tuple, outcome_rows(4).tolist()))

# The 8 CHSH sign patterns: epsilon in {+1,-1}^4 with product -1 (one or three minus signs).
CHSH_SIGN_PATTERNS: tuple[tuple[int, int, int, int], ...] = tuple(
    eps for eps in ASSIGNMENTS if math.prod(eps) == -1
)

# 0/1 tensor P[context, outcome, assignment]: the assignment's (a_i, b_j) land in that outcome cell.
PROJECTION = frozen_array(
    [np.eye(4)[outcome_codes(outcome_rows(4)[:, c.columns])].T for c in CANONICAL_CONTEXTS],
    np.float64,
    (4, 4, 16),
    "projection",
)


@dataclass(frozen=True, eq=False)
class JointDistribution(ArrayValue):
    """Weights over the 16 deterministic assignments; the 'tacitly assumed' object."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = frozen_array(self.weights, np.float64, (16,), "joint distribution weights")
        if w.min() < -1e-12:
            raise DomainError(f"negative weight {w.min():.3e}")
        if abs(float(w.sum()) - 1.0) > 1e-10:
            raise DomainError(f"weights sum to {float(w.sum())}, not 1 within 1e-10")
        clipped = np.clip(w, 0.0, None)  # drops the tolerated round-off below 0
        object.__setattr__(self, "weights", frozen_array(clipped, np.float64, (16,), "weights"))

    def context_marginal(self, context: Context) -> np.ndarray:
        """Outcome-pair distribution this joint induces in the given context."""
        return PROJECTION[context.index] @ self.weights


@dataclass(frozen=True)
class Certificate:
    """Why no joint distribution exists: a violated CHSH form, or inconsistent marginals."""

    kind: str  # "chsh" | "marginal-inconsistency"
    value: float
    signs: tuple[int, int, int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("chsh", "marginal-inconsistency"):
            raise DomainError(f"certificate kind must be chsh|marginal-inconsistency, got {self.kind!r}")
        if self.kind == "chsh" and not (isinstance(self.signs, tuple) and self.signs in CHSH_SIGN_PATTERNS):
            raise DomainError(f"chsh certificate signs must be one of the 8 CHSH sign patterns, got {self.signs!r}")
        if self.kind == "marginal-inconsistency" and self.signs is not None:
            raise DomainError(f"marginal-inconsistency certificate with signs {self.signs!r}")

    def describe(self) -> str:
        if self.kind == "chsh":
            terms = "".join(
                f"{'+' if s > 0 else '-'}E{c.alice}{c.bob}"
                for s, c in zip(self.signs, CANONICAL_CONTEXTS)
            )
            return f"CHSH form {terms} = {self.value:.6f} > 2"
        return f"context marginals admit no joint distribution (violation mass {self.value:.3e})"


@dataclass(frozen=True, eq=False)
class FeasibilityResult(ArrayValue):
    """LP outcome: a witness joint distribution, or an infeasibility certificate."""

    status: str  # "feasible" | "infeasible"
    residual: float
    witness: JointDistribution | None = None
    certificate: Certificate | None = None
    witness_counts: np.ndarray | None = None
    integrality: str | None = None  # "integer" for slack-0 count problems, else None

    def __post_init__(self) -> None:
        if self.status not in ("feasible", "infeasible"):
            raise DomainError(f"status must be feasible|infeasible, got {self.status!r}")
        if (self.witness is None) == (self.certificate is None):
            raise DomainError("exactly one of witness/certificate must be present")
        if (self.status == "feasible") != (self.witness is not None):
            raise DomainError(f"{self.status} result with a {'certificate' if self.witness is None else 'witness'}")
        if self.status == "feasible" and self.residual > WITNESS_TOL:
            raise DomainError(f"feasible result with residual {self.residual:.3e} > {WITNESS_TOL}")
        if self.witness_counts is not None:
            counts = frozen_array(self.witness_counts, np.float64, (16,), "witness counts")
            object.__setattr__(self, "witness_counts", counts)

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def chsh_certificate_detail(behavior: Behavior) -> tuple[float, tuple[int, int, int, int]]:
    """Max over the 8 signed CHSH forms, with the achieving sign pattern; the (+,+,+,-) form is ``behavior_s``."""
    correlations = [behavior_correlation(behavior, context) for context in CANONICAL_CONTEXTS]
    values = [fixed_sum(signs, correlations) for signs in CHSH_SIGN_PATTERNS]
    best = values.index(max(values))
    return values[best], CHSH_SIGN_PATTERNS[best]


def chsh_certificate(behavior: Behavior) -> float:
    """Maximum of the eight signed CHSH correlation combinations."""
    return chsh_certificate_detail(behavior)[0]


def _marginal_system(targets: np.ndarray, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Equality system: 3 outcomes per context (4th implied) plus total mass."""
    a_eq = np.vstack([PROJECTION[:, :3].reshape(12, 16), np.ones(16)])
    return a_eq, np.append(targets[:, :3], mass)


def _max_marginal_violation(weights: np.ndarray, targets: np.ndarray) -> float:
    projected = PROJECTION @ weights  # (4 contexts, 4 outcomes)
    return float(np.abs(projected - targets).max())


def fine_feasible_lp(behavior: Behavior) -> FeasibilityResult:
    """Decide whether one joint distribution reproduces all four context distributions."""
    a_eq, b_eq = _marginal_system(behavior.probs, 1.0)
    infeasibility, x = phase1_solve(a_eq, b_eq, tol=LP_TOL)
    if infeasibility <= LP_TOL:
        weights = np.clip(x, 0.0, None)
        weights /= weights.sum()
        witness = JointDistribution(weights)
        residual = _max_marginal_violation(witness.weights, behavior.probs)
        return FeasibilityResult("feasible", residual=residual, witness=witness)
    return _infeasible(behavior, infeasibility, infeasibility)


def _infeasible(
    behavior: Behavior, infeasibility: float, violation_mass: float
) -> FeasibilityResult:
    """Infeasible verdict: the violated CHSH form, else inconsistent marginals."""
    value, signs = chsh_certificate_detail(behavior)
    if value > 2.0 + LP_TOL:
        certificate = Certificate("chsh", value, signs)
    else:
        certificate = Certificate("marginal-inconsistency", violation_mass)
    return FeasibilityResult("infeasible", residual=infeasibility, certificate=certificate)


@dataclass(frozen=True, eq=False)
class ReshuffleProblem(ArrayValue):
    """Four context count tables plus an allowed per-context L1 deviation (in counts)."""

    counts: np.ndarray
    slack: float = 0.0

    def __post_init__(self) -> None:
        counts = frozen_array(self.counts, np.int64, (4, 4), "counts")
        if counts.min() < 0:
            raise DomainError("counts must be nonnegative")
        if not (finite_real(self.slack) and self.slack >= 0.0):
            raise DomainError(f"slack must be finite and >= 0, got {self.slack}")
        object.__setattr__(self, "counts", counts)

    @property
    def totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)


def reshuffle_problem_from_table(table: CounterfactualTable) -> ReshuffleProblem:
    """Count tables obtained by projecting one counterfactual table into all contexts (no slack)."""
    behavior = behavior_from_bundle(project_bundle(table))
    return ReshuffleProblem(behavior.counts)


def _slack_system(
    counts: np.ndarray, slack: float, mass: float, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Variables [w(16), d(16), s(36)]: |P w - counts| <= d per cell, sum_o d <= slack per context.

    The witness total sum(w) is pinned to ``mass`` (= N, or the mean context
    total when they differ), matching the count-level reading of the problem.
    """
    proj = PROJECTION.reshape(16, 16)
    minus_eye = 0.0 - np.eye(16)  # not -np.eye(16), whose off-diagonal zeros are -0.0
    zeros = np.zeros((16, 16))
    a_eq = np.block([
        [proj, minus_eye, np.eye(16), zeros, np.zeros((16, 4))],  # P w - d + s = counts
        [-proj, minus_eye, zeros, np.eye(16), np.zeros((16, 4))],  # -P w - d + s = -counts
        [np.zeros((4, 16)), np.kron(np.eye(4), np.ones(4)), np.zeros((4, 32)), np.eye(4)],  # sum_o d + s = slack
        [np.ones((1, 16)), np.zeros((1, 52))],  # sum w = mass
    ])
    flat = counts.reshape(16)
    # (-flat) / scale, so that an empty cell gives 0.0 and not -0.0
    b_eq = np.concatenate([flat / scale, -flat / scale, [slack / scale] * 4, [mass / scale]])
    return a_eq, b_eq


def reshuffle_feasible(problem: ReshuffleProblem) -> FeasibilityResult:
    """Decide whether the four count tables can be reshuffled into consistent quadruples.

    The exact variant (slack 0, equal totals) asks for assignment counts whose
    projections reproduce every table; a feasible answer carries an integer
    witness, labeled "integer", or raises ``NumericError`` where float64
    cannot resolve the counts (N >= ~10^16; see the module docstring).  With
    slack > 0 each context table may deviate by up to ``slack`` in L1, and the
    witness is the LP's real-valued one.
    """
    counts = problem.counts
    totals = problem.totals
    if counts.sum() == 0:
        raise DomainError("reshuffling undefined for all-empty count tables")
    for context, total in zip(CANONICAL_CONTEXTS, totals.tolist()):
        if total == 0:
            raise DomainError(f"reshuffling undefined: empty count table in context {context}")
    if problem.slack == 0.0 and len(set(totals.tolist())) != 1:
        raise DomainError(
            f"exact reshuffling needs equal context totals, got {totals.tolist()}; "
            "set slack > 0 to allow deviations"
        )
    scale = float(counts.sum())
    if problem.slack == 0.0:
        a_eq, b_eq = _marginal_system(counts / scale, totals[0] / scale)
    else:
        mass = float(np.rint(totals.mean()))
        a_eq, b_eq = _slack_system(counts, problem.slack, mass, scale)
    infeasibility, x = phase1_solve(a_eq, b_eq, tol=LP_TOL)
    frequencies = counts / totals[:, None]
    if infeasibility > LP_TOL:
        return _infeasible(Behavior(frequencies), infeasibility, infeasibility * scale)
    if problem.slack > 0.0:
        witness_counts = x[:16] * scale
        witness = JointDistribution(np.clip(witness_counts, 0.0, None) / witness_counts.sum())
        return FeasibilityResult(
            "feasible", residual=infeasibility, witness=witness, witness_counts=witness_counts
        )
    integral = np.rint(x * scale).astype(np.int64)
    projected = PROJECTION.reshape(16, 16).astype(np.int64) @ integral
    if integral.min() < 0 or not np.array_equal(projected, counts.reshape(16)):
        raise NumericError("rounded LP vertex does not reproduce the count tables")
    witness = JointDistribution(integral / integral.sum())
    return FeasibilityResult(
        "feasible",
        residual=_max_marginal_violation(witness.weights, frequencies),
        witness=witness,
        witness_counts=integral,
        integrality="integer",
    )
