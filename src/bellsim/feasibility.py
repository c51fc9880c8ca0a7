"""Joint-distribution feasibility: can four context tables come from one spreadsheet?

The proofs bounding |S| by 2 tacitly assume a single joint distribution over
the sixteen deterministic assignments (a1, a2, b1, b2) in {+1,-1}^4 whose four
pairwise marginals reproduce the observed context distributions.  This module
decides that question exactly:

  * ``fine_feasible_lp`` -- over the 16 assignment weights.  Feasible
    results carry a witness joint distribution; infeasible ones carry the
    phase-1 LP's residual (3 independent probabilities per context plus
    total mass: 13 equality rows, the 4th outcome of each context implied)
    and the maximal violated CHSH form, or a marginal-inconsistency
    certificate when the input signals (possible off the no-signaling set,
    where the CHSH criterion is not exhaustive).
  * ``chsh_certificate`` -- the analytic route: maximum of the 8 signed CHSH
    forms; for no-signaling behaviors, feasibility holds iff it is <= 2.
  * ``reshuffle_feasible`` -- the count-level variant: can four N x 2 data
    tables be reordered into N consistent quadruples (optional per-context
    L1 slack)?  At slack 0 a feasible answer is an exact integer reshuffle.

Both try a closed-form construction first.  x = #(a1 = +, a2 = +), the
chord a1-a2, takes the lower end of its interval, which the pairwise bounds
of the triangles (a1, a2, b1) and (a1, a2, b2) cut; each triangle's one free
cell t = #(a1 = +, a2 = +, b = +) takes its lower end too, and the two
triangles are glued in each (a1, a2) cell by a 2 x 2 north-west-corner
coupling.  For a no-signaling input the interval is nonempty iff every cell
so built is >= 0, and then the cells are a witness.

  * On counts the construction runs in Python ints, so its witness is exact
    for any count int64 holds; it is still checked exactly against the
    counts.  Signaling counts are infeasible at once.  The marginal system
    is unimodular (every basis of its 9 independent rows has determinant
    +-1), so a table with a real witness has an integer one (Veinott &
    Dantzig, SIAM Rev. 10, 371 (1968)): the integer verdict is the LP's.
  * On probabilities the verdict is no-signaling within ``LP_TOL`` and every
    CHSH form <= 2 + ``LP_TOL``; the witness is the construction in floats,
    its cells within round-off of 0 clipped.

The phase-1 simplex runs only where the construction finds no witness, for
the infeasibility residual and the certificate, and for slack > 0.
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
PROJECTION_INT = frozen_array(PROJECTION.reshape(16, 16), np.int64, (16, 16), "integer projection")


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
    """Why no joint distribution exists: a violated CHSH form, or inconsistent marginals; the signs set the kind."""

    value: float
    signs: tuple[int, int, int, int] | None = None

    def __post_init__(self) -> None:
        if self.signs is not None and not (isinstance(self.signs, tuple) and self.signs in CHSH_SIGN_PATTERNS):
            raise DomainError(f"chsh certificate signs must be one of the 8 CHSH sign patterns, got {self.signs!r}")

    @property
    def kind(self) -> str:
        return "marginal-inconsistency" if self.signs is None else "chsh"

    def describe(self) -> str:
        if self.signs is not None:
            terms = "".join(
                f"{'+' if s > 0 else '-'}E{c.alice}{c.bob}"
                for s, c in zip(self.signs, CANONICAL_CONTEXTS)
            )
            return f"CHSH form {terms} = {self.value:.6f} > 2"
        return f"context marginals admit no joint distribution (violation mass {self.value:.3e})"


@dataclass(frozen=True, eq=False)
class FeasibilityResult(ArrayValue):
    """Feasibility outcome; the status follows from the witness: feasible with one, infeasible with a certificate."""

    residual: float
    witness: JointDistribution | None = None
    certificate: Certificate | None = None
    witness_counts: np.ndarray | None = None
    integrality: str | None = None  # "integer" for slack-0 count problems (int64 witness counts), else None

    def __post_init__(self) -> None:
        if (self.witness is None) == (self.certificate is None):
            raise DomainError("exactly one of witness/certificate must be present")
        if self.feasible and self.residual > WITNESS_TOL:
            raise DomainError(f"feasible result with residual {self.residual:.3e} > {WITNESS_TOL}")
        if self.witness_counts is not None:
            dtype = np.int64 if self.integrality == "integer" else np.float64
            counts = frozen_array(self.witness_counts, dtype, (16,), "witness counts")
            object.__setattr__(self, "witness_counts", counts)

    @property
    def feasible(self) -> bool:
        return self.witness is not None

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "infeasible"


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


def _signaling(rows: list[list]) -> float:
    """Largest gap between one party's P(+) (or count of +) in its two contexts; 0 without signaling."""
    c11, c12, c21, c22 = rows
    return max(
        abs(c11[0] + c11[1] - c12[0] - c12[1]),  # a1
        abs(c21[0] + c21[1] - c22[0] - c22[1]),  # a2
        abs(c11[0] + c11[2] - c21[0] - c21[2]),  # b1
        abs(c12[0] + c12[2] - c22[0] - c22[2]),  # b2
    )


def _chord_witness(rows: list[list], total: float) -> list:
    """The 16 assignment cells the chord construction builds (module docstring) from four context rows.

    ``rows`` are the context tables (counts or probabilities) of a
    no-signaling input with ``total`` per context.  Every cell is >= 0 iff
    the input is feasible, and then the cells reproduce every table; the
    arithmetic is the input's own, so int rows give exact int cells.
    """
    c11, c12, c21, c22 = rows
    a1 = c11[0] + c11[1]
    a2 = c21[0] + c21[1]
    overlap = a1 + a2 - total  # the chord's (-,-) cell is x - overlap
    triangles = ((c11, c21), (c12, c22))  # the (a1, b) and (a2, b) tables, b = b1 then b2
    x = max(0, overlap, *(bound for p, q in triangles for bound in (q[0] - p[2], overlap - q[0] + p[2])))
    chord = (x, a1 - x, a2 - x, x - overlap)  # (a1, a2) = (+,+), (+,-), (-,+), (-,-)
    plus = []  # per triangle: #(a1, a2, b = +) in each chord cell
    for p, q in triangles:
        t = max(0, p[0] - a1 + x, q[0] - a2 + x, q[0] - p[2])
        plus.append((t, p[0] - t, q[0] - t, p[2] - q[0] + t))
    cells = []
    for m, b1, b2 in zip(chord, *plus):
        both = min(b1, b2)  # north-west corner: (b1, b2) = (+,+), (+,-), (-,+), (-,-)
        cells += [both, b1 - both, b2 - both, m - b1 - b2 + both]
    return cells


def fine_feasible_lp(behavior: Behavior) -> FeasibilityResult:
    """Decide whether one joint distribution reproduces all four context distributions.

    Feasible iff no-signaling within ``LP_TOL`` and every CHSH form <= 2 + ``LP_TOL``
    (Fine); the phase-1 simplex gives an infeasible verdict its residual.
    """
    probs = behavior.probs
    rows = probs.tolist()
    chsh = chsh_certificate_detail(behavior)
    signaling = _signaling(rows) > LP_TOL
    if not signaling and chsh[0] <= 2.0 + LP_TOL:
        weights = np.clip(_chord_witness(rows, 1.0), 0.0, None)  # cells within round-off below 0 go to 0
        witness = JointDistribution(weights / weights.sum())
        residual = _max_marginal_violation(witness.weights, probs)
        return FeasibilityResult(residual=residual, witness=witness)
    infeasibility, _ = phase1_solve(*_marginal_system(probs, 1.0), tol=LP_TOL)
    return _infeasible(chsh, signaling, infeasibility, infeasibility)


def _infeasible(
    chsh: tuple[float, tuple[int, int, int, int]], signaling: bool, infeasibility: float, violation_mass: float
) -> FeasibilityResult:
    """Infeasible verdict certified by the maximal CHSH form (``chsh_certificate_detail``).

    A signaling input whose forms are all <= 2 + ``LP_TOL`` is certified by
    its inconsistent marginals instead.
    """
    value, signs = chsh
    if value > 2.0 + LP_TOL or not signaling:
        certificate = Certificate(value, signs)
    else:
        certificate = Certificate(violation_mass)
    return FeasibilityResult(residual=infeasibility, certificate=certificate)


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
        largest = max(sum(row) for row in counts.tolist())  # Python ints: no wraparound
        if largest >= 2**63:
            raise DomainError(f"a context's counts must total at most 2**63 - 1, got {largest}")
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
    projections reproduce every table; a feasible answer carries the chord
    construction's integer witness (module docstring), labeled "integer".
    With slack > 0 each context table may deviate by up to ``slack`` in L1,
    and the witness is the LP's real-valued one.
    """
    counts = problem.counts
    totals = problem.totals.tolist()
    if not counts.any():
        raise DomainError("reshuffling undefined for all-empty count tables")
    for context, total in zip(CANONICAL_CONTEXTS, totals):
        if total == 0:
            raise DomainError(f"reshuffling undefined: empty count table in context {context}")
    if problem.slack == 0.0 and len(set(totals)) != 1:
        raise DomainError(
            f"exact reshuffling needs equal context totals, got {totals}; "
            "set slack > 0 to allow deviations"
        )
    frequencies = counts / problem.totals[:, None]
    scale = float(sum(totals))
    if problem.slack == 0.0:
        rows = counts.tolist()
        signaling = _signaling(rows) > 0
        if not signaling:
            cells = _chord_witness(rows, totals[0])
            if min(cells) >= 0:
                return _integer_result(cells, counts, frequencies)
        # no-signaling counts without a witness break a CHSH form exactly (Fine), however close to 2 in floats
        infeasibility, _ = phase1_solve(*_marginal_system(counts / scale, totals[0] / scale), tol=LP_TOL)
        return _infeasible(chsh_certificate_detail(Behavior(frequencies)), signaling, infeasibility, infeasibility * scale)
    mass = float(np.rint(problem.totals.mean()))
    infeasibility, x = phase1_solve(*_slack_system(counts, problem.slack, mass, scale), tol=LP_TOL)
    if infeasibility > LP_TOL:  # slack tables may deviate anywhere, so only a violated form is a CHSH certificate
        return _infeasible(chsh_certificate_detail(Behavior(frequencies)), True, infeasibility, infeasibility * scale)
    witness_counts = x[:16] * scale
    witness = JointDistribution(np.clip(witness_counts, 0.0, None) / witness_counts.sum())
    return FeasibilityResult(residual=infeasibility, witness=witness, witness_counts=witness_counts)


def _integer_result(cells: list[int], counts: np.ndarray, frequencies: np.ndarray) -> FeasibilityResult:
    """Feasible result with nonnegative integer cells as its witness; NumericError if they miss the counts."""
    # cells >= 0 summing to a context total fit int64, and so does every projected sum
    if sum(cells) != sum(counts[0].tolist()) or not np.array_equal(PROJECTION_INT @ cells, counts.reshape(16)):
        raise NumericError("integer witness does not reproduce the count tables")
    integral = np.array(cells, np.int64)
    witness = JointDistribution(integral / integral.sum())
    return FeasibilityResult(
        residual=_max_marginal_violation(witness.weights, frequencies),
        witness=witness,
        witness_counts=integral,
        integrality="integer",
    )
