import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import feasibility
from bellsim._simplex import phase1_solve
from bellsim.behaviors import (
    Behavior,
    behavior_correlation,
    behavior_from_quantum,
    behavior_s,
    pr_box,
    random_no_signaling_behavior,
)
from bellsim.core import CANONICAL_CONTEXTS, CounterfactualTable, outcome_codes, project_bundle
from bellsim.errors import DomainError, NumericError
from bellsim.feasibility import (
    ASSIGNMENTS,
    CHSH_SIGN_PATTERNS,
    PROJECTION,
    FeasibilityResult,
    JointDistribution,
    ReshuffleProblem,
    chsh_certificate,
    chsh_certificate_detail,
    fine_feasible_lp,
    reshuffle_feasible,
    reshuffle_problem_from_table,
)
from bellsim.quantum import TSIRELSON_ANGLES, TSIRELSON_BOUND, singlet

PR_BOX_COUNTS = np.array([[50, 0, 0, 50]] * 3 + [[0, 50, 50, 0]])


def random_table(seed, n=100):
    rng = np.random.default_rng(seed)
    return CounterfactualTable(rng.choice([-1, 1], size=(n, 4)))


class TestChshCertificate:
    def test_examples(self):
        assert chsh_certificate(pr_box()) == pytest.approx(4.0)
        assert chsh_certificate(Behavior(np.full((4, 4), 0.25))) == 0.0
        bq = behavior_from_quantum(singlet(), TSIRELSON_ANGLES)
        assert chsh_certificate(bq) == pytest.approx(TSIRELSON_BOUND, abs=1e-9)

    def test_eight_patterns_with_odd_minus_count(self):
        assert len(CHSH_SIGN_PATTERNS) == 8
        for signs in CHSH_SIGN_PATTERNS:
            assert np.prod(signs) == -1

    def test_detail_returns_achieving_pattern(self):
        value, signs = chsh_certificate_detail(pr_box())
        assert value == pytest.approx(4.0)
        assert signs == (1, 1, 1, -1)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_value_is_left_to_right_sum_and_canonical_form_is_behavior_s(self, seed):
        behavior = random_no_signaling_behavior(np.random.default_rng(seed))
        value, signs = chsh_certificate_detail(behavior)
        total = 0.0
        for sign, context in zip(signs, CANONICAL_CONTEXTS):
            total += sign * behavior_correlation(behavior, context)
        assert float.hex(value) == float.hex(total)
        if signs == (1, 1, 1, -1):
            assert value == behavior_s(behavior)


class TestFineLp:
    def test_classical_boundary_behavior_feasible(self):
        behavior = Behavior(np.tile([0.5, 0.0, 0.0, 0.5], (4, 1)))
        result = fine_feasible_lp(behavior)
        assert result.feasible
        # witness puts half on all-plus and half on all-minus
        weights = result.witness.weights
        assert weights[ASSIGNMENTS.index((1, 1, 1, 1))] == pytest.approx(0.5, abs=1e-9)
        assert weights[ASSIGNMENTS.index((-1, -1, -1, -1))] == pytest.approx(0.5, abs=1e-9)
        assert result.residual <= 1e-8

    def test_pr_box_infeasible_with_chsh_certificate(self):
        result = fine_feasible_lp(pr_box())
        assert not result.feasible
        assert result.certificate.kind == "chsh"
        assert result.certificate.value == pytest.approx(4.0)
        assert "CHSH form" in result.certificate.describe()

    def test_singlet_tsirelson_infeasible(self):
        result = fine_feasible_lp(behavior_from_quantum(singlet(), TSIRELSON_ANGLES))
        assert not result.feasible
        assert result.certificate.value == pytest.approx(TSIRELSON_BOUND, abs=1e-9)

    def test_signaling_behavior_gets_marginal_certificate(self):
        # S well under 2 but Alice's marginal depends on Bob's setting
        rows = np.array(
            [
                [0.7, 0.1, 0.1, 0.1],
                [0.1, 0.1, 0.4, 0.4],
                [0.25, 0.25, 0.25, 0.25],
                [0.25, 0.25, 0.25, 0.25],
            ]
        )
        behavior = Behavior(rows)
        assert chsh_certificate(behavior) <= 2.0
        result = fine_feasible_lp(behavior)
        assert not result.feasible
        assert result.certificate.kind == "marginal-inconsistency"
        assert result.certificate.value > 0

    def test_witness_marginals_match(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            behavior = random_no_signaling_behavior(rng)
            result = fine_feasible_lp(behavior)
            if result.feasible:
                for context in CANONICAL_CONTEXTS:
                    marginal = result.witness.context_marginal(context)
                    assert np.abs(marginal - behavior.probs[context.index]).max() <= 1e-8

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_fine_theorem_equivalence(self, seed):
        behavior = random_no_signaling_behavior(np.random.default_rng(seed))
        result = fine_feasible_lp(behavior)
        assert result.feasible == (chsh_certificate(behavior) <= 2.0 + 1e-9)


class TestJointDistribution:
    def test_validation(self):
        with pytest.raises(DomainError):
            JointDistribution(np.full(16, 0.1))
        with pytest.raises(DomainError):
            JointDistribution(np.full(15, 1 / 15))
        weights = np.zeros(16)
        weights[0] = 1.0
        joint = JointDistribution(weights)
        assert joint.context_marginal(CANONICAL_CONTEXTS[0]).tolist() == [1, 0, 0, 0]

    def test_joint_from_table_reproduces_projections(self):
        table = random_table(17)
        joint = JointDistribution(np.bincount(outcome_codes(table.outcomes), minlength=16) / table.n_rows)
        projected = project_bundle(table)
        for context, dataset in zip(CANONICAL_CONTEXTS, projected.datasets):
            idx = (1 - dataset.pairs[:, 0]) + (1 - dataset.pairs[:, 1]) // 2
            freq = np.bincount(idx, minlength=4) / dataset.n_pairs
            assert np.abs(joint.context_marginal(context) - freq).max() <= 1e-12

    def test_result_invariants(self):
        with pytest.raises(DomainError, match="exactly one"):
            FeasibilityResult("feasible", residual=0.0)


class TestReshuffle:
    def test_projected_table_feasible_at_zero_slack(self):
        table = random_table(23)
        problem = reshuffle_problem_from_table(table)
        result = reshuffle_feasible(problem)
        assert result.feasible
        assert result.integrality == "integer"
        # the witness reproduces every count table exactly
        from bellsim.feasibility import PROJECTION

        assert np.array_equal(
            (PROJECTION @ result.witness_counts).round().astype(int),
            problem.counts,
        )

    def test_pr_box_counts_infeasible(self):
        result = reshuffle_feasible(ReshuffleProblem(PR_BOX_COUNTS, 0.0))
        assert not result.feasible
        assert result.certificate.kind == "chsh"
        assert result.certificate.value == pytest.approx(4.0)

    def test_slack_monotonicity(self):
        state = {}
        for slack in (0.0, 10.0, 25.0, 50.0, 75.0, 200.0):
            result = reshuffle_feasible(ReshuffleProblem(PR_BOX_COUNTS, slack))
            state[slack] = result.feasible
        # once feasible, larger slack stays feasible
        feasible_from = [s for s, ok in state.items() if ok]
        assert feasible_from, "expected feasibility at large slack"
        threshold = min(feasible_from)
        for slack, ok in state.items():
            assert ok == (slack >= threshold)

    def test_unequal_totals_rejected_at_zero_slack(self):
        counts = PR_BOX_COUNTS.copy()
        counts[0, 0] += 1
        with pytest.raises(DomainError, match="equal context totals"):
            reshuffle_feasible(ReshuffleProblem(counts, 0.0))
        # but allowed with slack
        result = reshuffle_feasible(ReshuffleProblem(counts, 500.0))
        assert result.feasible

    def test_sub_bound_problems_fail_only_by_marginals(self):
        # random count tables with S-hat <= 2: any infeasibility must be
        # marginal inconsistency, never a CHSH certificate
        rng = np.random.default_rng(31)
        checked_infeasible = 0
        for _ in range(200):
            counts = rng.multinomial(40, rng.dirichlet(np.ones(4)), size=4)
            behavior = Behavior(counts / 40)
            if chsh_certificate(behavior) > 2.0:
                continue
            result = reshuffle_feasible(ReshuffleProblem(counts, 0.0))
            if not result.feasible:
                checked_infeasible += 1
                assert result.certificate.kind == "marginal-inconsistency"
        assert checked_infeasible > 0

    def test_count_validation(self):
        with pytest.raises(DomainError, match="integers"):
            ReshuffleProblem(np.full((4, 4), 0.5))
        with pytest.raises(DomainError, match="nonnegative"):
            ReshuffleProblem(np.full((4, 4), -1))
        with pytest.raises(DomainError, match="slack"):
            ReshuffleProblem(PR_BOX_COUNTS, -1.0)
        with pytest.raises(DomainError, match="all-empty"):
            reshuffle_feasible(ReshuffleProblem(np.zeros((4, 4), dtype=int), 0.0))

    @pytest.mark.parametrize("slack", [0.0, 3.0, 20.0])
    def test_empty_context_rejected_at_any_slack(self, slack):
        # once a misleading "context rows must each sum to 1" error at slack 3, and "feasible" at slack 20
        counts = PR_BOX_COUNTS.copy()
        counts[0] = 0
        with pytest.raises(DomainError, match=r"empty count table in context \(1,1\)"):
            reshuffle_feasible(ReshuffleProblem(counts, slack))


class TestIntegerReshuffle:
    """Slack-0 count problems get an exact integer reshuffle, at every N that int64 holds."""

    def test_marginal_system_is_unimodular(self):
        a_eq, _ = feasibility._marginal_system(np.zeros((4, 4)), 0.0)
        rows = []
        for r in range(len(a_eq)):
            if np.linalg.matrix_rank(a_eq[rows + [r]]) > len(rows):
                rows.append(r)
        assert len(rows) == np.linalg.matrix_rank(a_eq) == 9
        bases = np.array(list(itertools.combinations(range(16), 9)))
        dets = np.abs(np.linalg.det(a_eq[rows][:, bases].transpose(1, 0, 2)))
        assert len(dets) == 11440
        assert np.abs(dets - np.rint(dets)).max() < 1e-9
        assert set(np.rint(dets).tolist()) == {0.0, 1.0}
        assert int(np.rint(dets).sum()) == 4096

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 7.0),
        st.sampled_from([0.05, 0.3, 1.0, 5.0]),
        st.integers(1, 16),
    )
    def test_feasible_count_tables_get_exact_integer_witness(self, seed, log10_n, alpha, support):
        rng = np.random.default_rng(seed)
        weights = np.zeros(16)
        weights[rng.choice(16, size=support, replace=False)] = rng.dirichlet(np.full(support, alpha))
        assignment_counts = rng.multinomial(int(10**log10_n), weights / weights.sum())
        counts = (PROJECTION @ assignment_counts).astype(np.int64)
        result = reshuffle_feasible(ReshuffleProblem(counts))
        assert result.feasible and result.integrality == "integer"
        witness = result.witness_counts
        assert witness.min() >= 0 and np.array_equal(witness, np.rint(witness))
        assert np.array_equal((PROJECTION @ witness).astype(np.int64), counts)

    def test_large_projected_table_gets_integer_witness(self):
        problem = reshuffle_problem_from_table(random_table(41, n=50_000))
        result = reshuffle_feasible(problem)
        assert result.integrality == "integer"
        assert np.array_equal((PROJECTION @ result.witness_counts).astype(np.int64), problem.counts)
        assert result.residual <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([10**16, 10**18]),
        st.sampled_from([0.05, 1.0]),
        st.integers(1, 16),
    )
    def test_past_float64_an_exact_witness(self, seed, n, alpha, support):
        rng = np.random.default_rng(seed)
        weights = np.zeros(16)
        weights[rng.choice(16, size=support, replace=False)] = rng.dirichlet(np.full(support, alpha))
        assignment_counts = rng.multinomial(n, weights / weights.sum())
        counts = PROJECTION.astype(np.int64) @ assignment_counts
        result = reshuffle_feasible(ReshuffleProblem(counts))
        assert result.feasible and result.integrality == "integer"
        witness = result.witness_counts
        assert witness.dtype == np.int64
        assert witness.min() >= 0 and np.array_equal(PROJECTION.astype(np.int64) @ witness, counts)

    def test_witness_off_the_counts_raises_instead_of_relabeling(self, monkeypatch):
        def all_on_first_assignment(rows, total):
            return [total] + [0] * 15

        monkeypatch.setattr(feasibility, "_chord_witness", all_on_first_assignment)
        problem = reshuffle_problem_from_table(CounterfactualTable(np.array(ASSIGNMENTS)))
        with pytest.raises(NumericError, match="does not reproduce"):
            reshuffle_feasible(problem)

    def test_totals_past_int64_are_rejected_not_wrapped(self):
        # 4 * 2**61 = 2**63 per context: an int64 sum wraps to -2**63, and the whole table's to 0
        with pytest.raises(DomainError, match=r"must total at most 2\*\*63 - 1, got 9223372036854775808"):
            ReshuffleProblem(np.full((4, 4), 2**61))
        largest = np.full((4, 4), (2**63 - 1) // 4)
        largest[:, 0] += (2**63 - 1) % 4
        result = reshuffle_feasible(ReshuffleProblem(largest))  # 2**63 - 1 per context; 4x that overall
        assert result.feasible and np.array_equal(PROJECTION.astype(np.int64) @ result.witness_counts, largest)


def exact_no_signaling(counts):
    """Each party's count of + is the same in both of its contexts."""
    c11, c12, c21, c22 = counts.tolist()
    return (c11[0] + c11[1] == c12[0] + c12[1] and c21[0] + c21[1] == c22[0] + c22[1]
            and c11[0] + c11[2] == c21[0] + c21[2] and c12[0] + c12[2] == c22[0] + c22[2])


def exact_fine_verdict(counts):
    """Fine's criterion in Python ints: no-signaling counts, and N * (every CHSH form) <= 2 N."""
    if not exact_no_signaling(counts):
        return False
    c11, c12, c21, c22 = counts.tolist()
    correlations = [c[0] - c[1] - c[2] + c[3] for c in (c11, c12, c21, c22)]
    forms = [sum(s * e for s, e in zip(signs, correlations)) for signs in CHSH_SIGN_PATTERNS]
    return max(forms) <= 2 * sum(c11)


def simplex_verdict(counts):
    """The phase-1 simplex on the slack-0 marginal system, scaled as ``reshuffle_feasible`` scales it."""
    scale = float(counts.sum())
    a_eq, b_eq = feasibility._marginal_system(counts / scale, counts[0].sum() / scale)
    return phase1_solve(a_eq, b_eq, tol=feasibility.LP_TOL)[0] <= feasibility.LP_TOL


# Count tables projected from random assignment counts, some then perturbed: k of one context's
# (+,+), (-,-) pairs turned into (+,-), (-,+) pairs or back, which keeps every marginal, or k
# pairs moved between two cells of one context, which signals.
PERTURBATIONS = st.sampled_from([None, "correlation", "cells"])


class TestChordConstruction:
    """The chord construction against exact Fine and the phase-1 simplex."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.integers(1, 2000), st.integers(1, 10**12), st.integers(1, 10**18)),
        st.integers(1, 16),
        PERTURBATIONS,
        st.integers(-3, 3),
    )
    def test_count_witnesses_are_exact_and_verdicts_are_fines(self, seed, n, support, perturbation, k):
        rng = np.random.default_rng(seed)
        weights = np.zeros(16)
        weights[rng.choice(16, size=support, replace=False)] = rng.dirichlet(np.ones(support))
        counts = (PROJECTION.astype(np.int64) @ rng.multinomial(n, weights)).reshape(4, 4)
        context = rng.integers(4)
        if perturbation == "correlation":
            counts[context] += k * np.array([1, -1, -1, 1])
        elif perturbation == "cells":
            counts[context, :2] += [k, -k]
        if counts.min() < 0:
            return
        result = reshuffle_feasible(ReshuffleProblem(counts))
        assert result.feasible == exact_fine_verdict(counts)
        if result.feasible:
            witness = result.witness_counts
            assert result.integrality == "integer" and witness.dtype == np.int64 and witness.min() >= 0
            assert np.array_equal(PROJECTION.astype(np.int64) @ witness, counts)
        elif exact_no_signaling(counts):
            assert result.certificate.kind == "chsh"
        # The simplex's infeasibility is tolerated up to LP_TOL of the table's 4N counts, so past
        # N ~ 10^8 it calls a table one count off feasible; below that it resolves every count.
        if n <= 10**7 or (perturbation is None and n <= 10**12):
            assert result.feasible == simplex_verdict(counts)

    @settings(max_examples=300, deadline=None)
    @example(seed=0, delta=5e-10, mode=0)
    @example(seed=0, delta=2e-9, mode=0)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.sampled_from([0.0, 5e-10, 1e-9, 1.5e-9, 2e-9, -1e-9]), st.floats(-1e-6, 1e-6)),
        st.integers(0, 7),
    )
    def test_near_the_bound_the_verdict_is_chsh_within_lp_tol(self, seed, delta, mode):
        # no-signaling behaviors p(a, b) = (1 + a m_i + b n_j + a b E_ij) / 4 whose sign pattern
        # number ``mode`` sums to 2 + delta
        rng = np.random.default_rng(seed)
        signs = np.array(CHSH_SIGN_PATTERNS[mode])
        correlations = signs * (2.0 + delta) / 4 + rng.uniform(-0.05, 0.05, 4) * np.array([1, 1, 1, -3]) / 3
        correlations *= (2.0 + delta) / float(signs @ correlations)
        room = 1.0 - np.abs(correlations).max()
        alice, bob = rng.uniform(-room / 2, room / 2, (2, 2))
        probs = np.array([
            [(1 + a * alice[c.alice - 1] + b * bob[c.bob - 1] + a * b * e) / 4
             for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
            for c, e in zip(CANONICAL_CONTEXTS, correlations)
        ])
        behavior = Behavior(probs)
        result = fine_feasible_lp(behavior)
        assert result.feasible == (chsh_certificate(behavior) <= 2.0 + feasibility.LP_TOL)
        if result.feasible:
            assert result.residual <= feasibility.WITNESS_TOL

    def test_counts_breaking_chsh_by_less_than_lp_tol_get_a_chsh_certificate(self):
        # N = 10**12 on four strategies with C = +2, then E22 lowered by 4 counts: N * S = 2N + 4, which the
        # simplex tolerates (its infeasibility, 2.5e-13, is under LP_TOL) and which once ended in NumericError
        strategies = [ASSIGNMENTS.index(a) for a in [(1, 1, 1, 1), (-1, -1, -1, -1), (1, -1, 1, 1), (-1, 1, -1, -1)]]
        assignment_counts = np.zeros(16, dtype=np.int64)
        assignment_counts[strategies] = 10**12 // 4
        counts = PROJECTION.astype(np.int64) @ assignment_counts
        counts[3] += [-1, 1, 1, -1]
        result = reshuffle_feasible(ReshuffleProblem(counts))
        assert not result.feasible
        assert result.certificate.kind == "chsh" and result.certificate.signs == (1, 1, 1, -1)
        assert result.certificate.value == pytest.approx(2.0 + 4e-12, rel=0, abs=1e-15)

    def test_feasible_problems_never_reach_the_simplex(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("phase1_solve called on a feasible problem")

        problem = reshuffle_problem_from_table(random_table(5, n=500))
        behavior = random_no_signaling_behavior(np.random.default_rng(5))
        assert chsh_certificate(behavior) <= 2.0
        monkeypatch.setattr(feasibility, "phase1_solve", refuse)
        assert reshuffle_feasible(problem).integrality == "integer"
        assert fine_feasible_lp(behavior).feasible


def reference_marginal_system(targets, mass):
    """The loop builder of the marginal system, kept as the reference for the matrix form."""
    rows = [PROJECTION[c, o] for c in range(4) for o in range(3)]
    rhs = [targets[c, o] for c in range(4) for o in range(3)]
    rows.append(np.ones(16))
    rhs.append(mass)
    return np.vstack(rows), np.array(rhs)


def reference_slack_system(counts, slack, mass, scale):
    """The loop builder of the slack system, kept as the reference for the block form."""
    proj = PROJECTION.reshape(16, 16)
    n_var = 16 + 16 + 36
    rows = []
    rhs = []
    for r in range(16):
        row = np.zeros(n_var)
        row[:16] = proj[r]
        row[16 + r] = -1.0
        row[32 + r] = 1.0
        rows.append(row)
        rhs.append(counts.reshape(16)[r] / scale)
    for r in range(16):
        row = np.zeros(n_var)
        row[:16] = -proj[r]
        row[16 + r] = -1.0
        row[48 + r] = 1.0
        rows.append(row)
        rhs.append(-counts.reshape(16)[r] / scale)
    for c in range(4):
        row = np.zeros(n_var)
        row[16 + 4 * c : 16 + 4 * (c + 1)] = 1.0
        row[64 + c] = 1.0
        rows.append(row)
        rhs.append(slack / scale)
    mass_row = np.zeros(n_var)
    mass_row[:16] = 1.0
    rows.append(mass_row)
    rhs.append(mass / scale)
    return np.vstack(rows), np.array(rhs)


# Count tables with zero cells and unequal context totals, not all empty.
COUNT_TABLES = st.lists(
    st.one_of(st.just(0), st.integers(0, 9), st.integers(0, 10**12)), min_size=16, max_size=16
).filter(any).map(lambda cells: np.array(cells, dtype=np.int64).reshape(4, 4))


class TestLpSystems:
    """The LP systems are the loop builders' matrices, bit for bit (the sign of zero included)."""

    @settings(max_examples=200, deadline=None)
    @given(
        COUNT_TABLES,
        st.one_of(st.just(0.0), st.floats(0.0, 1e9), st.integers(0, 10**6)),
        st.integers(0, 4 * 10**12).map(float),
    )
    def test_slack_system_bytes(self, counts, slack, mass):
        scale = float(counts.sum())
        got = feasibility._slack_system(counts, slack, mass, scale)
        want = reference_slack_system(counts, slack, mass, scale)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(COUNT_TABLES)
    def test_marginal_system_bytes(self, counts):
        scale = float(counts.sum())
        totals = counts.sum(axis=1)
        probs = counts / np.maximum(totals, 1)[:, None]
        for targets, mass in ((counts / scale, totals[0] / scale), (probs, 1.0)):
            got = feasibility._marginal_system(targets, mass)
            want = reference_marginal_system(targets, mass)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
