import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.core import CANONICAL_CONTEXTS, CHSH_SIGNS, s_statistic
from bellsim.errors import ConfigError, DomainError
from bellsim.quantum import (
    TSIRELSON_ANGLES,
    TSIRELSON_BOUND,
    AngleQuadruple,
    DensityMatrix,
    born_probabilities,
    correlation_block,
    expectation,
    maximally_mixed,
    observable,
    optimize_angles,
    random_density_matrix,
    s_quantum,
    sample_bundle_quantum,
    singlet,
)

ANGLE = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)


def grid_max_abs_s(rho, grid_points=40):
    """Independent oracle: dense grid sweep over all four angles (via the pair grid)."""
    grid = np.linspace(0.0, 2 * math.pi, grid_points, endpoint=False)
    pair = np.array([[expectation(rho, a, b) for b in grid] for a in grid])
    t1 = pair[:, :, None] + pair[:, None, :]
    t2 = pair[:, :, None] - pair[:, None, :]
    total = t1.max(axis=0) + t2.max(axis=0)
    total_min = t1.min(axis=0) + t2.min(axis=0)
    return max(float(total.max()), float(-total_min.min()))


def product_state(theta_a=0.0, theta_b=0.0):
    one = np.array([math.cos(theta_a / 2), math.sin(theta_a / 2)])
    two = np.array([math.cos(theta_b / 2), math.sin(theta_b / 2)])
    psi = np.kron(one, two).astype(np.complex128)
    return DensityMatrix(np.outer(psi, psi.conj()))


class TestStates:
    def test_singlet_trace_and_purity(self):
        rho = singlet()
        assert complex(np.trace(rho.matrix)).real == pytest.approx(1.0, abs=1e-12)
        assert rho.purity == pytest.approx(1.0, abs=1e-12)

    def test_invariant_rejections(self):
        bad = np.eye(4, dtype=np.complex128) / 4
        bad[0, 1] = 0.5  # not Hermitian
        with pytest.raises(DomainError, match="Hermitian"):
            DensityMatrix(bad)
        with pytest.raises(DomainError, match="trace"):
            DensityMatrix(np.eye(4, dtype=np.complex128))
        negative = np.diag([0.75, 0.75, -0.25, -0.25]).astype(np.complex128)
        with pytest.raises(DomainError, match="positive semidefinite"):
            DensityMatrix(negative)
        with pytest.raises(DomainError, match="4x4"):
            DensityMatrix(np.eye(2, dtype=np.complex128) / 2)

    def test_random_states_are_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            rho = random_density_matrix(rng)
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10


class TestExpectation:
    def test_singlet_equal_angles(self):
        assert expectation(singlet(), 0.4, 0.4) == pytest.approx(-1.0, abs=1e-12)

    def test_singlet_closed_form_on_grid(self):
        # closed form -cos(a - b), itself re-derivable by direct matrix arithmetic
        rho = singlet()
        grid = np.linspace(0, 2 * math.pi, 10, endpoint=False)
        for a in grid:
            for b in grid:
                assert expectation(rho, a, b) == pytest.approx(-math.cos(a - b), abs=1e-12)

    def test_maximally_mixed_vanishes(self):
        assert expectation(maximally_mixed(), 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_angle_is_domain_error(self, angle):
        with pytest.raises(DomainError, match="finite"):
            observable(angle)
        for alice, bob in ((angle, 0.0), (0.0, angle)):
            with pytest.raises(DomainError, match="finite"):
                expectation(singlet(), alice, bob)
            with pytest.raises(DomainError, match="finite"):
                born_probabilities(singlet(), alice, bob)

    @pytest.mark.parametrize("angle", ["0.3", None, 1 + 2j], ids=["str", "none", "complex"])
    def test_non_real_angle_is_domain_error(self, angle):
        with pytest.raises(DomainError, match="real number"):
            observable(angle)
        for alice, bob in ((angle, 0.0), (0.0, angle)):
            with pytest.raises(DomainError, match="real number"):
                expectation(singlet(), alice, bob)
            with pytest.raises(DomainError, match="real number"):
                born_probabilities(singlet(), alice, bob)

    def test_drifted_state_traces_are_real(self):
        # anti-Hermitian drift of 0.9e-12 passes the state's tolerance; unstored, it would put 1.8e-12i
        # into Tr(rho sigma_x x sigma_x), over the residue guard's 1e-12
        matrix = singlet().matrix.copy()
        for cell in [(1, 2), (2, 1), (0, 3), (3, 0)]:
            matrix[cell] += 0.45e-12j
        rho = DensityMatrix(matrix)
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        assert expectation(rho, math.pi / 2, math.pi / 2) == pytest.approx(
            expectation(singlet(), math.pi / 2, math.pi / 2), abs=1e-12
        )
        assert np.allclose(correlation_block(rho), correlation_block(singlet()), rtol=0, atol=1e-12)

    def test_observable_eigenvalues(self):
        for theta in (0.0, 0.7, 2.9):
            eig = np.linalg.eigvalsh(observable(theta))
            assert eig == pytest.approx([-1.0, 1.0], abs=1e-12)


class TestBornProbabilities:
    def test_singlet_equal_angles(self):
        probs = born_probabilities(singlet(), 1.1, 1.1)
        assert probs == pytest.approx([0.0, 0.5, 0.5, 0.0], abs=1e-12)

    def test_singlet_opposite_angles(self):
        probs = born_probabilities(singlet(), 1.1, 1.1 + math.pi)
        assert probs == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-12)

    def test_maximally_mixed_uniform(self):
        probs = born_probabilities(maximally_mixed(), 0.3, 2.2)
        assert probs == pytest.approx([0.25] * 4, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), ANGLE, ANGLE)
    def test_consistency_with_expectation(self, seed, a, b):
        rho = random_density_matrix(np.random.default_rng(seed))
        probs = born_probabilities(rho, a, b)
        implied = probs[0] - probs[1] - probs[2] + probs[3]
        assert implied == pytest.approx(expectation(rho, a, b), abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestSQuantum:
    def test_tsirelson_angles_reach_bound(self):
        assert s_quantum(singlet(), TSIRELSON_ANGLES) == pytest.approx(
            -TSIRELSON_BOUND, abs=1e-12
        )

    def test_maximally_mixed_zero(self):
        assert s_quantum(maximally_mixed(), TSIRELSON_ANGLES) == pytest.approx(0.0, abs=1e-12)

    def test_matches_chsh_operator_trace(self):
        # by linearity Tr(rho C), with C the signed sum of the four A (x) B, is S
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_density_matrix(rng)
            angles = AngleQuadruple(*rng.uniform(0, 2 * math.pi, 4))
            op = sum(
                sign
                * np.kron(observable(angles.alice(ctx.alice)), observable(angles.bob(ctx.bob)))
                for sign, ctx in zip(CHSH_SIGNS, CANONICAL_CONTEXTS)
            )
            trace = float(np.real(np.trace(rho.matrix @ op)))
            assert s_quantum(rho, angles) == pytest.approx(trace, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), ANGLE, ANGLE, ANGLE, ANGLE)
    def test_tsirelson_ceiling(self, seed, a1, a2, b1, b2):
        rho = random_density_matrix(np.random.default_rng(seed))
        value = s_quantum(rho, AngleQuadruple(a1, a2, b1, b2))
        assert abs(value) <= TSIRELSON_BOUND + 1e-9


class TestOptimizeAngles:
    def test_singlet_reaches_tsirelson(self):
        angles, value = optimize_angles(singlet())
        assert value == pytest.approx(TSIRELSON_BOUND, abs=1e-9)
        assert abs(s_quantum(singlet(), angles)) == pytest.approx(value, abs=1e-12)

    def test_maximally_mixed_zero(self):
        # zero correlation block: a1 and a2 both come from atan2(0, 0)
        rho = maximally_mixed()
        angles, value = optimize_angles(rho)
        assert abs(value) <= 1e-9
        assert all(math.isfinite(a) for a in angles.as_tuple())
        assert abs(s_quantum(rho, angles)) == pytest.approx(value, abs=1e-12)

    def test_product_state_classical_max(self):
        # rank-1 correlation block
        rho = product_state()
        angles, value = optimize_angles(rho)
        assert value == pytest.approx(2.0, abs=1e-6)
        assert all(math.isfinite(a) for a in angles.as_tuple())
        assert abs(s_quantum(rho, angles)) == pytest.approx(value, abs=1e-12)

    def test_matches_grid_oracle_and_singular_value_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            rho = random_density_matrix(rng)
            angles, value = optimize_angles(rho)
            # within-plane analogue of the singular-value criterion
            s = np.linalg.svd(correlation_block(rho), compute_uv=False)
            assert value == pytest.approx(2.0 * math.hypot(s[0], s[1]), abs=1e-12)
            assert abs(s_quantum(rho, angles)) == pytest.approx(value, abs=1e-12)
            assert value >= grid_max_abs_s(rho) - 1e-9

    def test_grid_points_validated(self):
        with pytest.raises(ConfigError):
            optimize_angles(singlet(), grid_points=4)


class TestSampling:
    def test_determinism(self):
        rho = singlet()
        b1 = sample_bundle_quantum(rho, TSIRELSON_ANGLES, 200, seed=5)
        b2 = sample_bundle_quantum(rho, TSIRELSON_ANGLES, 200, seed=5)
        for d1, d2 in zip(b1.datasets, b2.datasets):
            assert np.array_equal(d1.pairs, d2.pairs)

    def test_singlet_estimate_near_exact(self):
        n = 100_000
        bundle = sample_bundle_quantum(singlet(), TSIRELSON_ANGLES, n, seed=2)
        se = math.sqrt(sum((1 - 0.5) / n for _ in range(4)))
        assert abs(s_statistic(bundle) + TSIRELSON_BOUND) <= 4 * se

    def test_mixed_estimate_near_zero(self):
        n = 50_000
        bundle = sample_bundle_quantum(maximally_mixed(), TSIRELSON_ANGLES, n, seed=2)
        se = math.sqrt(4 / n)
        assert abs(s_statistic(bundle)) <= 4 * se

    def test_chi_square_convergence(self):
        # empirical context frequencies match Born probabilities:
        # chi-square(3 dof) below its 99.9% quantile in >= 99/100 seeded runs
        rho = singlet()
        n = 20_000
        quantile = 16.266  # chi-square 3 dof, 0.999
        hits = 0
        for seed in range(100):
            bundle = sample_bundle_quantum(rho, TSIRELSON_ANGLES, n, seed=seed)
            ok = True
            for dataset in bundle.datasets:
                probs = born_probabilities(
                    rho,
                    TSIRELSON_ANGLES.alice(dataset.context.alice),
                    TSIRELSON_ANGLES.bob(dataset.context.bob),
                )
                idx = (1 - dataset.pairs[:, 0]) + (1 - dataset.pairs[:, 1]) // 2
                observed = np.bincount(idx, minlength=4)
                expected = probs * n
                mask = expected > 0
                chi2 = float(((observed[mask] - expected[mask]) ** 2 / expected[mask]).sum())
                zero_ok = (observed[~mask] == 0).all()
                ok = ok and zero_ok and chi2 < quantile
            hits += ok
        assert hits >= 99

    def test_n_validated(self):
        with pytest.raises(ConfigError):
            sample_bundle_quantum(singlet(), TSIRELSON_ANGLES, 0, seed=1)


def test_angle_quadruple_validation():
    with pytest.raises(DomainError):
        AngleQuadruple(0.0, 0.0, float("nan"), 0.0)
    q = AngleQuadruple(0.1, 0.2, 0.3, 0.4)
    assert q.alice(1) == 0.1 and q.alice(2) == 0.2
    assert q.bob(1) == 0.3 and q.bob(2) == 0.4
    assert q.as_tuple() == (0.1, 0.2, 0.3, 0.4)


def test_angle_quadruple_holds_floats_of_any_numeric_input():
    # a 0-d array is no real number to observable, so the quadruple keeps the float it validated
    q = AngleQuadruple(np.array(0.0), np.float32(1.5), np.int64(1), True)
    assert all(type(a) is float for a in q.as_tuple())
    assert s_quantum(singlet(), q) == s_quantum(singlet(), AngleQuadruple(0.0, 1.5, 1.0, 1.0))


def test_born_sampling_matches_the_per_context_reference():
    """Born bundles are drawn as the per-context loop below draws them: same streams, same bytes.

    Covers ``sample_bundle_quantum`` and the quantum violation
    generator, which samples a Behavior built once instead of recomputing Born
    probabilities per trial.
    """
    from bellsim.core import plus_count
    from bellsim.quantum import OUTCOME_PAIRS
    from bellsim.rng import categorical, spawn_rng
    from bellsim.stats import generator_from_quantum

    rng = np.random.default_rng(11)
    for case in range(48):
        rho = singlet() if case % 6 == 0 else random_density_matrix(rng)
        angles = AngleQuadruple(*rng.uniform(-math.pi, math.pi, size=4))
        n, seed = int(rng.integers(1, 300)), int(rng.integers(2**62))
        bundle = sample_bundle_quantum(rho, angles, n, seed)
        for dataset in bundle.datasets:
            context = dataset.context
            probs = born_probabilities(rho, angles.alice(context.alice), angles.bob(context.bob))
            probs = np.clip(probs, 0.0, None)
            probs /= probs.sum()
            draws = categorical(spawn_rng(seed, "quantum-context", context.index), probs, n)
            assert np.array_equal(dataset.pairs, OUTCOME_PAIRS[draws])
        from_generator = generator_from_quantum(rho, angles).plus_counts(n, [seed])
        assert from_generator == [tuple(plus_count(d) for d in bundle.datasets)]
