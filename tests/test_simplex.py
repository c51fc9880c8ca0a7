import numpy as np
import pytest
from scipy.optimize import linprog

from bellsim import _simplex
from bellsim._simplex import phase1_solve
from bellsim.errors import NumericError


def test_feasible_known_system():
    # x1 + x2 = 1, x1 - x2 = 0  ->  x = (1/2, 1/2)
    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, 0.0])
    infeasibility, x = phase1_solve(a, b)
    assert infeasibility <= 1e-9
    assert np.allclose(a @ x, b, atol=1e-9)
    assert (x >= -1e-12).all()


def test_infeasible_known_system():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    infeasibility, _ = phase1_solve(a, b)
    assert infeasibility == pytest.approx(1.0, abs=1e-9)


def test_negative_rhs_handled():
    a = np.array([[-1.0, 0.0]])
    b = np.array([-3.0])
    infeasibility, x = phase1_solve(a, b)
    assert infeasibility <= 1e-9
    assert x[0] == pytest.approx(3.0)


def test_degenerate_zero_rows():
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    b = np.array([1.0, 0.0])
    infeasibility, x = phase1_solve(a, b)
    assert infeasibility <= 1e-9
    assert x.sum() == pytest.approx(1.0)


def test_shape_mismatch_rejected():
    with pytest.raises(NumericError):
        phase1_solve(np.ones((2, 3)), np.ones(3))


def test_gives_up_after_max_iter_pivots(monkeypatch):
    # x1 + x2 = 1, x1 - x2 = 0 takes two pivots, then one pass that finds no entering column
    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, 0.0])
    assert _simplex.MAX_ITER == 20000
    monkeypatch.setattr(_simplex, "MAX_ITER", 2)
    with pytest.raises(NumericError, match="exceeded 2 iterations"):
        phase1_solve(a, b)
    monkeypatch.setattr(_simplex, "MAX_ITER", 3)
    infeasibility, x = phase1_solve(a, b)
    assert infeasibility <= 1e-9
    assert np.allclose(x, [0.5, 0.5])


def test_agrees_with_scipy_on_random_systems():
    rng = np.random.default_rng(12)
    agreements = 0
    for _ in range(200):
        m, n = rng.integers(1, 8), rng.integers(1, 10)
        a = rng.normal(size=(m, n)).round(2)
        if rng.random() < 0.5:
            # force feasibility by constructing b from a nonnegative point
            x0 = rng.uniform(0, 1, size=n)
            b = a @ x0
        else:
            b = rng.normal(size=m)
        infeasibility, x = phase1_solve(a, b)
        ours_feasible = infeasibility <= 1e-9
        ref = linprog(np.zeros(n), A_eq=a, b_eq=b, bounds=[(0, None)] * n, method="highs")
        assert ours_feasible == ref.success
        if ours_feasible:
            assert np.abs(a @ x - b).max() <= 1e-8
            assert (x >= -1e-12).all()
        agreements += 1
    assert agreements == 200
