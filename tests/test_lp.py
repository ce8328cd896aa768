import numpy as np
import pytest

from cppc import lp
from cppc.oracles import lp_minimize_standard


def assert_optimal(res, c, A, b, value):
    assert res.status == lp.OPTIMAL
    assert res.v.min() >= 0.0
    assert np.allclose(A @ res.v, b, atol=1e-9)
    assert np.all(c - A.T @ res.y >= -1e-9)
    assert c @ res.v == pytest.approx(value, abs=1e-9)
    assert b @ res.y == pytest.approx(value, abs=1e-9)


def test_beale_cycling_example_terminates():
    # Beale (1955): the largest-coefficient rule cycles on this degenerate LP
    # from the slack basis; Bland's rule must reach the optimum -5/4.
    c = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
    A = np.array([
        [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
        [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    res = lp.solve(c, A, b)
    assert_optimal(res, c, A, b, -1.25)
    assert np.allclose(res.v, [0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0])


@pytest.mark.parametrize("A, b", [
    # second row is twice the first: one artificial stays basic at zero
    ([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], [1.0, 2.0]),
    # an all-zero row with zero right-hand side
    ([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], [1.0, 0.0]),
    # rank one with a sign-flipped copy
    ([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0], [3.0, 3.0, 3.0]], [1.0, -1.0, 3.0]),
])
def test_redundant_rows(A, b):
    A, b = np.array(A), np.array(b)
    c = np.array([1.0, 2.0, 3.0])
    res = lp.solve(c, A, b)
    assert_optimal(res, c, A, b, 1.0)
    assert np.allclose(res.v, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("A, b", [
    ([[1.0, 1.0]], [-1.0]),
    ([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0]),
    ([[1.0, -1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]], [2.0, 1.0, 0.5]),
])
def test_infeasible_returns_farkas_vector(A, b):
    A, b = np.array(A), np.array(b)
    res = lp.solve(np.ones(A.shape[1]), A, b)
    assert res.status == lp.INFEASIBLE
    assert res.v is None
    assert np.all(A.T @ res.y <= 1e-12)
    assert b @ res.y > 1e-6


def test_unbounded_reports_ray():
    # v2 = 1 + v3 grows without bound; row 2 has no unit column, so phase 1 runs
    c = np.array([0.0, -1.0, 0.0])
    A = np.array([[1.0, -1.0, 1.0], [0.0, 1.0, -1.0]])
    b = np.array([1.0, 1.0])
    res = lp.solve(c, A, b)
    assert res.status == lp.UNBOUNDED
    assert res.v.min() >= 0.0 and np.allclose(A @ res.v, b)
    assert res.ray.min() >= 0.0 and np.allclose(A @ res.ray, 0.0)
    assert c @ res.ray < 0.0


def test_no_rows():
    res = lp.solve([1.0, 2.0], np.zeros((0, 2)), [])
    assert res.status == lp.OPTIMAL and np.all(res.v == 0.0)
    assert lp.solve([-1.0], np.zeros((0, 1)), []).status == lp.UNBOUNDED


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        lp.solve([1.0, 2.0], np.ones((2, 3)), [1.0, 1.0])


@pytest.mark.parametrize("c, A, b", [
    ([1.0, 2.0, 3.0], [[1.0, 1.0, 1.0]], [1.0]),          # optimal
    ([1.0, 1.0], [[1.0, 1.0]], [-1.0]),                    # infeasible
    ([-1.0, 0.0], [[1.0, -1.0]], [1.0]),                   # unbounded
])
def test_corrupted_result_raises(monkeypatch, c, A, b):
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda M, r: -solve(M, r))
    with pytest.raises(np.linalg.LinAlgError, match="certificate failed"):
        lp.solve(c, np.array(A), b)


def test_matches_basic_solution_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(60):
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 7))
        A = rng.uniform(-1.0, 1.0, (m, n))
        A[0] = rng.uniform(0.1, 1.0, n)  # keeps the feasible set bounded
        b = A @ rng.uniform(0.0, 1.0, n) if rng.random() < 0.8 else rng.uniform(-1, 1, m)
        c = rng.uniform(-1.0, 1.0, n)
        ref, _ = lp_minimize_standard(c, A, b)
        res = lp.solve(c, A, b)
        if ref is None:
            assert res.status == lp.INFEASIBLE
        else:
            assert_optimal(res, c, A, b, ref)


def test_pivot_budget_exhaustion_raises(monkeypatch):
    # Beale's LP needs several pivots; a budget of none per dimension stops
    # the simplex before the first.
    c = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
    A = np.array([
        [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
        [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
    ])
    monkeypatch.setattr(lp, "_PIVOTS_PER_DIM", 0)
    with pytest.raises(np.linalg.LinAlgError, match="simplex made 0 pivots without finishing"):
        lp.solve(c, A, np.array([0.0, 0.0, 1.0]))


def test_zero_pivot_budget_solves_an_lp_optimal_at_its_start(monkeypatch):
    # The unit column of x_0 starts the basis and every reduced cost is zero
    # there: no pivot is needed, so a budget of none is enough.
    monkeypatch.setattr(lp, "_PIVOTS_PER_DIM", 0)
    res = lp.solve([1.0, 1.0], [[1.0, 1.0]], [1.0])
    assert res.status == lp.OPTIMAL
    assert res.v @ [1.0, 1.0] == pytest.approx(1.0)
