import numpy as np
import pytest

from cppc.matrix_core import ArrowheadPattern, PartialMatrix, SymMatrix
from cppc.qp_relax import QPInstance


@pytest.fixture
def pm_noncompletable():
    """4x4 arrowhead partial matrix with PSD blocks and no PSD completion."""
    return PartialMatrix(
        ArrowheadPattern(2, 1, 2),
        SymMatrix([[6.0, 3.0], [3.0, 6.0]]),
        [np.array([[0.0, 3.0]]), np.array([[3.0, 0.0]])],
        [SymMatrix([[2.0]]), SymMatrix([[2.0]])],
    )


@pytest.fixture
def pm_completable():
    """4x4 arrowhead partial matrix with rank-two blocks; entry 0.25 completes it."""
    return PartialMatrix(
        ArrowheadPattern(2, 1, 2),
        SymMatrix([[1.0, 0.45], [0.45, 0.3]]),
        [np.array([[0.55, 0.15]]), np.array([[0.275, 0.025]])],
        [SymMatrix([[0.4]]), SymMatrix([[0.6]])],
    )


@pytest.fixture
def qp_two_constraints():
    """Concave QP over a bounded polytope with two symmetric optima."""
    return QPInstance.build(
        -np.eye(2), np.zeros(2), [[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0]
    )


def baseline_qp(n, m, seed):
    """The Baseline family: A = -G G^T / n, a = 0.1 N(0, 1), F ~ U(0.1, 1),
    d = 1, drawn in that order from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    A = -G @ G.T / n
    a = 0.1 * rng.standard_normal(n)
    F = rng.uniform(0.1, 1.0, (m, n))
    return QPInstance.build(A, a, F, np.ones(m))


def partial_matrix_from_factor(z, n):
    """Width-one arrowhead partial matrix read off from ``z z^T`` with shared
    dimension ``n`` (z = (1, x, y_1..y_S))."""
    z = np.asarray(z, dtype=float)
    S = z.size - n - 1
    M = np.outer(z, z)
    n1 = n + 1
    X = SymMatrix(M[:n1, :n1])
    Z = [M[n1 + k : n1 + k + 1, :n1] for k in range(S)]
    Y = [SymMatrix(M[n1 + k : n1 + k + 1, n1 + k : n1 + k + 1]) for k in range(S)]
    return PartialMatrix(ArrowheadPattern(n1, 1, S), X, Z, Y)


def partial_matrix_from_full(full, n1, n2, S):
    """Declare entries of a full matrix unspecified per the arrowhead pattern."""
    full = np.asarray(full, dtype=float)
    pat = ArrowheadPattern(n1, n2, S)
    X = SymMatrix(full[:n1, :n1])
    Z = [full[pat.arm_slice(i), :n1] for i in range(1, S + 1)]
    Y = [
        SymMatrix(full[pat.arm_slice(i), pat.arm_slice(i)]) for i in range(1, S + 1)
    ]
    return PartialMatrix(pat, X, Z, Y)
