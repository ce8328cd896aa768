import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from cppc.cones import free, orthant, product
from cppc.matrix_core import ArrowheadPattern, PartialMatrix, SymMatrix
from cppc.qp_relax import QPInstance

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, *names):
    """Modules of ``perfbench/``, loaded in the order given under their own
    names, by which they import one another; the test's end unloads them."""
    modules = []
    for name in names:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # Dataclasses and imports look the module up by name while it loads.
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        modules.append(module)
    return modules


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
def pm_three_arms(pm_noncompletable):
    """The noncompletable fixture with Y = 4, 4 (interval [-3, 1], centre -1
    for arms 1, 2) plus arm 3, the corner's first row with Y_3 = 9: no
    single entry decides it, so it reaches the solver."""
    return PartialMatrix(
        ArrowheadPattern(2, 1, 3), pm_noncompletable.X,
        list(pm_noncompletable.Z) + [np.array([[6.0, 3.0]])],
        [SymMatrix([[4.0]])] * 2 + [SymMatrix([[9.0]])],
    )


@pytest.fixture
def free_coordinate_problem():
    """``(pm, K)``: the Gram matrix of the rows (1, .5, .2), (.3, .2, .9),
    (-.5, .4, -.3), (.2, .1, .3), (.1, .4, .2) over unit corner, read as a
    width-one arrowhead with n1 = 3 and two arms, and ``K = R_+ x R``.
    It is PSD and nonnegative off the free coordinate's row and column,
    where it has negative entries."""
    R = np.array([[1.0, 0.5, 0.2], [0.3, 0.2, 0.9], [-0.5, 0.4, -0.3],
                  [0.2, 0.1, 0.3], [0.1, 0.4, 0.2]])
    M = R @ R.T
    pm = partial_matrix_from_full(M / M[0, 0], 3, 2)
    return pm, product(orthant(1), free(1))


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
    return partial_matrix_from_full(np.outer(z, z), n + 1, z.size - n - 1)


def partial_matrix_from_full(full, n1, S):
    """Declare the entries between the arms of a full matrix unspecified per
    the width-one arrowhead pattern with ``S`` arms."""
    full = np.asarray(full, dtype=float)
    X = SymMatrix(full[:n1, :n1])
    Z = [full[n1 + k : n1 + k + 1, :n1] for k in range(S)]
    Y = [SymMatrix(full[n1 + k : n1 + k + 1, n1 + k : n1 + k + 1]) for k in range(S)]
    return PartialMatrix(ArrowheadPattern(n1, 1, S), X, Z, Y)
