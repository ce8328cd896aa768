"""Every check on outside input raises its exception with its message, and
the ``cppc`` command turns an input error into exit code 1 and one stderr
line."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

from cppc import cli
from cppc.completion import CompletionProblem, certify_completable
from cppc.conditions import ConstraintData
from cppc.conic_solver import SolveOptions
from cppc.cones import GroundCone, free, interior_dual_contains, orthant, product, zero
from cppc.matrix_core import ArrowheadPattern, PartialMatrix, SymMatrix
from cppc.qp_relax import GeneralInstance, QPInstance

QP_JSON = {"A": [[-1.0, 0.0], [0.0, -1.0]], "a": [0.0, 0.0],
           "F": [[1.0, 2.0], [2.0, 1.0]], "d": [1.0, 1.0]}
# Unbounded below once d is infinite: min -|x|^2 over x >= 0, x_1 + x_2 <= d.
ORACLE_QP_JSON = {"A": [[-1.0, 0.0], [0.0, -1.0]], "a": [0.0, 0.0], "F": [[1.0, 1.0]], "d": [1.0]}
ARROWHEAD_JSON = {"n1": 2, "n2": 1, "S": 2, "X": [[6.0, 3.0], [3.0, 6.0]],
                  "Z": [[[0.0, 3.0]], [[3.0, 0.0]]], "Y": [[[2.0]], [[2.0]]]}


class Exit(Exception):
    """What ``cli.run`` reported, as ``exit <code>: <stderr>``."""


def cli_run(command, obj, **flags):
    """``cppc <command>`` on the JSON value ``obj`` with the ``RunConfig``
    fields ``flags`` (``tol``, ``max_iters``); raises :class:`Exit`."""
    def call():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.run(cli.RunConfig(command=command, input_path=path, quiet=True,
                                             **flags))
        raise Exit(f"exit {code}: {err.getvalue()}")
    return call


def arrowhead(n1=2, S=1, X=None, Z=None, Y=None):
    """A width-one partial matrix; the blocks default to valid ones."""
    X = SymMatrix(np.eye(n1)) if X is None else X
    Z = [np.full((1, n1), 0.1)] * S if Z is None else Z
    Y = [SymMatrix([[1.0]])] * S if Y is None else Y
    return PartialMatrix(ArrowheadPattern(n1, 1, S), X, Z, Y)


def data(f, d):
    return ConstraintData.build(orthant(2), [orthant(1)], f, [np.ones(1)], d)


def certify_stated(S, K0, arms):
    """``certify_completable`` on an ``S``-arm problem over a one-dimensional
    shared part, with stated data of ``arms`` arms over ``K0``."""
    stated = ConstraintData.width_one(K0, np.ones((arms, K0.dim)), np.ones(arms), np.ones(arms))
    return lambda: certify_completable(
        CompletionProblem.from_partial_matrix(arrowhead(S=S), data=stated))


CASES = [
    # qp_relax
    (lambda: QPInstance.build(np.eye(2), np.zeros(3), np.ones((1, 2)), [1.0]),
     ValueError, "inconsistent QP dimensions"),
    (lambda: QPInstance.build(np.eye(2), np.zeros(2), np.ones((1, 2)), [1.0], orthant(3)),
     ValueError, "ground cone has dim 3, expected 2"),
    (lambda: QPInstance.build(np.eye(2), np.zeros(2), np.ones((1, 2)), [1.0],
                              product(orthant(1), zero(1))),
     ValueError, "zero cone factors are not supported here"),
    (lambda: QPInstance.build(np.eye(2), np.zeros(2), [1.0, 2.0], [1.0]),
     ValueError, "F must be a 2-d array, got shape (2,)"),
    (lambda: QPInstance.build(-np.eye(2), np.zeros(2), np.ones((1, 2)), [np.inf]),
     ValueError, "d contains non-finite entries"),
    (lambda: QPInstance.build(-np.eye(2), [np.nan, 0.0], np.ones((1, 2)), [1.0]),
     ValueError, "a contains non-finite entries"),
    (lambda: QPInstance.build(-np.eye(2), np.zeros(2), [[np.nan, 1.0]], [1.0]),
     ValueError, "F contains non-finite entries"),
    (lambda: QPInstance.from_json_dict({k: QP_JSON[k] for k in "AaF"}),
     ValueError, "QP JSON is missing keys ['d']"),
    (lambda: QPInstance.from_json_dict({**QP_JSON, "x": 1}),
     ValueError, "QP JSON has unknown keys ['x']"),
    (lambda: GeneralInstance.build(np.eye(3), np.zeros(3), [np.zeros(2)], [0.0], [0.0],
                                   data([np.zeros(2), np.ones(2)], [0.0, 1.0])),
     ValueError, "objective dimensions do not match the shared cone"),
    # conditions
    (lambda: data([np.zeros(2)], [0.0, 1.0]),
     ValueError, "inconsistent lengths: S=1, |f|=1, |g|=1, |d|=2"),
    (lambda: data([np.zeros(2), np.ones(3)], [0.0, 1.0]),
     ValueError, "f[1] has dim 3, shared cone has 2"),
    (lambda: data([np.zeros(2), np.ones(2)], [1.0, 1.0]),
     ValueError, "a zero shared vector requires a zero right-hand side"),
    # matrix_core
    (lambda: SymMatrix(np.zeros(3)), ValueError, "SymMatrix must be a 2-d array, got shape (3,)"),
    (lambda: SymMatrix(np.zeros((2, 3))), ValueError, "SymMatrix must be square, got shape (2, 3)"),
    (lambda: SymMatrix(np.zeros((0, 0))), ValueError, "SymMatrix order must be at least 1"),
    (lambda: arrowhead(X=SymMatrix(np.eye(3))), ValueError, "X has order 3, pattern wants 2"),
    (lambda: arrowhead(S=2, Z=[np.zeros((1, 2))], Y=[SymMatrix([[1.0]])]),
     ValueError, "expected 2 arm blocks, got 1 Z and 1 Y"),
    (lambda: arrowhead(Z=[np.array([[np.nan, 0.0]])]),
     ValueError, "Z[0] contains non-finite entries"),
    (lambda: arrowhead().scaled(0.0), ValueError, "scaling factor must be positive"),
    # cones
    (lambda: GroundCone((("cube", 2),)), ValueError, "unknown cone factor kind 'cube'"),
    (lambda: GroundCone((("orthant", -1),)), ValueError, "factor dimension must be nonnegative"),
    (lambda: GroundCone.from_json_dict({"orthant": 1, "free": 1}), ValueError, "bad cone spec"),
    (lambda: interior_dual_contains(orthant(2), np.ones(3)),
     ValueError, "vector has dim 3, cone has dim 2"),
    # conic_solver
    (lambda: SolveOptions(tol_primal=np.inf), ValueError,
     "tol_primal must be finite and positive, got inf"),
    (lambda: SolveOptions(tol_dual=np.nan), ValueError,
     "tol_dual must be finite and positive, got nan"),
    (lambda: SolveOptions(tol_gap=0.0), ValueError, "tol_gap must be finite and positive, got 0.0"),
    (lambda: SolveOptions(max_iters=0), ValueError, "max_iters must be at least 1, got 0"),
    # completion
    (lambda: CompletionProblem.from_partial_matrix(arrowhead(n1=1)),
     ValueError, "the shared block must contain the unit row plus at least one coordinate"),
    (lambda: CompletionProblem.from_partial_matrix(
        arrowhead(X=SymMatrix(np.diag([0.0, 1.0])), Z=[np.array([[0.0, 0.5]])])),
     ValueError, "zero northwest corner is outside the certifiable range"),
    (lambda: CompletionProblem.from_partial_matrix(arrowhead(), orthant(2)),
     ValueError, "ground cone has dim 2, shared part has dim 1"),
    (certify_stated(2, orthant(1), 3), ValueError,
     "stated data has 3 arm(s) over the shared cone ['orthant'], the problem 2 over ['orthant']"),
    (certify_stated(1, orthant(2), 1), ValueError, "stated data has 1 arm(s) over the shared "
     "cone ['orthant', 'orthant'], the problem 1 over ['orthant']"),
    (certify_stated(1, free(1), 1), ValueError,
     "stated data has 1 arm(s) over the shared cone ['free'], the problem 1 over ['orthant']"),
    # cli
    (cli_run("check", {**ARROWHEAD_JSON, "f": [[1.0], [1.0]]}),
     Exit, "exit 1: error: constraint data requires all of f, g, d\n"),
    (cli_run("solve-qp", {**QP_JSON, "x": 1}),
     Exit, "exit 1: error: unknown keys in QP instance: ['x']\n"),
    (cli_run("check", [QP_JSON]), Exit, "exit 1: error: top-level JSON value must be an object\n"),
    (cli_run("check", {**ARROWHEAD_JSON, "f": [[1.0]], "g": [1.0], "d": [1.0]}), Exit,
     "exit 1: error: invalid input: stated data has 1 arm(s) over the shared cone "
     "['orthant'], the problem 2 over ['orthant']\n"),
    (cli_run("solve-qp", {**QP_JSON, "F": [1.0, 2.0], "d": [1.0]}), Exit,
     "exit 1: error: invalid input: F must be a 2-d array, got shape (2,)\n"),
    (cli_run("solve-qp", QP_JSON, tol=np.inf), Exit,
     "exit 1: error: --tol must be finite and positive, got inf\n"),
    (cli_run("solve-qp", QP_JSON, tol=np.nan), Exit,
     "exit 1: error: --tol must be finite and positive, got nan\n"),
    (cli_run("check", ARROWHEAD_JSON, tol=-1.0), Exit,
     "exit 1: error: --tol must be finite and positive, got -1.0\n"),
    (cli_run("solve-qp", QP_JSON, max_iters=-3), Exit,
     "exit 1: error: --max-iters must be at least 1, got -3\n"),
    (cli_run("oracle", {**ORACLE_QP_JSON, "d": [np.inf]}), Exit,
     "exit 1: error: invalid input: d contains non-finite entries\n"),
    (cli_run("oracle", {**ORACLE_QP_JSON, "a": [np.nan, 0.0]}), Exit,
     "exit 1: error: invalid input: a contains non-finite entries\n"),
    (cli_run("solve-qp", {**ORACLE_QP_JSON, "d": [np.inf]}), Exit,
     "exit 1: error: invalid input: d contains non-finite entries\n"),
]


@pytest.mark.parametrize("call, exc, message", CASES)
def test_bad_input_is_rejected(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    # The CLI's report is its whole stderr; elsewhere the message contains it.
    assert str(info.value) == message if exc is Exit else message in str(info.value)
