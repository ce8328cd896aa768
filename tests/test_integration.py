"""End-to-end bridge: a kernel certificate on a solved relaxation turns into
an explicit completely positive completion of the solution blocks."""

import numpy as np
import pytest

from cppc import cones
from cppc.completion import CERTIFIED, CompletionProblem, certify_completable, complete_numeric
from cppc.conditions import ConstraintData
from cppc.cones import orthant
from cppc.matrix_core import ArrowheadPattern, PartialMatrix, SymMatrix
from cppc.conic_solver import OPTIMAL, SolveResult
from cppc.qp_relax import certificate_b, extract_solution


def partial_matrix_from_blocks(n, sol):
    """Arrowhead partial matrix whose specified entries are the relaxation's
    shared corner and per-arm blocks."""
    Z = [blk[n + 1 :, : n + 1] for blk in sol.blocks]
    Y = [SymMatrix(blk[n + 1 :, n + 1 :]) for blk in sol.blocks]
    return PartialMatrix(ArrowheadPattern(n + 1, 1, len(sol.blocks)), SymMatrix(sol.corner), Z, Y)


def test_kernel_certificate_yields_explicit_completion(qp_two_constraints):
    # The exact optimal face of the fixture: the mixture of the lifts of its
    # two minimizers, (0, 1/2) and (1/2, 0).  A solver's point lies in that
    # face only up to its accuracy, about 1e-5 on the blocks here, which is
    # above the completion checks' tolerance.
    qp = qp_two_constraints
    v1, v2 = np.array([1.0, 0.0, 0.5]), np.array([1.0, 0.5, 0.0])
    corner = 0.5 * (np.outer(v1, v1) + np.outer(v2, v2))
    res = SolveResult(OPTIMAL, corner, -0.25, {}, 0, np.zeros(1), np.zeros(0))
    sol = extract_solution(qp, res)
    cert = certificate_b(qp, sol)
    assert cert is not None

    pm = partial_matrix_from_blocks(qp.n, sol)
    # The certificate's direction, whose row multipliers are at most d_i = 1,
    # defines the shared constraint u.x = 1; together with the
    # relaxation rows it is the data under which the solution blocks satisfy
    # every certification requirement.
    u = cert["u"]
    data = ConstraintData.build(
        orthant(qp.n),
        [orthant(1)] * qp.m,
        [u] + [qp.F[i] for i in range(qp.m)],
        [np.ones(1)] * qp.m,
        [1.0] + [float(v) for v in qp.d],
    )
    problem = CompletionProblem.from_partial_matrix(pm, data=data)
    certificate = certify_completable(problem)
    assert certificate.verdict == CERTIFIED

    built = complete_numeric(problem)
    assert built.completion is not None
    full = built.completion.full
    assert full.order == qp.n + 1 + qp.m
    assert cones.is_dnn(full, tol=1e-6)
    verdict = cones.is_cp(full, tol=1e-6)
    assert verdict.is_member
    factor = verdict.witness
    assert factor is not None and factor.min() >= 0.0
    assert np.linalg.norm(factor @ factor.T - full.array) <= 1e-5
