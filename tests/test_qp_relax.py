from dataclasses import replace

import numpy as np
import pytest

from conftest import baseline_qp
from reference_checks import (
    blocks_by_row,
    fit_alpha_w_by_block,
    kernel_vectors,
    lemma_equivalence_check,
)
from cppc import qp_relax
from cppc.conditions import ConstraintData
from cppc.cones import ORTHANT, free, orthant, product
from cppc.conic_solver import (
    OPTIMAL,
    ConicProgram,
    SolveOptions,
    SolveResult,
    kkt_residuals,
    solve,
)
from cppc.matrix_core import SymMatrix, sym_eigh
from cppc.oracles import qp_global_minimum
from cppc.qp_relax import (
    KERNEL_TOL,
    PROVEN_EXACT,
    UNKNOWN,
    GeneralInstance,
    QPInstance,
    _fit_alpha_w,
    _lifts,
    build_dense_reformulation,
    build_general_relaxation,
    build_sparse_relaxation,
    certificate_a,
    certificate_b,
    exactness_report,
    extract_solution,
    rank_one_certificate,
    solve_bounds,
)


def random_bounded_qp(rng, n=None, m=None):
    n = n or int(rng.integers(2, 4))
    m = m or int(rng.integers(1, 5))
    Q = rng.standard_normal((n, n))
    A = 0.5 * (Q + Q.T)
    a = rng.standard_normal(n)
    F = rng.uniform(0.2, 1.5, (m, n))  # positive rows keep the polytope bounded
    d = rng.uniform(0.5, 2.0, m)
    return QPInstance.build(A, a, F, d)


def brute(qp):
    kinds = qp.K.coordinate_kinds()
    nonneg = [j for j in range(qp.n) if kinds[j] == "orthant"]
    val, x = qp_global_minimum(qp.A.array, qp.a, qp.F, qp.d, nonneg)
    return val, x


def solved(corner, objective=0.0):
    """A solver result whose block is ``corner``."""
    return SolveResult(OPTIMAL, np.asarray(corner, dtype=float), objective, {}, 0,
                       np.zeros(1), np.zeros(0))


def lifted_solution_from_point(qp, x):
    """Rank-one feasible lift of a single feasible point: the corner
    ``(1, x)(1, x)^T``, whose blocks are ``z_i z_i^T`` for ``z_i = (1, x,
    d_i - F_i x)``."""
    z = np.concatenate([[1.0], x])
    return extract_solution(qp, solved(np.outer(z, z), qp.objective(x)))


def with_corner(sol, corner):
    """``sol`` with another corner and that corner's spectrum; the blocks
    stay as solved."""
    corner = np.asarray(corner, dtype=float)
    return replace(sol, corner=corner, spectrum=sym_eigh(corner))


def per_row_program(gi):
    """The paper's per-row program for width-one data, assembled entry by
    entry: block i over ``(1, x, y_i)`` carries the unit corner, the pair
    ``f_i^T x + g_i y_i = d_i`` and ``[f_i; g_i][f_i; g_i]^T . [X z_i; z_i^T
    Y_i] = d_i^2`` and its arm terms ``y_i b_i^T x g_i + C_i y_i^2 + beta_i
    g_i y_i``; blocks i > 0 copy block 0's ``(1, x, X)`` corner, and block 0
    carries the shared pair and ``A . X + a^T x``.  Entries are
    nonnegative where both coordinates lie in an orthant.  The blocks are
    the diagonal blocks of one matrix, whose other entries are free."""
    data = gi.data
    n, m = data.nx, data.S
    o = n + 2

    def coeff(blocks):
        # ``{i: {(r, c): val}}``: entries of diagonal block i.
        mat = np.zeros((m * o, m * o))
        for i, entries in blocks.items():
            for (r, c), val in entries.items():
                mat[i * o + r, i * o + c] += val
                if r != c:
                    mat[i * o + c, i * o + r] += val
        return mat

    kinds0 = [k == ORTHANT for k in data.K0.coordinate_kinds()]
    mask = np.zeros((m * o, m * o), dtype=bool)
    for i in range(m):
        nn = np.array([True] + kinds0 + [data.Ki[i].coordinate_kinds()[0] == ORTHANT])
        mask[i * o : (i + 1) * o, i * o : (i + 1) * o] = np.outer(nn, nn)
    prog = ConicProgram(m * o, nonneg_mask=mask)
    obj = {}
    for i in range(m):
        f, g, d = data.f[i + 1], data.g[i][0], data.d[i + 1]
        prog.add_equality(1.0, coeff({i: {(0, 0): 1.0}}))
        lin = {(0, 1 + k): f[k] / 2 for k in range(n)}
        lin[(0, n + 1)] = g / 2
        prog.add_equality(d, coeff({i: lin}))
        h = np.append(f, g)
        quad = {(1 + r, 1 + c): h[r] * h[c] for r in range(n + 1) for c in range(r, n + 1)}
        prog.add_equality(d * d, coeff({i: quad}))
        arm = {(1 + k, n + 1): gi.b[i][k] * g / 2 for k in range(n)}
        arm[(n + 1, n + 1)] = gi.C[i]
        arm[(0, n + 1)] = gi.beta[i] * g / 2
        obj[i] = arm
    f0, d0 = data.f[0], data.d[0]
    if np.any(f0):
        prog.add_equality(d0, coeff({0: {(0, 1 + k): f0[k] / 2 for k in range(n)}}))
        quad0 = {(1 + r, 1 + c): f0[r] * f0[c] for r in range(n) for c in range(r, n)}
        prog.add_equality(d0 * d0, coeff({0: quad0}))
    for r in range(n + 1):
        for c in range(r, n + 1):
            if (r, c) == (0, 0):
                continue
            val = 1.0 if r == c else 0.5
            for i in range(1, m):
                prog.add_equality(0.0, coeff({i: {(r, c): val}, 0: {(r, c): -val}}))
    # The corner's entries and block 0's arm terms do not overlap.
    obj[0].update({(1 + r, 1 + c): gi.A.array[r, c] for r in range(n) for c in range(r, n)})
    obj[0].update({(0, 1 + k): gi.a[k] / 2 for k in range(n)})
    prog.set_objective(coeff(obj))
    return prog


def assert_solves_per_row_program(gi, blocks, res):
    """The blocks reported for a solved corner program are feasible and
    optimal-valued for the per-row program, as its diagonal blocks."""
    o = blocks[0].shape[0]
    M = np.zeros((len(blocks) * o, len(blocks) * o))
    for i, blk in enumerate(blocks):
        M[i * o : (i + 1) * o, i * o : (i + 1) * o] = blk
    out = kkt_residuals(per_row_program(gi), M)
    scale = max(1.0, max(float(np.abs(b).max()) for b in blocks))
    assert out["equality"] <= 1e-9 * scale
    assert out["cone"] <= 1e-9 * scale
    assert out["objective"] == pytest.approx(res.objective, abs=1e-9 * max(1.0, abs(res.objective)))


def counts(prog):
    return prog.order, len(prog.inequalities), len(prog.equalities)


class TestBuilders:
    def test_rows_are_added_in_one_call_whatever_m(self, monkeypatch):
        # The sparse relaxation has 5 >= rows per row of F at n = 4, all
        # added as one stack.
        calls = []
        add = ConicProgram.add_inequality
        monkeypatch.setattr(ConicProgram, "add_inequality",
                            lambda self, rhs, C: calls.append(1) or add(self, rhs, C))
        counted = []
        for m in (12, 40):
            calls.clear()
            prog = build_sparse_relaxation(baseline_qp(4, m, 0))
            assert len(prog.inequalities) == 5 * m
            counted.append(len(calls))
        assert counted[0] == counted[1] == 1

    def test_block_structure(self, qp_two_constraints):
        # One corner block of order n+1 with the unit corner as its only
        # equality, and a ``>=`` row (C w_i)_r >= 0, r = 0..n, per row.
        prog = build_sparse_relaxation(qp_two_constraints)
        assert counts(prog) == (3, 6, 1)
        assert prog.nonneg_mask.all()

    def test_no_inequalities_flagged(self):
        # Without rows the corner with its unit entry is the whole program.
        qp = QPInstance.build(np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
        prog = build_sparse_relaxation(qp)
        assert counts(prog) == (3, 0, 1)

    def test_structural_counts(self):
        rng = np.random.default_rng(0)
        qp = random_bounded_qp(rng, n=2, m=3)
        # Unit corner plus one ``>=`` row per row and orthant coordinate.
        assert counts(build_sparse_relaxation(qp)) == (3, 9, 1)
        A, a, F, d = -np.eye(10), np.zeros(10), rng.uniform(0.1, 1.0, (10, 10)), np.ones(10)
        assert counts(build_sparse_relaxation(QPInstance.build(A, a, F, d))) == (11, 110, 1)
        # Dense adds one ``>=`` row per pair of rows.
        assert counts(build_dense_reformulation(qp)) == (3, 12, 1)

    def test_general_reduces_to_sparse(self, qp_two_constraints):
        # The corner program's blocks P_i^T C P_i re-verify on the paper's
        # per-row program (assembled independently above): feasible, with
        # the corner program's objective.
        # The free coordinate gets positive curvature: with the fixture's
        # -x_2^2 the relaxation would be unbounded along X_22.
        for K, A in ((orthant(2), -np.eye(2)), (product(orthant(1), free(1)), np.diag([-1.0, 1.0]))):
            qp = QPInstance.build(
                A, [0.3, -0.2], qp_two_constraints.F, qp_two_constraints.d, K
            )
            gi = GeneralInstance.build(
                qp.A, 2.0 * qp.a, np.zeros((2, 2)), np.zeros(2), np.zeros(2),
                ConstraintData.width_one(K, qp.F, np.ones(2), qp.d),
            )
            res = solve(build_sparse_relaxation(qp))
            assert res.status == OPTIMAL
            sol = extract_solution(qp, res)
            assert_solves_per_row_program(gi, sol.blocks, res)
        # A shared constraint and coupled arm terms, with one free arm.
        rng = np.random.default_rng(8)
        data = ConstraintData.build(
            orthant(3),
            [orthant(1), free(1), orthant(1)],
            [rng.uniform(0.5, 1.0, 3)] + [rng.uniform(-0.5, 1.0, 3) for _ in range(3)],
            [rng.uniform(0.5, 1.5, 1) for _ in range(3)],
            [1.0] + list(rng.uniform(0.5, 1.5, 3)),
        )
        Q = rng.standard_normal((3, 3))
        gi = GeneralInstance.build(
            0.5 * (Q + Q.T), rng.standard_normal(3),
            [rng.standard_normal(3) for _ in range(3)], list(rng.standard_normal(3)),
            [SymMatrix([[v]]) for v in rng.standard_normal(3)], data,
        )
        prog = build_general_relaxation(gi)
        # The shared pair drops one coordinate of x: G has order 3, and the
        # dropped coordinate's row of C needs 3 ``>=`` rows on top of 4 per
        # orthant arm.
        assert counts(prog) == (3, 11, 1)
        res = solve(prog)
        assert res.status == OPTIMAL
        G = res.block
        _, _, lifts = _lifts(data)
        assert_solves_per_row_program(gi, [L @ G @ L.T for L in lifts], res)
        res = solve(build_sparse_relaxation(qp_two_constraints))
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-0.25, abs=1e-6)

    def test_general_single_arm_coupled(self):
        # One simplex-style arm with genuine coupling terms solves cleanly.
        rng = np.random.default_rng(1)
        data = ConstraintData.build(
            orthant(2),
            [orthant(1)],
            [np.zeros(2), np.array([1.0, 1.0])],
            [np.ones(1)],
            [0.0, 1.0],
        )
        gi = GeneralInstance.build(
            SymMatrix(np.eye(2)),
            rng.standard_normal(2),
            [np.array([0.5, -0.2])],
            [0.3],
            [SymMatrix([[0.4]])],
            data,
        )
        prog = build_general_relaxation(gi)
        assert counts(prog) == (3, 3, 1)
        res = solve(prog)
        assert res.status == OPTIMAL
        G = res.block
        _, _, (L,) = _lifts(data)
        assert_solves_per_row_program(gi, [L @ G @ L.T], res)

    def test_general_takes_arrays_or_per_arm_values(self):
        # Per-arm vectors, scalars, one-element arrays and order-1 matrices
        # are stored as the arrays b (S, n), beta (S,) and C (S,).
        data = ConstraintData.width_one(orthant(2), [[1.0, 0.5], [0.5, 1.0]], [1.0, 2.0], [1.0, 1.0])
        b, beta, C = np.array([[0.5, -0.2], [0.1, 0.3]]), np.array([0.3, -0.1]), np.array([0.4, 0.2])
        arrays = GeneralInstance.build(np.eye(2), np.zeros(2), b, beta, C, data)
        per_arm = GeneralInstance.build(
            SymMatrix(np.eye(2)), np.zeros(2), list(b), [0.3, -0.1],
            [SymMatrix([[0.4]]), [[0.2]]], data,
        )
        one_element = GeneralInstance.build(
            np.eye(2), np.zeros(2), b, [np.array([0.3]), np.array([-0.1])], C, data
        )
        for gi in (arrays, per_arm, one_element):
            assert gi.b.shape == (2, 2) and gi.beta.shape == gi.C.shape == (2,)
            assert np.array_equal(gi.b, b) and np.array_equal(gi.beta, beta)
            assert np.array_equal(gi.C, C)
        for bad, message in (
            ((b[:1], beta, C), "per-arm objective lengths"),
            ((np.zeros((2, 3)), beta, C), "coupling vector dimension"),
            ((b, beta, [np.eye(2)] * 2), "arm quadratic order"),
            ((b, beta, [np.nan, 0.0]), "non-finite"),
            ((b, [np.array([0.3, 0.1]), -0.1], C), "one-element"),
        ):
            with pytest.raises(ValueError, match=message):
                GeneralInstance.build(np.eye(2), np.zeros(2), *bad, data)

    def test_general_rejects_bad_shapes(self):
        data = ConstraintData.build(
            orthant(2), [orthant(1)], [np.zeros(2), np.ones(2)], [np.ones(1)], [0.0, 1.0]
        )
        with pytest.raises(ValueError):
            GeneralInstance.build(
                SymMatrix(np.eye(2)), np.zeros(2), [np.zeros(3)], [0.0],
                [SymMatrix([[0.0]])], data,
            )
        # The corner relaxation needs width-one arms with g_i != 0.
        wide = ConstraintData.build(
            orthant(2), [orthant(2)], [np.zeros(2), np.ones(2)], [np.ones(2)], [0.0, 1.0]
        )
        zero_g = ConstraintData.build(
            orthant(2), [orthant(1)], [np.zeros(2), np.ones(2)], [np.zeros(1)], [0.0, 1.0]
        )
        for data, C in ((wide, SymMatrix(np.zeros((2, 2)))), (zero_g, SymMatrix([[0.0]]))):
            with pytest.raises(ValueError):
                GeneralInstance.build(
                    SymMatrix(np.eye(2)), np.zeros(2), [np.zeros(2)], [0.0], [C], data
                )


def test_rank_one_lift_satisfies_sparse_relaxation():
    # Property: the lift of any feasible x (corner outer((1, x)), whose
    # ``>=`` rows read (1, x)_r (d_i - F_i x) on the orthant coordinates) is
    # feasible for the relaxation, with objective qp.objective(x).
    rng = np.random.default_rng(7)
    for k in range(60):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 5))
        n_free = int(rng.integers(1, n + 1)) if k % 2 else 0
        K = product(orthant(n - n_free), free(n_free)) if n_free else orthant(n)
        x = np.concatenate([rng.uniform(0.0, 2.0, n - n_free), rng.normal(size=n_free)])
        F = rng.uniform(-1.0, 1.0, (m, n))
        d = F @ x + rng.uniform(0.0, 1.0, m)
        Q = rng.standard_normal((n, n))
        qp = QPInstance.build(0.5 * (Q + Q.T), rng.standard_normal(n), F, d, K)
        assert qp.feasible(x)
        corner = np.outer(np.concatenate([[1.0], x]), np.concatenate([[1.0], x]))
        out = kkt_residuals(build_sparse_relaxation(qp), corner)
        scale = max(1.0, float(np.abs(corner).max()))
        assert out["equality"] <= 1e-12 * scale
        assert out["cone"] <= 1e-12 * scale
        obj = qp.objective(x)
        assert abs(out["objective"] - obj) <= 1e-12 * max(1.0, abs(obj))


class TestBounds:
    def test_two_constraint_fixture(self, qp_two_constraints):
        lower, sol, upper = solve_bounds(qp_two_constraints)
        assert lower == pytest.approx(-0.25, abs=1e-6)
        assert upper == pytest.approx(-0.125, abs=1e-6)

    def test_convex_origin(self):
        qp = QPInstance.build(np.eye(2), np.zeros(2), [[1.0, 1.0]], [1.0])
        lower, sol, upper = solve_bounds(qp)
        assert lower == pytest.approx(0.0, abs=1e-7)
        assert upper == pytest.approx(0.0, abs=1e-7)

    def test_concave_vertex_optimum(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            n = 2
            A = -np.eye(n) * rng.uniform(0.5, 2.0)
            a = -rng.uniform(0.0, 0.5, n)
            F = rng.uniform(0.3, 1.2, (3, n))
            d = rng.uniform(0.5, 1.5, 3)
            qp = QPInstance.build(A, a, F, d)
            ref, _ = brute(qp)
            lower, sol, upper = solve_bounds(qp)
            assert lower <= ref + 1e-6
            if upper is not None:
                assert ref <= upper + 1e-6


class TestRankOne:
    def test_fixture_is_not_rank_one(self, qp_two_constraints):
        _, sol, _ = solve_bounds(qp_two_constraints)
        assert not rank_one_certificate(sol)

    def test_lifted_point_is_rank_one(self, qp_two_constraints):
        sol = lifted_solution_from_point(qp_two_constraints, np.array([0.2, 0.2]))
        assert rank_one_certificate(sol)

    def test_perturbation_breaks_it(self, qp_two_constraints):
        tol = 1e-8
        sol = lifted_solution_from_point(qp_two_constraints, np.array([0.2, 0.2]))
        # The certificate reads the corner, which every block has the rank of.
        perturbed = sol.corner + 10 * tol * np.diag([0.0, 1.0, 1.0])
        sol = extract_solution(qp_two_constraints, solved(perturbed))
        assert not rank_one_certificate(sol, tol=tol)

    def test_no_rows_checks_the_northwest_block(self):
        # Without rows the northwest block is the relaxation's only block; a
        # rank-two one must not pass as rank one.
        qp = QPInstance.build(-np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
        z1, z2 = np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0])
        for M, expected in (
            (0.5 * np.outer(z1, z1) + 0.5 * np.outer(z2, z2), False),
            (np.outer(z1, z1), True),
        ):
            sol = extract_solution(qp, solved(M))
            assert sol.blocks.shape == (0, 4, 4)
            assert rank_one_certificate(sol) is expected


class TestKernelVectors:
    def test_fixture_kernel_direction(self):
        nw = SymMatrix([[1, 0.25, 0.25], [0.25, 0.125, 0], [0.25, 0, 0.125]])
        kern = kernel_vectors(nw)
        assert len(kern) == 1
        v = np.array([-1.0, 2.0, 2.0]) / 3.0
        assert abs(abs(float(kern[0] @ v)) - 1.0) <= 1e-9

    def test_identity_has_empty_kernel(self):
        assert kernel_vectors(SymMatrix(np.eye(4))) == []

    def test_rank_one_outer_product(self):
        v = np.array([1.0, 2.0, 3.0])
        kern = kernel_vectors(SymMatrix(np.outer(v, v)))
        assert len(kern) == 2
        for k in kern:
            assert abs(float(k @ v)) <= 1e-9 * np.linalg.norm(v)


class TestCertificates:
    def test_certificate_b_fixture(self, qp_two_constraints):
        _, sol, _ = solve_bounds(qp_two_constraints)
        cert = certificate_b(qp_two_constraints, sol)
        assert cert is not None
        u = cert["u"]
        assert np.allclose(u / u[0], [1.0, 1.0], atol=1e-5)
        assert np.allclose(cert["gamma"], [1.0, 1.0], atol=1e-5)
        assert cert["polytope_bounded"]

    def test_certificate_b_requires_kernel(self):
        qp = QPInstance.build(np.eye(2), np.ones(2), [[1.0, 1.0]], [1.0])
        sol = extract_solution(qp, solved(np.eye(3)))
        assert certificate_b(qp, sol) is None

    def test_certificate_b_rejects_boundary_direction(self):
        # The kernel direction has a zero coordinate: not in the dual interior.
        qp = QPInstance.build(-np.eye(2), np.zeros(2), [[1.0, 0.5]], [1.0])
        x = np.array([0.5, 0.0])
        nw = np.outer(np.concatenate([[1.0], x]), np.concatenate([[1.0], x]))
        sol = extract_solution(qp, solved(nw))
        cert = certificate_b(qp, sol)
        if cert is not None:
            assert np.all(cert["u"] > 0)

    def test_certificate_b_independent_of_kernel_basis(self):
        # Rank-one corners with kernels of dimension 4; the LP finds the
        # same direction, or none, whichever orthonormal basis spans them.
        rng = np.random.default_rng(0)
        found = []
        for seed in range(12):
            draw = np.random.default_rng(seed)
            G = draw.standard_normal((4, 4))
            qp = QPInstance.build(0.5 * (G + G.T), draw.standard_normal(4),
                                  draw.uniform(-0.3, 1.0, (3, 4)), np.ones(3))
            _, sol, _ = solve_bounds(qp)
            w, v = sol.spectrum
            kernel = np.abs(w) <= KERNEL_TOL * np.abs(w).max()
            assert kernel.sum() == 4
            cert = certificate_b(qp, sol)
            mixed = v.copy()
            Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            mixed[:, kernel] = v[:, kernel] @ Q
            again = certificate_b(qp, replace(sol, spectrum=(w, mixed)))
            assert (cert is None) == (again is None)
            if cert is not None:
                assert np.allclose(cert["u"], again["u"], atol=1e-9)
            found.append(cert is not None)
        assert any(found) and not all(found)

    def test_certificate_b_on_tall_instance(self):
        # Kernel of dimension 4, where pairs of basis vectors found no
        # direction; any u with u_2 = 1 / x_2 and u_j >= max_i F_ij works.
        rep = exactness_report(baseline_qp(4, 20, 2))
        assert "certificate_b" in rep.proven_by
        u = rep.certificate_b["u"]
        assert np.all(u > 0) and np.all(rep.certificate_b["gamma"] <= 1.0 + 1e-9)

    def test_certificate_a_on_rank_one_solution(self):
        # Blocks lifted from a strictly positive point admit the per-block
        # kernel vectors (-1, alpha u, w).
        qp = QPInstance.build(
            -np.eye(2), np.zeros(2), [[1.0, 1.0], [1.0, 2.0]], [1.0, 1.5]
        )
        x = np.array([0.4, 0.4])
        sol = lifted_solution_from_point(qp, x)
        cert = certificate_a(qp, sol)
        assert cert is not None
        for vec, blk in zip(cert["vectors"], sol.blocks):
            assert np.abs(blk @ vec).max() <= 1e-6
        assert np.all(cert["alpha"] > 0) and np.all(cert["w"] > 0)

    def test_certificate_a_on_nonsingular_corner(self):
        # Parallel rows and three optimal vertices: the relaxation mixes
        # them, so C is nonsingular and block i's kernel is the line of
        # k_i = (-d_i, F_i, 1).
        qp = QPInstance.build(-np.eye(2), [0.5, 0.5], [[1.0, 1.0], [2.0, 2.0]], [1.0, 3.0])
        _, sol, _ = solve_bounds(qp)
        assert kernel_vectors(sol.corner) == []
        cert = certificate_a(qp, sol)
        assert cert is not None
        assert np.allclose(cert["u"], np.sqrt(0.5))
        for i, vec in enumerate(cert["vectors"]):
            k = np.concatenate([[-qp.d[i]], qp.F[i], [1.0]])
            assert np.array_equal(vec, k / qp.d[i])

    def test_stacked_fit_matches_the_per_block_fit(self):
        # Rank-one blocks z z^T (parallel columns: the line's point with
        # alpha = w) and rank-two blocks in one stack, in random order.
        rng = np.random.default_rng(5)
        u = rng.uniform(0.2, 1.0, 3)
        u /= np.linalg.norm(u)
        blocks = []
        for k in range(12):
            Z = rng.uniform(0.1, 1.0, (1 + k % 2, 5))
            Z[:, 0] = 1.0
            blocks.append(Z.T @ Z)
        Ms = np.array(blocks)[rng.permutation(12)]
        fit = _fit_alpha_w(Ms, u, KERNEL_TOL)
        ref = np.array([fit_alpha_w_by_block(M, u, KERNEL_TOL) for M in Ms])
        assert np.allclose(fit, ref, rtol=1e-9, atol=1e-12)
        assert sum(np.isclose(a, w) for a, w in fit) >= 6

    def test_stacked_fit_takes_alpha_equal_w_when_y_is_zero(self):
        # An active row (y_i = 0) leaves w free; the minimum-norm point
        # would put it at 0, the fit takes alpha = w = 1 / (x . u).
        x, u = np.array([0.3, 0.4]), np.array([0.6, 0.8])
        z = np.r_[1.0, x, 0.0]
        M = np.outer(z, z)
        fit = _fit_alpha_w(M[None], u, KERNEL_TOL)[0]
        assert fit == pytest.approx([1.0 / (x @ u)] * 2, rel=1e-12)
        assert np.allclose(fit, fit_alpha_w_by_block(M, u, KERNEL_TOL), rtol=1e-12)

    def test_certificate_a_trivial_kernel(self):
        qp = QPInstance.build(np.eye(2), np.ones(2), [[1.0, 1.0]], [1.0])
        _, sol, _ = solve_bounds(qp)
        assert certificate_a(qp, replace(sol, blocks=np.eye(4)[None])) is None


class TestLemmaEquivalence:
    def test_fixture_reduced_form(self):
        nw = SymMatrix([[1, 0.25, 0.25], [0.25, 0.125, 0], [0.25, 0, 0.125]])
        assert lemma_equivalence_check(nw, [2.0, 2.0], [], 1.0) == (True, True)

    def test_zero_matrix(self):
        assert lemma_equivalence_check(
            SymMatrix(np.zeros((3, 3))), [1.0, 1.0], [], 0.0
        ) == (True, True)

    def test_agreement_on_sampled_lifts(self):
        rng = np.random.default_rng(3)
        agree = 0
        for _ in range(200):
            nx, ny = 2, 1
            k = int(rng.integers(1, 4))
            pts = [
                np.concatenate([[1.0], rng.uniform(0.0, 1.0, nx + ny)])
                for _ in range(k)
            ]
            weights = rng.dirichlet(np.ones(k))
            M = sum(w * np.outer(z, z) for w, z in zip(weights, pts))
            a = rng.standard_normal(nx)
            b = rng.standard_normal(ny)
            r = rng.standard_normal()
            pair, aggregate = lemma_equivalence_check(SymMatrix(M), a, b, r)
            assert pair == aggregate
            agree += 1
        assert agree == 200

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            lemma_equivalence_check(
                SymMatrix([[1.0, 2.0], [2.0, 1.0]]), [1.0], [], 1.0
            )


class TestExactnessReport:
    def test_fixture_proven_by_kernel_certificate(self, qp_two_constraints):
        rep = exactness_report(qp_two_constraints)
        assert rep.overall == PROVEN_EXACT
        assert "certificate_b" in rep.proven_by
        assert not rep.rank_one
        assert abs(rep.upper - rep.lower) > 0.1

    def test_convex_interior_bound_match(self):
        qp = QPInstance.build(np.eye(2), np.array([-0.2, -0.2]), [[1.0, 1.0]], [2.0])
        rep = exactness_report(qp)
        assert rep.overall == PROVEN_EXACT
        assert "bound_match" in rep.proven_by
        ref, _ = brute(qp)
        assert rep.lower == pytest.approx(ref, abs=1e-6)

    def test_unknown_is_sound(self):
        # Every proven-exact report must match the brute-force optimum; when
        # nothing fires the report says Unknown rather than guessing.
        rng = np.random.default_rng(4)
        seen_unknown = 0
        for _ in range(10):
            qp = random_bounded_qp(rng, n=3, m=2)
            rep = exactness_report(qp)
            ref, _ = brute(qp)
            if rep.overall == PROVEN_EXACT:
                assert rep.lower == pytest.approx(ref, abs=1e-4)
            else:
                seen_unknown += 1
                assert rep.overall == UNKNOWN
        # both outcomes are legal; the loop must simply never crash

    def test_tall_instance_converges_without_polish(self):
        # n = 4, m = 20 of the Baseline family at seed 2: with one block per
        # row and the corner copied between them, ADMM stalled at MaxIters.
        rep = exactness_report(baseline_qp(4, 20, 2), SolveOptions(polish=False))
        assert rep.overall == PROVEN_EXACT, rep.diagnostics
        assert rep.solution.solver.status == OPTIMAL


    def test_solver_failure_is_reported(self, qp_two_constraints):
        rep = exactness_report(qp_two_constraints, SolveOptions(max_iters=1))
        assert np.isnan(rep.lower) and rep.upper is None
        assert rep.overall == UNKNOWN and rep.proven_by == []
        assert rep.solution is None
        assert rep.diagnostics.startswith("solver failure: relaxation solve returned MaxIters")

    def test_eigendecompositions_do_not_grow_with_rows(self, monkeypatch):
        # Every check reads the corner, not the m per-row blocks.
        calls = []

        def counted(M):
            calls.append(M)
            return sym_eigh(M)

        monkeypatch.setattr(qp_relax, "jacobi_eigh", counted)
        rep = exactness_report(baseline_qp(4, 20, 0), SolveOptions(polish=False))
        assert rep.overall == PROVEN_EXACT
        assert len(calls) <= 1

    def test_handed_spectrum_gives_the_same_checks(self):
        # The spectrum taken with the solution is the corner's: a fresh one
        # handed in gives the same checks.
        qp = baseline_qp(4, 12, 0)
        _, sol, _ = solve_bounds(qp, SolveOptions(polish=False))
        handed_sol = with_corner(sol, sol.corner)
        assert rank_one_certificate(sol) == rank_one_certificate(handed_sol)
        for check in (certificate_a, certificate_b):
            alone, handed = check(qp, sol), check(qp, handed_sol)
            assert (alone is None) == (handed is None)
            if alone is not None:
                assert all(np.array_equal(alone[k], handed[k]) for k in alone)

    def test_certificate_a_fit_ignores_rounding(self):
        # The 208th draw: every block has rank one and row 1 is active
        # (y_1 = 0), so the fit of (alpha, w) is a line on which w is free.
        rng = np.random.default_rng(123)
        for _ in range(208):
            qp = random_bounded_qp(rng)
        _, sol, _ = solve_bounds(qp, SolveOptions(polish=False))
        base = certificate_a(qp, sol)
        assert base is not None
        corner = sol.corner.copy()
        for j in range(qp.n):
            corner[0, 1:] += 1e-15 * np.eye(qp.n)[j]
            corner[1:, 0] = corner[0, 1:]
            moved = certificate_a(qp, with_corner(sol, corner.copy()))
            assert moved is not None
            assert np.abs(moved["u"] - base["u"]).max() <= 1e-14
            assert np.abs(moved["alpha"] - base["alpha"]).max() <= 1e-8
            assert np.abs(moved["w"] - base["w"]).max() <= 1e-8


def corner_identity_cases():
    for n in (4, 6, 8):
        yield baseline_qp(n, n, 0), None
    yield baseline_qp(4, 12, 0), SolveOptions(polish=False)
    yield QPInstance.build(-np.eye(2), [0.5, 0.5], [[1.0, 1.0], [2.0, 2.0]], [1.0, 3.0]), None
    rng = np.random.default_rng(8)
    for k in range(24):
        yield random_bounded_qp(rng), SolveOptions(polish=bool(k % 2))


def test_blocks_share_the_corner_spectrum():
    # M_i = P_i^T C P_i with P_i onto and P_i k_i = 0: each block's kernel
    # is ker C plus the line of k_i, and its rank is that of C.  The
    # certificates rest on this; check it numerically on solved relaxations.
    kernel_dims = set()
    for qp, opts in corner_identity_cases():
        _, sol, _ = solve_bounds(qp, opts)
        dim = len(kernel_vectors(sol.corner))
        kernel_dims.add(dim)
        per_block_rank_one = True
        for blk in sol.blocks:
            assert len(kernel_vectors(blk)) == dim + 1
            w, _ = sym_eigh(blk)
            per_block_rank_one &= bool(w[-2] <= 1e-6 * max(w[-1], 0.0))
        assert per_block_rank_one == rank_one_certificate(sol)
    # Both the rank-one and the nonsingular corner occur.
    assert {0, 4} <= kernel_dims


def test_blocks_match_the_per_row_products():
    # The stack holds P_i^T C P_i for every row, formed one row at a time
    # in the reference; without rows it is empty.
    rng = np.random.default_rng(11)
    shapes = set()
    for k in range(12):
        n, m = int(rng.integers(1, 4)), int(rng.integers(0, 4)) if k % 3 else 0
        n_free = int(rng.integers(1, n + 1)) if k % 2 else 0
        K = product(orthant(n - n_free), free(n_free)) if n_free else orthant(n)
        G = rng.standard_normal((n, n))
        qp = QPInstance.build(G @ G.T / n + 0.1 * np.eye(n), rng.standard_normal(n),
                              rng.uniform(0.2, 1.5, (m, n)), rng.uniform(0.5, 2.0, m), K)
        _, sol, _ = solve_bounds(qp)
        assert sol.blocks.shape == (m, n + 2, n + 2)
        assert not sol.blocks.flags.writeable and not sol.corner.flags.writeable
        assert np.array_equal(sol.blocks, sol.blocks.transpose(0, 2, 1))
        ref = blocks_by_row(qp.F, qp.d, sol.corner)
        scale = max(1.0, float(np.abs(sol.corner).max()))
        assert np.allclose(sol.blocks, ref, rtol=0.0, atol=1e-12 * scale)
        assert sol.corner[0, 0] == 1.0
        assert np.array_equal(sol.x, sol.corner[0, 1:]) and np.array_equal(sol.X, sol.corner[1:, 1:])
        shapes.add((m == 0, n_free > 0))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_report_work_does_not_grow_with_rows(monkeypatch):
    # One exactness report builds no SymMatrix per row and the row data at
    # most twice (the program and the boundedness check).
    made, built = [], []
    init = SymMatrix.__init__
    build = ConstraintData.build
    monkeypatch.setattr(SymMatrix, "__init__", lambda self, values: made.append(1) or init(self, values))
    monkeypatch.setattr(ConstraintData, "build",
                        staticmethod(lambda *args: built.append(1) or build(*args)))
    made_per_m = []
    for m in (12, 40):
        qp = baseline_qp(4, m, 0)
        made.clear()
        built.clear()
        rep = exactness_report(qp, SolveOptions(polish=False))
        assert rep.solution is not None
        made_per_m.append(len(made))
        assert len(built) <= 2
    assert made_per_m[0] == made_per_m[1]


class TestDenseReference:
    def test_dense_is_a_lower_bound_too(self, qp_two_constraints):
        res = solve(build_dense_reformulation(qp_two_constraints))
        assert res.status == OPTIMAL
        ref, _ = brute(qp_two_constraints)
        assert res.objective <= ref + 1e-6
        # here both relaxations attain the true optimum
        assert res.objective == pytest.approx(-0.25, abs=1e-6)

    def test_sparse_and_dense_bound_random_instances(self):
        # Both bound the optimum, and the dense program, being the sparse one
        # plus the cross-arm rows, never bounds below it.
        rng = np.random.default_rng(5)
        for _ in range(5):
            qp = random_bounded_qp(rng, n=2, m=2)
            dense = solve(build_dense_reformulation(qp))
            lower, _, _ = solve_bounds(qp)
            ref, _ = brute(qp)
            assert dense.status == OPTIMAL
            assert dense.objective <= ref + 1e-5
            assert lower <= ref + 1e-5
            assert dense.objective >= lower - 1e-5


@pytest.mark.parametrize("n", [4, 6])
def test_dense_not_below_sparse_on_ladder(n):
    # The dense program is the sparse one plus rows, so its value is never
    # below the sparse one.
    qp = baseline_qp(n, n, 0)
    sparse = solve(build_sparse_relaxation(qp))
    dense = solve(build_dense_reformulation(qp))
    assert sparse.status == dense.status == OPTIMAL
    assert dense.objective >= sparse.objective - 1e-9 * max(1.0, abs(sparse.objective))


def test_largest_rung_is_exact():
    # n = m = 10, the largest Baseline rung: both relaxations attain the
    # value of the rank-one solution.
    qp = baseline_qp(10, 10, 0)
    rep = exactness_report(qp)
    dense = solve(build_dense_reformulation(qp))
    assert rep.overall == PROVEN_EXACT, rep.diagnostics
    assert "rank_one" in rep.proven_by
    assert dense.status == OPTIMAL
    for value in (rep.lower, dense.objective):
        assert value == pytest.approx(rep.upper, rel=1e-7)


class TestFreeConeSupport:
    def test_free_coordinate_relaxation(self):
        # One free coordinate: corner entries involving it carry no sign
        # constraint, and no arm row (C w_i)_r gets a ``>=`` row for it.
        K = product(orthant(1), free(1))
        qp = QPInstance.build(
            np.eye(2), np.array([0.0, -1.0]), [[1.0, 1.0], [0.0, -1.0]], [1.0, 1.0], K
        )
        prog = build_sparse_relaxation(qp)
        mask = prog.nonneg_mask
        assert mask[0, 1] and not mask[0, 2] and mask[1, 1] and not mask[1, 2]
        assert counts(prog) == (3, 4, 1)
        lower, sol, upper = solve_bounds(qp)
        ref, _ = brute(qp)
        assert lower <= ref + 1e-6
