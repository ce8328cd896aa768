import numpy as np
import pytest

from conftest import baseline_qp
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
from cppc.matrix_core import SymMatrix
from cppc.oracles import qp_global_minimum
from cppc.qp_relax import (
    PROVEN_EXACT,
    UNKNOWN,
    GeneralInstance,
    QPInstance,
    _lifts,
    build_dense_reformulation,
    build_general_relaxation,
    build_sparse_relaxation,
    certificate_a,
    certificate_b,
    exactness_report,
    extract_solution,
    kernel_vectors,
    lemma_equivalence_check,
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


def lifted_solution_from_point(qp, x):
    """Rank-one feasible lift of a single feasible point."""
    prog = build_sparse_relaxation(qp)
    res = solve(prog)  # only for the shapes; values replaced below
    blocks = []
    for i in range(qp.m):
        y = float(qp.d[i] - qp.F[i] @ x)
        z = np.concatenate([[1.0], x, [y]])
        blocks.append(SymMatrix(np.outer(z, z)))
    sol = extract_solution(qp, res)
    sol.blocks = blocks
    sol.x = np.asarray(x, dtype=float)
    sol.X = SymMatrix(np.outer(x, x))
    return sol


def per_row_program(gi):
    """The paper's per-row program for width-one data, assembled entry by
    entry: block i over ``(1, x, y_i)`` carries the unit corner, the pair
    ``f_i^T x + g_i y_i = d_i`` and ``[f_i; g_i][f_i; g_i]^T . [X z_i; z_i^T
    Y_i] = d_i^2`` and its arm terms ``y_i b_i^T x g_i + C_i y_i^2 + beta_i
    g_i y_i``; blocks i > 0 copy block 0's ``(1, x, X)`` corner, and block 0
    carries the shared pair and ``A . X + a^T x``.  Entries are
    nonnegative where both coordinates lie in an orthant."""
    data = gi.data
    n, m = data.nx, data.S
    o = n + 2

    def coeff(entries):
        mat = np.zeros((o, o))
        for (r, c), val in entries.items():
            mat[r, c] += val
            if r != c:
                mat[c, r] += val
        return mat

    prog = ConicProgram()
    kinds0 = [k == ORTHANT for k in data.K0.coordinate_kinds()]
    for i in range(m):
        nn = np.array([True] + kinds0 + [data.Ki[i].coordinate_kinds()[0] == ORTHANT])
        prog.add_block(o, nonneg_mask=np.outer(nn, nn))
    obj = {}
    for i in range(m):
        f, g, d = data.f[i + 1], data.g[i][0], data.d[i + 1]
        prog.add_equality(1.0, blocks={i: coeff({(0, 0): 1.0})})
        lin = {(0, 1 + k): f[k] / 2 for k in range(n)}
        lin[(0, n + 1)] = g / 2
        prog.add_equality(d, blocks={i: coeff(lin)})
        h = np.append(f, g)
        quad = {(1 + r, 1 + c): h[r] * h[c] for r in range(n + 1) for c in range(r, n + 1)}
        prog.add_equality(d * d, blocks={i: coeff(quad)})
        arm = {(1 + k, n + 1): gi.b[i][k] * g / 2 for k in range(n)}
        arm[(n + 1, n + 1)] = gi.C[i].array[0, 0]
        arm[(0, n + 1)] = gi.beta[i] * g / 2
        obj[i] = coeff(arm)
    f0, d0 = data.f[0], data.d[0]
    if np.any(f0):
        prog.add_equality(d0, blocks={0: coeff({(0, 1 + k): f0[k] / 2 for k in range(n)})})
        quad0 = {(1 + r, 1 + c): f0[r] * f0[c] for r in range(n) for c in range(r, n)}
        prog.add_equality(d0 * d0, blocks={0: coeff(quad0)})
    for r in range(n + 1):
        for c in range(r, n + 1):
            if (r, c) == (0, 0):
                continue
            val = 1.0 if r == c else 0.5
            for i in range(1, m):
                prog.add_equality(
                    0.0, blocks={i: coeff({(r, c): val}), 0: coeff({(r, c): -val})}
                )
    corner = {(1 + r, 1 + c): gi.A.array[r, c] for r in range(n) for c in range(r, n)}
    corner.update({(0, 1 + k): gi.a[k] / 2 for k in range(n)})
    obj[0] = obj[0] + coeff(corner)
    prog.set_objective(blocks=obj)
    return prog


def assert_solves_per_row_program(gi, blocks, res):
    """The blocks reported for a solved corner program are feasible and
    optimal-valued for the per-row program."""
    out = kkt_residuals(per_row_program(gi), blocks)
    scale = max(1.0, max(float(np.abs(b).max()) for b in blocks))
    assert out["equality"] <= 1e-9 * scale
    assert out["cone"] <= 1e-9 * scale
    assert out["objective"] == pytest.approx(res.objective, abs=1e-9 * max(1.0, abs(res.objective)))


def counts(prog):
    return len(prog.blocks), prog.blocks[0].order, len(prog.scalars), len(prog.equalities)


class TestBuilders:
    def test_block_structure(self, qp_two_constraints):
        # One corner block of order n+1 and a slack for (C w_i)_r, r = 0..n,
        # per row.
        prog = build_sparse_relaxation(qp_two_constraints)
        assert counts(prog) == (1, 3, 6, 7)
        assert prog.blocks[0].psd and prog.blocks[0].nonneg_mask.all()
        assert all(s.nonneg for s in prog.scalars)

    def test_no_inequalities_flagged(self):
        # Without rows the corner with its unit entry is the whole program.
        qp = QPInstance.build(np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
        prog = build_sparse_relaxation(qp)
        assert counts(prog) == (1, 3, 0, 1)

    def test_structural_counts(self):
        rng = np.random.default_rng(0)
        qp = random_bounded_qp(rng, n=2, m=3)
        # Unit corner plus one slack row per row and orthant coordinate.
        assert counts(build_sparse_relaxation(qp)) == (1, 3, 9, 10)
        A, a, F, d = -np.eye(10), np.zeros(10), rng.uniform(0.1, 1.0, (10, 10)), np.ones(10)
        assert counts(build_sparse_relaxation(QPInstance.build(A, a, F, d))) == (1, 11, 110, 111)
        # Dense adds one slack row per pair of rows.
        assert counts(build_dense_reformulation(qp)) == (1, 3, 12, 13)

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
                qp.A, 2.0 * qp.a, [np.zeros(2)] * 2, [0.0] * 2, [SymMatrix([[0.0]])] * 2,
                ConstraintData.width_one(K, qp.F, np.ones(2), qp.d),
            )
            res = solve(build_sparse_relaxation(qp))
            assert res.status == OPTIMAL
            sol = extract_solution(qp, res)
            assert_solves_per_row_program(gi, [b.array for b in sol.blocks], res)
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
        # dropped coordinate's row of C needs 3 slacks on top of 4 per
        # orthant arm.
        assert counts(prog) == (1, 3, 11, 12)
        res = solve(prog)
        assert res.status == OPTIMAL
        G = res.block_values[0]
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
        assert counts(prog) == (1, 3, 3, 4)
        res = solve(prog)
        assert res.status == OPTIMAL
        G = res.block_values[0]
        _, _, (L,) = _lifts(data)
        assert_solves_per_row_program(gi, [L @ G @ L.T], res)

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
    # Property: the lift of any feasible x (corner outer((1, x)), slacks
    # (1, x)_r (d_i - F_i x) on the orthant coordinates) is feasible for the
    # relaxation, with objective qp.objective(x).
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
        z = np.concatenate([[1.0], x])[: n - n_free + 1]
        slacks = np.concatenate([z * (d[i] - F[i] @ x) for i in range(m)] + [np.zeros(0)])
        corner = np.outer(np.concatenate([[1.0], x]), np.concatenate([[1.0], x]))
        out = kkt_residuals(build_sparse_relaxation(qp), [corner], slacks)
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
        bumped = []
        for blk in sol.blocks:
            arr = blk.array.copy()
            arr += np.diag(np.full(arr.shape[0], 10 * tol))
            bumped.append(SymMatrix(arr))
        sol.blocks = bumped
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
            res = SolveResult(OPTIMAL, [M], np.zeros(0), 0.0, {}, 0, np.zeros(1))
            sol = extract_solution(qp, res)
            assert len(sol.blocks) == 1 and sol.arms == []
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
        _, sol, _ = solve_bounds(qp)
        nw = np.zeros((3, 3))
        nw[0, 0] = 1.0
        nw[1:, 1:] = np.eye(2)
        sol.X = SymMatrix(np.eye(2))
        sol.x = np.zeros(2)
        assert certificate_b(qp, sol) is None

    def test_certificate_b_rejects_boundary_direction(self):
        # The kernel direction has a zero coordinate: not in the dual interior.
        qp = QPInstance.build(-np.eye(2), np.zeros(2), [[1.0, 0.5]], [1.0])
        x = np.array([0.5, 0.0])
        nw = np.outer(np.concatenate([[1.0], x]), np.concatenate([[1.0], x]))
        _, sol, _ = solve_bounds(qp)
        sol.x = x
        sol.X = SymMatrix(np.outer(x, x))
        cert = certificate_b(qp, sol)
        if cert is not None:
            assert np.all(cert["u"] > 0)

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
            assert np.abs(blk.array @ vec).max() <= 1e-6
        assert np.all(cert["alpha"] > 0) and np.all(cert["w"] > 0)

    def test_certificate_a_trivial_kernel(self):
        qp = QPInstance.build(np.eye(2), np.ones(2), [[1.0, 1.0]], [1.0])
        _, sol, _ = solve_bounds(qp)
        full_rank = SymMatrix(np.eye(4))
        sol.blocks = [full_rank]
        assert certificate_a(qp, sol) is None


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
        # constraint, and no arm row (C w_i)_r is tied to a slack for it.
        K = product(orthant(1), free(1))
        qp = QPInstance.build(
            np.eye(2), np.array([0.0, -1.0]), [[1.0, 1.0], [0.0, -1.0]], [1.0, 1.0], K
        )
        prog = build_sparse_relaxation(qp)
        mask = prog.blocks[0].nonneg_mask
        assert mask[0, 1] and not mask[0, 2] and mask[1, 1] and not mask[1, 2]
        assert counts(prog) == (1, 3, 4, 5)
        lower, sol, upper = solve_bounds(qp)
        ref, _ = brute(qp)
        assert lower <= ref + 1e-6
