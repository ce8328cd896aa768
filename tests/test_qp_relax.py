import numpy as np
import pytest

from cppc.conditions import ConstraintData
from cppc.cones import ORTHANT, free, orthant, product
from cppc.conic_solver import OPTIMAL, SolveResult, kkt_residuals, solve
from cppc.matrix_core import SymMatrix
from cppc.oracles import qp_global_minimum
from cppc.qp_relax import (
    PROVEN_EXACT,
    UNKNOWN,
    GeneralInstance,
    QPInstance,
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


class TestBuilders:
    def test_block_structure(self, qp_two_constraints):
        prog = build_sparse_relaxation(qp_two_constraints)
        assert len(prog.blocks) == 2
        assert all(b.order == 4 for b in prog.blocks)

    def test_no_inequalities_flagged(self):
        qp = QPInstance.build(np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
        prog = build_sparse_relaxation(qp)
        assert len(prog.blocks) == 1
        assert prog.blocks[0].order == 3
        assert prog.notes

    def test_structural_counts(self):
        rng = np.random.default_rng(0)
        qp = random_bounded_qp(rng, n=2, m=3)
        prog = build_sparse_relaxation(qp)
        assert len(prog.blocks) == qp.m
        # per block: unit corner + the two coupling rows; plus corner sharing
        shared = (qp.n + 1) * (qp.n + 2) // 2 - 1
        assert len(prog.equalities) == 3 * qp.m + shared * (qp.m - 1)

    def test_general_reduces_to_sparse(self, qp_two_constraints):
        # The sparse relaxation comes from the general builder on width-one
        # data; compare it with the paper's per-row program assembled here:
        # block i over (1, x, y_i) carries the unit corner, the pair
        # f_i^T x + y_i = d_i and [f_i; 1][f_i; 1]^T . [X z_i; z_i^T Y_i] =
        # d_i^2, blocks i > 0 copy block 0's (1, x, X) corner, and block 0
        # carries the objective A . X + 2 a^T x.
        for K in (orthant(2), product(orthant(1), free(1))):
            qp = QPInstance.build(
                qp_two_constraints.A, [0.3, -0.2], qp_two_constraints.F,
                qp_two_constraints.d, K,
            )
            n, m = qp.n, qp.m
            o = n + 2

            def row(entries):
                vec = np.zeros(m * o * o)
                for (i, r, c), val in entries.items():
                    vec[i * o * o + r * o + c] += val
                    if r != c:
                        vec[i * o * o + c * o + r] += val
                return vec

            ref = []
            for i in range(m):
                f, d = qp.F[i], qp.d[i]
                ref.append((row({(i, 0, 0): 1.0}), 1.0))
                lin = {(i, 0, 1 + k): f[k] / 2 for k in range(n)}
                lin[(i, 0, n + 1)] = 0.5
                ref.append((row(lin), d))
                h = np.append(f, 1.0)
                quad = {
                    (i, 1 + r, 1 + c): h[r] * h[c]
                    for r in range(n + 1)
                    for c in range(r, n + 1)
                }
                ref.append((row(quad), d * d))
            for r in range(n + 1):
                for c in range(r, n + 1):
                    if (r, c) == (0, 0):
                        continue
                    for i in range(1, m):
                        val = 1.0 if r == c else 0.5
                        ref.append((row({(i, r, c): val}) - row({(0, r, c): val}), 0.0))
            obj = {(0, 1 + r, 1 + c): qp.A.array[r, c] for r in range(n) for c in range(r, n)}
            obj.update({(0, 0, 1 + k): qp.a[k] for k in range(n)})

            prog = build_sparse_relaxation(qp)
            A, b = prog.constraint_matrix()

            def sorted_rows(M):
                return M[np.lexsort(M.T[::-1])]

            got = sorted_rows(np.column_stack([A, b]))
            want = sorted_rows(np.array([np.append(vec, rhs) for vec, rhs in ref]))
            assert np.array_equal(got, want)
            assert np.array_equal(prog.objective_vector(), row(obj))
            nn = np.array([True] + [k == ORTHANT for k in K.coordinate_kinds()] + [True])
            assert len(prog.blocks) == m
            for i, spec in enumerate(prog.blocks):
                assert spec.order == o and spec.psd
                assert np.array_equal(spec.nonneg_mask, np.outer(nn, nn))
                kernel = np.concatenate([[-qp.d[i]], qp.F[i], [1.0]])[:, None]
                assert np.array_equal(spec.forced_kernel, kernel)
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
        assert len(prog.blocks) == 1
        assert prog.blocks[0].order == 4
        res = solve(prog)
        assert res.status == OPTIMAL

    def test_general_rejects_bad_shapes(self):
        data = ConstraintData.build(
            orthant(2), [orthant(1)], [np.zeros(2), np.ones(2)], [np.ones(1)], [0.0, 1.0]
        )
        with pytest.raises(ValueError):
            GeneralInstance.build(
                SymMatrix(np.eye(2)), np.zeros(2), [np.zeros(3)], [0.0],
                [SymMatrix([[0.0]])], data,
            )


def test_rank_one_lift_satisfies_sparse_relaxation():
    # Property: the lift of any feasible x (one block outer((1, x, d_i -
    # F_i x)) per row, or outer((1, x)) without rows) is feasible for the
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
        if m == 0:
            lifts = [np.concatenate([[1.0], x])]
        else:
            lifts = [np.concatenate([[1.0], x, [d[i] - F[i] @ x]]) for i in range(m)]
        blocks = [np.outer(z, z) for z in lifts]
        out = kkt_residuals(build_sparse_relaxation(qp), blocks)
        scale = max(1.0, max(float(np.abs(b).max()) for b in blocks))
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


class TestDenseReference:
    def test_dense_is_a_lower_bound_too(self, qp_two_constraints):
        from cppc.qp_relax import build_dense_reformulation

        res = solve(build_dense_reformulation(qp_two_constraints))
        assert res.status == OPTIMAL
        ref, _ = brute(qp_two_constraints)
        assert res.objective <= ref + 1e-6
        # here both relaxations attain the true optimum
        assert res.objective == pytest.approx(-0.25, abs=1e-6)

    def test_sparse_and_dense_bound_random_instances(self):
        from cppc.qp_relax import build_dense_reformulation

        rng = np.random.default_rng(5)
        for _ in range(5):
            qp = random_bounded_qp(rng, n=2, m=2)
            dense = solve(build_dense_reformulation(qp))
            lower, _, _ = solve_bounds(qp)
            ref, _ = brute(qp)
            assert dense.status == OPTIMAL
            assert dense.objective <= ref + 1e-5
            assert lower <= ref + 1e-5


class TestFreeConeSupport:
    def test_free_coordinate_relaxation(self):
        # One free coordinate: entries involving it carry no sign constraint.
        K = product(orthant(1), free(1))
        qp = QPInstance.build(
            np.eye(2), np.array([0.0, -1.0]), [[1.0, 1.0], [0.0, -1.0]], [1.0, 1.0], K
        )
        prog = build_sparse_relaxation(qp)
        mask = prog.blocks[0].nonneg_mask
        assert mask is not None
        assert mask[0, 1] and not mask[0, 2] and mask[0, 3]
        lower, sol, upper = solve_bounds(qp)
        ref, _ = brute(qp)
        assert lower <= ref + 1e-6
