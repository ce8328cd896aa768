import numpy as np
import pytest

from cppc import conic_solver
from cppc.conic_solver import (
    INFEASIBLE,
    MAX_ITERS,
    OPTIMAL,
    BlockSpec,
    ConicProgram,
    SolveOptions,
    SolveResult,
    kkt_residuals,
    solve,
)
from cppc.oracles import lp_maximize_standard, lp_minimize_standard
from cppc.qp_relax import build_sparse_relaxation

ONE = np.array([[1.0]])


def triangle_lp():
    # max x1 + x2 s.t. x >= 0, x1 + 2 x2 <= 1, 2 x1 + x2 <= 1
    p = ConicProgram()
    x1 = p.add_block(1)
    x2 = p.add_block(1)
    s1 = p.add_scalar()
    s2 = p.add_scalar()
    p.add_equality(1.0, blocks={x1: ONE, x2: 2 * ONE}, scalars={s1: 1.0})
    p.add_equality(1.0, blocks={x1: 2 * ONE, x2: ONE}, scalars={s2: 1.0})
    p.set_objective(blocks={x1: -ONE, x2: -ONE})
    return p


def random_bounded_lp(rng, nvars=3, ncons=3):
    """Standard-form LP with a simplex-style budget row; always bounded."""
    p = ConicProgram()
    xs = [p.add_block(1) for _ in range(nvars)]
    slack = p.add_scalar()
    budget = {x: ONE for x in xs}
    p.add_equality(float(rng.uniform(1.0, 3.0)), blocks=budget, scalars={slack: 1.0})
    for _ in range(ncons - 1):
        coeffs = rng.uniform(-1.0, 1.5, nvars)
        s = p.add_scalar()
        p.add_equality(
            float(rng.uniform(0.5, 2.0)),
            blocks={x: c * ONE for x, c in zip(xs, coeffs)},
            scalars={s: 1.0},
        )
    cost = rng.standard_normal(nvars)
    p.set_objective(blocks={x: c * ONE for x, c in zip(xs, cost)})
    return p


def solve_lp_by_enumeration(p: ConicProgram):
    """Independent reference: vectorize the all-order-1 program to standard
    form (splitting free coordinates) and enumerate basic solutions."""
    assert all(b.order == 1 for b in p.blocks)
    A, b = p.constraint_matrix()
    c = p.objective_vector()
    offs, scal0 = p.block_offsets()
    nonneg = np.zeros(p.num_vars, dtype=bool)
    for spec, off in zip(p.blocks, offs):
        nonneg[off] = spec.psd or spec.nonneg
    for j, s in enumerate(p.scalars):
        nonneg[scal0 + j] = s.nonneg
    cols = []
    cost = []
    back = []
    for j in range(p.num_vars):
        cols.append(A[:, j])
        cost.append(c[j])
        back.append((j, 1.0))
        if not nonneg[j]:
            cols.append(-A[:, j])
            cost.append(-c[j])
            back.append((j, -1.0))
    val, v = lp_minimize_standard(np.array(cost), np.array(cols).T, b)
    return val


class TestSolveBasics:
    def test_trivial_feasibility(self):
        p = ConicProgram()
        bx = p.add_block(2)
        coeff = np.zeros((2, 2))
        coeff[0, 0] = 1.0
        p.add_equality(1.0, blocks={bx: coeff})
        res = solve(p)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        assert res.block_values[0][0, 0] == pytest.approx(1.0, abs=1e-7)

    def test_triangle_lp(self):
        res = solve(triangle_lp())
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-2.0 / 3.0, abs=1e-9)

    def test_iteration_cap(self):
        res = solve(triangle_lp(), SolveOptions(max_iters=2))
        assert res.status == MAX_ITERS
        assert "budget" in res.diagnostics
        assert res.iterations <= 2

    def test_flat_block_and_free_scalar(self):
        # A nonnegative, non-PSD 2x2 block M with M00 + M11 + 2 M01 = 1 and
        # a free scalar s = -1 - M00; maximizing M01 forces M00 = M11 = 0.
        p = ConicProgram()
        bx = p.add_block(2, psd=False)
        s = p.add_scalar(nonneg=False)
        p.add_equality(1.0, blocks={bx: np.ones((2, 2))})
        p.add_equality(-1.0, blocks={bx: np.diag([1.0, 0.0])}, scalars={s: 1.0})
        p.set_objective(blocks={bx: np.array([[0.0, -0.5], [-0.5, 0.0]])})
        res = solve(p)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-0.5, abs=1e-9)
        assert np.allclose(res.block_values[0], [[0.0, 0.5], [0.5, 0.0]], atol=1e-7)
        assert res.scalar_values[0] == pytest.approx(-1.0, abs=1e-7)

    def test_polish_factorization_failure_rejects_attempt(self, monkeypatch):
        attempts = []

        def failing_refine(*args):
            attempts.append(args)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(conic_solver, "_kkt_refine", failing_refine)
        res = solve(triangle_lp())
        assert isinstance(res, SolveResult)
        assert attempts
        assert "face polish" not in res.diagnostics

    def test_relaxation_value(self, qp_two_constraints):
        res = solve(build_sparse_relaxation(qp_two_constraints))
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-0.25, abs=1e-7)

    def test_rejects_empty_program(self):
        with pytest.raises(ValueError):
            solve(ConicProgram())

    def test_rejects_nan(self):
        p = ConicProgram()
        bx = p.add_block(1)
        with pytest.raises(ValueError):
            p.add_equality(float("nan"), blocks={bx: ONE})

    def test_inconsistent_equalities(self):
        p = ConicProgram()
        bx = p.add_block(1)
        p.add_equality(1.0, blocks={bx: ONE})
        p.add_equality(2.0, blocks={bx: ONE})
        res = solve(p)
        assert res.status == INFEASIBLE

    def test_cone_infeasible_never_claims_infeasible(self, pm_noncompletable):
        # Fixed entries admit no PSD completion; the solver must stop at
        # MaxIters with diagnostics rather than claim infeasibility.
        full = pm_noncompletable.zero_filled().array
        mask = pm_noncompletable.specified_mask()
        p = ConicProgram()
        bx = p.add_block(4)
        for r in range(4):
            for c in range(r, 4):
                if not mask[r, c]:
                    continue
                coeff = np.zeros((4, 4))
                if r == c:
                    coeff[r, c] = 1.0
                else:
                    coeff[r, c] = coeff[c, r] = 0.5
                p.add_equality(float(full[r, c]), blocks={bx: coeff})
        res = solve(p, SolveOptions(max_iters=20000))
        assert res.status == MAX_ITERS
        assert "stall" in res.diagnostics or "budget" in res.diagnostics


class TestDiagnostics:
    def test_polished_result_names_its_threshold(self):
        res = solve(triangle_lp())
        assert res.status == OPTIMAL
        assert res.diagnostics.startswith("face polish accepted at threshold")

    def test_no_polish_never_mentions_it(self, qp_two_constraints):
        for program in (triangle_lp(), build_sparse_relaxation(qp_two_constraints)):
            res = solve(program, SolveOptions(polish=False))
            assert res.status == OPTIMAL
            assert "face polish" not in res.diagnostics


class TestBlockSpecMask:
    def test_omitted_mask_is_all_true(self):
        assert BlockSpec(3).nonneg_mask.tolist() == [[True] * 3] * 3

    def test_block_without_nonneg_gets_all_false(self):
        assert not BlockSpec(3, nonneg=False).nonneg_mask.any()
        given = np.eye(2, dtype=bool)
        assert not BlockSpec(2, nonneg=False, nonneg_mask=given).nonneg_mask.any()

    def test_given_mask_is_kept(self):
        given = np.array([[1, 0], [0, 1]])
        mask = BlockSpec(2, nonneg_mask=given).nonneg_mask
        assert mask.dtype == bool
        assert np.array_equal(mask, given.astype(bool))

    def test_bad_masks_rejected(self):
        with pytest.raises(ValueError):
            BlockSpec(2, nonneg_mask=np.ones((3, 3)))
        with pytest.raises(ValueError):
            BlockSpec(2, nonneg_mask=np.array([[1, 1], [0, 1]]))


class TestKktResiduals:
    def test_optimal_results_reverify(self, qp_two_constraints):
        p = build_sparse_relaxation(qp_two_constraints)
        res = solve(p)
        out = kkt_residuals(p, res.block_values, res.scalar_values)
        assert out["equality"] <= 1e-7
        assert out["cone"] <= 1e-7
        assert out["objective"] == pytest.approx(res.objective, abs=1e-9)

    def test_hand_built_point(self, qp_two_constraints):
        # The corner (1, x, X) at x = (1/4, 1/4), X = diag(1/8, 1/8) with the
        # arm rows C w_i, w_1 = (1, -1, -2) and w_2 = (1, -2, -1), as slacks.
        p = build_sparse_relaxation(qp_two_constraints)
        corner = np.array([[1.0, 0.25, 0.25], [0.25, 0.125, 0.0], [0.25, 0.0, 0.125]])
        slacks = [0.25, 0.125, 0.0, 0.25, 0.0, 0.125]
        out = kkt_residuals(p, [corner], slacks)
        assert out["equality"] <= 1e-12
        assert out["cone"] <= 1e-12
        assert out["objective"] == pytest.approx(-0.25, abs=1e-12)

    def test_perturbed_point_detected(self, qp_two_constraints):
        p = build_sparse_relaxation(qp_two_constraints)
        res = solve(p)
        bad = [blk.copy() for blk in res.block_values]
        bad[0][0, 0] += 0.1  # violates the unit-corner equality by 0.1
        out = kkt_residuals(p, bad, res.scalar_values)
        assert out["equality"] >= 0.1 - 1e-9


class TestAgainstVertexEnumeration:
    def test_random_lps(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = random_bounded_lp(
                rng, nvars=int(rng.integers(2, 4)), ncons=int(rng.integers(1, 6))
            )
            res = solve(p)
            ref = solve_lp_by_enumeration(p)
            assert res.status == OPTIMAL
            assert ref is not None
            assert res.objective == pytest.approx(ref, abs=1e-6)


class TestScalingAndDeflation:
    def test_scaling_invariance(self, qp_two_constraints):
        # Rescaling each equality row by 10^U(-3, 3) leaves the program's
        # feasible set, and so its optimum, unchanged.
        ref = solve(build_sparse_relaxation(qp_two_constraints))
        assert ref.status == OPTIMAL
        for seed in range(6):
            scaled = build_sparse_relaxation(qp_two_constraints)
            rows, scaled.equalities = scaled.equalities, []
            factors = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, len(rows))
            for (bc, sc, rhs), t in zip(rows, factors):
                scaled.add_equality(
                    t * rhs,
                    blocks={k: t * C for k, C in bc.items()},
                    scalars={k: t * a for k, a in sc.items()},
                )
            res = solve(scaled)
            assert res.status == OPTIMAL
            assert abs(ref.objective - res.objective) <= 10 * SolveOptions().tol_gap


def test_lp_enumeration_oracle_self_check():
    # max x1 + x2 over the triangle, solved directly in standard form.
    A = np.array([[1.0, 2.0, 1.0, 0.0], [2.0, 1.0, 0.0, 1.0]])
    b = np.array([1.0, 1.0])
    val, v = lp_maximize_standard(np.array([1.0, 1.0, 0.0, 0.0]), A, b)
    assert val == pytest.approx(2.0 / 3.0)
    assert np.allclose(v[:2], [1.0 / 3.0, 1.0 / 3.0], atol=1e-9)


def face_program():
    """A nonnegative non-PSD block of order 3, a PSD block of order 3 and
    three scalars (active nonnegative, inactive nonnegative, free) tied by
    random equalities, with a hand-set face: rank 2 and active entries
    (0, 1), (2, 2) on the PSD block, (0, 0), (1, 2) on the other."""
    rng = np.random.default_rng(3)
    p = ConicProgram()
    p.add_block(3, psd=False)
    p.add_block(3)
    for nonneg in (True, True, False):
        p.add_scalar(nonneg=nonneg)

    def coeffs():
        g0, g1 = rng.standard_normal((2, 3, 3))
        return {0: g0 + g0.T, 1: g1 + g1.T}, dict(enumerate(rng.standard_normal(3)))

    for _ in range(4):
        p.add_equality(float(rng.standard_normal()), *coeffs())
    p.set_objective(*coeffs())
    flat_active = np.zeros((3, 3), dtype=bool)
    flat_active[0, 0] = flat_active[1, 2] = flat_active[2, 1] = True
    psd_active = np.zeros((3, 3), dtype=bool)
    psd_active[0, 1] = psd_active[1, 0] = psd_active[2, 2] = True
    faces = [
        {"kind": "nn", "active": flat_active},
        {"kind": "psd", "rank": 2, "R0": rng.standard_normal((3, 2)), "active": psd_active},
    ]
    return p, (faces, np.array([True, False, False])), rng


class TestFaceSystems:
    def test_joint_jacobian_matches_central_differences(self):
        p, faces_info, rng = face_program()
        A, b = p.constraint_matrix()
        joint = conic_solver._JointFace(p, A, b, p.objective_vector(), faces_info)
        x = rng.standard_normal(joint.num_params)
        J = joint.jacobian(x)
        # Rows: 4 equalities, S R (3 x 2), 2 active PSD entries, 4 free
        # entries of the flat block and 2 free scalars.
        assert J.shape == (joint.residual(x).size, joint.num_params) == (18, 18)
        # The residual is quadratic in x, so central differences are exact
        # up to rounding.
        h = 1e-5
        fd = np.column_stack(
            [
                (joint.residual(x + h * e) - joint.residual(x - h * e)) / (2 * h)
                for e in np.eye(joint.num_params)
            ]
        )
        assert np.allclose(J, fd, rtol=0.0, atol=1e-8)

    def test_dual_linear_rows(self):
        # D y - r must be c + A^T nu - W Theta W^T - N on PSD-block entries
        # and c + A^T nu - n on the active flat coordinates, row by row.
        p, faces_info, rng = face_program()
        faces, active_scalars = faces_info
        A, _ = p.constraint_matrix()
        c = p.objective_vector()
        W = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        dual = conic_solver._DualLinear(p, A, c, faces_info, {1: W})
        y = rng.standard_normal(dual.D.shape[1])
        s = c + A.T @ y[: A.shape[0]]
        ((sl, k, _),) = dual.theta
        Theta = np.zeros((k, k))
        Theta[np.triu_indices(k)] = y[sl]
        Theta = Theta + np.triu(Theta, 1).T
        WTW = W @ Theta @ W.T
        upper = [(i, l) for i in range(3) for l in range(i, 3)]
        # Sign-constrained multipliers: N on active PSD entries, then n on
        # active flat entries and active scalars.
        keys = [(1, i, l) for i, l in upper if faces[1]["active"][i, l]]
        keys += [(0, i, l) for i, l in upper if faces[0]["active"][i, l]]
        keys += [("s", j) for j in np.flatnonzero(active_scalars)]
        mult = dict(zip(keys, y[dual.sign_slice]))
        assert len(mult) == dual.sign_slice.stop - dual.sign_slice.start == 5
        offs, scal0 = p.block_offsets()
        want = []
        for bidx in (0, 1):
            for i, l in upper:
                val = s[offs[bidx] + 3 * i + l] - mult.get((bidx, i, l), 0.0)
                want.append(val - WTW[i, l] if bidx == 1 else val)
        for j in range(3):
            want.append(s[scal0 + j] - mult.get(("s", j), 0.0))
        assert np.allclose(dual.D @ y - dual.r, want, rtol=0.0, atol=1e-12)
