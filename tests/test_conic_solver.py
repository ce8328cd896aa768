import tracemalloc

import numpy as np
import pytest

from conftest import baseline_qp
from cppc import completion, conic_solver
from cppc.completion import CompletionProblem, complete_numeric
from cppc.conic_solver import (
    INFEASIBLE,
    MAX_ITERS,
    OPTIMAL,
    ConicProgram,
    SolveOptions,
    kkt_residuals,
    solve,
)
from cppc.oracles import lp_maximize_standard, lp_minimize_standard
from cppc.qp_relax import build_dense_reformulation, build_sparse_relaxation
from reference_checks import dense_rows

ONE = np.array([[1.0]])


def diagonal_lp(cost, G, h):
    """The LP ``min cost.x  s.t.  G x >= h,  x >= 0`` as one program: ``x``
    is the diagonal of the PSD matrix, whose off-diagonal entries are fixed
    at 0 (a diagonal matrix is PSD exactly when its diagonal is
    nonnegative), and row ``g`` is the pair ``(g, 1)``: ``g^T M 1 = g.x``."""
    n = len(cost)
    p = ConicProgram(n)
    r, c = np.triu_indices(n, 1)
    p.fix(r, c, np.zeros(r.size))
    for g, rhs in zip(G, h):
        p.add_inequality(rhs, g, np.ones(n))
    p.set_objective(np.diag(cost))
    return p


def triangle_lp():
    # max x1 + x2 s.t. x >= 0, x1 + 2 x2 <= 1, 2 x1 + x2 <= 1
    return diagonal_lp([-1.0, -1.0], [[-1.0, -2.0], [-2.0, -1.0]], [-1.0, -1.0])


def random_bounded_lp(rng, nvars=3, ncons=3):
    """``(cost, G, h)`` of an LP over ``x >= 0`` with ``<=`` rows (as ``G x
    >= h``), one of them a simplex-style budget; always bounded."""
    G = [-np.ones(nvars)]
    h = [-float(rng.uniform(1.0, 3.0))]
    for _ in range(ncons - 1):
        G.append(-rng.uniform(-1.0, 1.5, nvars))
        h.append(-float(rng.uniform(0.5, 2.0)))
    return rng.standard_normal(nvars), np.array(G), np.array(h)


def solve_lp_by_enumeration(cost, G, h):
    """Independent reference: the LP in standard form, one slack per row,
    solved by enumerating basic solutions."""
    k = h.size
    val, v = lp_minimize_standard(np.r_[cost, np.zeros(k)], np.hstack([G, -np.eye(k)]), h)
    return val


class TestSolveBasics:
    def test_trivial_feasibility(self):
        p = ConicProgram(2)
        p.fix(0, 0, 1.0)
        res = solve(p)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        assert res.block[0, 0] == pytest.approx(1.0, abs=1e-7)

    def test_triangle_lp(self):
        res = solve(triangle_lp())
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-2.0 / 3.0, abs=1e-9)

    def test_iteration_cap(self):
        res = solve(triangle_lp(), SolveOptions(max_iters=2))
        assert res.status == MAX_ITERS
        assert "budget" in res.diagnostics
        assert res.iterations <= 2

    def test_relaxation_value(self, qp_two_constraints):
        res = solve(build_sparse_relaxation(qp_two_constraints))
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(-0.25, abs=1e-7)

    def test_rejects_empty_program(self):
        with pytest.raises(ValueError):
            ConicProgram(0)

    def test_rejects_nan(self):
        p = ConicProgram(1)
        with pytest.raises(ValueError):
            p.fix(0, 0, float("nan"))
        with pytest.raises(ValueError):
            p.add_inequality(float("nan"), ONE[0], ONE[0])

    def test_inconsistent_equalities(self):
        # Two values for one entry are refused when the second is fixed, so
        # a program never holds an inconsistent pair.
        p = ConicProgram(1)
        p.fix(0, 0, 1.0)
        with pytest.raises(ValueError, match=r"entry \(0, 0\) is fixed twice"):
            p.fix(0, 0, 2.0)
        assert p.equalities == [(0, 0, 1.0)]

    def test_cone_infeasible_never_claims_infeasible(self, pm_noncompletable):
        # Fixed entries admit no PSD completion; the solver must stop at
        # MaxIters with diagnostics rather than claim infeasibility.
        full = pm_noncompletable.zero_filled().array
        mask = pm_noncompletable.specified_mask()
        p = ConicProgram(4)
        r, c = np.nonzero(np.triu(mask))
        p.fix(r, c, full[r, c])
        res = solve(p, SolveOptions(max_iters=20000))
        assert res.status == MAX_ITERS
        assert "stall" in res.diagnostics or "budget" in res.diagnostics


class TestDiagnostics:
    def test_no_polish_never_mentions_it(self, qp_two_constraints):
        # The polish field is read by nothing: both values give the same
        # result, bit for bit, and neither mentions a polish.
        for program in (triangle_lp(), build_sparse_relaxation(qp_two_constraints)):
            on, off = (solve(program, SolveOptions(polish=polish)) for polish in (True, False))
            assert on.status == OPTIMAL
            assert on.diagnostics == off.diagnostics == "interior-point iterate accepted"
            assert (on.objective, on.iterations, on.residuals) == (
                off.objective, off.iterations, off.residuals)
            assert np.array_equal(on.block, off.block)


class TestProgramMask:
    def test_omitted_mask_is_all_true(self):
        assert ConicProgram(3).nonneg_mask.tolist() == [[True] * 3] * 3

    def test_given_mask_is_kept(self):
        given = np.array([[1, 0], [0, 1]])
        mask = ConicProgram(2, nonneg_mask=given).nonneg_mask
        assert mask.dtype == bool
        assert np.array_equal(mask, given.astype(bool))

    def test_bad_masks_rejected(self):
        with pytest.raises(ValueError):
            ConicProgram(2, nonneg_mask=np.ones((3, 3)))
        with pytest.raises(ValueError):
            ConicProgram(2, nonneg_mask=np.array([[1, 1], [0, 1]]))


class TestKktResiduals:
    def test_optimal_results_reverify(self, qp_two_constraints):
        p = build_sparse_relaxation(qp_two_constraints)
        res = solve(p)
        out = kkt_residuals(p, res.block)
        assert out["equality"] <= 1e-7
        assert out["cone"] <= 1e-7
        assert out["objective"] == pytest.approx(res.objective, abs=1e-9)

    def test_hand_built_point(self, qp_two_constraints):
        # The corner (1, x, X) at x = (1/4, 1/4), X = diag(1/8, 1/8) with the
        # arm rows C w_i = (0.25, 0.125, 0) and (0.25, 0, 0.125) for w_1 =
        # (1, -1, -2) and w_2 = (1, -2, -1), all nonnegative.
        p = build_sparse_relaxation(qp_two_constraints)
        corner = np.array([[1.0, 0.25, 0.25], [0.25, 0.125, 0.0], [0.25, 0.0, 0.125]])
        out = kkt_residuals(p, corner)
        assert out["equality"] <= 1e-12
        assert out["cone"] <= 1e-12
        assert out["objective"] == pytest.approx(-0.25, abs=1e-12)

    def test_perturbed_point_detected(self, qp_two_constraints):
        p = build_sparse_relaxation(qp_two_constraints)
        res = solve(p)
        bad = res.block.copy()
        bad[0, 0] += 0.1  # violates the unit-corner equality by 0.1
        out = kkt_residuals(p, bad)
        assert out["equality"] >= 0.1 - 1e-9


class TestAgainstVertexEnumeration:
    def test_random_lps(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            lp = random_bounded_lp(
                rng, nvars=int(rng.integers(2, 4)), ncons=int(rng.integers(1, 6))
            )
            res = solve(diagonal_lp(*lp))
            ref = solve_lp_by_enumeration(*lp)
            assert res.status == OPTIMAL
            assert ref is not None
            assert res.objective == pytest.approx(ref, abs=1e-6)


class TestScalingAndDeflation:
    def test_scaling_invariance(self, qp_two_constraints):
        # Rescaling each ``>=`` row by 10^U(-3, 3) (positive factors), as the
        # pair ``(t u, v)``, leaves the program's feasible set, and so its
        # optimum, unchanged.
        ref = solve(build_sparse_relaxation(qp_two_constraints))
        assert ref.status == OPTIMAL
        for seed in range(6):
            rng = np.random.default_rng(seed)
            scaled = build_sparse_relaxation(qp_two_constraints)
            U, V, rhs = scaled.U, scaled.V, scaled.rhs
            scaled.U, scaled.V, scaled.rhs = U[:0], V[:0], rhs[:0]
            for u, v, b, t in zip(U, V, rhs, 10.0 ** rng.uniform(-3.0, 3.0, rhs.size)):
                scaled.add_inequality(t * b, t * u, v)
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


E01 = np.array([[0.0, 0.5], [0.5, 0.0]])
E11 = np.diag([0.0, 1.0])


def block_diag(P, Q):
    return np.block([[P, np.zeros_like(P)], [np.zeros_like(Q), Q]])


def dual_residual_at(lam, S1, Z1):
    """``_dual_residual`` at ``nu = 1/2`` and ``>=`` multipliers ``lam`` on
    a program over ``M = diag(M_0, M_1)`` (two diagonal blocks of order 2),
    masked on ``M_0`` only, with the row ``(M_1)_11 >= 0`` and one dense
    equality row on the diagonal blocks, given to ``_Data`` directly;
    ``lam`` pairs with the ``>=`` row and then with entry (0, 1).  The
    objective makes the dual slack ``c + A^T nu - L^T lam`` equal to
    ``diag(Z0, S1)``, and ``diag(Z0, Z1)`` is passed as the PSD part."""
    Z0 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    E00 = np.diag([1.0, 0.0])
    mask = np.zeros((4, 4), dtype=bool)
    mask[:2, :2] = True
    p = ConicProgram(4, nonneg_mask=mask)
    e3 = np.eye(4)[3]
    p.add_inequality(0.0, e3, e3)
    p.set_objective(
        block_diag(Z0 + lam[1] * E01 - 0.5 * np.eye(2), S1 + lam[0] * E11 - 0.5 * E00)
    )
    d = conic_solver._program_data(p)._replace(
        A=block_diag(np.eye(2), E00).reshape(1, -1), b=np.array([1.0]))
    return conic_solver._dual_residual(d, np.array([0.5]), np.asarray(lam), block_diag(Z0, Z1))


class TestDualResidual:
    lam = (0.125, 0.5)
    S1 = np.diag([1.0, 0.0])

    def test_feasible_pair(self):
        # Nonnegative row multipliers, slack equal to its PSD part.
        assert dual_residual_at(self.lam, self.S1, self.S1) == 0.0

    def test_negative_eigenvalue_of_a_psd_slack(self):
        # The PSD part of diag(1, -0.25) is S1 = diag(1, 0).
        assert dual_residual_at(self.lam, np.diag([1.0, -0.25]), self.S1) == 0.25

    def test_negative_masked_entry(self):
        assert dual_residual_at((0.125, -0.25), self.S1, self.S1) == 0.25
        assert dual_residual_at((-0.25, 0.5), self.S1, self.S1) == 0.25

    def test_nonzero_unmasked_entry(self):
        S1 = np.array([[1.0, -0.25], [-0.25, 0.0]])
        assert dual_residual_at(self.lam, S1, self.S1) == 0.25


@pytest.mark.parametrize(
    "build, size",
    [
        (build_sparse_relaxation, (10, 10, 0)),
        (build_sparse_relaxation, (4, 20, 2)),
        (build_dense_reformulation, (6, 6, 0)),
    ],
)
def test_interior_point_iterate_verifies_tightly(build, size):
    # On these rungs the checked interior-point iterate is accurate well
    # beyond the default tolerances: 1e-9 on the primal and dual residuals,
    # 1e-7 on the relative gap.
    p = build(baseline_qp(*size))
    res = solve(p)
    assert res.status == OPTIMAL
    assert res.diagnostics == "interior-point iterate accepted"
    r = res.residuals
    assert max(r["equality"], r["cone"]) <= 1e-9 and r["gap_relative"] <= 1e-7
    assert r["dual"] <= 1e-9 * (1.0 + np.abs(p.objective_vector()).max())


def test_schur_order_is_the_free_coordinate_count(monkeypatch, pm_three_arms):
    # The loop runs on the free coordinates: the corner of order n + 1 = 5
    # has 15 svec coordinates less the one fixed entry G_00 = 1, and the
    # completion program has one unknown per arm pair.
    orders = []
    factor = conic_solver._cholesky_solver
    monkeypatch.setattr(
        conic_solver, "_cholesky_solver", lambda M: orders.append(M.shape[0]) or factor(M)
    )
    for m in (4, 20):
        orders.clear()
        assert solve(build_sparse_relaxation(baseline_qp(4, m, 0))).status == OPTIMAL
        assert orders and set(orders) == {14}
    orders.clear()
    assert complete_numeric(CompletionProblem.from_partial_matrix(pm_three_arms)).completion
    assert orders and set(orders) == {3}


def test_schur_solver_shifts_a_singular_complement():
    # Dependent rows make the Schur complement singular: the unshifted
    # factorization fails and a small diagonal shift is taken instead; a
    # matrix that no shift makes positive definite raises.
    M = np.ones((2, 2))
    solve_M = conic_solver._cholesky_solver(M)
    assert np.allclose(M @ solve_M(np.array([2.0, 2.0])), [2.0, 2.0])
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        conic_solver._cholesky_solver(-np.eye(2))


def test_constant_row_violation_is_infeasible():
    # Entry (0, 1) is fixed at -1, and the mask asks for it to be
    # nonnegative.
    p = ConicProgram(2)
    p.fix(0, 1, -1.0)
    res = solve(p)
    assert res.status == INFEASIBLE and res.iterations == 0
    assert res.diagnostics == "entry (0, 1) of block 0 is fixed at -1 < 0 by the equalities"


def test_fixed_inequality_row_violation_is_infeasible():
    # Every entry is fixed, M00 = 1, so the added row M00 >= 2 is constant
    # on the free coordinates and fails.
    p = ConicProgram(2)
    p.fix([0, 0, 1], [0, 1, 1], [1.0, 0.0, 1.0])
    p.add_inequality(2.0, [1.0, 0.0], [1.0, 0.0])
    res = solve(p)
    assert res.status == INFEASIBLE and res.iterations == 0
    assert res.diagnostics == "inequality row 0 is fixed at 1 < 2 by the equalities"


class TestStackedInequalities:
    def test_stack_matches_rows_added_one_at_a_time(self):
        U, V = np.random.default_rng(3).standard_normal((2, 5, 3))
        one_by_one, stacked = ConicProgram(3), ConicProgram(3)
        for u, v in zip(U, V):
            one_by_one.add_inequality(0.5, u, v)
        stacked.add_inequality(0.5, U, V)
        assert stacked.rhs.size == 5
        for x, y in zip(one_by_one.inequality_pairs(), stacked.inequality_pairs()):
            assert np.array_equal(x, y)

    def test_a_stack_of_one_is_one_row(self):
        for u, v in ((E01[0], E01[1]), (E01[:1], E01[1:])):
            p = ConicProgram(2)
            p.add_inequality(1.0, u, v)
            assert p.rhs.tolist() == [1.0] and p.U.shape == p.V.shape == (1, 2)

    def test_bad_stack_raises_like_one_bad_matrix(self):
        # A bad stack of pairs raises what one bad pair raises, with its own
        # shape in the message, and the program keeps no row of either.
        nan = np.ones(3)
        nan[1] = np.nan
        for single, stack in ((np.zeros(2), np.zeros((4, 2))),
                              (nan, np.stack([np.ones(3), nan]))):
            p = ConicProgram(3)
            with pytest.raises(ValueError) as one:
                p.add_inequality(0.0, single, single)
            with pytest.raises(ValueError) as many:
                p.add_inequality(0.0, stack, stack)
            assert str(many.value) == str(one.value).replace(str(single.shape), str(stack.shape))
            assert p.rhs.size == 0 and p.U.shape == p.V.shape == (0, 3)

    @pytest.mark.parametrize("rhs, U, V, match", [
        (0.0, np.ones(3), np.ones((1, 3)), r"shapes \(3,\) and \(1, 3\), expected the same"),
        (0.0, np.ones((2, 3)), np.ones((3, 3)), r"shapes \(2, 3\) and \(3, 3\)"),
        (0.0, np.ones((2, 4, 3)), np.ones((2, 4, 3)),
         r"shapes \(2, 4, 3\) and \(2, 4, 3\), expected the same shape, \(3,\) or \(k, 3\)"),
        (0.0, np.ones(()), np.ones(()), r"shapes \(\) and \(\), expected"),
        (0.0, np.ones((2, 3)), np.full((2, 3), np.inf), "must be finite"),
        (np.inf, np.ones(3), np.ones(3), "rhs, U and V must be finite"),
    ], ids=["vector-and-stack", "stack-lengths", "too-deep", "scalar", "inf-entry", "inf-rhs"])
    def test_bad_pairs_raise_and_add_nothing(self, rhs, U, V, match):
        p = ConicProgram(3)
        p.add_inequality(1.0, np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match=match):
            p.add_inequality(rhs, U, V)
        assert p.rhs.tolist() == [1.0] and p.U.shape == p.V.shape == (1, 3)

    def test_equalities_and_objective_take_one_matrix(self):
        # The objective is one matrix; fixed entries come as vectors, not
        # as matrices of indices.
        p = ConicProgram(2)
        with pytest.raises(ValueError, match="equal-length vectors"):
            p.fix(np.zeros((1, 2), dtype=int), np.zeros((1, 2), dtype=int), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="matrix has shape"):
            p.set_objective(np.zeros((1, 2, 2)))
        assert p.equalities == []


def entry_functional(order, r, c):
    """Symmetric coefficient matrix whose Frobenius pairing reads entry (r, c)."""
    m = np.zeros((order, order))
    m[r, c] = m[c, r] = 1.0 if r == c else 0.5
    return m


class TestFix:
    def test_entries_are_listed_and_read_as_rows(self):
        p = ConicProgram(3)
        p.fix(np.array([0, 2]), np.array([1, 0]), np.array([0.5, -1.0]))
        p.fix(1, 1, 2)
        assert p.equalities == [(0, 1, 0.5), (0, 2, -1.0), (1, 1, 2.0)]
        A, b = p.constraint_matrix()
        expected = [entry_functional(3, r, c).reshape(-1) for r, c, _ in p.equalities]
        assert np.array_equal(A, expected) and np.array_equal(b, [0.5, -1.0, 2.0])

    @pytest.mark.parametrize("rows, cols, match", [
        ([0, 3], [0, 0], "out of range"),
        ([0, 0], [1, -1], "out of range"),
        ([0.0], [1.0], "indices integers"),
        ([0, 1], [1], "equal-length"),
    ])
    def test_bad_indices_raise(self, rows, cols, match):
        p = ConicProgram(3)
        with pytest.raises(ValueError, match=match):
            p.fix(rows, cols, np.zeros(len(rows)))
        assert p.equalities == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_raise(self, value):
        p = ConicProgram(2)
        with pytest.raises(ValueError, match="finite"):
            p.fix([0, 1], [0, 1], [1.0, value])
        assert p.equalities == []

    def test_an_entry_fixed_twice_raises(self):
        p = ConicProgram(3)
        with pytest.raises(ValueError, match=r"entry \(0, 2\) is fixed twice"):
            p.fix([0, 1, 2], [2, 1, 0], [1.0, 1.0, 1.0])
        assert p.equalities == []
        p.fix(1, 2, 0.25)
        with pytest.raises(ValueError, match=r"entry \(1, 2\) is fixed twice"):
            p.fix([0, 2], [0, 1], [1.0, 0.25])
        assert p.equalities == [(1, 2, 0.25)]


def test_solve_takes_no_svd(monkeypatch, qp_two_constraints, pm_three_arms):
    # The free coordinates are read off the fixed entries, so no solve
    # factors the rows: count np.linalg.svd calls made inside solve, on the
    # QP fixture and on the completion program.
    calls, per_solve = [], []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))

    def counted(p, opts=None):
        before = len(calls)
        res = solve(p, opts)
        per_solve.append(len(calls) - before)
        return res

    qp_program = build_sparse_relaxation(qp_two_constraints)
    assert counted(qp_program).status == OPTIMAL
    monkeypatch.setattr(completion, "solve", counted)
    assert complete_numeric(CompletionProblem.from_partial_matrix(pm_three_arms)).completion
    assert per_solve == [0, 0]


def test_one_factorization_per_iterate(monkeypatch):
    # Each step factors X and W once, as one stack, and the Schur
    # complement once; inverts those two factors; takes the primal and dual
    # step lengths of each of its two directions from one stacked
    # eigensolve; and builds the Schur complement without a Kronecker
    # product.  A Cholesky call beyond two is a retry after a failed one.
    counts, steps = dict.fromkeys(("cholesky", "failed", "inv", "eigvalsh", "kron"), 0), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except np.linalg.LinAlgError:
                counts["failed"] += 1
                raise
        return wrapper

    for name in ("cholesky", "inv", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np, "kron", counted("kron", np.kron))
    step = conic_solver._mehrotra_step

    def recorded(*args):
        before = dict(counts)
        result = step(*args)
        steps.append({k: counts[k] - before[k] for k in counts})
        return result

    monkeypatch.setattr(conic_solver, "_mehrotra_step", recorded)
    assert solve(build_sparse_relaxation(baseline_qp(4, 12, 0))).status == OPTIMAL
    assert steps
    assert all(s["cholesky"] == 2 + s["failed"] for s in steps)
    assert all((s["inv"], s["eigvalsh"], s["kron"]) == (2, 2, 0) for s in steps)


def test_pair_rows_match_dense_rows():
    # Random pairs, one added alone, and the rows of a random mask: the svec
    # coefficients, the row values L M and the transpose L^T lam read off
    # the pairs match the dense rows vec(sym(u v^T)) of the reference.
    rng = np.random.default_rng(11)
    o = 6
    mask = rng.random((o, o)) < 0.5
    p = ConicProgram(o, nonneg_mask=mask | mask.T)
    p.add_inequality(0.5, *rng.standard_normal((2, 7, o)))
    p.add_inequality(-1.0, *rng.standard_normal((2, o)))
    d = conic_solver._program_data(p)
    L = dense_rows(d.U, d.V)
    assert L.shape[0] == 8 + np.triu(mask | mask.T, 1).sum() > 8
    G = rng.standard_normal((o, o))
    M, lam = G + G.T, rng.standard_normal(L.shape[0])

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    r, c = np.triu_indices(o)
    assert close(conic_solver._svec_rows(d.U, d.V, r, c), L @ conic_solver._svec_basis(o))
    assert close(conic_solver._row_values(d, M), L @ M.reshape(-1))
    assert close(conic_solver._rows_transpose(d, lam).reshape(-1), L.T @ lam)


def test_compile_holds_no_dense_row_matrix():
    # The rows are kept as pairs up to the loop's own matrix: building and
    # compiling the n = m = 30 relaxation peaks under 35 MB (49 MB when the
    # rows were order x order matrices stacked into a dense L and L T).
    qp = baseline_qp(30, 30, 0)
    tracemalloc.start()
    try:
        p = build_sparse_relaxation(qp)
        conic_solver._FreeForm(p, conic_solver._program_data(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 35e6
