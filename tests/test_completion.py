import json
import os
import time

import numpy as np
import pytest

from cppc import completion as cmod
from cppc.completion import (
    CERTIFIED,
    NO_CERTIFICATE,
    CompletionProblem,
    certify_completable,
    complete_numeric,
    find_data,
)
from cppc import cones
from cppc.cli import parse_completion_problem
from cppc.conditions import ConstraintData, build_condition_report
from cppc.cones import free, orthant, product
from cppc.conic_solver import MAX_ITERS, OPTIMAL, SolveResult
from cppc.oracles import brute_force_completion_oracle
from cppc.matrix_core import (
    ArrowheadPattern,
    PartialMatrix,
    SymMatrix,
    agrees,
    sym_eigh,
)

from conftest import load_perfbench, partial_matrix_from_factor, partial_matrix_from_full
from reference_checks import arm_block, block_residuals_by_arm


def stated_data(problem):
    # f1 = f2 = g1 = 1, g2 = 2, d = (1, 1), vacuous shared constraint
    return ConstraintData.width_one(
        problem.K, [np.array([1.0]), np.array([1.0])], [1.0, 2.0], [1.0, 1.0]
    )


class TestProblemConstruction:
    def test_rescaling_to_unit_corner(self, pm_noncompletable):
        problem = CompletionProblem.from_partial_matrix(pm_noncompletable)
        assert problem.pm.X[0, 0] == pytest.approx(1.0)
        assert problem.scale == pytest.approx(6.0)
        block = problem.blocks[0]
        assert block[0, 1] == pytest.approx(0.5)
        assert block[-1, -1] == pytest.approx(1.0 / 3.0)

    def test_rejects_wide_arms(self):
        with pytest.raises(ValueError, match="^width must be one, got n2=2$"):
            PartialMatrix(
                ArrowheadPattern(2, 2, 2),
                SymMatrix(np.eye(2)),
                [np.zeros((2, 2)) for _ in range(2)],
                [SymMatrix(np.eye(2)) for _ in range(2)],
            )

    def test_rejects_nonpositive_corner_with_data(self):
        pm = PartialMatrix(
            ArrowheadPattern(2, 1, 1),
            SymMatrix([[0.0, 1.0], [1.0, 2.0]]),
            [np.array([[1.0, 0.0]])],
            [SymMatrix([[1.0]])],
        )
        with pytest.raises(ValueError):
            CompletionProblem.from_partial_matrix(pm)


class TestBlockConstraints:
    def test_stated_data_residuals(self, pm_completable):
        problem = CompletionProblem.from_partial_matrix(pm_completable)
        per_arm, f0_pair = cmod._block_residuals(problem, stated_data(problem))
        # arm 1: 0.45 + 0.55 = 1 and 0.3 + 2*0.15 + 0.4 = 1
        assert per_arm[0] == (pytest.approx(0.0, abs=1e-12),) * 2
        # arm 2: the linear equation holds, the lifted one misses by 1.8
        assert per_arm[1][0] == pytest.approx(0.0, abs=1e-12)
        assert per_arm[1][1] == pytest.approx(1.8, abs=1e-12)
        assert f0_pair == (0.0, 0.0)

    def test_certificate_carries_the_residuals(self, pm_completable):
        data = stated_data(CompletionProblem.from_partial_matrix(pm_completable))
        cert = certify_completable(CompletionProblem.from_partial_matrix(pm_completable,
                                                                         data=data))
        assert cert.block_residuals[0] == (pytest.approx(0.0, abs=1e-12),) * 2
        assert cert.block_residuals[1][1] == pytest.approx(1.8, abs=1e-12)
        assert cert.f0_residuals == (0.0, 0.0)
        assert cert.verdict == NO_CERTIFICATE

    def test_rank_one_identity(self):
        # blocks built from an outer product satisfy both equations exactly
        rng = np.random.default_rng(0)
        z = np.concatenate([[1.0], rng.uniform(0.2, 1.0, 3)])
        pm = partial_matrix_from_factor(z, n=1)
        problem = CompletionProblem.from_partial_matrix(pm)
        data = find_data(problem)
        assert data is not None
        per_arm, f0_pair = cmod._block_residuals(problem, data)
        worst = max(abs(v) for pair in per_arm for v in pair)
        assert worst <= 1e-10 and max(map(abs, f0_pair)) <= 1e-12


def residual_scale(pm, data):
    """Per arm, the larger sum of the absolute terms of its two block
    equations: the size that rounding either one is relative to."""
    x, X = np.abs(pm.X.array[0, 1:]), np.abs(pm.X.array[1:, 1:])
    z = np.abs(np.array([row[0] for row in pm.Z]))
    Y = np.abs([y.array[0, 0] for y in pm.Y])
    f, g, d = np.abs(data.f[1:]), np.abs(data.g[:, 0]), np.abs(data.d[1:])
    lin = f @ x + g * z[:, 0] + d
    quad = ((f @ X) * f).sum(axis=1) + 2.0 * g * (f * z[:, 1:]).sum(axis=1) + g * g * Y + d * d
    return np.maximum(lin, quad)


def random_stated_problem(rng, with_f0: bool, free_coords: bool):
    """A random unit-corner-rescalable partial matrix with random stated data
    over an orthant, or orthant x free, ground cone."""
    n, S = int(rng.integers(1, 9)), int(rng.integers(1, 13))
    R = rng.standard_normal((n + 1, n + 3))
    pm = PartialMatrix(ArrowheadPattern(n + 1, 1, S), SymMatrix(R @ R.T),
                       [rng.standard_normal((1, n + 1)) for _ in range(S)],
                       [SymMatrix([[rng.uniform(0.1, 3.0)]]) for _ in range(S)])
    p = int(rng.integers(0, n + 1)) if free_coords else n
    K = product(orthant(p), free(n - p))
    f0 = rng.standard_normal(n) if with_f0 else None
    data = ConstraintData.width_one(
        K, rng.standard_normal((S, n)), rng.uniform(0.2, 2.0, S), rng.standard_normal(S),
        f0, rng.standard_normal() if with_f0 else 0.0,
    )
    return CompletionProblem.from_partial_matrix(pm, K, data)


class TestBlockStack:
    def test_stack_holds_every_block_read_only(self, pm_noncompletable):
        problem = CompletionProblem.from_partial_matrix(pm_noncompletable)
        assert problem.blocks.shape == (2, 3, 3) and not problem.blocks.flags.writeable
        assert problem.blocks is problem.blocks
        for i, block in enumerate(problem.blocks, start=1):
            assert np.array_equal(block, arm_block(problem.pm, i))

    def test_residuals_match_the_per_arm_loop(self, monkeypatch):
        # The stack sums each equation in another order than the per-arm
        # loop, so the residuals agree within rounding, not bit for bit
        # (about a quarter of these inputs agree exactly; the largest gap
        # seen is 3e-16 of the scale).  The shared pair is computed alike.
        (cases,) = load_perfbench(monkeypatch, "cases")
        problems = [(c.problem, c.problem.data or find_data(c.problem))
                    for c in cases.make_cases("completion", 7)]
        assert len(problems) == 6 and all(data is not None for _, data in problems)
        for name in ("completable_arrowhead.json", "noncompletable_arrowhead.json"):
            with open(os.path.join(os.path.dirname(__file__), "fixtures", name),
                      encoding="utf-8") as fh:
                problem = parse_completion_problem(json.load(fh))
            problems.append((problem, problem.data or stated_data(problem)))
        rng = np.random.default_rng(23)
        for k in range(240):
            problem = random_stated_problem(rng, with_f0=k % 2 == 0, free_coords=k % 4 < 2)
            problems.append((problem, problem.data))
        for problem, data in problems:
            stacked, f0_pair = cmod._block_residuals(problem, data)
            by_arm, f0_ref = block_residuals_by_arm(problem.pm, data)
            assert f0_pair == f0_ref
            gap = np.abs(np.array(stacked) - np.array(by_arm)).max(axis=1)
            assert np.all(gap <= 1e-15 * residual_scale(problem.pm, data))

    def test_find_data_takes_one_checked_spectrum(self, monkeypatch):
        rng = np.random.default_rng(2)
        pm = partial_matrix_from_factor(np.concatenate([[1.0], rng.uniform(0.1, 1.0, 5)]), n=2)
        problem = CompletionProblem.from_partial_matrix(pm)
        calls = []
        eigh = cmod.jacobi_eigh
        monkeypatch.setattr(cmod, "jacobi_eigh", lambda m: calls.append(np.shape(m)) or eigh(m))
        assert find_data(problem) is not None
        assert calls == [(problem.S, 4, 4)]


class TestCertify:
    def test_stated_data_conditions_pass_but_equations_fail(self, pm_completable):
        problem = CompletionProblem.from_partial_matrix(pm_completable)
        problem.data = stated_data(problem)
        report = build_condition_report(problem.data)
        assert report.all_passed
        cert = certify_completable(problem)
        assert cert.verdict == NO_CERTIFICATE
        assert any("block equations" in r for r in cert.reasons)

    def test_noncompletable_fixture(self, pm_noncompletable):
        problem = CompletionProblem.from_partial_matrix(pm_noncompletable)
        cert = certify_completable(problem)
        assert cert.verdict == NO_CERTIFICATE

    def test_rank_one_certified(self):
        rng = np.random.default_rng(1)
        z = np.concatenate([[1.0], rng.uniform(0.1, 1.0, 4)])
        pm = partial_matrix_from_factor(z, n=2)
        problem = CompletionProblem.from_partial_matrix(pm)
        cert = certify_completable(problem)
        assert cert.verdict == CERTIFIED
        assert cert.report.all_passed
        assert all(v.is_member for v in cert.block_verdicts)


    def test_non_orthant_ground_cone_gets_no_cp_verdicts(self):
        z = np.array([1.0, 0.4, 0.3, 0.7, 0.2])
        K = cones.product(cones.orthant(1), cones.free(1))
        problem = CompletionProblem.from_partial_matrix(partial_matrix_from_factor(z, n=2), K)
        problem.data = ConstraintData.width_one(
            K, [np.ones(2), np.ones(2)], [1.0, 1.0], [1.0, 1.0]
        )
        cert = certify_completable(problem)
        assert cert.verdict == NO_CERTIFICATE
        assert ("complete positivity verification implemented for orthant ground "
                "cones only") in cert.reasons
        assert cert.block_verdicts == [] and cert.completion_cp is None

    def test_block_not_cp_is_a_reason(self, pm_completable):
        # A negative entry in block 1 leaves the completion, and block 1,
        # outside the doubly nonnegative cone; block 2 is untouched.
        pm = PartialMatrix(pm_completable.pattern, pm_completable.X,
                           [np.array([[0.55, -0.15]]), pm_completable.Z[1]],
                           pm_completable.Y)
        problem = CompletionProblem.from_partial_matrix(pm)
        problem.data = stated_data(problem)
        cert = certify_completable(problem)
        assert cert.completion_cp is None
        assert [v.verdict for v in cert.block_verdicts] == [cones.NOT_MEMBER, cones.MEMBER]
        assert ("block 1 not verified completely positive "
                "(NotMember: negative entry -0.15 at (1, 2))") in cert.reasons
        assert not any(r.startswith("block 2") for r in cert.reasons)


class TestFindData:
    def test_noncompletable_forces_negative_coefficient(self, pm_noncompletable):
        problem = CompletionProblem.from_partial_matrix(pm_noncompletable)
        assert find_data(problem) is None
        # Block 1 is singular with a one-dimensional kernel, so its data is
        # forced up to scale: (-d, f, g) = (-1, 2, -3) at d = 1, and g < 0.
        w, vecs = sym_eigh(problem.blocks[0])
        assert w[0] == pytest.approx(0.0, abs=1e-12) and w[1] > 0.1
        k = vecs[:, 0] / -vecs[0, 0]
        assert k == pytest.approx([-1.0, 2.0, -3.0], abs=1e-9)

    def test_completable_fixture_has_no_exact_data(self, pm_completable):
        # Block 2 is positive definite, so no (f, g, d) with g > 0 meets its
        # pair of equations, and the sufficient-condition route cannot fire
        # even though a completion exists.
        problem = CompletionProblem.from_partial_matrix(pm_completable)
        w, _ = sym_eigh(problem.blocks[1])
        assert w[0] > 1e-3 * w[-1]
        assert find_data(problem) is None

    def test_rank_one_construction(self):
        rng = np.random.default_rng(2)
        z = np.concatenate([[1.0], rng.uniform(0.1, 1.0, 5)])
        pm = partial_matrix_from_factor(z, n=2)
        problem = CompletionProblem.from_partial_matrix(pm)
        data = find_data(problem)
        assert data is not None
        assert all(float(g[0]) > 0 for g in data.g)
        assert all(d == 1.0 for d in data.d[1:])

    def test_shared_dimension_three_reverifies(self):
        rng = np.random.default_rng(3)
        z = np.concatenate([[1.0], rng.uniform(0.2, 1.0, 4)])
        pm = partial_matrix_from_factor(z, n=3)
        problem = CompletionProblem.from_partial_matrix(pm)
        data = find_data(problem)
        assert data is not None
        per_arm, _ = cmod._block_residuals(problem, data)
        assert max(abs(v) for pair in per_arm for v in pair) <= 1e-8
        assert build_condition_report(data).all_passed

    @pytest.mark.parametrize("rows", [7, 3, 2])
    def test_kernel_rules_find_generated_data(self, rows):
        # Arms proportional to one positive functional, with the generating
        # (-1, f_i, g_i) in every kernel.  The order-5 blocks have rank 4,
        # 3 and 2: a line kernel (rule 2), then kernels of dimension 2 and 3
        # (rule 3).
        n, S = 3, 4
        gram = gram_completion(n, S, "positive", np.random.default_rng([1, S]), rows)
        problem = CompletionProblem.from_partial_matrix(
            partial_matrix_from_full(gram, n + 1, S)
        )
        data = find_data(problem)
        assert data is not None
        assert all(d == 1.0 for d in data.d[1:])
        assert certify_completable(problem).verdict == CERTIFIED

    def test_free_coordinate_gives_none(self):
        z = np.array([1.0, 0.4, 0.3, 0.7, 0.2])
        pm = partial_matrix_from_factor(z, n=2)
        K = cones.product(cones.orthant(1), cones.free(1))
        problem = CompletionProblem.from_partial_matrix(pm, K)
        assert find_data(problem) is None

    @pytest.mark.parametrize("rows", [15, 2])
    def test_twelve_arms_without_data_return_at_once(self, rows, monkeypatch):
        # Independently positive arms admit no reference arm.  With n + S
        # rows every kernel is a line; with two rows the kernels are
        # three-dimensional and rule 3 solves one LP per reference arm.
        n, S = 3, 12
        gram = gram_completion(n, S, "independent", np.random.default_rng([5, S]), rows)
        problem = CompletionProblem.from_partial_matrix(
            partial_matrix_from_full(gram, n + 1, S)
        )
        checks, lps = [], []
        admissible, reference_lp = cmod._data_admissible, cmod._reference_lp
        monkeypatch.setattr(
            cmod, "_data_admissible", lambda *a: checks.append(1) or admissible(*a)
        )
        monkeypatch.setattr(
            cmod, "_reference_lp", lambda *a: lps.append(1) or reference_lp(*a)
        )
        start = time.perf_counter()
        cert = certify_completable(problem)
        assert time.perf_counter() - start < 2.0
        assert cert.verdict == NO_CERTIFICATE
        assert len(checks) <= S + 2
        assert len(lps) == (0 if rows == n + S else S)


def no_solver(*args, **kwargs):
    raise AssertionError("the conic solver was called")


def gram_completion(n, S, kind, rng, rows=None):
    """Gram matrix of nonnegative rows ``(v0, V, W)``: shared rows ``V`` and
    arm rows ``w_i = (v0 - V^T f_i) / g_i``, so ``(-1, f_i, g_i)`` is in the
    kernel of every block and the Gram matrix is its unique completion.  The
    corner ``|v0|^2`` is not one, so the rescaling is exercised.
    "positive" arms are multiples of one positive functional, "mixed" arms
    have one negative coefficient each, "independent" arms are drawn
    positive one by one.  Rows have length ``rows``; by default one for
    "rank1" and n + S otherwise."""
    r = rows or (1 if kind == "rank1" else n + S)
    v0 = rng.uniform(1.0, 2.0, r)
    V = rng.uniform(0.0, 1.0, (n, r))
    g = rng.uniform(0.5, 1.5, S)
    if kind == "positive":
        F = rng.uniform(0.5, 1.0, S)[:, None] * rng.uniform(0.2, 1.0, n)[None, :]
    elif kind == "independent":
        F = rng.uniform(0.2, 1.0, (S, n))
    else:
        F = rng.uniform(0.2, 1.0, (S, n))
        F[np.arange(S), np.arange(S) % n] = -rng.uniform(0.05, 0.3, S)
    # Shrink V so that every arm row keeps at least half of v0 / g_i.
    V *= 0.5 / ((np.maximum(F, 0.0) @ V) / v0).max()
    rows = np.vstack([v0, V, (v0 - F @ V) / g[:, None]])
    return rows @ rows.T


def assert_free_coordinate_completion(comp, pm, K):
    full = comp.full.array
    assert agrees(comp.full, pm, 1e-7)
    w, _ = sym_eigh(full)
    assert w[0] >= -1e-6 * max(1.0, float(np.abs(w).max()))
    pattern = cones.orthant_pattern(K, pm.pattern.S)
    assert full[pattern].min() >= -1e-6
    assert full[~pattern].min() < -0.1


class TestCompleteNumeric:
    def test_completable_fixture(self, pm_completable):
        problem = CompletionProblem.from_partial_matrix(pm_completable)
        res = complete_numeric(problem)
        assert res.completion is not None
        assert agrees(res.completion.full, pm_completable, 1e-9)
        entry = res.completion.unspecified_entries()[(2, 3)]
        assert 0.0 <= entry <= np.sqrt(0.4 * 0.6) + 1e-9
        assert res.cp_verdict is not None and res.cp_verdict.is_member

    def test_noncompletable_fixture(self, pm_noncompletable, monkeypatch):
        monkeypatch.setattr(cmod, "solve", no_solver)
        problem = CompletionProblem.from_partial_matrix(pm_noncompletable)
        res = complete_numeric(problem)
        assert res.completion is None
        cert = res.no_completion_certificate
        assert cert is not None and cert.arms == (1, 2)
        assert cert.value == pytest.approx(-1.0 / 3.0, abs=1e-12)
        # Re-check from the stored fields alone, on the original matrix:
        # Y = u u^T + N with N >= 0 on the arm pair is zero on every
        # unspecified entry, and <Y, M_zf> < 0.
        zf = pm_noncompletable.zero_filled().array
        u = cert.u
        assert u @ zf @ u < 0.0
        ri, rj = (pm_noncompletable.pattern.n1 + k - 1 for k in cert.arms)
        N = np.zeros_like(zf)
        N[ri, rj] = N[rj, ri] = -u[ri] * u[rj]
        assert N.min() >= 0.0
        Y = np.outer(u, u) + N
        assert np.all(Y[~pm_noncompletable.specified_mask()] == 0.0)

    def test_two_arm_interval_completes_without_solver(self, pm_noncompletable,
                                                       monkeypatch):
        # Y = 4, 4: the entry's interval is [-3, 1].  Its centre -1 is
        # negative, but every value in it gives a PSD completion, so entry 0
        # is a DNN completion.
        monkeypatch.setattr(cmod, "solve", no_solver)
        pm = PartialMatrix(pm_noncompletable.pattern, pm_noncompletable.X,
                           pm_noncompletable.Z, [SymMatrix([[4.0]])] * 2)
        res = complete_numeric(CompletionProblem.from_partial_matrix(pm))
        assert res.completion is not None and res.no_completion_certificate is None
        assert res.diagnostics == "closed-form two-arm completion at entry 0"
        assert res.completion.unspecified_entries() == {(2, 3): 0.0}
        assert agrees(res.completion.full, pm, 1e-12)

    def test_undecided_middle_reaches_solver(self, pm_three_arms, monkeypatch):
        # Arms 1 and 2 as above (interval [-3, 1], centre -1) plus arm 3,
        # the corner's first row with Y_3 = 9.  Every pair's interval reaches
        # 0, but the max-determinant entry of arms 1, 2 is -1, and with
        # three arms no single entry decides: only the solver does.
        pm = pm_three_arms
        problem = CompletionProblem.from_partial_matrix(pm)
        assert cmod._closed_form(problem) is None
        calls = []
        solve = cmod.solve
        monkeypatch.setattr(
            cmod, "solve", lambda *args, **kw: calls.append(1) or solve(*args, **kw)
        )
        res = complete_numeric(problem)
        assert len(calls) == 1
        assert res.completion is not None and res.no_completion_certificate is None
        assert agrees(res.completion.full, pm, 1e-7)
        assert 0.0 <= res.completion.unspecified_entries()[(2, 3)] <= 1.0 + 1e-7

    def test_free_coordinate_completion_rechecks(self, free_coordinate_problem):
        # The free coordinate's row has negative specified entries; only the
        # orthant x orthant entries must be nonnegative, and no CP verdict
        # is given.
        pm, K = free_coordinate_problem
        res = complete_numeric(CompletionProblem.from_partial_matrix(pm, K))
        assert res.diagnostics == "closed-form max-determinant completion"
        assert res.cp_verdict is None and res.completion is not None
        assert_free_coordinate_completion(res.completion, pm, K)

    def test_free_coordinate_solver_point_rechecks(self, free_coordinate_problem,
                                                   monkeypatch):
        # The program and the recheck read one pattern, so the solver's
        # point passes too.
        monkeypatch.setattr(cmod, "_closed_form", lambda problem: None)
        pm, K = free_coordinate_problem
        res = complete_numeric(CompletionProblem.from_partial_matrix(pm, K))
        assert res.cp_verdict is None and res.completion is not None, res.diagnostics
        assert_free_coordinate_completion(res.completion, pm, K)

    @pytest.mark.parametrize("status, value, diagnostics", [
        (MAX_ITERS, 0.0, "solver did not converge (MaxIters: stalled); inconclusive"),
        (OPTIMAL, -1.0, "solver point failed the doubly nonnegative recheck"),
    ])
    def test_solver_outcome_without_completion(self, pm_three_arms, monkeypatch,
                                               status, value, diagnostics):
        # The solver is stubbed: a stalled run, and an "optimal" point whose
        # unspecified entries are negative.
        total = pm_three_arms.pattern.total_order

        def stub(prog, opts):
            return SolveResult(status, np.full((total, total), value), 0.0, {}, 0,
                               np.zeros(0), np.zeros(0), "stalled")

        monkeypatch.setattr(cmod, "solve", stub)
        res = complete_numeric(CompletionProblem.from_partial_matrix(pm_three_arms))
        assert res.completion is None and res.cp_verdict is None
        assert res.no_completion_certificate is None
        assert res.diagnostics == diagnostics

    @pytest.mark.parametrize("n, S, kind", [(6, 10, "positive"), (8, 12, "mixed"),
                                            (8, 10, "rank1")])
    def test_gram_ladder_decided_without_solver(self, n, S, kind, monkeypatch):
        monkeypatch.setattr(cmod, "solve", no_solver)
        gram = gram_completion(n, S, kind, np.random.default_rng([7, S, n]))
        pm = partial_matrix_from_full(gram, n + 1, S)
        res = complete_numeric(CompletionProblem.from_partial_matrix(pm))
        assert res.completion is not None
        assert np.abs(res.completion.full.array - gram).max() <= 1e-9
        assert res.cp_verdict is not None and res.cp_verdict.is_member

    def test_rank_one_unique_completion(self):
        z = np.array([1.0, 0.4, 0.3, 0.7, 0.2])
        pm = partial_matrix_from_factor(z, n=2)
        problem = CompletionProblem.from_partial_matrix(pm)
        res = complete_numeric(problem)
        assert res.completion is not None
        assert np.abs(res.completion.full.array - np.outer(z, z)).max() <= 1e-7


def kernel_data(problem):
    """Data ``k_i = (-1, f_i, g_i)`` (``d_i = 1``) read off each block's
    eigenvector of smallest eigenvalue, a kernel vector of a singular PSD
    block, whether or not the three conditions hold on it."""
    ks = []
    for block in problem.blocks:
        k = sym_eigh(block)[1][:, 0]
        ks.append(k / -k[0])
    return ConstraintData.width_one(
        problem.K, [k[1:-1] for k in ks], [k[-1] for k in ks], [1.0] * problem.S
    )


def gram_problem(n, S, kind, rng, rows=None):
    """A ``gram_completion`` input.  Unless its blocks have rank one (which
    ``find_data`` settles) it gets kernel data stated, so that the CP
    verdicts are reached whatever the conditions say."""
    gram = gram_completion(n, S, kind, rng, rows)
    problem = CompletionProblem.from_partial_matrix(
        partial_matrix_from_full(gram, n + 1, S)
    )
    if kind != "rank1" or rows is not None:
        problem.data = kernel_data(problem)
    return gram, problem


def block_limit(M):
    return 1e-8 * max(1.0, float(np.abs(M).max()))


class TestOneFactor:
    @pytest.mark.parametrize("n, S, kind", [(6, 10, "positive"), (8, 12, "mixed"),
                                            (8, 10, "rank1")])
    def test_one_factorization_per_input(self, n, S, kind, monkeypatch):
        _, problem = gram_problem(n, S, kind, np.random.default_rng([7, S, n]))
        calls = []
        for name in ("is_cp", "cp_factorize"):
            original = getattr(cones, name)
            monkeypatch.setattr(
                cmod.cones, name,
                lambda *a, _f=original, _name=name, **k: calls.append(_name) or _f(*a, **k),
            )
        cert = certify_completable(problem)
        assert calls == ["cp_factorize"]
        assert len(cert.block_verdicts) == S
        assert all(v.is_member and v.witness is not None for v in cert.block_verdicts)

    def test_block_verdicts_match_per_block_search(self):
        rng = np.random.default_rng(31)
        blocks = 0
        for kind in ("positive", "mixed", "independent", "rank1"):
            for n, S, rows in ((2, 2, None), (2, 4, 2), (3, 3, None), (3, 5, 4),
                               (4, 2, None), (4, 4, 5)):
                _, problem = gram_problem(n, S, kind, rng, rows)
                cert = certify_completable(problem)
                assert len(cert.block_verdicts) == S
                for i, v in enumerate(cert.block_verdicts, start=1):
                    M = problem.blocks[i - 1]
                    assert v.verdict == cones.is_cp(M).verdict
                    if v.is_member and v.witness is not None:
                        B = v.witness
                        assert B.min() >= 0.0
                        assert np.linalg.norm(B @ B.T - M) <= block_limit(M)
                    blocks += 1
        assert blocks == 4 * 20

    @pytest.mark.parametrize("spoil", ["residual", "none"])
    def test_failed_restriction_falls_back_per_block(self, spoil, monkeypatch):
        _, problem = gram_problem(4, 5, "positive", np.random.default_rng(3))
        expected = [cones.is_cp(block) for block in problem.blocks]
        factorize = cones.cp_factorize

        def spoiled(M, *args, **kwargs):
            B = factorize(M, *args, **kwargs)
            if M.shape[0] != problem.pm.pattern.total_order:
                return B
            # Row 0 is in every block, so no restriction re-verifies.
            return None if spoil == "none" else B * np.r_[1.01, np.ones(len(B) - 1)][:, None]

        monkeypatch.setattr(cmod.cones, "cp_factorize", spoiled)
        cert = certify_completable(problem)
        assert cert.completion_cp.verdict == (
            cones.UNKNOWN if spoil == "none" else cones.MEMBER
        )
        for got, want in zip(cert.block_verdicts, expected, strict=True):
            assert (got.verdict, got.detail) == (want.verdict, want.detail)
            assert np.array_equal(got.witness, want.witness)

    def test_noncompletable_fixture_certificate(self):
        path = os.path.join(os.path.dirname(__file__), "fixtures",
                            "noncompletable_arrowhead.json")
        with open(path, encoding="utf-8") as fh:
            problem = parse_completion_problem(json.load(fh))
        cert = certify_completable(problem)
        assert cert.verdict == NO_CERTIFICATE
        assert cert.reasons == ["no admissible data (f_i, g_i, d_i) found"]
        assert cert.data is None and cert.report is None
        assert cert.block_verdicts == [] and cert.block_residuals == []
        assert cert.completion_cp is None

    def test_completion_cp_decides_what_the_conditions_leave_open(self):
        # The block equations hold, so every Schur complement is zero and the
        # max-determinant completion is the only PSD one: here the Gram
        # matrix, which is CP, while condition (iii) fails on mixed arms.
        gram, problem = gram_problem(8, 12, "mixed", np.random.default_rng([7, 12, 8]))
        cert = certify_completable(problem)
        assert cert.verdict == NO_CERTIFICATE
        assert cert.block_residuals and _worst(cert) <= cert.tol
        assert cert.completion_cp.is_member
        B = cert.completion_cp.witness
        unit = gram / problem.scale
        assert B.min() >= 0.0
        assert np.linalg.norm(B @ B.T - unit) <= block_limit(unit)

    def test_completion_cp_is_none_without_a_dnn_completion(self, pm_three_arms):
        # The max-determinant entry of arms 1 and 2 is -1.
        problem = CompletionProblem.from_partial_matrix(pm_three_arms)
        problem.data = ConstraintData.width_one(
            problem.K, [np.array([1.0])] * 3, [1.0] * 3, [1.0] * 3
        )
        cert = certify_completable(problem)
        assert cert.completion_cp is None
        assert [v.verdict for v in cert.block_verdicts] == [
            cones.is_cp(block).verdict for block in problem.blocks
        ]


class TestSharedFactor:
    def test_certify_then_complete_searches_once(self, monkeypatch):
        _, problem = gram_problem(6, 10, "positive", np.random.default_rng([7, 10, 6]))
        assert problem.scale != 1.0
        calls = []
        factorize = cones.cp_factorize
        monkeypatch.setattr(
            cmod.cones, "cp_factorize", lambda *a, **k: calls.append(1) or factorize(*a, **k)
        )
        cert = certify_completable(problem)
        res = complete_numeric(problem)
        assert len(calls) == 1
        assert cert.completion_cp.is_member
        assert res.cp_verdict.verdict == cones.MEMBER
        # The unit-corner factor, rescaled, re-verifies at the original scale.
        full = res.completion.full.array
        B = res.cp_verdict.witness
        assert B.min() >= 0.0
        assert np.linalg.norm(B @ B.T - full) <= 1e-6 * max(1.0, np.abs(full).max())

    def test_certify_then_complete_builds_one_full_matrix(self, pm_completable, monkeypatch):
        # The partial matrix holds its zero-filled matrix, so the only matrix
        # of full order built is the completion's own.
        problem = CompletionProblem.from_partial_matrix(pm_completable)
        order = problem.pm.pattern.total_order
        orders, init = [], SymMatrix.__init__

        def counted_init(self, values):
            init(self, values)
            orders.append(self.order)

        monkeypatch.setattr(SymMatrix, "__init__", counted_init)
        certify_completable(problem)
        res = complete_numeric(problem)
        assert res.completion is not None and res.completion.full.order == order
        assert orders.count(order) == 1

    def test_recheck_takes_no_spectrum_after_certification(self, monkeypatch):
        # On an orthant cone the CP verdict is the doubly nonnegative recheck
        # too, and certification's factor decides it without a spectrum.
        _, problem = gram_problem(6, 10, "positive", np.random.default_rng([7, 10, 6]))
        certify_completable(problem)
        depth, entered, spectra = [], [], []
        eigh, rechecked = cones.jacobi_eigh, cmod._rechecked

        def counted_eigh(*args, **kwargs):
            if depth:
                spectra.append(1)
            return eigh(*args, **kwargs)

        def traced_recheck(*args, **kwargs):
            depth.append(1)
            entered.append(1)
            try:
                return rechecked(*args, **kwargs)
            finally:
                depth.pop()

        monkeypatch.setattr(cones, "jacobi_eigh", counted_eigh)
        monkeypatch.setattr(cmod, "jacobi_eigh", counted_eigh)
        monkeypatch.setattr(cmod, "_rechecked", traced_recheck)
        res = complete_numeric(problem)
        assert entered and res.cp_verdict.verdict == cones.MEMBER
        assert spectra == []

    @pytest.mark.parametrize("n, S, kind", [(3, 4, "positive"), (4, 5, "mixed"),
                                            (3, 4, "rank1")])
    def test_verdicts_do_not_depend_on_call_order(self, n, S, kind):
        def fresh():
            return gram_problem(n, S, kind, np.random.default_rng([n, S]))[1]

        def verdicts(cert, res):
            pairs = [cert.completion_cp, res.cp_verdict] + cert.block_verdicts
            return (cert.verdict, [(v.verdict, v.detail) for v in pairs],
                    res.completion.full.array.tolist())

        alone = verdicts(certify_completable(fresh()), complete_numeric(fresh()))
        problem = fresh()
        res = complete_numeric(problem)
        assert verdicts(certify_completable(problem), res) == alone
        problem = fresh()
        cert = certify_completable(problem)
        assert verdicts(cert, complete_numeric(problem)) == alone


def _worst(cert):
    return max(abs(r) for pair in cert.block_residuals for r in pair)


def closed_form_suite():
    """Random 2- and 3-arm partial matrices with PSD blocks: arm columns
    C c_i and arm entries c_i^T C c_i + t_i, t_i >= 0."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        n1, S = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        B = rng.uniform(0.0, 1.0, (n1, int(rng.integers(1, n1 + 1))))
        B[0] += 0.5
        C = B @ B.T
        coef = rng.uniform(-0.5, 1.0, (S, n1))
        arms = coef @ C
        Y = np.einsum("ij,jk,ik->i", coef, C, coef)
        Y += rng.choice([0.0, 0.3], S) * rng.uniform(0.0, 1.0, S)
        yield PartialMatrix(ArrowheadPattern(n1, 1, S), SymMatrix(C),
                            [arms[i : i + 1] for i in range(S)],
                            [SymMatrix([[y]]) for y in Y])


def test_closed_form_outcomes_are_sound():
    # Every proof of none is confirmed by the grid oracle; every completion
    # is rechecked.
    outcomes = {"proof": 0, "completion": 0}
    for pm in closed_form_suite():
        res = cmod._closed_form(CompletionProblem.from_partial_matrix(pm))
        if res is None:
            continue
        if res.no_completion_certificate is not None:
            outcomes["proof"] += 1
            assert res.completion is None
            assert brute_force_completion_oracle(pm).best_min_eigenvalue < -1e-9
        else:
            outcomes["completion"] += 1
            assert cones.is_dnn(res.completion.full, tol=1e-6)
            assert agrees(res.completion.full, pm, 1e-7)
    assert min(outcomes.values()) >= 5, outcomes


def test_negative_specified_entry_proves_none(monkeypatch):
    # The suite's inputs that the closed form leaves undecided each have a
    # negative specified entry on a nonnegative coordinate.  The entry's
    # row is constant on the solver's equalities, so the solver proves
    # infeasibility before its first step.
    results = []
    solve = cmod.solve
    monkeypatch.setattr(
        cmod, "solve", lambda *args, **kw: results.append(solve(*args, **kw)) or results[-1]
    )
    undecided = 0
    for pm in closed_form_suite():
        problem = CompletionProblem.from_partial_matrix(pm)
        if cmod._closed_form(problem) is not None:
            continue
        undecided += 1
        assert pm.zero_filled().array.min() < 0.0
        res = complete_numeric(problem)
        assert res.completion is None
        assert res.diagnostics.startswith("no doubly nonnegative completion: entry (")
        assert results[-1].status == "Infeasible" and results[-1].iterations == 0
    assert undecided == len(results) == 5

class TestCompleteRankOne:
    def test_outer_product_reproduced(self):
        z = np.array([1.0, 0.5, 0.25, 0.75])
        pm = partial_matrix_from_factor(z, n=1)
        problem = CompletionProblem.from_partial_matrix(pm)
        comp = complete_numeric(problem).completion
        assert comp is not None
        assert np.abs(comp.full.array - np.outer(z, z)).max() <= 1e-12
        assert agrees(comp.full, pm, 1e-9)
        assert cones.is_cp(comp.full).is_member

    def test_zero_shared_part_still_completes(self):
        z = np.array([1.0, 0.0, 0.0, 0.6])
        pm = partial_matrix_from_factor(z, n=1)
        problem = CompletionProblem.from_partial_matrix(pm)
        comp = complete_numeric(problem).completion
        assert comp is not None
        assert np.abs(comp.full.array - np.outer(z, z)).max() <= 1e-12


class TestOracle:
    def test_noncompletable(self, pm_noncompletable):
        out = brute_force_completion_oracle(pm_noncompletable)
        assert out.completion is None
        assert out.best_min_eigenvalue < -0.1

    def test_completable_witness_range(self, pm_completable):
        out = brute_force_completion_oracle(pm_completable)
        assert out.completion is not None
        assert 0.2 <= out.entries[0] <= 0.3
        assert out.best_min_eigenvalue >= -1e-9

    def test_fully_specified_single_arm(self):
        z = np.array([1.0, 0.5, 0.25])
        pm = partial_matrix_from_factor(z, n=1)
        out = brute_force_completion_oracle(pm)
        assert out.completion is not None
        assert np.array_equal(out.completion.full.array, pm.zero_filled().array)

    def test_negative_specified_entry_has_no_completion(self, pm_completable):
        # Coordinate 1 of the completable fixture with its sign flipped:
        # PSD completions still exist, but no nonnegative one.
        flip = np.array([1.0, -1.0])
        pm = PartialMatrix(pm_completable.pattern,
                           SymMatrix(pm_completable.X.array * np.outer(flip, flip)),
                           [z * flip for z in pm_completable.Z], pm_completable.Y)
        out = brute_force_completion_oracle(pm)
        assert out.best_min_eigenvalue >= -1e-9
        assert out.completion is None
        # Over a free coordinate the sign of its entries is no constraint.
        assert brute_force_completion_oracle(pm, free(1)).completion is not None

    def test_free_coordinate_reads_the_cones_pattern(self, free_coordinate_problem):
        pm, K = free_coordinate_problem
        out = brute_force_completion_oracle(pm, K)
        assert out.completion is not None and out.best_min_eigenvalue >= -1e-9
        assert_free_coordinate_completion(out.completion, pm, K)
        # Read over the orthant, the free row's negative entries rule it out.
        assert brute_force_completion_oracle(pm).completion is None
        with pytest.raises(ValueError, match="^ground cone has dim 1, shared part has dim 2$"):
            brute_force_completion_oracle(pm, orthant(1))

    def test_too_many_unknowns_rejected(self):
        pm = partial_matrix_from_factor(np.array([1, 0.5, 0.2, 0.3, 0.4, 0.1]), n=1)
        with pytest.raises(ValueError):
            brute_force_completion_oracle(pm)


def test_certificates_reverify_from_stored_fields():
    # A certificate must be checkable from its own fields alone: rebuild the
    # residuals, block verdicts and condition report from (pm, cert.data) and
    # reach the same verdict.
    rng = np.random.default_rng(8)
    z = np.concatenate([[1.0], rng.uniform(0.1, 1.0, 4)])
    pm = partial_matrix_from_factor(z, n=2)
    problem = CompletionProblem.from_partial_matrix(pm)
    cert = certify_completable(problem)
    assert cert.verdict == CERTIFIED

    fresh_problem = CompletionProblem.from_partial_matrix(pm)
    per_arm, f0_pair = cmod._block_residuals(fresh_problem, cert.data)
    assert per_arm == cert.block_residuals and f0_pair == cert.f0_residuals
    worst = max(abs(v) for pair in per_arm for v in pair)
    assert worst <= cert.tol and max(map(abs, f0_pair)) <= cert.tol
    for i in range(1, fresh_problem.S + 1):
        assert cones.is_cp(fresh_problem.blocks[i - 1]).is_member
    assert build_condition_report(cert.data).all_passed


def test_certified_instances_admit_completions():
    # Soundness: every certified fixture must actually complete.
    rng = np.random.default_rng(4)
    certified = 0
    for _ in range(6):
        n = int(rng.integers(1, 3))
        S = int(rng.integers(1, 4))
        z = np.concatenate([[1.0], rng.uniform(0.1, 1.0, n + S)])
        pm = partial_matrix_from_factor(z, n=n)
        problem = CompletionProblem.from_partial_matrix(pm)
        cert = certify_completable(problem)
        if cert.verdict != CERTIFIED:
            continue
        certified += 1
        built = complete_numeric(problem).completion
        assert built is not None
        assert agrees(built.full, pm, 1e-7)
    assert certified >= 4
