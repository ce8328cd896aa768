import numpy as np
import pytest

from cppc import completion as cmod
from cppc.completion import (
    CERTIFIED,
    NO_CERTIFICATE,
    CompletionProblem,
    FindDataOptions,
    brute_force_completion_oracle,
    certify_completable,
    complete_numeric,
    complete_rank_one,
    find_data,
    find_data_exact_small,
    verify_block_constraints,
)
from cppc import cones
from cppc.conditions import ConstraintData, build_condition_report
from cppc.matrix_core import ArrowheadPattern, PartialMatrix, SymMatrix, agrees

from conftest import partial_matrix_from_factor


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
        x, X, y, z, Y = problem.block_parts(1)
        assert x[0] == pytest.approx(0.5)
        assert Y == pytest.approx(1.0 / 3.0)

    def test_rejects_wide_arms(self):
        pm = PartialMatrix(
            ArrowheadPattern(2, 2, 2),
            SymMatrix(np.eye(2)),
            [np.zeros((2, 2)) for _ in range(2)],
            [SymMatrix(np.eye(2)) for _ in range(2)],
        )
        with pytest.raises(ValueError):
            CompletionProblem.from_partial_matrix(pm)

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

    def test_public_wrapper(self, pm_completable):
        problem = CompletionProblem.from_partial_matrix(pm_completable)
        per_arm, f0_pair = verify_block_constraints(pm_completable, stated_data(problem))
        assert per_arm[0] == (pytest.approx(0.0, abs=1e-12),) * 2

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


class TestFindData:
    def test_noncompletable_forces_negative_coefficient(self, pm_noncompletable):
        problem = CompletionProblem.from_partial_matrix(pm_noncompletable)
        data, diagnostics = find_data_exact_small(problem)
        assert data is None
        # Arm 1 with unit right-hand side admits only the double root -3.
        arm1 = diagnostics[0]
        unit_roots = [g for (d, g) in arm1["roots"] if d == 1.0]
        assert unit_roots and all(g < 0 for g in unit_roots)
        assert unit_roots[0] == pytest.approx(-3.0, abs=1e-9)

    def test_completable_fixture_has_no_exact_data(self, pm_completable):
        # The lifted equation for arm 2 has negative discriminant, so the
        # sufficient-condition route cannot fire even though a completion
        # exists.
        problem = CompletionProblem.from_partial_matrix(pm_completable)
        data, diagnostics = find_data_exact_small(problem)
        assert data is None
        assert diagnostics[1]["candidates"] == 0

    def test_rank_one_construction(self):
        rng = np.random.default_rng(2)
        z = np.concatenate([[1.0], rng.uniform(0.1, 1.0, 5)])
        pm = partial_matrix_from_factor(z, n=2)
        problem = CompletionProblem.from_partial_matrix(pm)
        data = find_data(problem)
        assert data is not None
        assert all(float(g[0]) > 0 for g in data.g)
        assert all(d == 1.0 for d in data.d[1:])

    def test_heuristic_route_reverifies(self):
        # Call the least-squares route directly (used for shared dimension
        # above two); any data it returns must re-verify exactly.
        rng = np.random.default_rng(3)
        z = np.concatenate([[1.0], rng.uniform(0.2, 1.0, 4)])
        pm = partial_matrix_from_factor(z, n=3)
        problem = CompletionProblem.from_partial_matrix(pm)
        data = cmod._find_data_heuristic(problem, FindDataOptions())
        assert data is not None
        per_arm, _ = cmod._block_residuals(problem, data)
        assert max(abs(v) for pair in per_arm for v in pair) <= 1e-8


class TestCompleteNumeric:
    def test_completable_fixture(self, pm_completable):
        problem = CompletionProblem.from_partial_matrix(pm_completable)
        res = complete_numeric(problem)
        assert res.completion is not None
        assert agrees(res.completion.full, pm_completable, 1e-9)
        entry = res.completion.unspecified_entries()[(2, 3)]
        assert 0.0 <= entry <= np.sqrt(0.4 * 0.6) + 1e-9
        assert res.cp_verdict is not None and res.cp_verdict.is_member

    def test_noncompletable_fixture(self, pm_noncompletable):
        problem = CompletionProblem.from_partial_matrix(pm_noncompletable)
        res = complete_numeric(problem)
        assert res.completion is None
        assert "inconclusive" in res.diagnostics

    def test_rank_one_unique_completion(self):
        z = np.array([1.0, 0.4, 0.3, 0.7, 0.2])
        pm = partial_matrix_from_factor(z, n=2)
        problem = CompletionProblem.from_partial_matrix(pm)
        res = complete_numeric(problem)
        assert res.completion is not None
        assert np.abs(res.completion.full.array - np.outer(z, z)).max() <= 1e-7


class TestCompleteRankOne:
    def test_outer_product_reproduced(self):
        z = np.array([1.0, 0.5, 0.25, 0.75])
        pm = partial_matrix_from_factor(z, n=1)
        problem = CompletionProblem.from_partial_matrix(pm)
        comp = complete_rank_one(problem)
        assert comp is not None
        assert np.abs(comp.full.array - np.outer(z, z)).max() <= 1e-12
        assert agrees(comp.full, pm, 1e-9)
        assert cones.is_cp(comp.full).is_member

    def test_zero_shared_part_still_completes(self):
        z = np.array([1.0, 0.0, 0.0, 0.6])
        pm = partial_matrix_from_factor(z, n=1)
        problem = CompletionProblem.from_partial_matrix(pm)
        comp = complete_rank_one(problem)
        assert comp is not None
        assert np.abs(comp.full.array - np.outer(z, z)).max() <= 1e-12

    def test_rank_two_block_returns_none(self, pm_completable):
        problem = CompletionProblem.from_partial_matrix(pm_completable)
        assert complete_rank_one(problem) is None


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

    per_arm, f0_pair = verify_block_constraints(pm, cert.data)
    worst = max(abs(v) for pair in per_arm for v in pair)
    assert worst <= cert.tol and max(map(abs, f0_pair)) <= cert.tol
    from cppc.matrix_core import extract_block

    fresh_problem = CompletionProblem.from_partial_matrix(pm)
    for i in range(1, fresh_problem.S + 1):
        assert cones.is_cp(extract_block(fresh_problem.pm, i)).is_member
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
        built = complete_rank_one(problem) or complete_numeric(problem).completion
        assert built is not None
        assert agrees(built.full, pm, 1e-7)
    assert certified >= 4
