"""Acceptance suite: one test per criterion, each printing a PASS line with
its timing.  Tolerances are pinned here and nowhere else."""

import time

import numpy as np
import pytest

from cppc import cones
from cppc.completion import (
    CERTIFIED,
    NO_CERTIFICATE,
    CompletionProblem,
    certify_completable,
    complete_numeric,
)
from cppc.conditions import (
    ConstraintData,
    build_condition_report,
    check_cond_iii,
)
from cppc.cones import dual_cone, free, is_cp, is_dnn, orthant, product, zero
from cppc.conic_solver import OPTIMAL, kkt_residuals, solve
from cppc.matrix_core import SymMatrix, agrees, sym_eigh
from cppc.oracles import brute_force_completion_oracle, qp_global_minimum
from cppc.qp_relax import (
    PROVEN_EXACT,
    QPInstance,
    build_sparse_relaxation,
    exactness_report,
)

from conftest import partial_matrix_from_factor
from reference_checks import lemma_equivalence_check, sample_projection_points
from test_conic_solver import (
    diagonal_lp,
    random_bounded_lp,
    solve_lp_by_enumeration,
    triangle_lp,
)


def report(k, elapsed, detail=""):
    print(f"ACCEPTANCE {k}: PASS ({elapsed:.1f}s){' - ' + detail if detail else ''}")


def test_criterion_1_two_constraint_qp_end_to_end(qp_two_constraints):
    start = time.time()
    rep = exactness_report(qp_two_constraints)
    assert rep.lower == pytest.approx(-0.25, abs=1e-4)
    assert rep.upper == pytest.approx(-0.125, abs=1e-4)
    assert rep.rank_one is False
    cert = rep.certificate_b
    assert cert is not None
    u = cert["u"]
    scale = u[0] / 2.0
    assert scale > 0
    assert np.allclose(u, scale * np.array([2.0, 2.0]), atol=1e-4)
    assert np.allclose(cert["gamma"], [1.0, 1.0], atol=1e-4)
    assert rep.overall == PROVEN_EXACT
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(1, elapsed, f"lower {rep.lower:.6f}, upper {rep.upper:.6f}, u ~ (2,2)")


def test_criterion_2_completable_fixture(pm_completable):
    start = time.time()
    problem = CompletionProblem.from_partial_matrix(pm_completable)
    data = ConstraintData.width_one(
        problem.K, [np.array([1.0]), np.array([1.0])], [1.0, 2.0], [1.0, 1.0]
    )
    rep = build_condition_report(data)
    assert rep.cond_i == [True, True]
    assert rep.boundedness.status == "Bounded"
    assert rep.cond_iii is not None

    res = complete_numeric(problem)
    assert res.completion is not None
    assert agrees(res.completion.full, pm_completable, 1e-9)

    witness = pm_completable.zero_filled().array.copy()
    witness[2, 3] = witness[3, 2] = 0.25
    assert is_dnn(SymMatrix(witness), tol=1e-10)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(2, elapsed, "conditions pass; completion found; 0.25 witness is DNN")


def test_criterion_3_noncompletable_fixture(pm_noncompletable):
    start = time.time()
    oracle = brute_force_completion_oracle(pm_noncompletable)
    assert oracle.completion is None
    assert oracle.best_min_eigenvalue < -1e-3

    problem = CompletionProblem.from_partial_matrix(pm_noncompletable)
    cert = certify_completable(problem)
    assert cert.verdict == NO_CERTIFICATE

    # Arm 1's kernel is a line, so its data is forced: at d = 1 it has g < 0.
    w, vecs = sym_eigh(problem.blocks[0])
    assert w[1] > 1e-3 * w[-1]
    g = vecs[-1, 0] / -vecs[0, 0]
    assert g == pytest.approx(-3.0, abs=1e-9)
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(
        3,
        elapsed,
        f"oracle max-min-eig {oracle.best_min_eigenvalue:.3f}; "
        f"arm-1 kernel g at d = 1: {g:.6f}",
    )


def test_criterion_4_rank_one_suite():
    start = time.time()
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        S = int(rng.integers(1, 5))
        z = np.concatenate([[1.0], rng.uniform(0.05, 1.5, n + S)])
        pm = partial_matrix_from_factor(z, n=n)
        problem = CompletionProblem.from_partial_matrix(pm)
        comp = complete_numeric(problem).completion
        assert comp is not None
        assert np.abs(comp.full.array - np.outer(z, z)).max() <= 1e-9
        cert = certify_completable(problem)
        assert cert.verdict == CERTIFIED
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(4, elapsed, "100 rank-one instances reproduced and certified")


def test_criterion_5_relaxation_sandwich():
    start = time.time()
    rng = np.random.default_rng(1)
    proven = 0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 5))
        Q = rng.standard_normal((n, n))
        A = 0.5 * (Q + Q.T)
        a = rng.standard_normal(n)
        F = rng.uniform(0.2, 1.5, (m, n))
        d = rng.uniform(0.5, 2.0, m)
        qp = QPInstance.build(A, a, F, d)
        rep = exactness_report(qp)
        ref, _ = qp_global_minimum(A, a, F, d, range(n))
        assert rep.lower <= ref + 1e-4
        if rep.upper is not None:
            assert ref <= rep.upper + 1e-4
        if rep.overall == PROVEN_EXACT:
            proven += 1
            assert rep.lower == pytest.approx(ref, abs=1e-4)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(5, elapsed, f"50 instances sandwiched; {proven} proven exact")


def test_criterion_6_solver_correctness(qp_two_constraints, pm_completable):
    start = time.time()
    # Fixture corpus: the QP relaxation, a completion feasibility program,
    # the triangle LP and a handful of random relaxations.
    corpus = [build_sparse_relaxation(qp_two_constraints), triangle_lp()]
    problem = CompletionProblem.from_partial_matrix(pm_completable)
    rng = np.random.default_rng(2)
    for _ in range(4):
        n, m = 2, int(rng.integers(1, 4))
        Q = rng.standard_normal((n, n))
        qp = QPInstance.build(
            0.5 * (Q + Q.T),
            rng.standard_normal(n),
            rng.uniform(0.2, 1.5, (m, n)),
            rng.uniform(0.5, 2.0, m),
        )
        corpus.append(build_sparse_relaxation(qp))
    optimal = 0
    for prog in corpus:
        res = solve(prog)
        if res.status == OPTIMAL:
            optimal += 1
            out = kkt_residuals(prog, res.block)
            assert out["equality"] <= 1e-6
            assert out["cone"] <= 1e-6
    assert optimal == len(corpus)

    matched = 0
    for _ in range(100):
        lp = random_bounded_lp(
            rng, nvars=int(rng.integers(2, 4)), ncons=int(rng.integers(1, 6))
        )
        res = solve(diagonal_lp(*lp))
        ref = solve_lp_by_enumeration(*lp)
        assert res.status == OPTIMAL and ref is not None
        assert abs(res.objective - ref) <= 1e-6
        matched += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(6, elapsed, f"{optimal} corpus programs verified; {matched} LPs matched")


def test_criterion_7_cone_laws():
    start = time.time()
    rng = np.random.default_rng(3)
    for k in (orthant(2), free(1), zero(3), product(orthant(1), free(2), zero(1))):
        assert dual_cone(dual_cone(k)) == k

    agreements = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            B = rng.uniform(0.0, 1.0, (n, int(rng.integers(1, n + 2))))
            m = B @ B.T
        else:
            m = rng.standard_normal((n, n))
            m = m + m.T
        assert is_cp(m).is_member == is_dnn(m)
        agreements += 1

    for _ in range(100):
        n = int(rng.integers(2, 7))
        B = rng.uniform(0.0, 1.0, (n, n + 2))
        M = B @ B.T
        k = int(rng.integers(1, n + 1))
        idx = rng.choice(n, size=k, replace=False)
        sub = M[np.ix_(idx, idx)]
        assert is_dnn(SymMatrix(0.5 * (sub + sub.T)))

    for _ in range(1000):
        nx, ny = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        kpts = int(rng.integers(1, 4))
        pts = [
            np.concatenate([[1.0], rng.uniform(0.0, 1.0, nx + ny)])
            for _ in range(kpts)
        ]
        weights = rng.dirichlet(np.ones(kpts))
        M = sum(w * np.outer(z, z) for w, z in zip(weights, pts))
        a = rng.standard_normal(nx)
        b = rng.standard_normal(ny)
        r = rng.standard_normal()
        pair, aggregate = lemma_equivalence_check(SymMatrix(M), a, b, r, nx=nx)
        assert pair == aggregate
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(7, elapsed, f"{agreements} CP/DNN agreements; 1000 equivalence samples")


def test_criterion_8_condition_checker_soundness():
    start = time.time()
    rng = np.random.default_rng(4)
    certified = 0
    hyperplane_refs = 0
    for trial in range(100):
        nx = int(rng.integers(1, 4))
        S = int(rng.integers(1, 4))
        f = [rng.uniform(-1.0, 2.0, nx) for _ in range(S)]
        g = [np.atleast_1d(rng.uniform(0.1, 2.0)) for _ in range(S)]
        d = [float(rng.uniform(0.2, 2.0)) for _ in range(S)]
        if trial % 2 == 0:
            f0, d0 = np.zeros(nx), 0.0
        else:
            # a shared equality constraint, so the reference can be index 0
            f0, d0 = rng.uniform(0.5, 2.0, nx), 1.0
        data = ConstraintData.build(
            orthant(nx), [orthant(1)] * S, [f0] + f, g, [d0] + d
        )
        cert, _ = check_cond_iii(data)
        if cert is None:
            continue
        certified += 1
        i_star, _ = cert
        if i_star == 0:
            hyperplane_refs += 1
        pts = sample_projection_points(data, i_star, 10000, rng)
        assert pts.shape[0] >= 5000
        # vectorized containment: every point must satisfy every projection
        assert pts.min() >= -1e-9
        if np.any(data.f[0]):
            vals0 = pts @ data.f[0]
            assert np.abs(vals0 - data.d[0]).max() <= 1e-7 * max(1.0, abs(data.d[0]))
        for i in range(1, S + 1):
            vals = pts @ data.f[i]
            assert vals.max() <= data.d[i] + 1e-7 * max(1.0, abs(data.d[i]))
    assert certified >= 20
    assert hyperplane_refs >= 3
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(
        8,
        elapsed,
        f"{certified} certificates sampled with no violation "
        f"({hyperplane_refs} with a shared-constraint reference)",
    )
