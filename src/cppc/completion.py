"""Completability certification and completion construction for width-one
arrowhead partial matrices.

A width-one arrowhead partial matrix whose northwest corner is one (after
rescaling) is read as blocks ``M_i = [[1, x^T, y_i], [x, X, z_i],
[y_i, z_i^T, Y_i]]``.  Certification checks, for supplied or searched data
``(f_i, g_i, d_i)``: the two linear equations per block, complete positivity
of every block, and the three sufficient conditions from
:mod:`cppc.conditions`.  Certified instances are guaranteed completable; a
missing certificate proves nothing, and the numeric and brute-force
completion routines are available independently of certification.

The numeric completion first decides in closed form.  With
``C = [[1, x^T], [x, X]]`` the shared block, ``a_i = (y_i, z_i)`` the arm's
column against it and ``s_i = Y_i - a_i^T C^+ a_i`` its Schur complement,
every PSD completion puts the entry of arms ``i, j`` in
``a_i^T C^+ a_j +- sqrt(s_i s_j)`` (Grone, Johnson, Sa, Wolkowicz, LAA
1984).  The centre of every interval at once is the max-determinant
completion (Dempster 1972), which is PSD whenever the blocks are; an
interval entirely below zero proves that no doubly nonnegative, and so no
completely positive, completion exists.  Only inputs neither outcome
settles reach the conic solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cones
from .conditions import (
    BOUNDED,
    ConditionReport,
    ConstraintData,
    build_condition_report,
)
from .conic_solver import (
    OPTIMAL,
    ConicProgram,
    SolveOptions,
    _entry_functional,
    solve,
)
from .cones import GroundCone, MembershipVerdict, is_dnn, orthant
from .matrix_core import (
    Completion,
    PartialMatrix,
    SymMatrix,
    assemble_completion,
    extract_block,
)
# perfbench/tracer.py wraps the routine under this name.
from .matrix_core import sym_eigh as jacobi_eigh

CERTIFIED = "Certified"
NO_CERTIFICATE = "NoCertificate"


@dataclass
class CompletionProblem:
    """A width-one arrowhead partial matrix normalized to unit northwest
    corner, with the ground cone of the shared part."""

    pm: PartialMatrix
    K: GroundCone
    data: Optional[ConstraintData]
    scale: float
    original: PartialMatrix

    @staticmethod
    def from_partial_matrix(pm: PartialMatrix, K: Optional[GroundCone] = None,
                            data: Optional[ConstraintData] = None) -> "CompletionProblem":
        if pm.pattern.n2 != 1:
            raise ValueError(f"width must be one, got n2={pm.pattern.n2}")
        if pm.pattern.n1 < 2:
            raise ValueError("the shared block must contain the unit row plus "
                             "at least one coordinate")
        corner = float(pm.X[0, 0])
        first_row = np.concatenate(
            [pm.X.array[0, 1:]] + [z[:, 0] for z in pm.Z]
        )
        if corner <= 0.0:
            if np.any(first_row):
                raise ValueError(
                    "nonpositive northwest corner with a nonzero first row; "
                    "no rescaling to unit corner exists"
                )
            raise ValueError("zero northwest corner is outside the certifiable range")
        scaled = pm.scaled(1.0 / corner) if corner != 1.0 else pm
        n = pm.pattern.n1 - 1
        if K is None:
            K = orthant(n)
        if K.dim != n:
            raise ValueError(f"ground cone has dim {K.dim}, shared part has dim {n}")
        return CompletionProblem(scaled, K, data, corner, pm)

    @property
    def n(self) -> int:
        return self.pm.pattern.n1 - 1

    @property
    def S(self) -> int:
        return self.pm.pattern.S

    def block_parts(self, i: int):
        """Pieces ``(x, X, y_i, z_i, Y_i)`` of arm ``i`` (1-based), scaled."""
        X_full = self.pm.X.array
        x = X_full[0, 1:]
        X = X_full[1:, 1:]
        z_row = self.pm.Z[i - 1][0]
        y = float(z_row[0])
        z = z_row[1:]
        Y = float(self.pm.Y[i - 1][0, 0])
        return x, X, y, z, Y


@dataclass
class CompletabilityCertificate:
    """Self-contained evidence for (or absence of) a completability proof."""

    verdict: str
    data: Optional[ConstraintData]
    block_residuals: list
    f0_residuals: tuple
    block_verdicts: list
    report: Optional[ConditionReport]
    reasons: list = field(default_factory=list)
    tol: float = 1e-8

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED


@dataclass
class NoCompletionCertificate:
    """Proof that no doubly nonnegative completion exists.

    ``u`` spans the full matrix.  On the arm rows it is zero except at the
    rows ``a, b`` of ``arms`` (1-based), where ``u_a u_b <= 0``.  Then
    ``Y = u u^T - u_a u_b (E_ab + E_ba)`` is PSD plus nonnegative and zero on
    every unspecified entry, so ``<Y, M> = u^T M_zf u`` for every completion
    ``M`` and this is nonnegative when ``M`` is doubly nonnegative.  ``value``
    is ``u^T M_zf u < 0`` on the unit-corner zero-filled matrix
    (``problem.scale`` times it on the original); ``max|u| = 1``.
    """

    arms: tuple
    u: np.ndarray
    value: float


@dataclass
class NumericCompletionResult:
    """Outcome of :func:`complete_numeric`: a rechecked completion, a
    certificate that none exists, or neither (inconclusive)."""

    completion: Optional[Completion]
    cp_verdict: Optional[MembershipVerdict]
    diagnostics: str = ""
    no_completion_certificate: Optional[NoCompletionCertificate] = None


@dataclass
class OracleResult:
    """Outcome of the grid-search completion oracle."""

    completion: Optional[Completion]
    best_min_eigenvalue: float
    entries: list


def verify_block_constraints(pm: PartialMatrix, data: ConstraintData, tol: float = 1e-8):
    """Residuals of the two coupling equations per arm plus the shared pair.

    Returns ``(per_arm, f0_pair)`` where ``per_arm[i] = (linear, quadratic)``
    residuals of arm ``i+1`` and ``f0_pair`` is the same for the shared
    constraint.
    """
    problem = CompletionProblem.from_partial_matrix(pm)
    return _block_residuals(problem, data)


def _block_residuals(problem: CompletionProblem, data: ConstraintData):
    per_arm = []
    for i in range(1, problem.S + 1):
        x, X, y, z, Y = problem.block_parts(i)
        f = data.f[i]
        g = float(data.g[i - 1][0])
        d = data.d[i]
        lin = float(f @ x + g * y - d)
        quad = float(f @ X @ f + 2.0 * g * (f @ z) + g * g * Y - d * d)
        per_arm.append((lin, quad))
    f0 = data.f[0]
    d0 = data.d[0]
    x, X, *_ = problem.block_parts(1)
    f0_pair = (float(f0 @ x - d0), float(f0 @ X @ f0 - d0 * d0))
    return per_arm, f0_pair


@dataclass
class FindDataOptions:
    tol: float = 1e-8
    rank_one_tol: float = 1e-7
    grid_points: int = 24
    starts: int = 12
    seed: int = 0
    candidate_cap: int = 4


def certify_completable(problem: CompletionProblem,
                        opts: Optional[FindDataOptions] = None) -> CompletabilityCertificate:
    """Run the full sufficient-condition pipeline.

    Certified iff: both coupling equations hold for every block (within
    ``opts.tol``), every block is verified completely positive, and the
    interior, boundedness and projection-containment conditions all pass on
    the data.  Every failure is recorded; none of them disproves
    completability.
    """
    opts = opts or FindDataOptions()
    reasons = []
    data = problem.data
    if data is None:
        data = find_data(problem, opts)
        if data is None:
            return CompletabilityCertificate(
                NO_CERTIFICATE, None, [], (0.0, 0.0), [], None,
                reasons=["no admissible data (f_i, g_i, d_i) found"],
                tol=opts.tol,
            )

    per_arm, f0_pair = _block_residuals(problem, data)
    worst = max(
        max(abs(lin) for lin, _ in per_arm),
        max(abs(quad) for _, quad in per_arm),
        abs(f0_pair[0]),
        abs(f0_pair[1]),
    )
    if worst > opts.tol:
        reasons.append(f"block equations violated (worst residual {worst:.3g})")

    if not problem.K.is_orthant_like():
        reasons.append(
            "complete positivity verification implemented for orthant ground "
            "cones only"
        )
        block_verdicts = []
    else:
        block_verdicts = [
            cones.is_cp(extract_block(problem.pm, i)) for i in range(1, problem.S + 1)
        ]
        for i, verdict in enumerate(block_verdicts, start=1):
            if not verdict.is_member:
                reasons.append(f"block {i} not verified completely positive "
                               f"({verdict.verdict}: {verdict.detail})")

    report = build_condition_report(data)
    if not all(report.cond_i):
        reasons.append("interior condition fails for some arm coefficient")
    if report.boundedness.status != BOUNDED:
        reasons.append(f"boundedness not established ({report.boundedness.reason})")
    if report.cond_iii is None:
        reasons.append(f"no projection-containment certificate ({report.cond_iii_reason})")

    verdict = CERTIFIED if not reasons else NO_CERTIFICATE
    return CompletabilityCertificate(
        verdict, data, per_arm, f0_pair, block_verdicts, report, reasons, opts.tol
    )


# -- data search -------------------------------------------------------------

def find_data(problem: CompletionProblem,
              opts: Optional[FindDataOptions] = None) -> Optional[ConstraintData]:
    """Search for data ``(f_i, g_i, d_i)`` satisfying both block equations
    with positive arm coefficients, such that the condition checks pass.

    Three routes, in order: the exact rank-one construction when every block
    has numerical rank one; exact per-arm elimination for shared parts of
    dimension at most two; a seeded multi-start least-squares heuristic.
    Returned data always re-verifies; failure is inconclusive.
    """
    opts = opts or FindDataOptions()
    data = _find_data_rank_one(problem, opts)
    if data is not None:
        return data
    if problem.n <= 2:
        data, _ = find_data_exact_small(problem, opts)
    else:
        data = _find_data_heuristic(problem, opts)
    return data


def _rank_one_factors(problem: CompletionProblem, tol: float):
    """Per-block unit-corner factors when every block has numerical rank one."""
    factors = []
    for i in range(1, problem.S + 1):
        block = extract_block(problem.pm, i)
        w, vecs = jacobi_eigh(block)
        if w[-1] <= 0.0 or (block.order > 1 and abs(w[-2]) > tol * w[-1]):
            return None
        v = vecs[:, -1] * np.sqrt(w[-1])
        if v[0] < 0.0:
            v = -v
        factors.append(v)
    return factors


def _find_data_rank_one(problem: CompletionProblem, opts: FindDataOptions):
    factors = _rank_one_factors(problem, opts.rank_one_tol)
    if factors is None:
        return None
    # Interior reference functional; only exists for orthant-like cones.
    kinds = problem.K.coordinate_kinds()
    fref = np.array([1.0 if kind == cones.ORTHANT else 0.0 for kind in kinds])
    if not np.all(kinds == cones.ORTHANT):
        return None
    gref = 1.0
    f_list, g_list, d_list = [], [], []
    for v in factors:
        x_part = v[1 : 1 + problem.n]
        y_part = float(v[-1])
        denom = float(fref @ x_part + gref * y_part)
        if denom <= opts.tol:
            return None
        f_list.append(fref / denom)
        g_list.append(gref / denom)
        d_list.append(1.0)
    data = ConstraintData.width_one(problem.K, f_list, g_list, d_list)
    return data if _data_admissible(problem, data, opts) else None


def _data_admissible(problem: CompletionProblem, data: ConstraintData,
                     opts: FindDataOptions) -> bool:
    per_arm, f0_pair = _block_residuals(problem, data)
    worst = max(
        max(abs(r) for pair in per_arm for r in pair),
        abs(f0_pair[0]),
        abs(f0_pair[1]),
    )
    if worst > opts.tol:
        return False
    if any(float(g[0]) <= 0.0 for g in data.g):
        return False
    report = build_condition_report(data)
    return report.all_passed


def _arm_candidates_1d(problem: CompletionProblem, i: int, opts: FindDataOptions):
    """Exact per-arm (f, g, d) solutions for a one-dimensional shared part.

    Eliminating ``f`` through the linear equation turns the quadratic one
    into a quadratic in ``g``; real roots with ``g > 0`` survive.  Also
    returns the roots for diagnostics.
    """
    x, X, y, z, Y = problem.block_parts(i)
    xv, Xv, zv = float(x[0]), float(X[0, 0]), float(z[0])
    candidates = []
    roots = []
    for d in (1.0, -1.0, 0.0):
        if abs(xv) > 1e-12:
            pcoef = -y / xv
            qcoef = d / xv
            # f = qcoef + pcoef * g
            a2 = Xv * pcoef * pcoef + 2.0 * zv * pcoef + Y
            a1 = 2.0 * Xv * pcoef * qcoef + 2.0 * zv * qcoef
            a0 = Xv * qcoef * qcoef - d * d
            for g in _real_roots(a2, a1, a0):
                roots.append((d, g))
                if g > opts.tol:
                    candidates.append((np.array([qcoef + pcoef * g]), g, d))
        else:
            # Linear equation reduces to g * y = d.
            if abs(y) > 1e-12:
                g = d / y
                roots.append((d, g))
                if g > opts.tol:
                    # Quadratic: X f^2 + 2 g z f + g^2 Y = d^2 in f.
                    for f in _real_roots(Xv, 2.0 * g * zv, g * g * Y - d * d):
                        candidates.append((np.array([f]), g, d))
    return candidates, roots


def _real_roots(a2: float, a1: float, a0: float):
    if abs(a2) < 1e-14:
        if abs(a1) < 1e-14:
            return []
        return [-a0 / a1]
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        return []
    sq = float(np.sqrt(disc))
    return [(-a1 - sq) / (2.0 * a2), (-a1 + sq) / (2.0 * a2)]


def _arm_candidates_2d(problem: CompletionProblem, i: int, opts: FindDataOptions):
    """Sampled per-arm solutions for a two-dimensional shared part.

    The linear equation leaves one degree of freedom in ``f``; for a grid of
    values along it the quadratic equation becomes a quadratic in ``g``.
    """
    x, X, y, z, Y = problem.block_parts(i)
    nrm = float(x @ x)
    candidates = []
    if nrm < 1e-14:
        return candidates
    perp = np.array([-x[1], x[0]])
    for d in (1.0, 0.0):
        for t in np.linspace(-3.0, 3.0, opts.grid_points):
            # f(g) = (d - g*y)/|x|^2 * x + t * perp
            base = x / nrm
            f0 = d * base + t * perp
            f1 = -y * base
            # quadratic in g: (f0+g f1) X (f0+g f1) + 2 g z.(f0+g f1) + g^2 Y = d^2
            a2 = float(f1 @ X @ f1 + 2.0 * z @ f1 + Y)
            a1 = float(2.0 * f0 @ X @ f1 + 2.0 * z @ f0)
            a0 = float(f0 @ X @ f0 - d * d)
            for g in _real_roots(a2, a1, a0):
                if g > opts.tol:
                    candidates.append((f0 + g * f1, g, d))
    return candidates


def find_data_exact_small(problem: CompletionProblem, opts: Optional[FindDataOptions] = None):
    """Elimination-based search for shared parts of dimension at most two.

    Returns ``(data or None, diagnostics)`` where diagnostics hold, per arm,
    the candidate count and the root list (the roots show e.g. that an arm
    admits only negative coefficients).
    """
    opts = opts or FindDataOptions()
    if problem.n > 2:
        raise ValueError("exact elimination is limited to shared dimension <= 2")
    per_arm = []
    diagnostics = []
    for i in range(1, problem.S + 1):
        if problem.n == 1:
            cands, roots = _arm_candidates_1d(problem, i, opts)
        else:
            cands, roots = _arm_candidates_2d(problem, i, opts), []
        diagnostics.append({"arm": i, "candidates": len(cands), "roots": roots})
        if not cands:
            return None, diagnostics
        per_arm.append(cands[: opts.candidate_cap])

    for combo in itertools.product(*per_arm):
        f = [fc for fc, _, _ in combo]
        g = [gc for _, gc, _ in combo]
        d = [dc for _, _, dc in combo]
        data = ConstraintData.width_one(problem.K, f, g, d)
        if _data_admissible(problem, data, opts):
            return data, diagnostics
    return None, diagnostics


def _find_data_heuristic(problem: CompletionProblem, opts: FindDataOptions):
    """Seeded multi-start least squares on the per-arm equations with a
    positivity barrier on ``g``; any hit is re-verified before acceptance."""
    rng = np.random.default_rng(opts.seed)
    n = problem.n
    kinds = problem.K.coordinate_kinds()
    # Positivity applies to g always and to the orthant coordinates of f, so
    # the solutions stay in the regime where the boundedness test can fire.
    positive = np.array([kinds[j] == cones.ORTHANT for j in range(n)] + [True])

    def in_barrier(p):
        return bool(np.all(p[positive] > 1e-6))

    per_arm = []
    for i in range(1, problem.S + 1):
        x, X, y, z, Y = problem.block_parts(i)

        def residual(p, x=x, X=X, y=y, z=z, Y=Y):
            f, g = p[:n], p[n]
            return np.array(
                [
                    f @ x + g * y - 1.0,
                    f @ X @ f + 2.0 * g * (f @ z) + g * g * Y - 1.0,
                ]
            )

        def jacobian(p, x=x, X=X, y=y, z=z, Y=Y):
            f, g = p[:n], p[n]
            return np.array(
                [
                    np.concatenate([x, [y]]),
                    np.concatenate(
                        [2.0 * (X @ f + g * z), [2.0 * (f @ z + g * Y)]]
                    ),
                ]
            )

        found = []
        for _ in range(opts.starts):
            p = np.concatenate([rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, 1)])
            for _it in range(120):
                r = residual(p)
                if np.abs(r).max() < 1e-12:
                    break
                # Rank-deficient systems (e.g. rank-one blocks make the two
                # rows parallel) need the truncation to keep steps sane.
                step, *_ = np.linalg.lstsq(jacobian(p), -r, rcond=1e-8)
                alpha = 1.0
                base = float(np.abs(r).max())
                while alpha > 1e-8:
                    q = p + alpha * step
                    if in_barrier(q) and float(np.abs(residual(q)).max()) < base:
                        p = q
                        break
                    alpha *= 0.5
                else:
                    break
            if np.abs(residual(p)).max() < 1e-10 and in_barrier(p):
                found.append((p[:n].copy(), float(p[n]), 1.0))
                if len(found) >= opts.candidate_cap:
                    break
        if not found:
            return None
        per_arm.append(found)
    for combo in itertools.product(*per_arm):
        data = ConstraintData.width_one(
            problem.K,
            [fc for fc, _, _ in combo],
            [gc for _, gc, _ in combo],
            [dc for _, _, dc in combo],
        )
        if _data_admissible(problem, data, opts):
            return data
    return None


# -- completion construction -------------------------------------------------

#: Relative size at or below which an eigenvalue of the shared block (against
#: the largest) or an arm's Schur complement (against max(1, Y_i)) is zero.
_ZERO_RTOL = 1e-12
#: A proof of none must reach ``u^T M_zf u < -_PROOF_TOL * max(1, ||M_zf||_F)``
#: with ``max|u| = 1``, far beyond the rounding of the quadratic form.
_PROOF_TOL = 1e-9


def complete_numeric(problem: CompletionProblem,
                     solver_opts: Optional[SolveOptions] = None) -> NumericCompletionResult:
    """Find a doubly nonnegative completion or prove that none exists.

    Three outcomes, tried in order:

    1. a proof of none, when the closed-form interval of some arm pair lies
       below zero; it is returned only after ``u^T M_zf u`` is recomputed
       from the specified entries (:class:`NoCompletionCertificate`);
    2. the max-determinant completion, returned only after the same
       doubly nonnegative, agreement and CP rechecks as a solver point;
    3. otherwise a feasibility program over the full matrix with the
       specified entries pinned, handed to the conic solver.

    "Inconclusive" means undecided by the closed form and the solver; it
    never claims non-completability.
    """
    decided = _closed_form(problem)
    if decided is not None:
        return decided
    pm = problem.pm
    total = pm.pattern.total_order
    kinds = problem.K.coordinate_kinds()
    nn = np.array(
        [True] + [kind == cones.ORTHANT for kind in kinds] + [True] * problem.S
    )
    mask = np.outer(nn, nn)
    prog = ConicProgram()
    bidx = prog.add_block(total, psd=True, nonneg=True, nonneg_mask=mask, name="full")
    spec_mask = pm.specified_mask()
    zf = pm.zero_filled().array
    for r in range(total):
        for c in range(r, total):
            if not spec_mask[r, c]:
                continue
            prog.add_equality(
                float(zf[r, c]), blocks={bidx: _entry_functional(total, r, c)}
            )
    opts = solver_opts or SolveOptions(tol_primal=1e-8)
    res = solve(prog, opts)
    if res.status != OPTIMAL:
        return NumericCompletionResult(
            None, None, f"solver did not converge ({res.status}: {res.diagnostics}); "
            "inconclusive"
        )
    full_scaled = 0.5 * (res.block_values[0] + res.block_values[0].T)
    # Snap the specified entries exactly, then rescale back.
    full_scaled[spec_mask] = zf[spec_mask]
    checked = _rechecked(problem, full_scaled * problem.scale, "")
    if checked is None:
        return NumericCompletionResult(
            None, None, "solver point failed the doubly nonnegative recheck"
        )
    return checked


def _rechecked(problem: CompletionProblem, full: np.ndarray,
               diagnostics: str) -> Optional[NumericCompletionResult]:
    """The completion ``full`` (original scale) with its CP verdict, or None
    when it is not doubly nonnegative."""
    if not is_dnn(full, tol=1e-6):
        return None
    completion = Completion(SymMatrix(full), problem.original, agreement_tol=1e-7)
    cp = cones.is_cp(SymMatrix(full), tol=1e-6) if problem.K.is_orthant_like() else None
    return NumericCompletionResult(completion, cp, diagnostics)


def _closed_form(problem: CompletionProblem) -> Optional[NumericCompletionResult]:
    """Outcomes 1 and 2 of :func:`complete_numeric`, or None when undecided."""
    n1 = problem.pm.pattern.n1
    zf = problem.pm.zero_filled().array
    A = zf[n1:, :n1]
    w, V = jacobi_eigh(zf[:n1, :n1])
    keep = w > _ZERO_RTOL * w[-1]
    Cplus = (V[:, keep] / w[keep]) @ V[:, keep].T
    # P[i, j] = a_i^T C^+ a_j, the centre of every pair's interval.
    P = A @ Cplus @ A.T
    P = 0.5 * (P + P.T)
    Y = np.diag(zf)[n1:]
    s = Y - np.diag(P)
    root = np.sqrt(np.maximum(s, 0.0))
    upper = P + np.outer(root, root)
    np.fill_diagonal(upper, np.inf)
    i, j = np.unravel_index(np.argmin(upper), upper.shape)
    if upper[i, j] < 0.0:
        # Weights (alpha, beta) that make alpha^2 s_i + beta^2 s_j + 2 alpha beta p < 0.
        p = P[i, j]
        zero = s <= _ZERO_RTOL * np.maximum(1.0, Y)
        if zero[i] and zero[j]:
            alpha, beta = 1.0, 1.0
        elif zero[i]:
            alpha, beta = 1.0, -p / s[j]
        elif zero[j]:
            alpha, beta = -p / s[i], 1.0
        else:
            alpha, beta = root[j], root[i]
        cert = _proof_of_none(zf, Cplus, int(i), int(j), alpha, beta)
        if cert is not None:
            return NumericCompletionResult(
                None, None,
                f"no doubly nonnegative completion: the entry of arms {i + 1} "
                f"and {j + 1} lies below zero (u^T M_zf u = {cert.value:.6g})",
                no_completion_certificate=cert,
            )
    full = problem.original.zero_filled().array.copy()
    off = ~np.eye(problem.S, dtype=bool)
    full[n1:, n1:][off] = problem.scale * P[off]
    return _rechecked(problem, full, "closed-form max-determinant completion")


def _proof_of_none(zf: np.ndarray, Cplus: np.ndarray, i: int, j: int,
                   alpha: float, beta: float) -> Optional[NoCompletionCertificate]:
    """The certificate ``u = (-C^+(alpha a_i - beta a_j), alpha at arm i,
    -beta at arm j)`` for arms ``i < j`` (0-based), for which
    ``u^T M_zf u = alpha^2 s_i + beta^2 s_j + 2 alpha beta a_i^T C^+ a_j``;
    None unless that value, recomputed from ``zf``, clears the tolerance."""
    n1 = Cplus.shape[0]
    u = np.zeros(zf.shape[0])
    u[:n1] = -Cplus @ (alpha * zf[n1 + i, :n1] - beta * zf[n1 + j, :n1])
    u[n1 + i] = alpha
    u[n1 + j] = -beta
    u /= np.abs(u).max()
    value = float(u @ zf @ u)
    if not value < -_PROOF_TOL * max(1.0, float(np.linalg.norm(zf))):
        return None
    return NoCompletionCertificate((i + 1, j + 1), u, value)


def complete_rank_one(problem: CompletionProblem, tol: float = 1e-8) -> Optional[Completion]:
    """Exact completion for instances whose blocks all have rank one.

    The shared part of each block factor must agree (the sign ambiguity is
    settled by the unit corner), and the completion is the outer product of
    the combined factor.  Returns None when any block has rank above one.
    """
    factors = _rank_one_factors(problem, tol)
    if factors is None:
        return None
    x = factors[0][1 : 1 + problem.n]
    for v in factors[1:]:
        if np.abs(v[1 : 1 + problem.n] - x).max() > 1e-7:
            return None
    zvec = np.concatenate([[1.0], x, [v[-1] for v in factors]])
    full = np.outer(zvec, zvec) * problem.scale
    completion = Completion(SymMatrix(full), problem.original, agreement_tol=1e-7)
    return completion


def brute_force_completion_oracle(pm: PartialMatrix, grid_steps: int = 33,
                                  refine_iters: int = 30) -> OracleResult:
    """Grid search plus zooming refinement over the unspecified entries,
    maximizing the smallest eigenvalue of the completed matrix.

    Entries range over ``[0, sqrt(M_ii M_jj)]``, the interval every doubly
    nonnegative completion must respect.  Succeeds when the maximized
    smallest eigenvalue clears ``-1e-9``.
    """
    S = pm.pattern.S
    n2 = pm.pattern.n2
    if n2 != 1:
        raise ValueError("oracle requires width one")
    pairs = [(i, j) for i in range(1, S + 1) for j in range(i + 1, S + 1)]
    if len(pairs) > 3:
        raise ValueError(f"too many unspecified entries ({len(pairs)} > 3)")
    base = pm.zero_filled().array
    diag = np.diag(base)
    spans = []
    for (i, j) in pairs:
        ri = pm.pattern.arm_slice(i).start
        rj = pm.pattern.arm_slice(j).start
        spans.append((ri, rj, float(np.sqrt(max(diag[ri] * diag[rj], 0.0)))))
    if not pairs:
        w = np.linalg.eigvalsh(base)
        comp = None
        if w[0] >= -1e-9 and base.min() >= -1e-12:
            comp = assemble_completion(pm, [])
        return OracleResult(comp, float(w[0]), [])

    def min_eig(entries):
        m = base.copy()
        for (ri, rj, _), val in zip(spans, entries):
            m[ri, rj] = m[rj, ri] = val
        return float(np.linalg.eigvalsh(m)[0])

    centers = np.array([0.5 * hi for (_, _, hi) in spans])
    radii = np.array([0.5 * hi for (_, _, hi) in spans])
    best_val = -np.inf
    best = centers.copy()
    steps = max(grid_steps, 3)
    for _ in range(refine_iters):
        axes = [
            np.linspace(ci - ri, ci + ri, steps) for ci, ri in zip(centers, radii)
        ]
        axes = [np.clip(ax, 0.0, hi) for ax, (_, _, hi) in zip(axes, spans)]
        for point in itertools.product(*axes):
            val = min_eig(point)
            if val > best_val:
                best_val = val
                best = np.array(point)
        centers = best.copy()
        radii = radii * 0.5
        steps = 9
    entries = [float(v) for v in best]
    if best_val >= -1e-9:
        blocks = [np.array([[v]]) for v in entries]
        comp = assemble_completion(pm, blocks)
        return OracleResult(comp, best_val, entries)
    return OracleResult(None, best_val, entries)
