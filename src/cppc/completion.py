"""Completability certification and completion construction for width-one
arrowhead partial matrices.

A width-one arrowhead partial matrix whose northwest corner is one (after
rescaling) is read as blocks ``M_i = [[1, x^T, y_i], [x, X, z_i],
[y_i, z_i^T, Y_i]]``.  Certification checks, for supplied data
``(f_i, g_i, d_i)`` or data read off the block kernels (:func:`find_data`):
the two coupling equations per block, complete positivity of every block,
and the three sufficient conditions from :mod:`cppc.conditions`.  Certified
instances are guaranteed completable; a missing certificate proves nothing,
and the numeric completion routine (and the grid search in
:mod:`cppc.oracles`) is available independently of certification.

Both coupling equations of a PSD block hold exactly when
``(-d_i, f_i, g_i)`` lies in its kernel, so the data is read off the
kernels by three exact rules: every block of rank one, every kernel a line
(forced data), else one LP per reference arm.  A ground cone with a free
coordinate gets no data: with ``f_0 = 0`` the containment condition makes
the region one arm's half-space, never bounded over a free coordinate.

With ``C = [[1, x^T], [x, X]]`` the shared block, ``a_i = (y_i, z_i)`` the
arm's column against it and ``s_i = Y_i - a_i^T C^+ a_i`` its Schur
complement, every PSD completion puts the entry of arms ``i, j`` in
``a_i^T C^+ a_j +- sqrt(s_i s_j)`` (Grone, Johnson, Sa, Wolkowicz, LAA
1984).  The centre of every interval at once is the max-determinant
completion (Dempster 1972), which is PSD whenever the blocks are; with two
arms every value of the one interval is a PSD completion, so a negative
centre is replaced by 0.

Every block is a principal submatrix of that completion, and every
principal submatrix of a completely positive matrix is completely positive
(Berman, Shaked-Monderer 2003).  So certification hands the completion and
the rows of each block to :func:`cones.principal_cp`, which decides every
CP verdict from one nonnegative factor (Groetzner, Duer, LAA 2020); this
module only says which matrix is completed and which rows form which
block.  When the block equations hold, every
``M_i k_i = 0`` with ``g_i > 0`` puts the arm columns in the range of ``C``,
so every ``s_i`` is 0 and the completion is the only PSD one: its verdict
(``CompletabilityCertificate.completion_cp``) then decides completability,
where the paper's conditions are only sufficient.

The numeric completion first decides in closed form: an interval entirely
below zero proves that no doubly nonnegative, and so no completely positive,
completion exists; otherwise the max-determinant completion is rechecked.
Only inputs neither outcome settles reach the conic solver, which proves
none as well when a specified entry that must be nonnegative is negative.

A :class:`CompletionProblem` gathers every arm's block into one stack once,
on which the block equations, the block spectra and the block CP checks each
take one call.  It builds its max-determinant completion once and remembers
the nonnegative factor certification found for it, which the numeric
completion re-checks before it searches.  So certification followed by the
numeric completion of the same problem pays for one completion and one
factor search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import cones, lp
from .conditions import (
    BOUNDED,
    ConditionReport,
    ConstraintData,
    build_condition_report,
)
from .conic_solver import (
    INFEASIBLE,
    OPTIMAL,
    ConicProgram,
    SolveOptions,
    solve,
)
from .cones import GroundCone, MembershipVerdict, orthant
from .matrix_core import Completion, PartialMatrix, SymMatrix
# perfbench/tracer.py wraps the routine under this name.
from .matrix_core import sym_eigh as jacobi_eigh

CERTIFIED = "Certified"
NO_CERTIFICATE = "NoCertificate"


@dataclass
class CompletionProblem:
    """A width-one arrowhead partial matrix normalized to unit northwest
    corner, with the ground cone of the shared part.

    The problem remembers its max-determinant completion and the
    nonnegative factor :func:`certify_completable` found for it
    (``_max_det``), so that certification followed by
    :func:`complete_numeric` on the same problem builds one completion and
    runs one factor search.  Change no entry of ``pm`` or ``original``
    after the first call: the remembered completion and blocks would not
    follow.
    """

    pm: PartialMatrix
    K: GroundCone
    data: Optional[ConstraintData]
    scale: float
    original: PartialMatrix

    @staticmethod
    def from_partial_matrix(pm: PartialMatrix, K: Optional[GroundCone] = None,
                            data: Optional[ConstraintData] = None) -> "CompletionProblem":
        if pm.pattern.n1 < 2:
            raise ValueError("the shared block must contain the unit row plus "
                             "at least one coordinate")
        corner = float(pm.X[0, 0])
        first_row = pm.zero_filled().array[0, 1:]
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

    @cached_property
    def block_rows(self) -> np.ndarray:
        """Row ``i`` lists the rows ``(0, ..., n1 - 1, n1 + i)`` of arm ``i + 1``."""
        n1 = self.pm.pattern.n1
        return np.column_stack([np.tile(np.arange(n1), (self.S, 1)), n1 + np.arange(self.S)])

    @property
    def zero_filled(self) -> np.ndarray:
        """The unit-corner zero-filled matrix, read-only: ``pm``'s own."""
        return self.pm.zero_filled().array

    @cached_property
    def blocks(self) -> np.ndarray:
        """Every arm's block ``[[X, z_i^T], [z_i, Y_i]]`` (unit corner), the
        zero-filled matrix on its :attr:`block_rows`, in one read-only
        ``(S, n1 + 1, n1 + 1)`` stack."""
        rows = self.block_rows
        stack = self.zero_filled[rows[:, :, None], rows[:, None, :]]
        stack.setflags(write=False)
        return stack

    @cached_property
    def _max_det(self) -> "_MaxDet":
        Cplus, P = _arm_centres(self)
        return _MaxDet(Cplus, P, _max_det_completion(self.zero_filled, P)[0])


@dataclass
class _MaxDet:
    """The unit-corner max-determinant completion ``full`` of a problem, with
    the arm centres it is built from (:func:`_arm_centres`), and ``factor``:
    the nonnegative factor of ``full`` that :func:`certify_completable`
    found, None before it runs or when its search finds none.
    :func:`complete_numeric` hands ``factor`` to :func:`cones.is_cp` as its
    candidate, which is re-checked before it is trusted."""

    Cplus: np.ndarray
    P: np.ndarray
    full: np.ndarray
    factor: Optional[np.ndarray] = None


@dataclass
class CompletabilityCertificate:
    """Self-contained evidence for (or absence of) a completability proof.

    ``verdict`` is the paper's: ``Certified`` when the block equations, the
    block CP verdicts and the three conditions all hold.  ``completion_cp``
    is the CP verdict of the max-determinant completion (unit-corner scale):
    ``Member`` proves completability on its own.  When the block equations
    hold that completion is the only PSD one, so its CP status is the exact
    answer, not a sufficient condition (``Unknown`` still leaves it open).
    It is None when the completion is not doubly nonnegative, the ground
    cone is not orthant-like, or no data was found.
    """

    verdict: str
    data: Optional[ConstraintData]
    block_residuals: list
    f0_residuals: tuple
    block_verdicts: list
    report: Optional[ConditionReport]
    reasons: list = field(default_factory=list)
    tol: float = 1e-8
    completion_cp: Optional[MembershipVerdict] = None

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


def _block_residuals(problem: CompletionProblem, data: ConstraintData):
    """Every arm's ``(f_i.x + g_i y_i - d_i, f_i^T X f_i + 2 g_i f_i.z_i +
    g_i^2 Y_i - d_i^2)`` off the block stack, and the shared pair."""
    blocks = problem.blocks
    x, X = blocks[0, 0, 1:-1], blocks[0, 1:-1, 1:-1]
    y, z, Y = blocks[:, 0, -1], blocks[:, 1:-1, -1], blocks[:, -1, -1]
    f, g, d = data.f[1:], data.g[:, 0], data.d[1:]
    lin = f @ x + g * y - d
    quad = ((f @ X) * f).sum(axis=1) + 2.0 * g * (f * z).sum(axis=1) + g * g * Y - d * d
    f0, d0 = data.f[0], data.d[0]
    f0_pair = (float(f0 @ x - d0), float(f0 @ X @ f0 - d0 * d0))
    return list(zip(lin.tolist(), quad.tolist())), f0_pair


def _worst_residual(per_arm, f0_pair) -> float:
    return max(max(abs(r) for pair in per_arm for r in pair), *map(abs, f0_pair))


def certify_completable(problem: CompletionProblem, *,
                        tol: float = 1e-8) -> CompletabilityCertificate:
    """Run the full sufficient-condition pipeline.

    Without stated data, :func:`find_data` reads the data off the block
    kernels by three exact rules (every block of rank one, every kernel a
    line, else one LP per reference arm); a ground cone with a free
    coordinate gets none, as no data could bound the region.  Certified
    iff: both coupling equations hold for every block (within ``tol``),
    every block is verified completely positive, and the interior,
    boundedness and projection-containment conditions all pass on the
    data.  Every failure is recorded; none of them disproves
    completability.  The block CP verdicts, and that of the max-determinant
    completion, come from :func:`cones.principal_cp`
    (:func:`_block_cp_verdicts`), whose factor the problem keeps for
    :func:`complete_numeric`.  Change no entry of the problem's partial
    matrices between the two calls.  Stated data for another number of
    arms or another shared cone raises ``ValueError``.
    """
    reasons = []
    data = problem.data
    if data is not None and (data.S != problem.S
                             or not np.array_equal(data.K0.kinds, problem.K.kinds)):
        raise ValueError(f"stated data has {data.S} arm(s) over the shared cone "
                         f"{data.K0.kinds.tolist()}, the problem {problem.S} over "
                         f"{problem.K.kinds.tolist()}")
    if data is None:
        data = find_data(problem, tol=tol)
        if data is None:
            return CompletabilityCertificate(
                NO_CERTIFICATE, None, [], (0.0, 0.0), [], None,
                reasons=["no admissible data (f_i, g_i, d_i) found"],
                tol=tol,
            )

    per_arm, f0_pair = _block_residuals(problem, data)
    worst = _worst_residual(per_arm, f0_pair)
    if worst > tol:
        reasons.append(f"block equations violated (worst residual {worst:.3g})")

    completion_cp = None
    if not problem.K.is_orthant_like():
        reasons.append(
            "complete positivity verification implemented for orthant ground "
            "cones only"
        )
        block_verdicts = []
    else:
        completion_cp, block_verdicts = _block_cp_verdicts(problem)
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
        verdict, data, per_arm, f0_pair, block_verdicts, report, reasons, tol,
        completion_cp,
    )


def _block_cp_verdicts(problem: CompletionProblem):
    """CP verdicts of the max-determinant completion (None when it is not
    doubly nonnegative) and of every block, a principal submatrix of it on
    the rows ``(0, ..., n1 - 1, n1 + i)``: :func:`cones.principal_cp`.  The
    problem keeps the factor found (``_max_det.factor``)."""
    max_det = problem._max_det
    whole, verdicts = cones.principal_cp(
        max_det.full, problem.block_rows, source="the max-determinant completion"
    )
    if whole is not None:
        max_det.factor = whole.witness
    return whole, verdicts


# -- data from the block kernels ---------------------------------------------

#: A block counts as rank one when its second eigenvalue is at most this
#: fraction of its largest.
_RANK_ONE_TOL = 1e-7


def find_data(problem: CompletionProblem, *, tol: float = 1e-8) -> Optional[ConstraintData]:
    """Data ``(f_i, g_i, d_i)`` meeting both block equations of every arm
    on which all three conditions pass, read off the block kernels.

    Both equations of a PSD block ``M_i`` hold exactly when
    ``k_i = (-d_i, f_i, g_i)`` lies in ``ker M_i``: row 0 of ``M_i k_i`` is
    the linear equation, and ``k^T M k = 0`` iff ``M k = 0``.  The kernel is
    spanned by the eigenvectors whose eigenvalue is at most ``tol`` times the
    largest.  The first of three rules that applies gives the data:

    1. every block has rank one: the shared functional ``(1, ..., 1; 1)``,
       scaled per arm to ``d_i = 1``;
    2. every kernel is a line: the data is forced up to scale; the sign
       makes ``g_i > 0`` and the scale ``d_i = 1`` (None when ``d_i <= 0``);
    3. otherwise one LP per reference arm ``r`` over the kernel coordinates
       (:func:`_reference_lp`) asks for ``g_i >= 1``, ``d_r >= 1``,
       ``f_r >= 1`` on the orthant coordinates, and ``f_i <= f_r`` there
       with ``d_i >= d_r`` for every other arm.  These are conditions (i)
       and (iii) with multiplier one, and arm ``r`` alone bounds the region
       (:func:`~cppc.conditions.check_Fi_bounded_sufficient`).

    The shared constraint is the vacuous ``f_0 = 0``.  A ground cone with a
    free coordinate gives None: with ``f_0 = 0``, condition (iii) makes the
    region one arm's half-space (or the whole cone), and that is never
    bounded over a free coordinate.  Every result re-verifies the block
    equations within ``tol`` and all three conditions; None is
    inconclusive.  At most ``S + 1`` candidates are checked, one per rule
    and one per reference arm, and every rule reads the same checked
    spectrum of each block.
    """
    w, vecs = jacobi_eigh(problem.blocks)
    data = _find_data_rank_one(problem, w, vecs, tol)
    if data is not None or not problem.K.is_orthant_like():
        return data
    kernels = [V[:, wk <= tol * wk[-1]] for wk, V in zip(w, vecs)]
    if any(B.shape[1] == 0 for B in kernels):
        return None
    if all(B.shape[1] == 1 for B in kernels):
        lines = [B[:, 0] * np.sign(B[-1, 0]) for B in kernels]
        return _data_from_kernel(problem, lines, tol)
    orth = np.flatnonzero(problem.K.kinds == cones.ORTHANT)
    for r in range(problem.S):
        vectors = _reference_lp(kernels, r, orth)
        data = None if vectors is None else _data_from_kernel(problem, vectors, tol)
        if data is not None:
            return data
    return None


def _find_data_rank_one(problem: CompletionProblem, w, vecs, tol: float):
    """Rule 1 of :func:`find_data` on the blocks' stacked spectra ``(w,
    vecs)``: when every block has numerical rank one, the shared functional
    ``(1, ..., 1; 1)`` on every arm; it needs a pure orthant ground cone."""
    if not np.all(problem.K.kinds == cones.ORTHANT):
        return None
    top = w[:, -1]
    if np.any(top <= 0.0) or np.any(np.abs(w[:, -2]) > _RANK_ONE_TOL * top):
        return None
    # Block i is spanned by its factor v = (1, x, y) up to sign, so
    # (-s, 1, ..., 1) with s = 1.x + y lies in its kernel.  The sum runs in
    # coordinate order, which no BLAS kernel reorders.
    v = vecs[:, :, -1] * np.sqrt(top)[:, None]
    v[v[:, 0] < 0.0] *= -1.0
    values = np.add.accumulate(v[:, 1:], axis=1)[:, -1]
    if values.min() <= tol:
        return None
    return _data_from_kernel(problem, np.column_stack([-values, np.ones_like(v[:, 1:])]), tol)


def _data_from_kernel(problem: CompletionProblem, kernel_vectors, tol: float):
    """The data of kernel vectors ``k_i = (-d_i, f_i, g_i)`` (the rows of
    ``kernel_vectors``) scaled to ``d_i = 1``, when every ``g_i`` and ``d_i``
    is positive and it passes :func:`_data_admissible`; else None."""
    k = np.asarray(kernel_vectors)
    if np.any(k[:, -1] <= 0.0) or np.any(k[:, 0] >= 0.0):
        return None
    k = k / -k[:, :1]
    data = ConstraintData.width_one(problem.K, k[:, 1:-1], k[:, -1], np.ones(len(k)))
    return data if _data_admissible(problem, data, tol) else None


def _reference_lp(kernels, r: int, orth: np.ndarray):
    """Kernel vectors ``k_i = B_i c_i`` (``B_i = kernels[i]``) meeting rule 3
    of :func:`find_data` for reference arm ``r`` (0-based), or None when
    there are none or the LP's certificate fails its check.

    The rules form a system ``G c >= h``.  It is decided through its Farkas
    alternative ``min -h.y`` over ``G^T y = 0``, ``sum(y) + t = 1``,
    ``y, t >= 0``, which ``y = 0, t = 1`` makes feasible and the simplex
    bounds.  The duals ``(lam, mu)`` satisfy ``G lam + mu <= -h`` and
    ``mu <= 0``, with ``mu`` the optimal value: ``mu = 0`` makes
    ``c = -lam`` a solution, and ``mu < 0`` is a Farkas certificate that
    none exists.  ``c`` is read off the duals, so it needs no sign split.
    """
    cols = np.cumsum([0] + [B.shape[1] for B in kernels])

    def lift(i, vec):
        row = np.zeros(cols[-1])
        row[cols[i] : cols[i + 1]] = vec
        return row

    ref = kernels[r]
    # g_i >= 1 for every arm; d_r >= 1 and f_r >= 1 on orthant coordinates.
    rows = [lift(i, B[-1]) for i, B in enumerate(kernels)]
    rows += [lift(r, -ref[0])] + [lift(r, ref[1 + j]) for j in orth]
    h = np.r_[np.ones(len(rows)), np.zeros((len(kernels) - 1) * (orth.size + 1))]
    # f_i <= f_r on orthant coordinates and d_i >= d_r for every other arm.
    for i, B in enumerate(kernels):
        if i != r:
            rows += [lift(r, ref[1 + j]) - lift(i, B[1 + j]) for j in orth]
            rows.append(lift(r, ref[0]) - lift(i, B[0]))
    G = np.array(rows)
    A = np.block([[G.T, np.zeros((cols[-1], 1))], [np.ones((1, h.size + 1))]])
    try:
        res = lp.solve(np.r_[-h, 0.0], A, np.r_[np.zeros(cols[-1]), 1.0])
    except np.linalg.LinAlgError:
        return None
    lam, mu = res.y[:-1], res.y[-1]
    if mu < 0.0:
        return None
    return [-B @ lam[cols[i] : cols[i + 1]] for i, B in enumerate(kernels)]


def _data_admissible(problem: CompletionProblem, data: ConstraintData,
                     tol: float) -> bool:
    """Both block equations within ``tol`` and all three conditions, of
    which the interior one puts every ``g_i`` above zero."""
    if _worst_residual(*_block_residuals(problem, data)) > tol:
        return False
    return build_condition_report(data).all_passed


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
    2. the max-determinant completion (with two arms, its one entry
       raised to 0 when negative), returned only after the same doubly
       nonnegative, agreement and CP rechecks as a solver point;
    3. otherwise a feasibility program over the full matrix with the
       specified entries pinned, handed to the conic solver.  Its
       ``Infeasible`` (a specified entry that must be nonnegative lies below
       zero) is a proof of none too.

    "Inconclusive" means undecided by the closed form and the solver; it
    never claims non-completability.

    The max-determinant completion and its factor are the ones the problem
    remembers: after :func:`certify_completable` on the same problem,
    outcome 2 re-checks certification's factor instead of searching again.
    Change no entry of the problem's partial matrices between the two calls.
    """
    decided = _closed_form(problem)
    if decided is not None:
        return decided
    prog = ConicProgram(problem.pm.pattern.total_order,
                        nonneg_mask=cones.orthant_pattern(problem.K, problem.S))
    spec_mask, zf = problem.pm.specified_mask(), problem.zero_filled
    r, c = np.nonzero(np.triu(spec_mask))
    prog.fix(r, c, zf[r, c])
    res = solve(prog, solver_opts or SolveOptions(tol_primal=1e-8))
    if res.status == INFEASIBLE:
        return NumericCompletionResult(
            None, None, f"no doubly nonnegative completion: {res.diagnostics}"
        )
    if res.status != OPTIMAL:
        return NumericCompletionResult(
            None, None, f"solver did not converge ({res.status}: {res.diagnostics}); "
            "inconclusive"
        )
    full_scaled = 0.5 * (res.block + res.block.T)
    # Snap the specified entries exactly, then rescale back.
    full_scaled[spec_mask] = zf[spec_mask]
    checked = _rechecked(problem, full_scaled * problem.scale, "")
    if checked is None:
        return NumericCompletionResult(
            None, None, "solver point failed the doubly nonnegative recheck"
        )
    return checked


def _rechecked(problem: CompletionProblem, full: np.ndarray, diagnostics: str,
               max_det: Optional[_MaxDet] = None) -> Optional[NumericCompletionResult]:
    """The completion ``full`` (original scale) with its CP verdict, or None
    when it is not doubly nonnegative on the lifted orthant pattern.

    When ``full`` is the problem's max-determinant completion, ``max_det``
    lends its remembered factor, scaled by ``sqrt(scale)``, as candidate.
    The factor of :func:`certify_completable` always passes here: its
    residual grows by ``scale``, and so does the limit, as the unit corner
    makes ``max|full| >= scale``.

    On an orthant-like cone ``is_cp`` says ``NotMember`` exactly when
    ``full`` is not doubly nonnegative, so it is the only test taken.  With
    a free coordinate there is no verdict, and the test is PSD plus
    :func:`cones.orthant_pattern`, the entries the program constrains.
    """
    sym = SymMatrix(full)
    cp = None
    if problem.K.is_orthant_like():
        candidate = None
        if max_det is not None and max_det.factor is not None:
            candidate = np.sqrt(problem.scale) * max_det.factor
        cp = cones.is_cp(sym, tol=1e-6, candidate=candidate)
        if cp.verdict == cones.NOT_MEMBER:
            return None
    else:
        pattern = cones.orthant_pattern(problem.K, problem.S)
        if full[pattern].min() < -1e-6 or not cones.is_psd(full, 1e-6):
            return None
    completion = Completion(sym, problem.original, agreement_tol=1e-7)
    return NumericCompletionResult(completion, cp, diagnostics)


def _arm_centres(problem: CompletionProblem):
    """``(C^+, P)``: the pseudo-inverse of the shared block ``C`` of the
    unit-corner zero-filled matrix and ``P[i, j] = a_i^T C^+ a_j``, the
    centre of every arm pair's interval."""
    n1 = problem.pm.pattern.n1
    zf = problem.zero_filled
    A = zf[n1:, :n1]
    w, V = jacobi_eigh(zf[:n1, :n1])
    keep = w > _ZERO_RTOL * w[-1]
    Cplus = (V[:, keep] / w[keep]) @ V[:, keep].T
    P = A @ Cplus @ A.T
    return Cplus, 0.5 * (P + P.T)


def _max_det_completion(base: np.ndarray, P: np.ndarray, factor: float = 1.0):
    """``base`` with the entry of every arm pair set to ``factor * P[i, j]``,
    and whether a negative two-arm centre was raised to 0: with one unknown
    entry every value of its interval gives a PSD completion, and with no
    proof of none the interval reaches 0."""
    S = P.shape[0]
    raised = S == 2 and P[0, 1] < 0.0
    if raised:
        P = P.copy()
        P[0, 1] = P[1, 0] = 0.0
    full = base.copy()
    off = ~np.eye(S, dtype=bool)
    full[-S:, -S:][off] = factor * P[off]
    return full, raised


def _closed_form(problem: CompletionProblem) -> Optional[NumericCompletionResult]:
    """Outcomes 1 and 2 of :func:`complete_numeric`, or None when undecided."""
    n1 = problem.pm.pattern.n1
    max_det = problem._max_det
    zf, Cplus, P = problem.zero_filled, max_det.Cplus, max_det.P
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
    full, raised = _max_det_completion(
        problem.original.zero_filled().array, P, problem.scale
    )
    diagnostics = ("closed-form two-arm completion at entry 0" if raised
                   else "closed-form max-determinant completion")
    return _rechecked(problem, full, diagnostics, max_det)


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
