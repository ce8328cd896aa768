"""Interior-point solver for linear programs over one DNN matrix.

A program is one symmetric PSD matrix ``M``, fixed entries, affine ``>=``
rows and a linear objective.  Each ``>=`` row is stored as the pair ``(u,
v)`` of its outer product and reads ``u^T M v``, so it costs ``O(order)``,
not ``O(order^2)``.  Its ``nonneg_mask`` asks for entrywise nonnegativity:
each masked off-diagonal entry ``(r, c)`` is one more row, the pair ``(e_r,
e_c)`` (the diagonal of a PSD matrix is nonnegative already).  A solved
program returns the matrix as ``SolveResult.block``.

The solver works in the free coordinates ``y``: the svec coordinates of the
entries that are not fixed, so every ``v`` it forms (the fixed values at
the fixed entries, each ``y_j`` times its svec weight at the entries of
coordinate ``j``) meets the fixed entries exactly.  The loop's matrix is
written from these entry indices, with no svec basis.  In ``y`` the
program is a dual-form conic program, as in SDPA and DSDP: its slack is
the matrix ``v`` and the values of the ``>=`` rows.  A primal-dual
interior-point method (HKM direction, Mehrotra predictor-corrector) solves
it with a Schur complement of order ``dim y``.  Each step factors the
primal matrix and the dual slack once, as one stack: one Cholesky and one
inverse give ``Z^-1``, and one stacked eigensolve per direction gives its
primal and dual step lengths.  Its best point, primal and dual, is
returned once residuals, dual feasibility and gap are re-evaluated on the
original data, with the fixed entries as dense rows; only a point that
passes is declared Optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

# perfbench/tracer.py wraps the routine under this name.
from .matrix_core import sym_eigh as jacobi_eigh

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
MAX_ITERS = "MaxIters"


class ConicProgram:
    """One PSD matrix variable of the given order, a linear objective, fixed
    entries and affine ``>=`` rows.

    ``nonneg_mask`` is the symmetric boolean mask of the entries that must
    also be nonnegative (used when some coordinates of the underlying ground
    cone are free).  After construction it is always an array, all true when
    omitted.  ``equalities`` lists the fixed entries as ``(r, c, value)``
    with ``r <= c``, in the order they were fixed; ``U``, ``V`` and ``rhs``
    hold the added ``>=`` rows ``U[k]^T M V[k] >= rhs[k]``.
    """

    def __init__(self, order: int, nonneg_mask=None):
        if order < 1:
            raise ValueError("matrix order must be >= 1")
        mask = np.ones((order, order), dtype=bool) if nonneg_mask is None else nonneg_mask
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (order, order):
            raise ValueError("nonneg_mask shape mismatch")
        if not np.array_equal(mask, mask.T):
            raise ValueError("nonneg_mask must be symmetric")
        self.order = order
        self.nonneg_mask = mask
        self.equalities: list[tuple[int, int, float]] = []
        self.U, self.V, self.rhs = np.zeros((0, order)), np.zeros((0, order)), np.zeros(0)
        self._objective = np.zeros((order, order))

    # -- construction ---------------------------------------------------

    def _matrix(self, mat) -> np.ndarray:
        """``mat`` symmetrized, once its shape and entries are checked."""
        m = np.asarray(mat, dtype=float)
        if m.shape != (self.order,) * 2:
            raise ValueError(f"matrix has shape {m.shape}, expected {(self.order,) * 2}")
        if not np.isfinite(m).all():
            raise ValueError("matrix contains non-finite entries")
        return _sym(m)

    def fix(self, rows, cols, values) -> None:
        """Fix entry ``(r, c)``, and so ``(c, r)``, at ``value`` for each
        ``(r, c, value)`` of the equal-length ``rows``, ``cols`` and
        ``values`` (scalars fix one entry).  Raises ``ValueError``, and
        changes nothing, when an index is out of range, a value is not
        finite or an entry is fixed twice."""
        r, c, v = (np.atleast_1d(x) for x in (rows, cols, values))
        kinds = {r.dtype.kind, c.dtype.kind} if r.size else set()
        if not r.shape == c.shape == v.shape == (r.size,) or kinds - set("iu"):
            raise ValueError("rows, cols and values must be equal-length vectors, "
                             "the indices integers")
        lo, hi = np.minimum(r, c).astype(int), np.maximum(r, c).astype(int)
        if np.any(lo < 0) or np.any(hi >= self.order):
            raise ValueError(f"entry index out of range for a matrix of order {self.order}")
        v = v.astype(float)
        if not np.isfinite(v).all():
            raise ValueError("fixed values must be finite")
        entries = [e[:2] for e in self.equalities] + list(zip(lo.tolist(), hi.tolist()))
        if len(set(entries)) < len(entries):
            twice = next(e for k, e in enumerate(entries) if e in entries[:k])
            raise ValueError(f"entry {twice} is fixed twice")
        self.equalities.extend(zip(lo.tolist(), hi.tolist(), v.tolist()))

    def add_inequality(self, rhs: float, U, V) -> None:
        """Append the rows ``u_k^T M v_k >= rhs``, one per row ``u_k`` of
        ``U`` and ``v_k`` of ``V``, ``(k, order)`` arrays (two vectors of
        length ``order`` are one row).  Raises ``ValueError``, and changes
        nothing, when the shapes differ or are not of that form or an entry
        or ``rhs`` is not finite."""
        rhs, U, V = float(rhs), np.asarray(U, dtype=float), np.asarray(V, dtype=float)
        o = self.order
        if U.shape != V.shape or U.shape[-1:] != (o,) or U.ndim > 2:
            raise ValueError(f"U and V have shapes {U.shape} and {V.shape}, "
                             f"expected the same shape, ({o},) or (k, {o})")
        if not (np.isfinite(rhs) and np.isfinite(U).all() and np.isfinite(V).all()):
            raise ValueError("rhs, U and V must be finite")
        self.U, self.V = np.vstack([self.U, U]), np.vstack([self.V, V])
        self.rhs = np.r_[self.rhs, np.full(self.U.shape[0] - self.rhs.size, rhs)]

    def set_objective(self, C) -> None:
        self._objective = self._matrix(C)

    # -- vectorization ---------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self.order**2

    def constraint_matrix(self):
        """Dense ``(A, b)`` of the fixed entries, ``A v = b`` in the
        vectorized matrix ``v``, for the residual checks."""
        fixed = np.array(self.equalities, dtype=float).reshape(-1, 3)
        r, c = fixed[:, :2].T.astype(int)
        A = np.zeros((len(r), self.num_vars))
        k = np.arange(len(r))
        np.add.at(A, (k, r * self.order + c), 0.5)
        np.add.at(A, (k, c * self.order + r), 0.5)
        return A, fixed[:, 2]

    def inequality_pairs(self):
        """``(U, V, h)`` of every ``>=`` row ``U[k]^T M V[k] >= h[k]``: the
        added rows, then the pair ``(e_r, e_c)`` of each masked entry ``(r,
        c)``, ``r < c``, in row-major order."""
        r, c = np.nonzero(np.triu(self.nonneg_mask, 1))
        eye = np.eye(self.order)
        return (np.vstack([self.U, eye[r]]), np.vstack([self.V, eye[c]]),
                np.r_[self.rhs, np.zeros(r.size)])

    def objective_vector(self) -> np.ndarray:
        return self._objective.reshape(-1)


@dataclass
class SolveOptions:
    """Acceptance tolerances and the interior-point iteration cap; the loop
    stops once its relative residuals and gap are below a thousandth of the
    tightest tolerance, or when they stop improving.

    ``polish`` is read by nothing.  It named the active-face polish, which
    is gone; the field stays only because callers outside this package
    still pass ``polish=False``, and such a call must keep working."""

    tol_primal: float = 1e-7
    tol_dual: float = 1e-7
    tol_gap: float = 1e-6
    max_iters: int = 200
    polish: bool = True

    def __post_init__(self):
        for name in ("tol_primal", "tol_dual", "tol_gap"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclass
class SolveResult:
    status: str
    block: np.ndarray
    objective: float
    residuals: dict
    iterations: int
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    diagnostics: str = ""

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


class _Data(NamedTuple):
    """Fixed entries ``A v = b``, ``>=`` rows ``L v >= h`` as pairs ``(U, V)``, and ``c``."""

    A: np.ndarray
    b: np.ndarray
    U: np.ndarray
    V: np.ndarray
    h: np.ndarray
    c: np.ndarray


def _program_data(p: ConicProgram) -> _Data:
    A, b = p.constraint_matrix()
    d = _Data(A, b, *p.inequality_pairs(), p.objective_vector())
    if not all(np.isfinite(x).all() for x in d):
        raise ValueError("program data contains non-finite values")
    return d


def _row_values(d: _Data, v) -> np.ndarray:
    """``L v``: the values ``U[k]^T M V[k]`` of the ``>=`` rows at the
    symmetric matrix ``M`` of ``v``."""
    return ((d.U @ v.reshape(d.U.shape[1], -1)) * d.V).sum(axis=1)


def _rows_transpose(d: _Data, lam) -> np.ndarray:
    """``L^T lam``: the matrix ``sym(U^T diag(lam) V)``, vectorized."""
    return _sym(d.U.T @ (lam[:, None] * d.V)).reshape(-1)


def _svec_rows(U, V, r, c) -> np.ndarray:
    """The svec coefficients of the rows at the coordinates ``(r, c)``:
    ``(u_r v_c + u_c v_r)`` times 1/2 on the diagonal, ``sqrt(1/2)`` off it."""
    out = U[:, r] * V[:, c]
    tmp = U[:, c]
    tmp *= V[:, r]
    out += tmp
    out *= np.where(r == c, 0.5, np.sqrt(0.5))
    return out


def _primal_residuals(p: ConicProgram, d: _Data, v):
    """``(equality, cone)`` residuals of ``v`` on the original data: the
    largest violation of a fixed entry, and the worst of the matrix's most
    negative eigenvalue (checked ``sym_eigh``) and the violations of the
    ``>=`` rows."""
    eq = float(np.abs(d.A @ v - d.b).max(initial=0.0))
    cone = float(np.max(d.h - _row_values(d, v), initial=0.0))
    w, _ = jacobi_eigh(v.reshape(p.order, p.order))
    return eq, max(cone, -float(w[0]))


def _dual_residual(d: _Data, nu, lam, Z) -> float:
    """Dual residual of the multipliers ``nu`` (fixed entries) and ``lam``
    (``>=`` rows) with PSD part ``Z``: the largest entry of ``c + A^T nu -
    L^T lam - Z`` or negative entry of ``lam``."""
    r = d.c + d.A.T @ nu - _rows_transpose(d, lam) - Z.reshape(-1)
    return max(float(np.abs(r).max()), float(np.max(-lam, initial=0.0)))


class _ProvenInfeasible(Exception):
    """Raised with a diagnostic and residuals when the rows alone prove the
    program infeasible."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals


def solve(p: ConicProgram, opts: Optional[SolveOptions] = None) -> SolveResult:
    """Solve the program; see module docstring for the method.

    A result with status ``Optimal`` satisfies the fixed entries, the ``>=``
    rows, the PSD constraints, dual feasibility and the duality-gap bound
    within the configured tolerances, re-checked on the original data.
    ``Infeasible`` (after 0 iterations) is a proof: a ``>=`` row that the
    fixed entries make constant fails, named in the diagnostics.
    ``MaxIters`` returns the best iterate with a residual report and claims
    nothing.
    """
    opts = opts or SolveOptions()
    d = _program_data(p)
    try:
        form = _FreeForm(p, d)
    except _ProvenInfeasible as proof:
        return SolveResult(INFEASIBLE, np.zeros((p.order, p.order)), float("nan"),
                           proof.residuals, 0, np.zeros(d.b.size), np.zeros(d.h.size),
                           str(proof))
    point, it, stop = _interior_point(
        form, opts.max_iters, 1e-3 * min(opts.tol_primal, opts.tol_dual, opts.tol_gap)
    )
    v, nu, lam, Z = form.original(*point)
    dual_res = _dual_residual(d, nu, lam, Z)
    result = _result(p, d, v, nu, lam, it, dual_res, "interior-point iterate accepted")
    res = result.residuals
    scale_b = 1.0 + float(np.abs(d.b).max(initial=0.0))
    if not (
        max(res["equality"], res["cone"]) <= opts.tol_primal * scale_b
        and dual_res <= opts.tol_dual * (1.0 + float(np.abs(d.c).max()))
        and res["gap_relative"] <= opts.tol_gap
    ):
        result.status = MAX_ITERS
        result.diagnostics = stop or "interior-point iterate failed the original-data check"
    return result


class _FreeForm:
    """The program in its free coordinates ``y``, posed as the dual of ``min
    c.u  s.t.  A u = b,  u in K`` for the interior-point loop, ``K`` being
    the PSD cone times one nonnegative orthant.

    The free coordinates are the svec coordinates of the entries ``(a, e)``,
    ``a <= e``, that are not fixed, in row-major order: coordinate ``j`` is
    ``M_aa`` on the diagonal and ``(M_ae + M_ea) / sqrt 2`` off it, so the
    rows of ``A`` are written from the entry indices.  The loop's slack ``c
    - A^T y`` is the matrix ``v`` (entry by entry, as in ``v``, with the
    fixed values in ``c``) followed by the values of the ``>=`` rows, each
    scaled to unit norm in ``y``; its ``u`` holds the PSD multiplier ``Z``
    and the scaled row multipliers.  Rows that the fixed entries make
    constant drop out when they hold and prove infeasibility when they
    fail.
    """

    def __init__(self, p, d):
        o = p.order
        r, c = np.array([e[:2] for e in p.equalities], dtype=int).reshape(-1, 2).T
        fixed = np.zeros((o, o), dtype=bool)
        fixed[r, c] = True
        a, e = np.nonzero(np.triu(~fixed))
        # The fixed values in svec coordinates: an svec coordinate weighs
        # each of its entries by 1 on the diagonal, sqrt(1/2) off it.
        self.fixed, weight = (r, c), np.where(r == c, 1.0, np.sqrt(0.5))
        v0 = d.b / weight
        tol = 1e-6 * max(1.0, float(np.abs(d.b).max(initial=0.0)))
        # The rows' svec coefficients at the free coordinates, G, and at the
        # fixed ones, which are constant.
        G = _svec_rows(d.U, d.V, a, e)
        Gf = _svec_rows(d.U, d.V, r, c)
        g0 = Gf @ v0 - d.h
        norms = np.linalg.norm(G, axis=1)
        const = norms <= 1e-9 * np.hypot(norms, np.linalg.norm(Gf, axis=1))
        violated = np.flatnonzero(const & (g0 < -tol))
        if violated.size:
            j = violated[0]
            raise _ProvenInfeasible(
                f"{_row_name(p, j)} is fixed at {g0[j] + d.h[j]:.6g} < {d.h[j]:.6g} "
                "by the equalities", {"cone": float(-g0[j])})
        self.rows, self.row_scale = np.flatnonzero(~const), 1.0 / norms[~const]
        self.d, self.order, self.k = d, o, p.num_vars
        G = G[self.rows]
        G *= self.row_scale[:, None]
        # A^T: the weight of each free coordinate at its entries, then the
        # scaled rows, negated in place: A is the largest array the program
        # holds.
        At = np.zeros((self.k + G.shape[0], a.size))
        At[[a * o + e, e * o + a], np.arange(a.size)] = np.where(a == e, 1.0, np.sqrt(0.5))
        At[self.k:] = G
        self.A = np.negative(At, out=At).T
        # ``u[:k]`` is the PSD matrix, entry by entry, and ``u[k:]`` the
        # orthant part.  The step reads the views below of A; copies would
        # change the order in which BLAS sums.
        self.At, self.As, self.Af = self.A.T, self.A[:, :self.k], self.A[:, self.k:]
        self.AfT, self.eye = self.Af.T, np.eye(o)
        self.b = self.As @ d.c
        V0 = np.zeros((o, o))
        V0[r, c] = V0[c, r] = weight * v0
        self.c = np.r_[V0.reshape(-1), g0[self.rows] * self.row_scale]
        # The rows of A as matrices, for the Schur complement.
        self.A3 = self.As.reshape(-1, o, o)

    def original(self, u, y, w):
        """``(v, nu, lam, Z)`` of an interior-point ``(u, y, w)``: the
        program's variable, the multipliers of the fixed entries (entry
        ``(r, c)`` of ``Z + L^T lam - c``, doubled off the diagonal) and of
        the ``>=`` rows, and the PSD matrix of ``u``."""
        d, k, o = self.d, self.k, self.order
        lam = np.zeros(d.h.size)
        lam[self.rows] = u[k:] * self.row_scale
        r, c = self.fixed
        q = (u[:k] + _rows_transpose(d, lam) - d.c).reshape(o, o)
        nu = q[r, c] + np.where(r == c, 0.0, q[c, r])
        return self.c[:k] - self.As.T @ y, nu, lam, u[:k].reshape(o, o)


def _row_name(p, j):
    """Row ``j`` of :meth:`ConicProgram.inequality_pairs`, in words."""
    if j < p.rhs.size:
        return f"inequality row {j}"
    r, c = np.argwhere(np.triu(p.nonneg_mask, 1))[j - p.rhs.size]
    # ``cppc complete`` prints this wording and the README quotes it.
    return f"entry ({r}, {c}) of block 0"


def _interior_point(sf, max_iters, target):
    """Infeasible-start primal-dual path following on ``sf``: HKM direction
    with Mehrotra's predictor-corrector, the Schur complement solved by
    Cholesky.

    Returns the best iterate ``(u, y, w)``, scored by the largest of the
    relative primal infeasibility, dual infeasibility and gap; the number of
    steps taken; and why the loop stopped ("" once the score is below
    ``target``).  After three steps without progress it stops as stalled
    once ``mu`` is small (on programs without an interior point, further
    steps lose accuracy) or has grown past its start (the iterates
    diverge).
    """
    A, b, c = sf.A, sf.b, sf.c
    N = sf.order + c.size - sf.k
    b_norm = 1.0 + float(np.linalg.norm(b))
    c_norm = 1.0 + float(np.linalg.norm(c))
    start = max(10.0, np.sqrt(N)) * max(1.0, float(np.abs(b).max(initial=0.0)))
    eye = np.concatenate([sf.eye.reshape(-1), np.ones(c.size - sf.k)])
    u, y, w = start * eye, np.zeros(b.size), c_norm * eye
    mu0 = float(u @ w) / N

    best, best_score, since_best, it = None, np.inf, 0, 0
    while True:
        rp = b - A @ u
        rd = c - sf.At @ y - w
        pobj, dobj = float(c @ u), float(b @ y)
        mu = float(u @ w) / N
        score = max(
            float(np.sqrt(rp.dot(rp))) / b_norm,
            float(np.sqrt(rd.dot(rd))) / c_norm,
            abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
        )
        if score < best_score:
            best, best_score, since_best = (u, y, w), score, 0
        else:
            since_best += 1
        if score <= target:
            return best, it, ""
        if it >= max_iters:
            return best, it, "iteration budget exhausted"
        if since_best >= 3 and not 1e-6 * mu0 < mu <= mu0:
            break
        it += 1
        try:
            u, y, w = _mehrotra_step(sf, u, y, w, rp, rd, mu, N)
        except np.linalg.LinAlgError:
            break
    return best, it, "stalled: residuals stopped improving (possibly infeasible or unbounded)"


def _mehrotra_step(sf, u, y, w, rp, rd, mu, N):
    """One predictor-corrector step along the HKM direction.  The matrices
    ``X`` of ``u`` and ``W`` of ``w`` are factored once, as one stack, by
    Cholesky; the inverse factors give ``Z^-1 = W^-1`` and both step
    lengths of each direction."""
    A, At, k, o = sf.A, sf.At, sf.k, sf.order
    X = u[:k].reshape(o, o)
    Fi = np.linalg.inv(np.linalg.cholesky(np.array([X, w[:k].reshape(o, o)])))
    Wi = Fi[1]
    Zi = _sym(Wi.T @ Wi)
    x, z = u[k:], w[k:]
    # Entry (i, j) of A_s kron(X, Z^-1) A_s^T is A_i . X A_j Z^-1.
    M = (sf.Af * (x / z)) @ sf.AfT
    M += sf.As @ (X @ sf.A3 @ Zi).reshape(M.shape[0], X.size).T
    solve_schur = _cholesky_solver(M)

    def scaled(D):
        # sym(X D Z^-1) on the PSD matrix, x D / z on the orthant.
        return np.concatenate([_sym(X @ D[:k].reshape(o, o) @ Zi).reshape(-1), x * D[k:] / z])

    base = rp + A @ scaled(rd)

    def direction(H):
        # du = H - scaled(dw), dw = rd - A^T dy and A du = rp.
        dy = solve_schur(base - A @ H)
        dw = rd - At @ dy
        return H - scaled(dw), dy, dw

    du, _, dw = direction(-u)
    iterate = np.array([u, w])
    ap, ad = _step_to_boundary(Fi, k, iterate, np.array([du, dw]))
    sigma_mu = min(1.0, (float((u + ap * du) @ (w + ad * dw)) / N / mu) ** 3) * mu
    dX, dW = du[:k].reshape(o, o), dw[:k].reshape(o, o)
    H = np.concatenate([
        _sym((sigma_mu * sf.eye - dX @ dW) @ Zi).reshape(-1), (sigma_mu - du[k:] * dw[k:]) / z,
    ]) - u
    du, dy, dw = direction(H)
    ap, ad = _step_to_boundary(Fi, k, iterate, np.array([du, dw]), 0.9 + 0.09 * min(ap, ad))
    return u + ap * du, y + ad * dy, w + ad * dw


def _sym(G):
    return 0.5 * (G + G.T)


def _cholesky_solver(M):
    """Solver for ``M d = r`` by Cholesky; when the factorization fails
    (dependent rows make ``M`` singular) it retries with a small diagonal
    shift."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        L = _shifted_cholesky(M)
    Li = np.linalg.inv(L)
    return lambda r: Li.T @ (Li @ r)


def _shifted_cholesky(M):
    """The Cholesky factor of ``M`` plus the smallest of the listed shifts,
    relative to its largest diagonal entry, that factors."""
    scale = float(np.abs(np.diag(M)).max(initial=0.0))
    eye = np.eye(M.shape[0])
    for shift in (1e-14, 1e-12, 1e-10, 1e-8):
        try:
            return np.linalg.cholesky(M + shift * scale * eye)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("Schur complement is not positive definite")


def _step_to_boundary(Fi, k, s, ds, tau=1.0):
    """The primal and the dual step length, each ``min(1, tau a)`` for the
    largest ``a`` with ``s + a ds`` in the cone (``a`` is inf when the
    direction never leaves it), for the rows ``s = (u, w)`` and ``ds =
    (du, dw)``: the orthant parts ``[k:]`` give ratios, and one stacked
    eigensolve of the PSD parts ``[:k]``, read through ``Fi``, the inverse
    Cholesky factors of ``X`` and ``W``, gives the rest."""
    o = Fi.shape[-1]
    lams = np.linalg.eigvalsh(Fi @ ds[:, :k].reshape(2, o, o) @ Fi.transpose(0, 2, 1))[:, 0]
    steps = []
    for x, dx, lam in zip(s[:, k:], ds[:, k:], lams):
        neg = dx < 0.0
        a = float((-x[neg] / dx[neg]).min(initial=np.inf))
        if lam < 0.0:
            a = min(a, -1.0 / lam)
        steps.append(min(1.0, tau * a))
    return steps


def _result(p, d, v, nu, lam, it, dual, diagnostics):
    """``Optimal`` result at the original-data point ``v`` with multipliers
    ``nu`` and ``lam`` and the dual residual ``dual``; the primal residuals
    and the gap are measured on the original data."""
    eq_res, cone_viol = _primal_residuals(p, d, v)
    obj = float(d.c @ v)
    dual_obj = float(d.h @ lam - d.b @ nu)
    gap = abs(obj - dual_obj)
    residuals = {"equality": eq_res, "cone": cone_viol, "dual": dual, "gap": gap,
                 "gap_relative": gap / max(1.0, abs(obj), abs(dual_obj)),
                 "dual_objective": dual_obj}
    return SolveResult(OPTIMAL, v.reshape(p.order, p.order).copy(), obj, residuals, it, nu, lam,
                       diagnostics)


def kkt_residuals(p: ConicProgram, X):
    """Exact residual evaluation at the matrix ``X``; no iteration.

    Returns the equality residual (infinity norm), the cone violation (most
    negative eigenvalue and worst violation of a ``>=`` row) and the
    objective value.  The spectral part uses the checked ``sym_eigh``.
    """
    v = p._matrix(X).reshape(-1)
    d = _program_data(p)
    eq_res, cone_viol = _primal_residuals(p, d, v)
    return {
        "equality": eq_res,
        "cone": cone_viol,
        "objective": float(d.c @ v),
    }
