"""Interior-point solver for linear programs over coupled DNN blocks.

Programs consist of symmetric matrix blocks, each optionally constrained to
the PSD cone and/or to entrywise nonnegativity, plus sign-constrained scalar
variables, all tied together by affine equality constraints and a linear
objective.

The solver is a primal-dual interior-point method (HKM direction, Mehrotra
predictor-corrector) on a standard form with unit-norm rows, in which every
nonnegative entry of a PSD block is an orthant variable of its own.  Its best
point, primal and dual, starts an active-face polish: one Gauss-Newton solve
of the optimal face's KKT system per face guess.  When no guess verifies,
the iterate itself is checked.  Residuals, dual feasibility and gap are
always re-evaluated on the original data before a result is declared
Optimal.
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


@dataclass
class BlockSpec:
    """Matrix block variable: symmetric of given order, with cone flags.

    ``nonneg_mask`` optionally restricts the entrywise nonnegativity to a
    symmetric boolean mask (used when some coordinates of the underlying
    ground cone are free).  After construction it is always an array: all
    true when omitted, all false when ``nonneg`` is off.
    """

    order: int
    psd: bool = True
    nonneg: bool = True
    nonneg_mask: Optional[np.ndarray] = None
    name: str = ""

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("block order must be >= 1")
        if self.nonneg_mask is not None:
            m = np.asarray(self.nonneg_mask, dtype=bool)
            if m.shape != (self.order, self.order):
                raise ValueError("nonneg_mask shape mismatch")
            if not np.array_equal(m, m.T):
                raise ValueError("nonneg_mask must be symmetric")
            self.nonneg_mask = m
        if not self.nonneg:
            self.nonneg_mask = np.zeros((self.order, self.order), dtype=bool)
        elif self.nonneg_mask is None:
            self.nonneg_mask = np.ones((self.order, self.order), dtype=bool)


@dataclass
class ScalarSpec:
    nonneg: bool = True
    name: str = ""


class ConicProgram:
    """Container for blocks, scalars, a linear objective and affine equalities."""

    def __init__(self):
        self.blocks: list[BlockSpec] = []
        self.scalars: list[ScalarSpec] = []
        self.equalities: list[tuple[dict, dict, float]] = []
        self._obj_blocks: dict[int, np.ndarray] = {}
        self._obj_scalars: dict[int, float] = {}
        self.obj_constant: float = 0.0

    # -- construction ---------------------------------------------------

    def add_block(self, order, psd=True, nonneg=True, nonneg_mask=None, name="") -> int:
        self.blocks.append(BlockSpec(order, psd, nonneg, nonneg_mask, name))
        return len(self.blocks) - 1

    def add_scalar(self, nonneg=True, name="") -> int:
        self.scalars.append(ScalarSpec(nonneg, name))
        return len(self.scalars) - 1

    def _coeff_matrix(self, b: int, mat) -> np.ndarray:
        if not 0 <= b < len(self.blocks):
            raise ValueError(f"block index {b} not declared")
        m = np.asarray(mat, dtype=float)
        order = self.blocks[b].order
        if m.shape != (order, order):
            raise ValueError(
                f"coefficient for block {b} has shape {m.shape}, expected "
                f"({order}, {order})"
            )
        if not np.isfinite(m).all():
            raise ValueError("coefficient contains non-finite entries")
        return 0.5 * (m + m.T)

    def add_equality(self, rhs: float, blocks=None, scalars=None) -> None:
        """Append the constraint ``sum_b C_b . M_b + sum_j a_j s_j = rhs``."""
        rhs = float(rhs)
        if not np.isfinite(rhs):
            raise ValueError("right-hand side must be finite")
        bc = {b: self._coeff_matrix(b, m) for b, m in (blocks or {}).items()}
        sc = {}
        for j, a in (scalars or {}).items():
            if not 0 <= j < len(self.scalars):
                raise ValueError(f"scalar index {j} not declared")
            a = float(a)
            if not np.isfinite(a):
                raise ValueError("coefficient contains non-finite entries")
            sc[j] = a
        self.equalities.append((bc, sc, rhs))

    def set_objective(self, blocks=None, scalars=None, constant=0.0) -> None:
        self._obj_blocks = {b: self._coeff_matrix(b, m) for b, m in (blocks or {}).items()}
        self._obj_scalars = {}
        for j, a in (scalars or {}).items():
            if not 0 <= j < len(self.scalars):
                raise ValueError(f"scalar index {j} not declared")
            self._obj_scalars[j] = float(a)
        self.obj_constant = float(constant)

    # -- vectorization ---------------------------------------------------

    @property
    def num_vars(self) -> int:
        return sum(b.order**2 for b in self.blocks) + len(self.scalars)

    def block_offsets(self):
        offs = []
        pos = 0
        for b in self.blocks:
            offs.append(pos)
            pos += b.order**2
        return offs, pos

    def _functional_vector(self, blocks: dict, scalars: dict) -> np.ndarray:
        offs, scal0 = self.block_offsets()
        vec = np.zeros(self.num_vars)
        for b, m in blocks.items():
            o = self.blocks[b].order
            vec[offs[b] : offs[b] + o * o] = m.reshape(-1)
        for j, a in scalars.items():
            vec[scal0 + j] = a
        return vec

    def constraint_matrix(self):
        """Dense ``(A, b)`` of the equality system in the vectorized variables."""
        n = self.num_vars
        m = len(self.equalities)
        A = np.zeros((m, n))
        b = np.zeros(m)
        for i, (bc, sc, rhs) in enumerate(self.equalities):
            A[i] = self._functional_vector(bc, sc)
            b[i] = rhs
        return A, b

    def objective_vector(self) -> np.ndarray:
        return self._functional_vector(self._obj_blocks, self._obj_scalars)

    def vectorize_point(self, block_values, scalar_values) -> np.ndarray:
        offs, scal0 = self.block_offsets()
        v = np.zeros(self.num_vars)
        for b, val in enumerate(block_values):
            val = np.asarray(val, dtype=float)
            o = self.blocks[b].order
            if val.shape != (o, o):
                raise ValueError(f"block {b} value has shape {val.shape}")
            v[offs[b] : offs[b] + o * o] = (0.5 * (val + val.T)).reshape(-1)
        sv = np.asarray(scalar_values, dtype=float).reshape(-1)
        if sv.size != len(self.scalars):
            raise ValueError("scalar value count mismatch")
        v[scal0:] = sv
        return v

    def split_vector(self, v: np.ndarray):
        offs, scal0 = self.block_offsets()
        blocks = []
        for b, off in zip(self.blocks, offs):
            blocks.append(v[off : off + b.order**2].reshape(b.order, b.order).copy())
        return blocks, v[scal0:].copy()

    def validate(self) -> None:
        if self.num_vars == 0:
            raise ValueError("program has no variables")


@dataclass
class SolveOptions:
    """Acceptance tolerances, the interior-point iteration cap and whether to
    face-polish the loop's best iterate.  The loop itself stops once its
    relative residuals and gap are below a thousandth of the tightest
    tolerance, or when they stop improving."""

    tol_primal: float = 1e-7
    tol_dual: float = 1e-7
    tol_gap: float = 1e-6
    max_iters: int = 200
    polish: bool = True


@dataclass
class SolveResult:
    status: str
    block_values: list
    scalar_values: np.ndarray
    objective: float
    residuals: dict
    iterations: int
    eq_multipliers: np.ndarray
    diagnostics: str = ""

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _primal_residuals(p: ConicProgram, A, b, v):
    """``(equality, cone)`` residuals of ``v`` on the original data: the
    largest equality violation, and the worst negative eigenvalue (checked
    ``sym_eigh``) over PSD blocks or negative entry over
    nonnegativity-constrained coordinates."""
    eq = float(np.abs(A @ v - b).max()) if A.shape[0] else 0.0
    cone = 0.0
    offs, _ = p.block_offsets()
    for spec, off in zip(p.blocks, offs):
        if spec.psd:
            o = spec.order
            w, _ = jacobi_eigh(v[off : off + o * o].reshape(o, o))
            cone = max(cone, -float(w[0]))
    nn = v[_nonneg_index(p)]
    if nn.size:
        cone = max(cone, -float(nn.min()))
    return eq, cone


def _dual_residual(p: ConicProgram, A, c, nu, Z) -> float:
    """Dual residual of the multipliers ``nu`` with PSD parts ``Z`` (one
    matrix per PSD block, in block order): how far ``c + A^T nu`` less ``Z``
    on the PSD blocks is from the nonnegative cone on the
    nonnegativity-constrained coordinates and from zero on the others."""
    r = c + A.T @ nu
    offs, _ = p.block_offsets()
    psd_offs = [off for spec, off in zip(p.blocks, offs) if spec.psd]
    for off, Zk in zip(psd_offs, Z):
        r[off : off + Zk.size] -= Zk.reshape(-1)
    mask = _nonneg_index(p)
    return max(float(np.max(-r[mask], initial=0.0)),
               float(np.max(np.abs(r[~mask]), initial=0.0)))


def _nonneg_index(p: ConicProgram) -> np.ndarray:
    offs, scal0 = p.block_offsets()
    mask = np.zeros(p.num_vars, dtype=bool)
    for spec, off in zip(p.blocks, offs):
        mask[off : off + spec.order**2] = spec.nonneg_mask.reshape(-1)
    for j, s in enumerate(p.scalars):
        if s.nonneg:
            mask[scal0 + j] = True
    return mask


def solve(p: ConicProgram, opts: Optional[SolveOptions] = None) -> SolveResult:
    """Solve the program; see module docstring for the method.

    A result with status ``Optimal`` satisfies the equalities, the cone
    constraints, dual feasibility and the duality-gap bound within the
    configured tolerances, re-checked on the original data.  ``MaxIters``
    returns the best iterate with a residual report and never claims
    infeasibility; ``Infeasible`` is only reported when the equality system
    alone is provably inconsistent.
    """
    opts = opts or SolveOptions()
    p.validate()
    A, b = p.constraint_matrix()
    c = p.objective_vector()
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValueError("program data contains non-finite values")

    m = A.shape[0]
    # Equality system consistency: a positive least-squares residual is a
    # certificate of infeasibility regardless of the cones.
    if m:
        v_ls, *_ = np.linalg.lstsq(A, b, rcond=None)
        ls_res = np.abs(A @ v_ls - b).max()
        if ls_res > 1e-6 * max(1.0, np.abs(b).max()):
            return SolveResult(
                INFEASIBLE,
                *p.split_vector(np.zeros(p.num_vars)),
                objective=float("nan"),
                residuals={"equality": float(ls_res)},
                iterations=0,
                eq_multipliers=np.zeros(m),
                diagnostics="equality system is inconsistent",
            )

    sf = _StandardForm(p, A, b, c)
    point, it, stop = _interior_point(
        sf, opts.max_iters, 1e-3 * min(opts.tol_primal, opts.tol_dual, opts.tol_gap)
    )
    v, nu, Z = sf.original(*point)
    if opts.polish:
        polished = _face_polish(p, A, b, c, v, nu, Z, it)
        if polished is not None:
            return polished
    dual_res = _dual_residual(p, A, c, nu, Z)
    result = _result(p, A, b, c, v, nu, it, dual_res, "interior-point iterate accepted")
    res = result.residuals
    scale_b = 1.0 + float(np.abs(b).max(initial=0.0))
    if (
        max(res["equality"], res["cone"]) <= opts.tol_primal * scale_b
        and dual_res <= opts.tol_dual * (1.0 + float(np.abs(c).max()))
        and res["gap_relative"] <= opts.tol_gap
    ):
        return result
    result.status = MAX_ITERS
    result.diagnostics = stop or "interior-point iterate failed the original-data check"
    return result


class _StandardForm:
    """The program as ``min c.u  s.t.  A u = b,  u in K`` for the interior-point
    loop, ``K`` being a product of PSD blocks and one nonnegative orthant.

    ``u`` holds the PSD blocks of the program, entry by entry as in ``v``,
    then the orthant variables: the upper entries of the other blocks and
    the scalars, each free one split into a difference of two, and one
    ``t`` per masked off-diagonal upper entry of a PSD block, tied to it by
    a row ``X_rc - t = 0`` (the diagonal of a PSD matrix is nonnegative
    already).  Each row is scaled to unit norm; zero rows drop out.
    """

    def __init__(self, p, A, b, c):
        offs, _ = p.block_offsets()
        n, m = p.num_vars, A.shape[0]
        mirror = np.arange(n)  # position in v of each entry's transpose
        in_psd = np.zeros(n, dtype=bool)
        for spec, off in zip(p.blocks, offs):
            o = spec.order
            mirror[off : off + o * o] = off + np.arange(o * o).reshape(o, o).T.reshape(-1)
            in_psd[off : off + o * o] = spec.psd
        mask = _nonneg_index(p)
        self.pos = np.flatnonzero(in_psd)
        self.blocks = [
            (slice(s, s + spec.order**2), spec.order)
            for spec, s in zip(p.blocks, np.searchsorted(self.pos, offs)) if spec.psd
        ]
        flat = np.flatnonzero(~in_psd & (mirror >= np.arange(n)))
        tied = np.flatnonzero(in_psd & mask & (mirror > np.arange(n)))
        # A free variable is its first copy minus its second; coefficients
        # are symmetric, so an off-diagonal entry's column is twice its own.
        free = ~mask[flat]
        self.up = np.r_[flat, flat[free]]
        self.sign = np.r_[np.ones(flat.size), -np.ones(int(free.sum()))]
        self.lo = mirror[self.up]
        weight = self.sign * np.where(self.lo != self.up, 2.0, 1.0)
        self.flat = slice(self.pos.size, None)

        nflat, tie = self.up.size, np.arange(tied.size)
        full = np.zeros((m + tied.size, self.pos.size + nflat + tied.size))
        full[:m, : self.pos.size] = A[:, self.pos]
        full[:m, self.pos.size : self.pos.size + nflat] = A[:, self.up] * weight
        full[m + tie, np.searchsorted(self.pos, tied)] = 0.5
        full[m + tie, np.searchsorted(self.pos, mirror[tied])] = 0.5
        full[m + tie, self.pos.size + nflat + tie] = -1.0
        norms = np.linalg.norm(full, axis=1)
        self.keep = np.flatnonzero(norms > 0.0)
        self.row_scale = 1.0 / norms[self.keep]
        self.A = full[self.keep] * self.row_scale[:, None]
        self.b = np.r_[b, np.zeros(tied.size)][self.keep] * self.row_scale
        self.c = np.r_[c[self.pos], c[self.up] * weight, np.zeros(tied.size)]
        self.shape = A.shape

    def mats(self, u):
        return [u[sl].reshape(o, o) for sl, o in self.blocks]

    def join(self, mats, flat):
        return np.concatenate([M.reshape(-1) for M in mats] + [flat])

    def original(self, u, y, w):
        """``(v, nu, Z)`` of an interior-point ``(u, y, w)``: the program's
        variable, its equality multipliers (``c + A^T nu`` is the dual slack)
        and the PSD blocks of ``w``, whose difference from that slack is
        the multiplier of the entrywise constraints."""
        m, n = self.shape
        v = np.zeros(n)
        v[self.pos] = u[: self.flat.start]
        flat = self.sign * u[self.flat][: self.up.size]
        np.add.at(v, self.up, flat)
        np.add.at(v, self.lo, np.where(self.lo != self.up, flat, 0.0))
        nu = -np.bincount(self.keep, y * self.row_scale, minlength=m)[:m]
        return v, nu, self.mats(w)


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
    N = sum(o for _, o in sf.blocks) + c.size - sf.flat.start
    b_norm = 1.0 + float(np.linalg.norm(b))
    c_norm = 1.0 + float(np.linalg.norm(c))
    start = max(10.0, np.sqrt(N)) * max(1.0, float(np.abs(b).max(initial=0.0)))
    eye = sf.join([np.eye(o) for _, o in sf.blocks], np.ones(c.size - sf.flat.start))
    u, y, w = start * eye, np.zeros(b.size), c_norm * eye
    mu0 = float(u @ w) / N

    best, best_score, since_best, it = None, np.inf, 0, 0
    while True:
        rp = b - A @ u
        rd = c - A.T @ y - w
        pobj, dobj = float(c @ u), float(b @ y)
        mu = float(u @ w) / N
        score = max(
            float(np.linalg.norm(rp)) / b_norm,
            float(np.linalg.norm(rd)) / c_norm,
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
    """One predictor-corrector step along the HKM direction."""
    A, f = sf.A, sf.flat
    X, Z = sf.mats(u), sf.mats(w)
    Zinv = [_sym(np.linalg.inv(Zk)) for Zk in Z]
    x, z = u[f], w[f]
    M = (A[:, f] * (x / z)) @ A[:, f].T
    for (sl, _), Xk, Zi in zip(sf.blocks, X, Zinv):
        M += A[:, sl] @ np.kron(Xk, Zi) @ A[:, sl].T
    solve_schur = _cholesky_solver(M)

    def scaled(D):
        # sym(X D Z^-1) on the PSD blocks, x D / z on the orthant.
        return sf.join([_sym(Xk @ Dk @ Zi) for Xk, Dk, Zi in zip(X, sf.mats(D), Zinv)],
                       x * D[f] / z)

    base = rp + A @ scaled(rd)

    def direction(H):
        # du = H - scaled(dw), dw = rd - A^T dy and A du = rp.
        dy = solve_schur(base - A @ H)
        dw = rd - A.T @ dy
        return H - scaled(dw), dy, dw

    du, _, dw = direction(-u)
    ap = min(1.0, _step_to_boundary(sf, u, du))
    ad = min(1.0, _step_to_boundary(sf, w, dw))
    sigma_mu = min(1.0, (float((u + ap * du) @ (w + ad * dw)) / N / mu) ** 3) * mu
    H = sf.join(
        [_sym((sigma_mu * np.eye(Zi.shape[0]) - dXk @ dZk) @ Zi)
         for dXk, dZk, Zi in zip(sf.mats(du), sf.mats(dw), Zinv)],
        (sigma_mu - du[f] * dw[f]) / z,
    ) - u
    du, dy, dw = direction(H)
    tau = 0.9 + 0.09 * min(ap, ad)
    ap = min(1.0, tau * _step_to_boundary(sf, u, du))
    ad = min(1.0, tau * _step_to_boundary(sf, w, dw))
    return u + ap * du, y + ad * dy, w + ad * dw


def _sym(G):
    return 0.5 * (G + G.T)


def _cholesky_solver(M):
    """Solver for ``M d = r`` by Cholesky; when the factorization fails
    (dependent rows make ``M`` singular) it retries with a small diagonal
    shift."""
    scale = float(np.abs(np.diag(M)).max(initial=0.0))
    for shift in (0.0, 1e-14, 1e-12, 1e-10, 1e-8):
        try:
            Li = np.linalg.inv(np.linalg.cholesky(M + shift * scale * np.eye(M.shape[0])))
        except np.linalg.LinAlgError:
            continue
        return lambda r: Li.T @ (Li @ r)
    raise np.linalg.LinAlgError("Schur complement is not positive definite")


def _step_to_boundary(sf, u, du):
    """Largest ``a`` with ``u + a du`` in the cone (inf when ``du`` never
    leaves it)."""
    x, dx = u[sf.flat], du[sf.flat]
    a = float(np.min(-x[dx < 0.0] / dx[dx < 0.0], initial=np.inf))
    for Xk, dXk in zip(sf.mats(u), sf.mats(du)):
        Li = np.linalg.inv(np.linalg.cholesky(Xk))
        lam = np.linalg.eigvalsh(Li @ dXk @ Li.T)[0]
        if lam < 0.0:
            a = min(a, -1.0 / lam)
    return a


def _entry_functional(order: int, r: int, c: int) -> np.ndarray:
    """Symmetric coefficient matrix whose Frobenius pairing reads entry (r, c)."""
    m = np.zeros((order, order))
    if r == c:
        m[r, c] = 1.0
    else:
        m[r, c] = m[c, r] = 0.5
    return m


def _result(p, A, b, c, v, nu, it, dual, diagnostics):
    """``Optimal`` result at the original-data point ``v`` with multipliers
    ``nu`` and the dual residual ``dual``; the primal residuals and the gap
    are measured on the original data."""
    eq_res, cone_viol = _primal_residuals(p, A, b, v)
    obj = float(c @ v) + p.obj_constant
    dual_obj = float(-(b @ nu)) + p.obj_constant if A.shape[0] else p.obj_constant
    gap = abs(obj - dual_obj)
    residuals = {"equality": eq_res, "cone": cone_viol, "dual": dual, "gap": gap,
                 "gap_relative": gap / max(1.0, abs(obj), abs(dual_obj)),
                 "dual_objective": dual_obj}
    blocks, scalars = p.split_vector(v)
    return SolveResult(OPTIMAL, blocks, scalars, obj, residuals, it, nu, diagnostics)


# -- active-face polishing -------------------------------------------------
#
# From the interior-point iterate, guess the optimal face (numerical rank of
# each PSD block, near-zero nonnegativity-constrained coordinates), then run
# one Gauss-Newton solve of the face-restricted KKT system in the primal
# factors ``M_i = R_i R_i^T`` and the multipliers, started from the loop's own
# primal and dual point.  Sign constraints are not part of that system: a
# candidate pair is accepted only after an exact KKT verification (primal
# residuals, the dual residual of the PSD part of each block's slack, the
# gap), so acceptance never depends on the face guess being right; by
# convexity a verified pair is optimal.
#
# The system addresses matrix entries by their index into the vectorized
# variable ``v``; an entry (r, c) of a block at offset ``off`` and order
# ``o`` sits at ``off + r*o + c``, its mirror at ``off + c*o + r``.

_POLISH_THRESHOLDS = (1e-3, 1e-4, 1e-5)


def _face_polish(p, A, b, c, v, nu, Z, it):
    """The first face guess, over ``_POLISH_THRESHOLDS``, whose polished
    point passes the verification, as an ``Optimal`` result; else None."""
    scale_b = 1.0 + float(np.abs(b).max(initial=0.0))
    scale_c = 1.0 + float(np.abs(c).max())
    for theta in _POLISH_THRESHOLDS:
        try:
            vp, nu_p, dual = _kkt_refine(p, A, b, c, _detect_faces(p, v, theta), v, nu, Z)
        except np.linalg.LinAlgError:
            # A failed factorization (e.g. an SVD in lstsq that does not
            # converge) rejects this attempt like a failed verification.
            continue
        result = _result(p, A, b, c, vp, nu_p, it, dual,
                         f"face polish accepted at threshold {theta:g}")
        res = result.residuals
        if (
            res["equality"] <= 1e-9 * scale_b
            and res["cone"] <= 1e-9 * max(1.0, float(np.abs(vp).max()))
            and res["gap_relative"] <= 1e-7
            and dual <= 1e-9 * scale_c
        ):
            return result
    return None


def _detect_faces(p, v, theta):
    """Per-PSD-block numerical rank and per-coordinate activity guesses."""
    offs, scal0 = p.block_offsets()
    scale_v = max(1.0, float(np.abs(v).max()))
    faces = []
    for spec, off in zip(p.blocks, offs):
        o = spec.order
        mblk = v[off : off + o * o].reshape(o, o)
        mblk = 0.5 * (mblk + mblk.T)
        # Nonnegativity-constrained entries near zero.
        active = spec.nonneg_mask & (mblk <= theta * scale_v)
        if spec.psd:
            w, q = np.linalg.eigh(mblk)
            keep = w > theta * max(float(w.max(initial=0.0)), 1e-3)
            faces.append({"kind": "psd", "rank": int(keep.sum()), "active": active,
                          "R0": q[:, keep] * np.sqrt(np.maximum(w[keep], 0.0))})
        else:
            faces.append({"kind": "nn", "active": active})
    nonneg = np.array([s.nonneg for s in p.scalars], dtype=bool)
    return faces, nonneg & (v[scal0:] <= theta * scale_v)


def _gauss_newton(residual, jacobian, x, scale, max_iter=20, tol=1e-12):
    F = residual(x)
    fnorm = float(np.abs(F).max()) if F.size else 0.0
    for _ in range(max_iter):
        if fnorm <= tol * scale:
            break
        J = jacobian(x)
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        improved = False
        alpha = 1.0
        for _ls in range(8):
            xt = x + alpha * step
            Ft = residual(xt)
            ft = float(np.abs(Ft).max()) if Ft.size else 0.0
            if ft < fnorm:
                x, F, fnorm = xt, Ft, ft
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
    return x


class _FaceBlock(NamedTuple):
    """A PSD block of the face: its offset and order in ``v``, the rank and
    span in ``x`` of its factor, its active upper entries ``(rows, cols)``
    and their span in the complementarity list."""

    off: int
    order: int
    rank: int
    x: slice
    rows: np.ndarray
    cols: np.ndarray
    comp: slice


class _JointFace:
    """Joint face-restricted KKT system for Gauss-Newton.

    Unknowns ``x``, in this order: the factors ``R_i`` (fixed rank, row
    major) of the PSD blocks ``M_i = R_i R_i^T``; the free values, one per
    inactive upper entry of the non-PSD blocks and per inactive scalar,
    whose positions in ``v`` are ``free_up`` and (mirrored) ``free_lo``;
    the equality multipliers ``nu``; and the multipliers ``N`` on the active
    PSD-block entries, whose positions are ``comp``.  Rows: equality
    feasibility, per-block ``S_i R_i = 0`` with ``S_i = c_i + (A^T nu)_i -
    N_i``, complementarity ``v[comp] = 0`` and stationarity ``s[free_up] =
    0`` with ``s = c + A^T nu``.  Sign constraints are not part of the
    system; the verification after the solve checks them.
    """

    def __init__(self, p, A, b, c, faces_info):
        self.A, self.b, self.c = A, b, c
        self.num_vars = p.num_vars
        faces, active_scalars = faces_info
        offs, scal0 = p.block_offsets()
        self.psd, self.R0 = [], []
        up, lo, comp = [], [], [np.zeros(0, dtype=int)]
        pos = ncomp = 0
        for spec, off, face in zip(p.blocks, offs, faces):
            o = spec.order
            if face["kind"] == "psd":
                r = face["rank"]
                rows, cols = np.nonzero(np.triu(face["active"]))
                self.psd.append(
                    _FaceBlock(
                        off, o, r, slice(pos, pos + o * r), rows, cols,
                        slice(ncomp, ncomp + rows.size),
                    )
                )
                self.R0.append(face["R0"])
                comp.append(off + rows * o + cols)
                pos += o * r
                ncomp += rows.size
            else:
                rows, cols = np.nonzero(np.triu(~face["active"]))
                up.append(off + rows * o + cols)
                lo.append(off + cols * o + rows)
        free_scalars = scal0 + np.flatnonzero(~active_scalars)
        self.free_up = np.concatenate(up + [free_scalars])
        self.free_lo = np.concatenate(lo + [free_scalars])
        self.comp = np.concatenate(comp)
        self.free_slice = slice(pos, pos + self.free_up.size)
        self.nu_slice = slice(self.free_slice.stop, self.free_slice.stop + A.shape[0])
        self.nn_slice = slice(self.nu_slice.stop, self.nu_slice.stop + ncomp)
        self.num_params = self.nn_slice.stop

    def init(self, v, nu, Z):
        """Start at the detected factors and ``v``'s free values, with the
        multipliers ``nu`` and, on the active PSD entries, the entrywise
        multipliers ``c + A^T nu - Z`` (``Z`` one matrix per PSD block).  A
        diagonal ``N_k`` enters ``S_i`` twice, so it starts at half."""
        x = np.zeros(self.num_params)
        x[self.free_slice] = v[self.free_up]
        x[self.nu_slice] = nu
        _, S = self.slacks(x)
        N = x[self.nn_slice]
        for blk, R0, Sb, Zb in zip(self.psd, self.R0, S, Z):
            x[blk.x] = R0.reshape(-1)
            N[blk.comp] = (Sb - Zb)[blk.rows, blk.cols] * np.where(blk.rows == blk.cols, 0.5, 1.0)
        return x

    def vector(self, x):
        """The point ``v`` of the face parametrized by ``x``."""
        v = np.zeros(self.num_vars)
        for blk in self.psd:
            R = x[blk.x].reshape(blk.order, blk.rank)
            v[blk.off : blk.off + blk.order**2] = (R @ R.T).reshape(-1)
        free = x[self.free_slice]
        v[self.free_up] = free
        v[self.free_lo] = free
        return v

    def slacks(self, x):
        """``s = c + A^T nu`` and the symmetrized PSD blocks of ``s - N``."""
        s = self.c + self.A.T @ x[self.nu_slice]
        N = x[self.nn_slice]
        S = []
        for blk in self.psd:
            o = blk.order
            Sb = s[blk.off : blk.off + o * o].reshape(o, o)
            Sb = 0.5 * (Sb + Sb.T)
            Sb[blk.rows, blk.cols] -= N[blk.comp]
            Sb[blk.cols, blk.rows] -= N[blk.comp]
            S.append(Sb)
        return s, S

    def residual(self, x):
        v = self.vector(x)
        s, S = self.slacks(x)
        parts = [self.A @ v - self.b]
        for blk, Sb in zip(self.psd, S):
            parts.append((Sb @ x[blk.x].reshape(blk.order, blk.rank)).reshape(-1))
        parts += [v[self.comp], s[self.free_up]]
        return np.concatenate(parts)

    def jacobian(self, x):
        A = self.A
        m = A.shape[0]
        comp0 = m + sum(blk.order * blk.rank for blk in self.psd)
        stat0 = comp0 + self.comp.size
        J = np.zeros((stat0 + self.free_up.size, self.num_params))
        _, S = self.slacks(x)
        row = m
        for blk, Sb in zip(self.psd, S):
            o, r = blk.order, blk.rank
            R = x[blk.x].reshape(o, r)
            A3 = A[:, blk.off : blk.off + o * o].reshape(m, o, o)
            # sym(A_k) R is the derivative of A_k . R R^T (times 2) and the
            # coefficient of nu_k in S R.
            AR = ((0.5 * (A3 + A3.transpose(0, 2, 1))) @ R).reshape(m, o * r)
            J[:m, blk.x] = 2.0 * AR
            # Entry (i, j) of S R has d/dR[a, j] = S[i, a]: the rows of
            # kron(S, I_r), written without multiplying by the zeros of I_r.
            i, a, jj = np.ix_(np.arange(o), np.arange(o), np.arange(r))
            J[row + i * r + jj, blk.x.start + a * r + jj] = Sb[:, :, None]
            J[row : row + o * r, self.nu_slice] = AR.T
            # Active entry k at (i, l): d M[i, l] / d R[a, j] is
            # [a = i] R[l, j] + [a = l] R[i, j], and N_k enters S at (i, l)
            # and (l, i); diagonal entries take both terms.
            k = np.arange(blk.comp.start, blk.comp.stop)[:, None]
            jj = np.arange(r)
            i, l = blk.rows[:, None], blk.cols[:, None]
            np.add.at(J, (comp0 + k, blk.x.start + i * r + jj), R[blk.cols])
            np.add.at(J, (comp0 + k, blk.x.start + l * r + jj), R[blk.rows])
            np.add.at(J, (row + i * r + jj, self.nn_slice.start + k), -R[blk.cols])
            np.add.at(J, (row + l * r + jj, self.nn_slice.start + k), -R[blk.rows])
            row += o * r
        J[:m, self.free_slice] = A[:, self.free_up]
        mirrored = np.flatnonzero(self.free_lo != self.free_up)
        J[:m, self.free_slice.start + mirrored] += A[:, self.free_lo[mirrored]]
        J[stat0:, self.nu_slice] = A[:, self.free_up].T
        return J


def _kkt_refine(p, A, b, c, faces_info, v, nu, Z):
    """One Gauss-Newton solve of the face KKT system, started from the
    interior-point iterate ``(v, nu, Z)``; returns the polished point, its
    multipliers and their dual residual."""
    joint = _JointFace(p, A, b, c, faces_info)
    scale = 1.0 + max(float(np.abs(b).max(initial=0.0)), float(np.abs(c).max()))
    x = _gauss_newton(joint.residual, joint.jacobian, joint.init(v, nu, Z), scale)
    _, S = joint.slacks(x)
    nu = x[joint.nu_slice]
    return joint.vector(x), nu, _dual_residual(p, A, c, nu, [_psd_part(Sb) for Sb in S])


def _psd_part(S):
    w, q = np.linalg.eigh(S)
    return (q * np.maximum(w, 0.0)) @ q.T


def kkt_residuals(p: ConicProgram, block_values, scalar_values=()):
    """Exact residual evaluation at a given point; no iteration.

    Returns the equality residual (infinity norm), the cone violation (worst
    negative eigenvalue over PSD blocks and worst negative entry over
    nonnegativity-constrained coordinates) and the objective value.  The
    spectral part uses the checked ``sym_eigh``.
    """
    v = p.vectorize_point(block_values, scalar_values)
    A, b = p.constraint_matrix()
    c = p.objective_vector()
    eq_res, cone_viol = _primal_residuals(p, A, b, v)
    return {
        "equality": eq_res,
        "cone": cone_viol,
        "objective": float(c @ v) + p.obj_constant,
    }
