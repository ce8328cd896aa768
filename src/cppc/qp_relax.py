"""Sparse DNN relaxations of inequality-constrained QPs with ex-post
exactness certificates.

The quadratic program ``inf { x^T A x + 2 a^T x : F x <= d, x in K }`` is
lifted, after one slack per row, into one DNN block of order n+2 per
inequality, sharing the ``(1, x, X)`` corner ``C``.  Every block is a linear
image of that corner, so the program is built on ``C`` alone: row i's pair
of block equations gives ``k^T M_i k = 0`` for ``k = (-d_i, F_i, 1)``, so a
PSD block ``M_i`` has ``M_i k = 0``.  That makes the arm row of ``M_i``
equal to ``w_i^T C`` with ``w_i = (d_i, -F_i)``, i.e. ``M_i = P_i^T C P_i``
for ``P_i = [I | w_i]``.  ``P_i`` is onto, so ``M_i`` is PSD exactly when
``C`` is, and the arm entries' nonnegativity becomes the linear rows ``(C
w_i)_r >= 0``.  The relaxation is therefore one PSD and nonnegative block of
order n+1 with those rows (Shor's relaxation with RLT products of the rows
and the bounds); the per-row blocks are reported as ``P_i^T C P_i``.  This
holds for the DNN relaxation solved here, not for completely positive
blocks, since ``P_i`` has negative entries.  Solving the relaxation
gives a lower bound; the x-part of the solution, when feasible, gives an
upper bound.  Exactness can be certified ex post by rank-one blocks, by
matching bounds, or by kernel vectors of the blocks or of the northwest
block together with row multipliers.  Since ``P_i k = 0``, each block has
the rank of ``C`` and the kernel of ``C`` plus the line of ``k``, so these
checks read ``C`` and its spectrum alone; their evidence is re-verified on
the returned blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import cones, lp
from .conditions import (
    BOUNDED,
    ConstraintData,
    check_boundedness,
)
from .cones import GroundCone, cone_contains, dual_cone, interior_dual_contains, orthant
from .conic_solver import (
    OPTIMAL,
    ConicProgram,
    SolveOptions,
    SolveResult,
    solve,
)
from .matrix_core import SymMatrix
# perfbench/tracer.py wraps the routine under this name.
from .matrix_core import sym_eigh as jacobi_eigh

PROVEN_EXACT = "ProvenExact"
UNKNOWN = "Unknown"

#: Relative eigenvalue threshold below which a block direction counts as kernel.
KERNEL_TOL = 1e-6


@dataclass(frozen=True)
class QPInstance:
    """Data of ``inf { x^T A x + 2 a^T x : F x <= d, x in K }``."""

    A: SymMatrix
    a: np.ndarray
    F: np.ndarray
    d: np.ndarray
    K: GroundCone

    @staticmethod
    def build(A, a, F, d, K: Optional[GroundCone] = None) -> "QPInstance":
        A = A if isinstance(A, SymMatrix) else SymMatrix(A)
        a = np.asarray(a, dtype=float).reshape(-1)
        F = np.asarray(F, dtype=float)
        if F.size == 0:
            F = F.reshape(0, A.order)
        if F.ndim != 2:
            raise ValueError(f"F must be a 2-d array, got shape {F.shape}")
        d = np.asarray(d, dtype=float).reshape(-1)
        n = A.order
        if a.size != n or F.shape[1] != n or F.shape[0] != d.size:
            raise ValueError("inconsistent QP dimensions")
        for name, v in (("a", a), ("F", F), ("d", d)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} contains non-finite entries")
        if K is None:
            K = orthant(n)
        if K.dim != n:
            raise ValueError(f"ground cone has dim {K.dim}, expected {n}")
        if (K.kinds == cones.ZERO).any():
            raise ValueError("zero cone factors are not supported here")
        return QPInstance(A, a, F, d, K)

    @property
    def n(self) -> int:
        return self.A.order

    @property
    def m(self) -> int:
        return self.F.shape[0]

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.A.array @ x + 2.0 * self.a @ x)

    @cached_property
    def data(self) -> ConstraintData:
        """The rows as width-one arm data ``(F_i, 1, d_i)``, built once."""
        return ConstraintData.width_one(self.K, self.F, np.ones(self.m), self.d)

    def feasible(self, x) -> bool:
        """Whether ``x`` is finite, lies in ``K`` within 1e-7 and meets every
        row within 1e-7 times ``max(1, max |d|)``."""
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all() or not cone_contains(self.K, x, 1e-7):
            return False
        if self.m and (self.F @ x - self.d).max() > 1e-7 * max(1.0, float(np.abs(self.d).max())):
            return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "A": self.A.to_lists(),
            "a": self.a.tolist(),
            "F": self.F.tolist(),
            "d": self.d.tolist(),
            "K": self.K.to_json_dict(),
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "QPInstance":
        required = {"A", "a", "F", "d"}
        missing = required - obj.keys()
        if missing:
            raise ValueError(f"QP JSON is missing keys {sorted(missing)}")
        unknown = obj.keys() - (required | {"K"})
        if unknown:
            raise ValueError(f"QP JSON has unknown keys {sorted(unknown)}")
        K = GroundCone.from_json_dict(obj["K"]) if "K" in obj else None
        return QPInstance.build(obj["A"], obj["a"], obj["F"], obj["d"], K)


@dataclass(frozen=True)
class GeneralInstance:
    """Coupled-objective generalization: per-arm terms ``x^T B_i y_i +
    y_i^T C_i y_i + c_i^T y_i`` with ``B_i = b_i g_i^T`` and ``c_i = beta_i
    g_i`` enforced by construction, over width-one constraint data ``(f_i,
    g_i, d_i)`` with ``g_i != 0``.

    The linear objective coefficient is the raw one (``a^T x``, not
    ``2 a^T x``).
    """

    A: SymMatrix
    a: np.ndarray
    b: np.ndarray  # (S, n_x): row i is b_i
    beta: np.ndarray  # (S,)
    C: np.ndarray  # (S,): the order-1 C_i as scalars
    data: ConstraintData

    @staticmethod
    def build(A, a, b, beta, C, data: ConstraintData) -> "GeneralInstance":
        """Each ``beta_i`` may be a scalar or a one-element array, each
        ``C_i`` an order-1 ``SymMatrix``, a 1 x 1 array or a scalar."""
        A = A if isinstance(A, SymMatrix) else SymMatrix(A)
        a = np.asarray(a, dtype=float).reshape(-1)
        S, nx = data.S, data.nx
        b = [np.asarray(v, dtype=float).reshape(-1) for v in b]
        beta = [np.asarray(v, dtype=float) for v in beta]
        C = [c.array if isinstance(c, SymMatrix) else np.asarray(c, dtype=float) for c in C]
        if A.order != nx or a.size != nx:
            raise ValueError("objective dimensions do not match the shared cone")
        if not (len(b) == len(beta) == len(C) == S):
            raise ValueError("per-arm objective lengths do not match S")
        # The relaxation lives on the shared corner, which needs every arm
        # coefficient to be divided out (see _lifts).
        if np.any(data.g == 0.0):
            raise ValueError("every arm coefficient g_i must be nonzero")
        if any(v.size != nx for v in b):
            raise ValueError("coupling vector dimension mismatch")
        if any(v.size != 1 for v in beta):
            raise ValueError("every beta_i must be a scalar or a one-element array")
        if any(c.size != 1 for c in C):
            raise ValueError("arm quadratic order mismatch")
        beta = np.array([v.item() for v in beta])
        C = np.array([c.item() for c in C], dtype=float)
        if not np.isfinite(C).all():
            raise ValueError("arm quadratic contains non-finite entries")
        return GeneralInstance(A, a, np.reshape(b, (S, nx)), beta, C, data)


@dataclass(frozen=True)
class RelaxationSolution:
    """The solved relaxation: its corner ``C = [[1, x^T], [x, X]]``, the
    per-row blocks ``M_i = P_i^T C P_i`` as one stack of shape ``(m, n+2,
    n+2)``, and the corner's checked eigendecomposition ``(w, v)``, taken
    once.  Every block has the rank of ``C`` and its kernel plus the line
    of ``k_i = (-d_i, F_i, 1)``, so the certificates read this spectrum
    for all of them.  The arrays are read-only."""

    corner: np.ndarray
    blocks: np.ndarray
    spectrum: tuple
    objective: float
    solver: SolveResult

    @property
    def x(self) -> np.ndarray:
        return self.corner[0, 1:]

    @property
    def X(self) -> np.ndarray:
        return self.corner[1:, 1:]


@dataclass
class ExactnessReport:
    """The bounds, the checks that ran and the verdict, all read off the
    one interior-point solution of the relaxation."""

    lower: float
    upper: Optional[float]
    rank_one: bool
    certificate_a: Optional[dict]
    certificate_b: Optional[dict]
    overall: str
    proven_by: list = field(default_factory=list)
    diagnostics: str = ""
    solution: Optional[RelaxationSolution] = None


def _row_instance(qp: QPInstance) -> GeneralInstance:
    """The QP over its arm data (:attr:`QPInstance.data`) with no coupling
    terms; the linear coefficient doubles to ``2 a``."""
    m = qp.m
    return GeneralInstance.build(
        qp.A, 2.0 * qp.a, np.zeros((m, qp.n)), np.zeros(m), np.zeros(m), qp.data
    )


def _kernel_lift(k: np.ndarray, j: int) -> np.ndarray:
    """``Q`` with ``k^T Q = 0`` that keeps every coordinate but ``j``
    (``k_j != 0``): a matrix ``M`` with ``M k = 0`` is ``Q G Q^T`` for ``G``,
    ``M`` without row and column ``j``."""
    Q = np.delete(np.eye(k.size), j, axis=1)
    Q[j] = -np.delete(k, j) / k[j]
    return Q


def _lifts(data: ConstraintData):
    """``(keep, Q_0, L)`` for the variable ``G`` of the relaxation: the
    corner ``C`` over ``(1, x)`` is ``Q_0 G Q_0^T``, ``G`` being ``C`` on the
    coordinates ``keep``, and arm i's block over ``(1, x, y_i)`` is ``L[i] G
    L[i]^T``.  ``L`` stacks the lifts of all arms, shape ``(S, n+2,
    keep.size)``, each being ``[Q_0; w_i^T Q_0]``.

    Arm i's pair of block equations puts ``(-d_i, f_i, g_i)`` in the kernel
    of its PSD block, so the row of ``y_i`` is ``w_i^T C`` with ``w_i =
    (d_i, -f_i) / g_i``.  A nonzero shared vector likewise puts ``(-d_0,
    f_0)`` in the kernel of ``C``, and ``G`` drops the coordinate where
    ``|f_0|`` is largest; otherwise ``G = C``.
    """
    n, S = data.nx, data.S
    keep, Q0 = np.arange(n + 1), np.eye(n + 1)
    if np.any(data.f[0]):
        j = 1 + int(np.argmax(np.abs(data.f[0])))
        keep = np.delete(keep, j)
        Q0 = _kernel_lift(np.concatenate([[-data.d[0]], data.f[0]]), j)
    W = np.column_stack([data.d[1:], -data.f[1:]]) / data.g
    lifts = np.concatenate([np.broadcast_to(Q0, (S, *Q0.shape)), (W @ Q0)[:, None]], axis=1)
    return keep, Q0, lifts


def build_sparse_relaxation(qp: QPInstance) -> ConicProgram:
    """The relaxation with one DNN block of order n+2 per inequality row,
    collapsed onto their shared ``(1, x, X)`` corner (see the module
    docstring): the general relaxation of the rows read as width-one arms
    ``(F_i, 1, d_i)``, with the lifted objective ``A . X + 2 a^T x``."""
    return build_general_relaxation(_row_instance(qp))


def build_general_relaxation(gi: GeneralInstance) -> ConicProgram:
    """One PSD block ``G`` with ``G_00 = 1`` (see ``_lifts``), nonnegative
    where both coordinates lie in ``R_+ x K0``; every block ``L[i] G
    L[i]^T`` meets its pair of block equations, and ``C = Q_0 G Q_0^T`` the
    shared pair, for every ``G``.

    The remaining entries that must be nonnegative are ``>=`` rows on
    ``G``, given as pairs: with a shared constraint whose dropped
    coordinate lies in an orthant, that coordinate's row of ``C``; then, on
    each orthant arm, the entries ``(C w_i)_r`` of its arm row for r = 0 and
    every orthant coordinate.  Diagonal entries such as ``Y_i = w_i^T C
    w_i`` are nonnegative already because ``G`` is PSD.  Arm i's objective
    terms ``per_i`` map to ``L[i]^T per_i L[i]``.
    """
    data = gi.data
    n, S = data.nx, data.S
    xs = slice(1, n + 1)
    keep, Q0, lifts = _lifts(data)
    k = keep.size
    pattern = cones.orthant_pattern(data.K0)
    prog = ConicProgram(k, nonneg_mask=pattern[np.ix_(keep, keep)])
    prog.fix(0, 0, 1.0)
    orthant_coords = np.flatnonzero(pattern[0])
    # Entry (j, r) of C is Q_0[j] G Q_0[r]^T, and entry r of arm i's row is
    # L[i, r] G L[i, n+1]^T: each row is the pair of those two vectors.
    for j in np.setdiff1d(orthant_coords, keep):
        others = Q0[np.setdiff1d(orthant_coords, j)]
        prog.add_inequality(0.0, np.broadcast_to(Q0[j], others.shape), others)
    arms = lifts[data.arm_kinds == cones.ORTHANT]
    prog.add_inequality(0.0, arms[:, orthant_coords].reshape(-1, k),
                        np.repeat(arms[:, n + 1], orthant_coords.size, axis=0))
    corner = np.zeros((n + 1, n + 1))
    corner[xs, xs] = gi.A.array
    corner[0, xs] = gi.a / 2.0
    corner[xs, 0] = gi.a / 2.0
    g = data.g[:, 0]
    per = np.zeros((S, n + 2, n + 2))
    per[:, xs, n + 1] = per[:, n + 1, xs] = gi.b * (g / 2.0)[:, None]
    per[:, n + 1, n + 1] = gi.C
    per[:, 0, n + 1] = per[:, n + 1, 0] = gi.beta * g / 2.0
    prog.set_objective(Q0.T @ corner @ Q0 + (lifts.transpose(0, 2, 1) @ per @ lifts).sum(axis=0))
    return prog


def build_dense_reformulation(qp: QPInstance) -> ConicProgram:
    """The single DNN block of order n+m+1 over ``(1, x, y)``, collapsed onto
    its corner like the sparse relaxation.

    Its rows put every ``(-d_i, F_i, e_i)`` in its kernel, so the block is
    ``P^T C P`` with ``P = [I | w_1 .. w_m]``: the sparse relaxation plus
    one ``>=`` row per pair of rows for the cross-arm entries ``w_i^T C w_j
    >= 0``.  Being the sparse program with more rows, its bound is never
    below the sparse one; it is the reference the tests and the benchmark
    compare against.
    """
    prog = build_general_relaxation(_row_instance(qp))
    _, _, lifts = _lifts(qp.data)
    i, j = np.triu_indices(qp.m, 1)
    prog.add_inequality(0.0, lifts[i, -1], lifts[j, -1])
    return prog


def extract_solution(qp: QPInstance, res: SolveResult) -> RelaxationSolution:
    """The solved corner, its spectrum and the per-row blocks ``P_i^T C
    P_i``, all formed by one batched product.

    The rows are arms with ``g_i = 1`` and no shared constraint, so each
    lift of ``_lifts`` is ``I`` over ``w_i^T = (d_i, -F_i)``.  Each block
    keeps its upper triangle, mirrored.  The corner takes the program's
    unit entry exactly; the blocks are those of the returned block.
    """
    C = 0.5 * (res.block + res.block.T)
    _, _, lifts = _lifts(qp.data)
    B = lifts @ C @ lifts.transpose(0, 2, 1)
    blocks = np.triu(B) + np.triu(B, 1).transpose(0, 2, 1)
    C[0, 0] = 1.0
    spectrum = jacobi_eigh(C)
    for arr in (C, blocks, *spectrum):
        arr.setflags(write=False)
    return RelaxationSolution(C, blocks, spectrum, res.objective, res)


def rank_one_certificate(sol: RelaxationSolution) -> bool:
    """True iff the corner's second eigenvalue is below ``KERNEL_TOL`` times
    its largest, i.e. every block has rank one."""
    w, _ = sol.spectrum
    return bool(w[-2] <= KERNEL_TOL * max(w[-1], 0.0))


def _kernel_mask(w: np.ndarray, tol: float) -> np.ndarray:
    """Which eigenvalues ``w`` are below ``tol`` times the spectral scale."""
    return np.abs(w) <= tol * max(float(np.abs(w).max()), 1e-12)


def certificate_b(qp: QPInstance, sol: RelaxationSolution):
    """Kernel-vector certificate on the northwest block.

    When the corner has a kernel, one LP (:func:`_kernel_direction`) finds
    a direction ``(-1, u)`` that passes the kernel re-check below and gives
    every row a multiplier within its bound.  Then ``u`` must lie in the
    dual-cone interior and every row admits a multiplier: the smallest is
    ``gamma_i = max(0, max_j F_ij / u_j)``, since ``u`` has no free
    coordinate.  All returned evidence re-verifies against the data.  Also
    reports whether the feasible polytope was verified bounded (the test is
    one-directional otherwise).
    """
    nw = sol.corner
    kernel = _kernel_mask(sol.spectrum[0], KERNEL_TOL)
    vec = _kernel_direction(qp, nw) if kernel.any() else None
    if vec is None:
        return None
    u = vec[1:]
    if not interior_dual_contains(qp.K, u):
        return None
    residual = float(np.abs(nw @ vec).max())
    if residual > _kernel_bound(nw, float(np.abs(vec).max())):
        return None
    gammas = (qp.F / u).max(axis=1, initial=0.0)
    # Exact re-verification of the evidence.
    if not cone_contains(dual_cone(qp.K), gammas[:, None] * u - qp.F, 1e-9):
        return None
    if np.any(gammas > qp.d + 1e-9):
        return None
    return {
        "u": u,
        "gamma": gammas,
        "kernel_vector": vec,
        "kernel_residual": residual,
        "polytope_bounded": _polytope_bounded(qp),
    }


def _kernel_bound(C: np.ndarray, vmax: float) -> float:
    """Certificate B's bound on ``|C v|`` for a vector ``v`` whose largest
    entry is ``vmax`` in absolute value."""
    return 10.0 * KERNEL_TOL * max(1.0, float(np.abs(C).max())) * max(1.0, vmax)


def _kernel_direction(qp: QPInstance, C: np.ndarray):
    """A vector ``v = (-1, u)`` whose residual ``|C v|`` on the corner ``C``
    is within the re-check bound of :func:`certificate_b`, with ``d_i u_j >=
    F_ij`` for every row with ``d_i > 0`` (so the multipliers ``gamma_i =
    max_j F_ij / u_j`` are at most ``d_i``, up to rounding) and ``u_j >=
    1e-6``; None when there is none or the ground cone is not an orthant.

    The rows give ``u = lower + s`` with ``s >= 0``.  The bound's
    ``max|v|`` is taken at ``lower``, which can only tighten it, so ``|C
    v| <= bound`` is two rows per entry, each with a slack.  The LP
    minimizes the sum of ``s``; it reads the corner, not its eigenbasis.
    When ``|C (-1, lower)| <= bound`` entrywise its right-hand side is
    nonnegative, so the all-slack start is feasible and optimal with ``s =
    0``: ``(-1, lower)`` is returned without the LP, the same bytes.
    """
    if not qp.K.is_orthant_like():
        return None
    rows = qp.d > 0.0
    lower = (qp.F[rows] / qp.d[rows, None]).max(axis=0, initial=1e-6)
    bound = _kernel_bound(C, float(lower.max()))
    # C[:, 1:] s + C[:, 1:] lower - C[:, 0] lies in [-bound, bound].
    r0, o = C[:, 1:] @ lower - C[:, 0], C.shape[0]
    rhs = np.r_[bound - r0, bound + r0]
    if rhs.min() >= 0.0:
        return np.r_[-1.0, lower]
    A = np.block([[C[:, 1:], np.eye(o), np.zeros((o, o))],
                  [-C[:, 1:], np.zeros((o, o)), np.eye(o)]])
    try:
        res = lp.solve(np.r_[np.ones(qp.n), np.zeros(2 * o)], A, rhs)
    except np.linalg.LinAlgError:
        return None
    if res.status != lp.OPTIMAL:
        return None
    return np.r_[-1.0, lower + res.v[:qp.n]]


def _polytope_bounded(qp: QPInstance) -> bool:
    return check_boundedness(qp.data).status == BOUNDED


def certificate_a(qp: QPInstance, sol: RelaxationSolution):
    """Per-block kernel certificate: vectors ``(-1, alpha_i u, w_i)`` with a
    shared direction ``u`` in the dual-cone interior, positive ``alpha_i,
    w_i``, annihilated by their blocks.

    The kernels come from the corner's spectrum.  With ``C``
    nonsingular, block i's kernel is the line of ``k_i``, so its vector is
    ``k_i / d_i`` and ``u`` is the common direction of the rows ``F_i /
    d_i``.  Otherwise ``u = x / |x|`` and ``alpha_i, w_i`` are fitted by
    least squares, all blocks at once (:func:`_fit_alpha_w`), and each must
    exceed ``10 KERNEL_TOL``.  All evidence is re-verified by evaluating
    every ``M_i v_i`` in one batched product.
    """
    if qp.m == 0:
        return None
    singular = bool(_kernel_mask(sol.spectrum[0], KERNEL_TOL).any())
    if singular:
        norm = np.linalg.norm(sol.x)
        if norm < 1e-10:
            return None
        dirs = (sol.x / norm)[None, :]
    else:
        if np.any(qp.d <= 0.0):  # w_i = 1 / d_i must be positive
            return None
        parts, ws = qp.F / qp.d[:, None], 1.0 / qp.d
        alphas = np.linalg.norm(parts, axis=1)
        if alphas.min() < 1e-10:
            return None
        dirs = parts / alphas[:, None]
    # The top right singular vector; a row's sign does not change it.
    u_dir = np.linalg.svd(dirs, full_matrices=False)[2][0]
    if u_dir[np.argmax(np.abs(u_dir))] < 0:
        u_dir = -u_dir
    Ms = sol.blocks
    if singular:
        alphas, ws = _fit_alpha_w(Ms, u_dir, KERNEL_TOL).T
        parts = np.outer(alphas, u_dir)
    elif np.any(np.abs(parts - np.outer(alphas, u_dir)).max(axis=1)
                > 1e-6 * np.maximum(1.0, alphas)):
        return None
    vecs = np.column_stack([-np.ones(qp.m), parts, ws])
    scale = np.maximum(1.0, np.abs(Ms).max(axis=(1, 2)))
    if np.any(np.abs(Ms @ vecs[:, :, None]).max(axis=(1, 2)) > 10.0 * KERNEL_TOL * scale):
        return None
    # A fitted alpha_i or w_i must clear the re-check's own tolerance
    # (relative to the vector's entry -1): on a face whose exact weights
    # are 0 the fit returns rounding noise of either sign.
    floor = 10.0 * KERNEL_TOL if singular else 1e-10
    if alphas.min() <= floor or ws.min() <= floor:
        return None
    if not interior_dual_contains(qp.K, u_dir):
        return None
    return {"u": u_dir, "alpha": alphas, "w": ws, "vectors": list(vecs)}


def _fit_alpha_w(Ms: np.ndarray, u: np.ndarray, tol: float) -> np.ndarray:
    """Rows ``(alpha_i, w_i)`` with ``M_i (-1, alpha_i u, w_i) = 0`` for
    every block ``M_i`` of the stack ``Ms``, by least squares with singular
    values at most ``tol`` times the largest dropped.

    With parallel columns (rank-one blocks: ``alpha |x| + w y_i = 1``) the
    fit is a line, whose point a full-rank solve would take from rounding
    noise.  Its point with ``alpha = w`` has the largest ``min(alpha, w)``,
    so it is positive whenever some point is, also when ``y_i = 0`` leaves
    ``w`` free and the minimum-norm point puts it at 0.
    """
    cols = np.stack([Ms[:, :, 1:-1] @ u, Ms[:, :, -1]], axis=2)
    rhs = Ms[:, :, :1]
    s = np.linalg.svd(cols, compute_uv=False)
    fit = np.linalg.pinv(cols, rcond=tol) @ rhs
    line = np.linalg.pinv(cols.sum(axis=2, keepdims=True), rcond=tol) @ rhs
    return np.where(s[:, 1:] > tol * s[:, :1], fit[:, :, 0], line[:, :, 0])


def exactness_report(qp: QPInstance,
                     solver_opts: Optional[SolveOptions] = None) -> ExactnessReport:
    """Solve the relaxation and run every ex-post exactness check.

    ``ProvenExact`` when rank-one blocks, bounds that match to ``1e-6``
    relative, or either kernel certificate verifies; otherwise ``Unknown``
    (the checks are sound, not complete).

    The relaxation is solved once and every check runs once, on the
    checked interior-point iterate that ``solve`` returns.
    """
    return _checked(qp, solve(build_sparse_relaxation(qp), solver_opts))


def _checked(qp: QPInstance, res: SolveResult) -> ExactnessReport:
    """The report of every exactness check on the solved relaxation
    ``res``: the lower bound is its objective, the upper bound the
    objective at its x-part when that point is feasible within tolerance.
    A solve that is not ``Optimal`` gives an ``Unknown`` report with no
    bounds."""
    if res.status != OPTIMAL:
        return ExactnessReport(
            float("nan"), None, False, None, None, UNKNOWN,
            diagnostics=f"solver failure: relaxation solve returned {res.status}: "
                        f"{res.diagnostics}",
        )
    lower, sol = res.objective, extract_solution(qp, res)
    upper = qp.objective(sol.x) if qp.feasible(sol.x) else None
    proven = []
    rank_one = rank_one_certificate(sol)
    if rank_one:
        proven.append("rank_one")
    if upper is not None and abs(upper - lower) <= 1e-6 * max(1.0, abs(lower)):
        proven.append("bound_match")
    cert_a = certificate_a(qp, sol)
    if cert_a is not None:
        proven.append("certificate_a")
    cert_b = certificate_b(qp, sol)
    if cert_b is not None:
        proven.append("certificate_b")
    overall = PROVEN_EXACT if proven else UNKNOWN
    return ExactnessReport(
        lower, upper, rank_one, cert_a, cert_b, overall, proven, solution=sol
    )
