"""Reference checks that only the tests use.

``lemma_equivalence_check`` evaluates both forms of the lifted linear
constraint of the sparse relaxation; ``sample_projection_points`` and
``point_in_projection`` probe the x-projections of the constraint sets that
condition (iii) compares; ``cond_iii_by_pairs`` searches condition (iii) one
reference-arm pair and one coordinate at a time, the reference for the
vectorized ``check_cond_iii``; ``fit_alpha_w_by_block`` fits certificate A's
``(alpha, w)`` one block at a time, the reference for the stacked
``qp_relax._fit_alpha_w``; ``blocks_by_row`` forms the QP relaxation's
per-row blocks one row at a time, the reference for the stack of
``qp_relax.extract_solution``; ``block_residuals_by_arm`` evaluates the
completion's block equations one arm at a time, the reference for the
stacked ``completion._block_residuals``; ``dense_rows`` writes ``>=``
rows given as outer-product pairs as dense rows ``vec(sym(u v^T))``, one
pair at a time, the reference for the pair arithmetic of ``conic_solver``;
``row_program_residuals`` evaluates a point on a program posed with general
equality rows, which ``ConicProgram`` (fixed entries only) does not hold;
``kernel_vectors`` lists a matrix's kernel the way the certificates
measure it; ``arm_block`` builds an arm's fully specified block from the
pieces of a width-one partial matrix, the reference for the zero-filled
matrix and the stack of
``CompletionProblem.blocks``; ``cone_contains_by_factor`` and
``interior_dual_contains_by_factor`` walk a ground cone's factors, the
references for the coordinate-kind masks of ``cones``; ``svec_basis`` is
the dense basis of svec coordinates and ``free_form_by_svec_basis`` the
interior-point data of a program built through it, the reference for
``conic_solver._FreeForm``, which reads them off the entry indices;
``lp_maximize_standard`` is the enumeration LP oracle's maximizing form;
``boundedness_by_lp`` decides condition (ii) without the arm-sum test, the
reference for ``conditions.check_boundedness``, and ``kernel_direction_by_lp``
always solves certificate B's kernel LP, the reference for
``qp_relax._kernel_direction``, which skips it when its start is optimal.
The library's decision procedures never call them, so they live here,
next to the tests.
"""

from typing import Optional

import numpy as np

from cppc import conditions, lp
from cppc.conditions import _EXACT_TOL, BoundednessVerdict, ConstraintData
from cppc.conic_solver import _svec_rows
from cppc.cones import FREE, ORTHANT, ZERO, GroundCone, cone_contains, dual_cone
from cppc.matrix_core import SymMatrix, sym_eigh
from cppc.oracles import lp_minimize_standard
from cppc.qp_relax import KERNEL_TOL, _kernel_bound, _kernel_mask


def lemma_equivalence_check(M: SymMatrix, a, b, r: float, nx: Optional[int] = None,
                            tol: float = 1e-9):
    """Evaluate both forms of the lifted linear-constraint condition on a PSD
    matrix ``[[1, x^T, y^T], [x, X, Z^T], [y, Z, Y]]``.

    Returns ``(pair_holds, aggregate_holds)``; on PSD inputs the two agree.
    The matrix must be PSD within tolerance (the equivalence needs it).
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    mat = M.array if isinstance(M, SymMatrix) else np.asarray(M, dtype=float)
    order = mat.shape[0]
    if nx is None:
        nx = a.size
    ny = order - 1 - nx
    if ny != b.size:
        raise ValueError("partition does not match the vector dimensions")
    w, _ = sym_eigh(mat)
    scale = max(1.0, float(np.abs(w).max()))
    if w[0] < -tol * scale:
        raise ValueError("matrix is not PSD within tolerance")
    # The aggregate form assumes a unit leading entry; with r = 0 the
    # mismatch term drops out, so only r^2 (M00 - 1) needs to vanish.
    if r * r * abs(mat[0, 0] - 1.0) > 1e-9:
        raise ValueError("leading entry must be one when r is nonzero")
    x = mat[0, 1 : 1 + nx]
    y = mat[0, 1 + nx :]
    X = mat[1 : 1 + nx, 1 : 1 + nx]
    Z = mat[1 + nx :, 1 : 1 + nx]
    Y = mat[1 + nx :, 1 + nx :]
    lin = float(a @ x + b @ y - r)
    quad = float(a @ X @ a + 2.0 * a @ Z.T @ b + b @ Y @ b - r * r)
    agg = float(
        a @ X @ a
        + 2.0 * a @ Z.T @ b
        + b @ Y @ b
        - 2.0 * r * (a @ x)
        - 2.0 * r * (b @ y)
        + r * r
    )
    pair = abs(lin) <= tol * max(1.0, abs(r)) and abs(quad) <= tol * max(1.0, r * r, 1.0)
    aggregate = abs(agg) <= tol * max(1.0, r * r, 1.0)
    return pair, aggregate


def projection_halfspace(data: ConstraintData, i: int):
    """The i-th constraint set's x-projection as ``(mode, f, d)``.

    For arms (under the interior condition) the slack can take any
    nonnegative value, so the projection is the half-space ``f_i^T x <= d_i``
    within ``K0``; the shared constraint projects to the hyperplane itself.
    """
    if i == 0:
        return "hyperplane", data.f[0], data.d[0]
    return "halfspace", data.f[i], data.d[i]


def sample_projection_points(
    data: ConstraintData, i_star: int, count: int, rng, ray_scale: float = 10.0
):
    """Random points of the ``i_star``-th x-projection, for soundness probing.

    Rays are drawn into ``K0`` and scaled onto the hyperplane or into the
    half-space.  Rays that cannot be scaled feasibly are skipped, so fewer
    than ``count`` points may come back.
    """
    kinds = data.K0.kinds
    n = data.nx
    mode, fvec, dval = projection_halfspace(data, i_star)
    points = []
    attempts = 0
    while len(points) < count and attempts < 20 * count + 100:
        attempts += 1
        r = rng.standard_normal(n)
        for j in range(n):
            if kinds[j] == ORTHANT:
                r[j] = abs(r[j])
            elif kinds[j] == ZERO:
                r[j] = 0.0
        a = float(fvec @ r)
        if mode == "hyperplane":
            if not np.any(fvec):
                points.append(r * rng.uniform(0.0, ray_scale))
                continue
            if abs(a) < 1e-12:
                if dval == 0.0:
                    points.append(r * rng.uniform(0.0, ray_scale))
                continue
            t = dval / a
            if t >= 0.0:
                points.append(r * t)
            continue
        # half-space f^T x <= d
        if a > 1e-12:
            if dval >= 0.0:
                points.append(r * rng.uniform(0.0, dval / a))
        elif a < -1e-12:
            t_min = dval / a if dval < 0.0 else 0.0
            points.append(r * (t_min + rng.uniform(0.0, ray_scale)))
        else:
            if dval >= 0.0:
                points.append(r * rng.uniform(0.0, ray_scale))
    return np.array(points) if points else np.zeros((0, n))


def point_in_projection(data: ConstraintData, i: int, x, tol: float = 1e-9) -> bool:
    """Membership of ``x`` in the i-th x-projection."""
    if not cone_contains(data.K0, x, tol):
        return False
    mode, fvec, dval = projection_halfspace(data, i)
    val = float(fvec @ np.asarray(x, dtype=float))
    if mode == "hyperplane":
        return abs(val - dval) <= tol * max(1.0, abs(dval))
    return val <= dval + tol * max(1.0, abs(dval))


def scalar_lambda_feasible(
    f_ref, d_ref: float, f, d: float, K0: GroundCone, lam_sign: str = "free"
) -> Optional[float]:
    """Scalar multiplier placing the reference set inside
    ``{x in K0 : f^T x <= d}``: find lam with ``lam * d_ref <= d`` and
    ``lam * f_ref - f in K0*``, by exact interval intersection.

    With ``lam_sign = "free"`` the reference set is the hyperplane slice
    ``{x in K0 : f_ref^T x = d_ref}``; with ``"nonneg"`` it is the half-space
    slice ``{x in K0 : f_ref^T x <= d_ref}``.  Returns None when the interval
    is empty; any returned value re-verifies exactly.
    """
    f_ref = np.asarray(f_ref, dtype=float).reshape(-1)
    f = np.asarray(f, dtype=float).reshape(-1)
    if f_ref.size != K0.dim or f.size != K0.dim:
        raise ValueError("vector dimension does not match the cone")
    kinds = K0.kinds
    lo, hi = -np.inf, np.inf
    pins = []
    for j in range(K0.dim):
        kind = kinds[j]
        if kind == ZERO:
            continue
        if kind == ORTHANT:
            if f_ref[j] > 0.0:
                lo = max(lo, f[j] / f_ref[j])
            elif f_ref[j] < 0.0:
                hi = min(hi, f[j] / f_ref[j])
            elif f[j] > 0.0:
                return None
        else:  # free coordinate: dual is zero, equality required
            if f_ref[j] != 0.0:
                pins.append(f[j] / f_ref[j])
            elif abs(f[j]) > _EXACT_TOL:
                return None
    if d_ref > 0.0:
        hi = min(hi, d / d_ref)
    elif d_ref < 0.0:
        lo = max(lo, d / d_ref)
    elif d < 0.0:
        return None
    if lam_sign == "nonneg":
        lo = max(lo, 0.0)
    elif lam_sign != "free":
        raise ValueError(f"unknown lam_sign {lam_sign!r}")

    slack_interval = _EXACT_TOL * max(
        1.0, abs(lo) if np.isfinite(lo) else 0.0, abs(hi) if np.isfinite(hi) else 0.0
    )
    if pins:
        lam = pins[0]
        if any(abs(pin - lam) > _EXACT_TOL for pin in pins[1:]):
            return None
        if not (lo - _EXACT_TOL <= lam <= hi + _EXACT_TOL):
            return None
    elif lo > hi + slack_interval:
        return None
    elif lo <= 1.0 <= hi:
        lam = 1.0
    elif np.isfinite(lo):
        lam = min(lo, hi) if np.isfinite(hi) else lo
    elif np.isfinite(hi):
        lam = hi
    else:
        lam = 0.0

    slack = _EXACT_TOL * max(1.0, abs(lam), float(np.abs(f).max(initial=0.0)))
    if lam * d_ref > d + slack:
        return None
    if not cone_contains(dual_cone(K0), lam * f_ref - f, slack):
        return None
    return float(lam)


def cond_iii_by_pairs(data: ConstraintData):
    """Condition (iii) by :func:`scalar_lambda_feasible` on one pair at a
    time: the shared reference with free multipliers, then, when the shared
    constraint is vacuous, each arm reference with nonnegative multipliers
    by decreasing right-hand side, then index.  Returns the certificate or
    None, and the reasons joined as :func:`cppc.conditions.check_cond_iii`
    joins them."""
    reasons = []
    lams = []
    for i in range(1, data.S + 1):
        lam = scalar_lambda_feasible(data.f[0], data.d[0], data.f[i], data.d[i], data.K0)
        if lam is None:
            reasons.append(f"reference 0: no multiplier for arm {i}")
            break
        lams.append(lam)
    else:
        return (0, lams), ""

    if np.any(data.f[0]) or data.d[0] != 0.0:
        reasons.append("arm references need a vacuous shared constraint (f0 = 0, d0 = 0)")
        return None, "; ".join(reasons)

    for i_star in sorted(range(1, data.S + 1), key=lambda i: (-data.d[i], i)):
        lams = []
        for i in range(1, data.S + 1):
            lam = scalar_lambda_feasible(
                data.f[i_star], data.d[i_star], data.f[i], data.d[i], data.K0, "nonneg"
            )
            if lam is None:
                reasons.append(f"reference {i_star}: no multiplier for arm {i}")
                break
            lams.append(lam)
        else:
            return (i_star, lams), ""
    return None, "; ".join(reasons)


def fit_alpha_w_by_block(M: np.ndarray, u: np.ndarray, tol: float) -> np.ndarray:
    """``(alpha, w)`` with ``M (-1, alpha u, w) = 0`` for one block ``M`` by
    least squares, singular values at most ``tol`` times the largest
    dropped; with parallel columns (rank below two), the point of the fitted
    line with ``alpha = w``."""
    cols = np.column_stack([M[:, 1:-1] @ u, M[:, -1]])
    fit, _, rank, _ = np.linalg.lstsq(cols, M[:, 0], rcond=tol)
    if rank < 2:
        fit = np.linalg.lstsq(cols.sum(axis=1)[:, None], M[:, 0], rcond=tol)[0].repeat(2)
    return fit


def blocks_by_row(F, d, corner) -> np.ndarray:
    """Row i's block ``P_i^T C P_i`` of the QP relaxation, ``P_i = [I |
    w_i]`` with ``w_i = (d_i, -F_i)``, formed one row at a time; shape
    ``(m, n+2, n+2)``."""
    corner = np.asarray(corner, dtype=float)
    o = corner.shape[0]
    blocks = np.zeros((len(d), o + 1, o + 1))
    for i in range(len(d)):
        P = np.column_stack([np.eye(o), np.r_[d[i], -np.asarray(F[i], dtype=float)]])
        blocks[i] = P.T @ corner @ P
    return blocks


def block_residuals_by_arm(pm, data: ConstraintData):
    """Both block equations of every arm of the unit-corner partial matrix
    ``pm``, one arm at a time from its pieces ``(x, X, y_i, z_i, Y_i)``, as
    ``(lin, quad)`` pairs; and the pair of the shared constraint."""
    x, X = pm.X.array[0, 1:], pm.X.array[1:, 1:]
    per_arm = []
    for i in range(1, pm.pattern.S + 1):
        z_row = pm.Z[i - 1][0]
        y, z, Y = float(z_row[0]), z_row[1:], float(pm.Y[i - 1][0, 0])
        f, g, d = data.f[i], float(data.g[i - 1][0]), float(data.d[i])
        lin = float(f @ x + g * y - d)
        quad = float(f @ X @ f + 2.0 * g * (f @ z) + g * g * Y - d * d)
        per_arm.append((lin, quad))
    f0, d0 = data.f[0], float(data.d[0])
    return per_arm, (float(f0 @ x - d0), float(f0 @ X @ f0 - d0 * d0))


def dense_rows(U, V) -> np.ndarray:
    """The rows ``vec(sym(u v^T))`` of the pairs ``(U[k], V[k])``, one pair
    at a time: row k pairs with the vectorized matrix ``M`` as ``u^T M v``
    does for a symmetric ``M``."""
    o = np.shape(U)[-1]
    L = np.zeros((len(U), o * o))
    for k, (u, v) in enumerate(zip(U, V)):
        C = np.outer(u, v)
        L[k] = (0.5 * (C + C.T)).reshape(-1)
    return L


def svec_basis(order: int) -> np.ndarray:
    """``T`` whose columns are the svec coordinates of a matrix of the given
    order as vectors ``v``: diagonal entry (r, r) is ``M_rr``, off-diagonal
    (r, c) is ``(M_rc + M_cr) / sqrt 2``.  The columns are orthonormal,
    ``T^T v`` is the svec of a symmetric ``v``, ``T s`` the point of an svec
    ``s``, and ``a^T T`` the svec row of a functional ``a``."""
    r, c = np.triu_indices(order)
    T = np.zeros((order * order, r.size))
    T[[r * order + c, c * order + r], np.arange(r.size)] = np.where(r == c, 1.0, np.sqrt(0.5))
    return T


def free_form_by_svec_basis(p, d):
    """``(A, b, c, point)`` of the interior-point form of the program ``p``
    with data ``d``, built through :func:`svec_basis`: ``A`` is ``-T`` at
    the free svec coordinates stacked with the rows' svec coefficients
    there, each row scaled to unit norm, and transposed; ``b = -(T^T
    c)_free``; ``c`` is ``T v0`` (``v0`` the fixed values in svec
    coordinates) followed by the scaled row values at ``v0``; and
    ``point(y)`` is ``T s`` for the svec ``s`` that is ``v0`` with ``y`` at
    the free coordinates.  Rows that the fixed entries make constant drop
    out."""
    o = p.order
    T = svec_basis(o)
    r, c = np.array([e[:2] for e in p.equalities], dtype=int).reshape(-1, 2).T
    fixed = r * o - r * (r - 1) // 2 + c - r
    free = np.setdiff1d(np.arange(T.shape[1]), fixed)
    v0 = np.zeros(T.shape[1])
    v0[fixed] = d.b / np.where(r == c, 1.0, np.sqrt(0.5))
    ri, ci = np.triu_indices(o)
    G = _svec_rows(d.U, d.V, ri[free], ci[free])
    Gf = _svec_rows(d.U, d.V, r, c)
    norms = np.linalg.norm(G, axis=1)
    rows = np.flatnonzero(norms > 1e-9 * np.hypot(norms, np.linalg.norm(Gf, axis=1)))
    scale = 1.0 / norms[rows]
    A = -np.vstack([T[:, free], G[rows] * scale[:, None]]).T
    c_vec = np.r_[T @ v0, (Gf @ v0[fixed] - d.h)[rows] * scale]

    def point(y):
        s = v0.copy()
        s[free] = y
        return T @ s

    return A, -(T.T @ d.c)[free], c_vec, point


def lp_maximize_standard(c, A, b):
    """Maximize ``c . v`` over ``{v >= 0 : A v = b}`` by basic-solution
    enumeration (:func:`cppc.oracles.lp_minimize_standard` on ``-c``);
    ``(value, v)``, or ``(None, None)`` when no basic feasible solution
    exists."""
    val, v = lp_minimize_standard(-np.asarray(c, dtype=float), A, b)
    if val is None:
        return None, None
    return -val, v


def row_program_residuals(prog, A, b, X) -> dict:
    """The residuals ``conic_solver.kkt_residuals`` reports, of the matrix
    ``X`` on the equality rows ``A v = b`` and on ``prog``'s ``>=`` rows,
    mask and objective, in that order: the largest equality violation, the
    worst of the most negative eigenvalue (checked ``sym_eigh``) and the
    ``>=`` rows' violations, and the objective value."""
    X = np.asarray(X, dtype=float)
    v = X.reshape(-1)
    U, V, h = prog.inequality_pairs()
    L = dense_rows(U, V)
    w, _ = sym_eigh(X)
    return {
        "equality": float(np.abs(A @ v - b).max(initial=0.0)),
        "cone": max(float(np.max(h - L @ v, initial=0.0)), -float(w[0])),
        "objective": float(prog.objective_vector() @ v),
    }


def kernel_vectors(M, tol: float = KERNEL_TOL):
    """Orthonormal eigenvectors of ``M`` with eigenvalues below ``tol``
    times the spectral scale."""
    w, v = sym_eigh(M)
    return [v[:, k].copy() for k in np.flatnonzero(_kernel_mask(w, tol))]


def arm_block(pm, i: int) -> np.ndarray:
    """Arm ``i``'s (1-based) fully specified block ``[[X, Z_i^T], [Z_i, Y_i]]``
    of the width-one partial matrix ``pm``, built from its pieces."""
    z = pm.Z[i - 1]
    return np.block([[pm.X.array, z.T], [z, pm.Y[i - 1].array]])


def cone_contains_by_factor(K: GroundCone, x, tol: float = 1e-9) -> bool:
    """``cones.cone_contains`` one factor at a time: orthant factors above
    ``-tol``, zero factors within ``tol`` of zero.  A NaN entry passes the
    test of the factor that holds it."""
    x = np.asarray(x, dtype=float)
    if x.size == K.dim or x.ndim != 2:
        x = x.reshape(1, -1)
    if x.shape[1] != K.dim:
        raise ValueError(f"vector has dim {x.shape[1]}, cone has dim {K.dim}")
    pos = 0
    for kind, d in K.factors:
        seg = x[:, pos : pos + d]
        if kind == ORTHANT and seg.size and seg.min() < -tol:
            return False
        if kind == ZERO and seg.size and np.abs(seg).max() > tol:
            return False
        pos += d
    return True


def interior_dual_contains_by_factor(K: GroundCone, g, tol: float = 1e-9) -> bool:
    """``cones.interior_dual_contains`` one factor at a time: orthant factors
    above ``tol``, no free factor of positive dimension."""
    g = np.asarray(g, dtype=float).reshape(-1)
    if g.size != K.dim:
        raise ValueError(f"vector has dim {g.size}, cone has dim {K.dim}")
    pos = 0
    for kind, d in K.factors:
        seg = g[pos : pos + d]
        if kind == ORTHANT and seg.size and seg.min() <= tol:
            return False
        if kind == FREE and d > 0:
            return False
        pos += d
    return True


def boundedness_by_lp(data: ConstraintData) -> BoundednessVerdict:
    """``conditions.check_boundedness`` without the arm-sum test: after the
    single-row tests and the interior gate, the recession LP always runs."""
    cond_i = conditions.check_cond_i(data)
    if conditions.check_Fi_bounded_sufficient(data, 0):
        return BoundednessVerdict(conditions.BOUNDED, "shared constraint set is bounded", cond_i)
    for i in range(1, data.S + 1):
        if cond_i[i - 1] and conditions.check_Fi_bounded_sufficient(data, i):
            return BoundednessVerdict(conditions.BOUNDED, f"constraint set {i} is bounded",
                                      cond_i)
    if not all(cond_i):
        return BoundednessVerdict(conditions.INCONCLUSIVE,
                                  "interior test fails for some arm coefficient", cond_i)
    try:
        ray_max = conditions._recession_norm_max(data)
        if ray_max <= 1e-9:
            return BoundednessVerdict(conditions.BOUNDED,
                                      "recession cone of the x-projection is {0}", cond_i)
        nonempty, _ = conditions._shared_region_nonempty(data)
    except np.linalg.LinAlgError as exc:
        return BoundednessVerdict(conditions.INCONCLUSIVE, f"boundedness LP failed: {exc}",
                                  cond_i)
    if nonempty:
        return BoundednessVerdict(conditions.NOT_BOUNDED,
                                  f"recession direction with norm {ray_max:.3g} exists", cond_i)
    return BoundednessVerdict(conditions.BOUNDED, "x-projection region is empty", cond_i)


def kernel_start(qp, C):
    """Certificate B's LP data at its start ``u = lower``: ``(lower, r0,
    bound)``, ``r0 = C (-1, lower)`` the residual there."""
    rows = qp.d > 0.0
    lower = (qp.F[rows] / qp.d[rows, None]).max(axis=0, initial=1e-6)
    return lower, C[:, 1:] @ lower - C[:, 0], _kernel_bound(C, float(lower.max()))


def kernel_direction_by_lp(qp, C):
    """``qp_relax._kernel_direction`` that always solves its LP: ``u = lower
    + s``, ``s >= 0`` of least sum, with ``|C (-1, u)|`` within the bound."""
    if not qp.K.is_orthant_like():
        return None
    lower, r0, bound = kernel_start(qp, C)
    o = C.shape[0]
    A = np.block([[C[:, 1:], np.eye(o), np.zeros((o, o))],
                  [-C[:, 1:], np.zeros((o, o)), np.eye(o)]])
    try:
        res = lp.solve(np.r_[np.ones(qp.n), np.zeros(2 * o)], A,
                       np.r_[bound - r0, bound + r0])
    except np.linalg.LinAlgError:
        return None
    if res.status != lp.OPTIMAL:
        return None
    return np.r_[-1.0, lower + res.v[:qp.n]]
