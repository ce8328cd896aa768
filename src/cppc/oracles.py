"""Exhaustive small-scale oracles: basic-solution LP enumeration, vertex
enumeration, active-set QP enumeration and a grid search over the unknown
entries of an arrowhead completion.

These are deliberately naive; the enumerations are exact (up to linear
algebra roundoff).  They are independent references for the tests, for
``cppc oracle`` and for the benchmark, and the grid search is the last
resort of ``cppc complete``; no decision procedure uses them (boundedness
is decided by the simplex in ``lp``).  Complexity is combinatorial in the
number of rows; callers keep dimensions in the single digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

import numpy as np

from .cones import GroundCone, orthant, orthant_pattern
from .matrix_core import Completion, PartialMatrix, SymMatrix

_FEAS_TOL = 1e-9


def lp_minimize_standard(c, A, b, tol: float = _FEAS_TOL):
    """Minimize ``c . v`` over ``{v >= 0 : A v = b}`` by basic-solution
    enumeration.

    Assumes the optimum, when the problem is feasible, is attained (true for
    any LP over a pointed polyhedron that is bounded below).  Returns
    ``(value, v)`` or ``(None, None)`` when no basic feasible solution exists.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be 2-d")
    m, n = A.shape
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.size != m or c.size != n:
        raise ValueError("inconsistent LP dimensions")
    if m == 0:
        v = np.zeros(n)
        return 0.0, v

    scale = max(1.0, float(np.abs(b).max()))
    r = int(np.linalg.matrix_rank(A, tol=1e-11 * max(1.0, np.abs(A).max())))
    best_val, best_v = None, None
    for cols in combinations(range(n), min(r, n)):
        B = A[:, cols]
        sol, *_ = np.linalg.lstsq(B, b, rcond=None)
        v = np.zeros(n)
        v[list(cols)] = sol
        if np.abs(A @ v - b).max() > tol * scale:
            continue
        if v.min() < -tol * scale:
            continue
        v = np.maximum(v, 0.0)
        val = float(c @ v)
        if best_val is None or val < best_val - 0.0:
            best_val, best_v = val, v
    return best_val, best_v


def standard_form_feasible_point(A, b, tol: float = _FEAS_TOL) -> Optional[np.ndarray]:
    """A point of ``{v >= 0 : A v = b}`` via a phase-1 artificial LP, or None."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape
    if m == 0:
        return np.zeros(n)
    # Artificials with signs matching b keep the phase-1 start feasible.
    signs = np.where(b >= 0, 1.0, -1.0)
    A1 = np.hstack([A, np.diag(signs)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    val, v = lp_minimize_standard(c1, A1, b, tol)
    if val is None or val > tol * max(1.0, float(np.abs(b).max())):
        return None
    return v[:n]


def polyhedron_vertices(F, d, nonneg: bool = True, tol: float = _FEAS_TOL):
    """Vertices of ``{x : F x <= d}`` intersected with the nonnegative orthant
    when ``nonneg`` is set, by enumerating square active subsets."""
    F = np.asarray(F, dtype=float)
    d = np.asarray(d, dtype=float).reshape(-1)
    m, n = F.shape if F.size else (0, len(d))
    rows = [F[i] for i in range(m)]
    rhs = [d[i] for i in range(m)]
    if nonneg:
        for j in range(n):
            e = np.zeros(n)
            e[j] = -1.0
            rows.append(e)
            rhs.append(0.0)
    G = np.array(rows) if rows else np.zeros((0, n))
    h = np.array(rhs)
    scale = max(1.0, float(np.abs(h).max()) if h.size else 1.0)
    verts = []
    for idx in combinations(range(G.shape[0]), n):
        sub = G[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, h[list(idx)])
        if (G @ x - h).max() <= tol * scale:
            if not any(np.allclose(x, v, atol=1e-9) for v in verts):
                verts.append(x)
    return verts


def qp_global_minimum(A, a, F, d, nonneg_coords, tol: float = 1e-9):
    """Global minimum of ``x^T A x + 2 a^T x`` over
    ``{x : F x <= d, x_j >= 0 for j in nonneg_coords}``.

    Enumerates every active subset of constraints, solves the stationarity
    system on the corresponding face and keeps feasible candidates.  Exact
    for nondegenerate instances with a bounded feasible set, where the
    minimizer satisfies first-order conditions on some face.

    Returns ``(value, x)`` or ``(None, None)`` if no feasible candidate was
    found (e.g. an empty polytope).
    """
    A = np.asarray(A, dtype=float)
    a = np.asarray(a, dtype=float).reshape(-1)
    F = np.asarray(F, dtype=float)
    d = np.asarray(d, dtype=float).reshape(-1)
    n = a.size
    rows = [F[i] for i in range(F.shape[0])] if F.size else []
    rhs = [d[i] for i in range(F.shape[0])] if F.size else []
    for j in nonneg_coords:
        e = np.zeros(n)
        e[j] = -1.0
        rows.append(e)
        rhs.append(0.0)
    G = np.array(rows) if rows else np.zeros((0, n))
    h = np.array(rhs)
    scale = max(1.0, float(np.abs(h).max()) if h.size else 1.0)

    def objective(x):
        return float(x @ A @ x + 2.0 * a @ x)

    best_val, best_x = None, None
    total = G.shape[0]
    for k in range(0, n + 1):
        for idx in combinations(range(total), k):
            GJ = G[list(idx)] if idx else np.zeros((0, n))
            hJ = h[list(idx)] if idx else np.zeros(0)
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = 2.0 * A
            if k:
                kkt[:n, n:] = GJ.T
                kkt[n:, :n] = GJ
            rhs_vec = np.concatenate([-2.0 * a, hJ])
            sol, *_ = np.linalg.lstsq(kkt, rhs_vec, rcond=None)
            x = sol[:n]
            if np.abs(kkt @ sol - rhs_vec).max() > 1e-7 * max(1.0, np.abs(rhs_vec).max()):
                continue
            if G.size and (G @ x - h).max() > tol * scale:
                continue
            val = objective(x)
            if best_val is None or val < best_val:
                best_val, best_x = val, x
    return best_val, best_x


@dataclass
class OracleResult:
    """Outcome of the grid-search completion oracle."""

    completion: Optional[Completion]
    best_min_eigenvalue: float
    entries: list


def brute_force_completion_oracle(pm: PartialMatrix,
                                  K: Optional[GroundCone] = None) -> OracleResult:
    """Grid search plus zooming refinement over the unspecified entries,
    maximizing the smallest eigenvalue of the completed matrix: 30 rounds,
    the first on 33 points per axis, each later one on 9 points per axis
    over a box half as wide around the best point so far.

    Entries range over ``[0, sqrt(M_ii M_jj)]``, the interval every doubly
    nonnegative completion must respect.  Succeeds when the maximized
    smallest eigenvalue clears ``-1e-9`` and no specified entry on the
    orthant pattern of the ground cone ``K`` of the shared part
    (:func:`cones.orthant_pattern`; the orthant when omitted) is negative.
    Every unknown entry pairs two arms, so it lies on that pattern.
    """
    n1, S = pm.pattern.n1, pm.pattern.S
    K = orthant(n1 - 1) if K is None else K
    if K.dim != n1 - 1:
        raise ValueError(f"ground cone has dim {K.dim}, shared part has dim {n1 - 1}")
    pairs = [(ri, rj) for ri in range(n1, n1 + S) for rj in range(ri + 1, n1 + S)]
    if len(pairs) > 3:
        raise ValueError(f"too many unspecified entries ({len(pairs)} > 3)")
    base = pm.zero_filled().array
    diag = np.diag(base)
    spans = [(ri, rj, float(np.sqrt(max(diag[ri] * diag[rj], 0.0)))) for ri, rj in pairs]

    def filled(entries):
        m = base.copy()
        for (ri, rj, _), val in zip(spans, entries):
            m[ri, rj] = m[rj, ri] = val
        return m

    centers = np.array([0.5 * hi for (_, _, hi) in spans])
    radii = np.array([0.5 * hi for (_, _, hi) in spans])
    best_val = -np.inf
    best = centers.copy()
    steps = 33
    for _ in range(30):
        axes = [np.clip(np.linspace(c - r, c + r, steps), 0.0, hi)
                for c, r, (_, _, hi) in zip(centers, radii, spans)]
        for point in product(*axes):
            val = float(np.linalg.eigvalsh(filled(point))[0])
            if val > best_val:
                best_val = val
                best = np.array(point)
        centers = best.copy()
        radii = radii * 0.5
        steps = 9
    entries = [float(v) for v in best]
    if best_val >= -1e-9 and base[orthant_pattern(K, S)].min() >= -1e-12:
        return OracleResult(Completion(SymMatrix(filled(entries)), pm), best_val, entries)
    return OracleResult(None, best_val, entries)
