"""Reference checks that only the tests use.

``lemma_equivalence_check`` evaluates both forms of the lifted linear
constraint of the sparse relaxation; ``sample_projection_points`` and
``point_in_projection`` probe the x-projections of the constraint sets that
condition (iii) compares.  The library's decision procedures never call
them, so they live here, next to the tests.
"""

from typing import Optional

import numpy as np

from cppc.conditions import ConstraintData
from cppc.cones import ORTHANT, ZERO, cone_contains
from cppc.matrix_core import SymMatrix, sym_eigh


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
    kinds = data.K0.coordinate_kinds()
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
