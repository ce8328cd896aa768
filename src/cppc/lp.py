"""Dense two-phase simplex with Bland's rule and re-verified certificates.

``solve(c, A, b)`` minimizes ``c . v`` over ``{v >= 0 : A v = b}``.  Bland's
rule (the smallest eligible column enters, ratio ties leave by smallest
index) cannot cycle, so every call ends after finitely many pivots (Bland,
*New finite pivoting rules for the simplex method*, Math. Oper. Res. 1977).
A row that owns a unit column starts from it; every other row gets an
artificial variable, which phase 1 drives to zero.

The final basis is solved again from the original data, and the result is
checked in numpy before it is returned:

- optimal: ``A v = b``, ``v >= 0``, duals ``y`` with ``c - A^T y >= 0`` and
  ``c . v = b . y``;
- infeasible: a Farkas vector ``y`` with ``A^T y <= 0`` and ``b . y > 0``;
- unbounded: a feasible ``v`` and a ray ``r >= 0`` with ``A r = 0`` and
  ``c . r < 0``.

Each check holds within ``_TOL`` times the magnitude of the terms it sums
(for the homogeneous Farkas and ray conditions: the largest entry of ``A``
times the l1 norm of the vector).  A check that fails raises
``np.linalg.LinAlgError``, so no result rests on an unverified pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: Verification tolerance, relative to the magnitude of the checked terms.
_TOL = 1e-9
#: Reduced costs and pivot entries below this count as zero.
_PIVOT_TOL = 1e-12
#: Pivots allowed per row and column before a call gives up.
_PIVOTS_PER_DIM = 50


@dataclass(frozen=True)
class LPResult:
    """``v``: the optimum, or a feasible point when unbounded; ``y``: the
    duals, or the Farkas vector when infeasible; ``ray``: set when unbounded."""

    status: str
    v: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    ray: Optional[np.ndarray] = None


def solve(c, A, b) -> LPResult:
    """Minimize ``c . v`` over ``{v >= 0 : A v = b}`` with a verified result."""
    c = np.asarray(c, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    A = np.asarray(A, dtype=float)
    if A.shape != (b.size, c.size):
        raise ValueError(f"A has shape {A.shape}, expected {(b.size, c.size)}")
    m, n = A.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    As = A * sign[:, None]
    basis = np.full(m, -1)
    for j in np.flatnonzero((np.count_nonzero(As, axis=0) == 1) & (As.sum(axis=0) == 1.0)):
        i = int(np.argmax(As[:, j]))
        if basis[i] < 0:
            basis[i] = j
    art = np.flatnonzero(basis < 0)
    k = art.size
    basis[art] = n + np.arange(k)
    T = np.zeros((m + 1, n + k + 1))
    T[:m, :n] = As
    T[art, basis[art]] = 1.0
    T[:m, -1] = b * sign
    Aa, ba = T[:m, :-1].copy(), T[:m, -1].copy()
    budget = _PIVOTS_PER_DIM * (m + n + 1)
    if k:
        cost = np.concatenate((np.zeros(n), np.ones(k)))
        _run(T, basis, cost, n + k, budget)
        if -T[-1, -1] > _TOL * max(1.0, float(np.abs(b).max())):
            y = sign * np.linalg.solve(Aa[:, basis].T, cost[basis])
            _check(np.all(A.T @ y <= _TOL * np.abs(A).max() * np.abs(y).sum()),
                   "Farkas A^T y <= 0")
            _check(b @ y > _TOL * (np.abs(b) @ np.abs(y)), "Farkas b . y > 0")
            return LPResult(INFEASIBLE, y=y)
        # An artificial still basic (at zero) leaves on any nonzero entry of
        # its row; a row without one is redundant and keeps it at zero.
        for r in np.flatnonzero(basis >= n):
            nz = np.flatnonzero(np.abs(T[r, :n]) > _PIVOT_TOL)
            if nz.size:
                _pivot(T, basis, r, nz[0])
    cost = np.concatenate((c, np.zeros(k)))
    enter = _run(T, basis, cost, n, budget)
    v = np.zeros(n + k)
    v[basis] = np.linalg.solve(Aa[:, basis], ba)
    v = np.maximum(v[:n], 0.0)
    _check(np.all(np.abs(A @ v - b) <= _TOL * (1.0 + np.abs(A) @ v + np.abs(b))), "A v = b")
    if enter is not None:
        ray = np.zeros(n + k)
        ray[enter] = 1.0
        ray[basis] = -T[:m, enter]
        ray = np.maximum(ray[:n], 0.0)
        _check(np.all(np.abs(A @ ray) <= _TOL * np.abs(A).max(initial=0.0) * ray.sum()),
               "A r = 0")
        _check(c @ ray < -_TOL * (np.abs(c) @ ray), "c . r < 0")
        return LPResult(UNBOUNDED, v=v, ray=ray)
    y = sign * np.linalg.solve(Aa[:, basis].T, cost[basis])
    reduced = c - A.T @ y
    _check(np.all(reduced >= -_TOL * (1.0 + np.abs(c) + np.abs(A).T @ np.abs(y))),
           "c - A^T y >= 0")
    gap_scale = 1.0 + np.abs(c) @ v + np.abs(b) @ np.abs(y)
    _check(abs(c @ v - b @ y) <= _TOL * gap_scale, "c . v = b . y")
    return LPResult(OPTIMAL, v=v, y=y)


def _run(T, basis, cost, n_enter: int, budget: int):
    """Bland's-rule pivots on tableau ``T`` (objective in its last row) until
    no column below ``n_enter`` has a negative reduced cost.  Returns None
    then, or the entering column when no row limits it (an unbounded ray).
    Raises when a pivot beyond the first ``budget`` would be needed."""
    m = basis.size
    T[-1] = np.append(cost, 0.0) - cost[basis] @ T[:m]
    for pivots in range(budget + 1):
        eligible = np.flatnonzero(T[-1, :n_enter] < -_PIVOT_TOL)
        if not eligible.size:
            return None
        k = eligible[0]
        rows = np.flatnonzero(T[:m, k] > _PIVOT_TOL)
        if not rows.size:
            return k
        if pivots == budget:
            break
        ratio = T[rows, -1] / T[rows, k]
        tied = rows[ratio <= ratio.min() + _PIVOT_TOL]
        _pivot(T, basis, tied[np.argmin(basis[tied])], k)
    raise np.linalg.LinAlgError(f"simplex made {budget} pivots without finishing")


def _pivot(T, basis, r: int, k: int) -> None:
    T[r] /= T[r, k]
    col = T[:, k].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    np.maximum(T[:-1, -1], 0.0, out=T[:-1, -1])
    basis[r] = k


def _check(ok, what: str) -> None:
    if not ok:
        raise np.linalg.LinAlgError(f"simplex certificate failed: {what}")
