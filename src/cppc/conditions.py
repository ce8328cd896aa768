"""Testable sufficient conditions for exactness of the block relaxation.

The data ``(f_i, g_i, d_i)`` defines one linear coupling constraint per arm,
``f_i^T x + g_i^T y_i = d_i`` over ``K0 x Ki``, plus an optional shared
constraint ``f_0^T x = d_0``.  Three conditions are checked:

  i.   every ``g_i`` lies in the interior of the dual of ``Ki``;
  ii.  the shared-part feasible region is bounded (settled by a single
       provably bounded constraint set, or, when every ``g_i`` passes the
       interior test, decided by simplex LPs on its recession cone and on
       the region itself; see ``lp``);
  iii. some constraint's x-projection is contained in all the others,
       certified by per-arm scalar multipliers.

All checks are conservative: a returned certificate re-verifies exactly,
while a failure only means "no certificate found", never a disproof.  Each
LP certificate (optimal point and duals, or Farkas vector) is re-checked in
numpy; one that fails its check makes the verdict Inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lp
from .cones import (
    FREE,
    ORTHANT,
    ZERO,
    GroundCone,
    cone_contains,
    dual_cone,
    interior_dual_contains,
    orthant,
)

BOUNDED = "Bounded"
NOT_BOUNDED = "NotBounded"
INCONCLUSIVE = "Inconclusive"

_EXACT_TOL = 1e-12


@dataclass(frozen=True)
class ConstraintData:
    """Constraint data ``(f_i, g_i, d_i)``, index 0 for the shared constraint.

    ``f`` has S+1 vectors of dimension ``n_x`` (``f[0]`` is the shared one),
    ``g`` has S vectors of dimension ``n_y`` and ``d`` has S+1 scalars.
    """

    K0: GroundCone
    Ki: tuple
    f: tuple
    g: tuple
    d: tuple

    @staticmethod
    def build(K0, Ki, f, g, d) -> "ConstraintData":
        Ki = tuple(Ki)
        f = tuple(np.asarray(v, dtype=float).reshape(-1) for v in f)
        g = tuple(np.asarray(v, dtype=float).reshape(-1) for v in g)
        d = tuple(float(x) for x in d)
        S = len(Ki)
        if len(f) != S + 1 or len(g) != S or len(d) != S + 1:
            raise ValueError(
                f"inconsistent lengths: S={S}, |f|={len(f)}, |g|={len(g)}, |d|={len(d)}"
            )
        nx = K0.dim
        for k, v in enumerate(f):
            if v.size != nx:
                raise ValueError(f"f[{k}] has dim {v.size}, shared cone has {nx}")
        for k, (cone, v) in enumerate(zip(Ki, g)):
            if v.size != cone.dim:
                raise ValueError(f"g[{k}] has dim {v.size}, arm cone has {cone.dim}")
        if not np.any(f[0]) and d[0] != 0.0:
            raise ValueError("a zero shared vector requires a zero right-hand side")
        return ConstraintData(K0, Ki, f, g, d)

    @staticmethod
    def width_one(K0, f, g, d, f0=None, d0=0.0) -> "ConstraintData":
        """Width-one data: every arm cone is a ray, so each ``g_i`` is a
        scalar; ``f0`` defaults to the vacuous zero shared constraint."""
        f0 = np.zeros(K0.dim) if f0 is None else f0
        return ConstraintData.build(
            K0,
            [orthant(1)] * len(g),
            [f0] + list(f),
            [np.atleast_1d(float(gi)) for gi in g],
            [d0] + list(d),
        )

    @property
    def S(self) -> int:
        return len(self.Ki)

    @property
    def nx(self) -> int:
        return self.K0.dim


@dataclass
class BoundednessVerdict:
    status: str
    reason: str


@dataclass
class ConditionReport:
    """Outcome of all three condition checks on one data set."""

    cond_i: list
    boundedness: BoundednessVerdict
    cond_iii: Optional[tuple]
    cond_iii_reason: str = ""

    @property
    def all_passed(self) -> bool:
        return (
            all(self.cond_i)
            and self.boundedness.status == BOUNDED
            and self.cond_iii is not None
        )


def check_cond_i(data: ConstraintData, tol: float = 1e-9):
    """Per-arm test ``g_i in int(Ki*)``."""
    return [
        interior_dual_contains(cone, gi, tol) for cone, gi in zip(data.Ki, data.g)
    ]


def check_Fi_bounded_sufficient(data: ConstraintData, i: int) -> bool:
    """Sufficient test for boundedness of the i-th constraint set:
    ``f_i in int(K0*)`` and ``d_i >= 0``.  False means inconclusive."""
    if not 0 <= i <= data.S:
        raise IndexError(f"constraint index {i} out of range 0..{data.S}")
    return interior_dual_contains(data.K0, data.f[i]) and data.d[i] >= 0.0


def _split_rows(data: ConstraintData):
    """Rows ``f_0 .. f_S`` over the non-zero-cone coordinates of ``K0``, as
    coefficients of ``(x_orth, p, q)`` with free coordinates split ``p - q``;
    also the orthant and free coordinate counts."""
    kinds = data.K0.coordinate_kinds()
    orth = [j for j, k in enumerate(kinds) if k == ORTHANT]
    free_ = [j for j, k in enumerate(kinds) if k == FREE]
    F = np.array(data.f)
    return np.hstack([F[:, orth], F[:, free_], -F[:, free_]]), len(orth), len(free_)


def _recession_norm_max(data: ConstraintData) -> float:
    """Largest of ``sum of orthant coordinates`` and each ``|x_j|``, free j,
    over the recession cone of the shared-part region intersected with the
    box ``sum of orthant coordinates <= 1``, ``|x_j| <= 1``; zero iff that
    cone is {0}.  With orthant coordinates only it is the l1-norm maximum.

    Each maximum is one LP over ``(x_orth, p, q)`` with ``p_j + q_j <= 1``.
    Every row is an inequality with a nonnegative right-hand side, so the
    slack basis starts phase 2 at the origin.
    """
    rows, n_orth, n_free = _split_rows(data)
    width = rows.shape[1]
    budget = np.r_[np.ones(n_orth), np.zeros(2 * n_free)]
    pairs = np.hstack([np.zeros((n_free, n_orth)), np.eye(n_free), np.eye(n_free)])
    G = np.vstack([rows[:1], -rows[:1], rows[1:], budget[None, :], pairs])
    h = np.r_[np.zeros(data.S + 2), 1.0, np.ones(n_free)]
    A = np.hstack([G, np.eye(G.shape[0])])
    objectives = [budget]
    for j in range(n_free):
        e = np.zeros(width)
        e[n_orth + j], e[n_orth + n_free + j] = 1.0, -1.0
        objectives += [e, -e]
    best = 0.0
    for obj in objectives:
        res = lp.solve(-np.r_[obj, np.zeros(G.shape[0])], A, h)
        if res.status != lp.OPTIMAL:
            raise np.linalg.LinAlgError(f"recession LP over a box reported {res.status}")
        best = max(best, float(obj @ res.v[:width]))
    return best


def _shared_region_form(data: ConstraintData):
    """``(A, b)`` with ``{v >= 0 : A v = b}`` the shared-part region
    ``{x in K0 : f_0^T x = d_0, f_i^T x <= d_i}``: columns ``(x_orth, p, q)``
    and one slack per arm."""
    rows, _, _ = _split_rows(data)
    A = np.hstack([rows[1:], np.eye(data.S)])
    b = np.array(data.d[1:])
    if np.any(data.f[0]):
        A = np.vstack([np.r_[rows[0], np.zeros(data.S)], A])
        b = np.r_[data.d[0], b]
    return A, b


def _shared_region_nonempty(data: ConstraintData):
    """Phase 1 of the simplex on ``_shared_region_form``: ``(True, v)`` with
    a verified point ``v`` of the region, or ``(False, y)`` with a verified
    Farkas vector ``y`` (``A^T y <= 0``, ``b . y > 0``)."""
    A, b = _shared_region_form(data)
    res = lp.solve(np.zeros(A.shape[1]), A, b)
    if res.status == lp.OPTIMAL:
        return True, res.v
    return False, res.y


def check_boundedness(data: ConstraintData) -> BoundednessVerdict:
    """Decide boundedness of the shared-part region (and with it the lifted
    shared set) or return Inconclusive.

    A single constraint set that the interior test proves bounded settles the
    question immediately.  Otherwise, when every ``g_i`` passes the interior
    test (so no arm cone has a free coordinate), the decision is made by LPs
    whose certificates are re-verified: the recession cone of the
    x-projection is {0} (Bounded), or it is not and the region has a point
    (NotBounded), or the region has a Farkas certificate of emptiness
    (Bounded).  A certificate that fails its check gives Inconclusive.
    """
    cond_i = check_cond_i(data)
    if check_Fi_bounded_sufficient(data, 0):
        return BoundednessVerdict(BOUNDED, "shared constraint set is bounded")
    for i in range(1, data.S + 1):
        if cond_i[i - 1] and check_Fi_bounded_sufficient(data, i):
            return BoundednessVerdict(BOUNDED, f"constraint set {i} is bounded")

    if not all(cond_i):
        return BoundednessVerdict(
            INCONCLUSIVE, "interior test fails for some arm coefficient"
        )
    try:
        ray_max = _recession_norm_max(data)
        if ray_max <= 1e-9:
            return BoundednessVerdict(BOUNDED, "recession cone of the x-projection is {0}")
        nonempty, _ = _shared_region_nonempty(data)
    except np.linalg.LinAlgError as exc:
        return BoundednessVerdict(INCONCLUSIVE, f"boundedness LP failed: {exc}")
    if nonempty:
        return BoundednessVerdict(
            NOT_BOUNDED, f"recession direction with norm {ray_max:.3g} exists"
        )
    return BoundednessVerdict(BOUNDED, "x-projection region is empty")


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
    kinds = K0.coordinate_kinds()
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
        # An interval empty only at roundoff level clamps to its upper end;
        # the re-verification below still gates the choice.
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


def check_cond_iii(data: ConstraintData) -> Optional[tuple]:
    """Search for ``(i_star, lambdas)`` certifying that constraint set
    ``i_star``'s x-projection is contained in every other one.

    Assumes the interior condition on the ``g_i`` has been verified.  Branch
    one takes the shared constraint as the reference (free multipliers);
    branch two takes an arm (nonnegative multipliers) and requires the shared
    constraint to be vacuous.  Reference arms are tried in order of
    decreasing right-hand side, then index.
    """
    result, _ = cond_iii_details(data)
    return result


def cond_iii_details(data: ConstraintData):
    reasons = []
    lams = []
    ok = True
    for i in range(1, data.S + 1):
        lam = scalar_lambda_feasible(
            data.f[0], data.d[0], data.f[i], data.d[i], data.K0, "free"
        )
        if lam is None:
            ok = False
            reasons.append(f"reference 0: no multiplier for arm {i}")
            break
        lams.append(lam)
    if ok:
        return (0, lams), ""

    if np.any(data.f[0]) or data.d[0] != 0.0:
        reasons.append(
            "arm references need a vacuous shared constraint (f0 = 0, d0 = 0)"
        )
        return None, "; ".join(reasons)

    order = sorted(range(1, data.S + 1), key=lambda i: (-data.d[i], i))
    for i_star in order:
        lams = []
        ok = True
        for i in range(1, data.S + 1):
            lam = scalar_lambda_feasible(
                data.f[i_star], data.d[i_star], data.f[i], data.d[i], data.K0, "nonneg"
            )
            if lam is None:
                ok = False
                reasons.append(f"reference {i_star}: no multiplier for arm {i}")
                break
            lams.append(lam)
        if ok:
            return (i_star, lams), ""
    return None, "; ".join(reasons)


def build_condition_report(data: ConstraintData) -> ConditionReport:
    cond_i = check_cond_i(data)
    bounded = check_boundedness(data)
    if all(cond_i):
        cert, reason = cond_iii_details(data)
    else:
        cert, reason = None, "skipped: interior condition failed"
    return ConditionReport(cond_i, bounded, cert, reason)
