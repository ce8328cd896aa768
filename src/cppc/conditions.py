"""Testable sufficient conditions for exactness of the block relaxation.

The pattern has width one, so the data ``(f_i, g_i, d_i)``, held as arrays,
defines one coupling constraint per arm, ``f_i^T x + g_i y_i = d_i`` over
``K0 x Ki`` with a scalar ``g_i`` and a one-dimensional cone ``Ki``, held as
its kind (orthant, free or zero), plus an optional shared constraint
``f_0^T x = d_0``.  Three conditions are checked:

  i.   every ``g_i`` lies in the interior of the dual of ``Ki``;
  ii.  the shared-part feasible region is bounded (settled by a single
       provably bounded constraint set; else, when every ``g_i`` passes the
       interior test, by an arm sum ``f_1 + ... + f_S`` in ``int(K0*)``,
       which leaves the recession cone only 0, or failing that by simplex
       LPs on the recession cone and on the region itself; see ``lp``);
  iii. some constraint's x-projection is contained in all the others,
       certified by one scalar multiplier per arm.  The shared constraint
       is tried first as the reference, with free multipliers (its
       projection is a hyperplane slice); then, if it is vacuous, each arm
       by decreasing ``d_i``, then index, with nonnegative multipliers (its
       projection is a half-space slice).  For one reference the multipliers
       of all arms come from one interval intersection.

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
    interior_dual_contains,
    orthant,
)

BOUNDED = "Bounded"
NOT_BOUNDED = "NotBounded"
INCONCLUSIVE = "Inconclusive"

_EXACT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ConstraintData:
    """Width-one constraint data ``(f_i, g_i, d_i)``, index 0 for the shared
    constraint, held as read-only arrays: ``f`` is ``(S+1, n_x)`` (row 0 the
    shared vector), ``g`` is ``(S, 1)`` and ``d`` is ``(S+1,)``.  Every arm
    cone has dimension one, so it is held as its kind in the ``(S,)`` array
    ``arm_kinds``; every entry is finite.
    """

    K0: GroundCone
    arm_kinds: np.ndarray
    f: np.ndarray
    g: np.ndarray
    d: np.ndarray

    @staticmethod
    def build(K0, Ki, f, g, d) -> "ConstraintData":
        Ki, nx = tuple(Ki), K0.dim
        S = len(Ki)
        f = [np.asarray(v, dtype=float).reshape(-1) for v in f]
        g = [np.asarray(v, dtype=float).reshape(-1) for v in g]
        d = [np.asarray(x, dtype=float).reshape(-1) for x in d]
        if any(x.size != 1 for x in d):
            raise ValueError("every d_i must be a scalar or a one-element array")
        if len(f) != S + 1 or len(g) != S or len(d) != S + 1:
            raise ValueError(
                f"inconsistent lengths: S={S}, |f|={len(f)}, |g|={len(g)}, |d|={len(d)}"
            )
        for k, v in enumerate(f):
            if v.size != nx:
                raise ValueError(f"f[{k}] has dim {v.size}, shared cone has {nx}")
        for k, (cone, v) in enumerate(zip(Ki, g)):
            if cone.dim != 1:
                raise ValueError(f"arm cone {k} has dim {cone.dim}, not dimension one")
            if v.size != 1:
                raise ValueError(f"g[{k}] has dim {v.size}, arm cone has 1")
        f, g, d = np.reshape(f, (S + 1, nx)), np.reshape(g, (S, 1)), np.reshape(d, S + 1)
        if not all(np.isfinite(a).all() for a in (f, g, d)):
            raise ValueError("constraint data contains non-finite entries")
        if not np.any(f[0]) and d[0] != 0.0:
            raise ValueError("a zero shared vector requires a zero right-hand side")
        kinds = np.array([cone.kinds[0] for cone in Ki], dtype=str)
        for a in (kinds, f, g, d):
            a.setflags(write=False)
        return ConstraintData(K0, kinds, f, g, d)

    @staticmethod
    def width_one(K0, f, g, d, f0=None, d0=0.0) -> "ConstraintData":
        """Width-one data: every arm cone is a ray, so each ``g_i`` is a
        scalar; ``f0`` defaults to the vacuous zero shared constraint."""
        f0 = np.zeros(K0.dim) if f0 is None else f0
        return ConstraintData.build(K0, [orthant(1)] * len(g), [f0] + list(f), list(g),
                                    [d0] + list(d))

    @property
    def S(self) -> int:
        return self.arm_kinds.size

    @property
    def nx(self) -> int:
        return self.K0.dim


@dataclass
class BoundednessVerdict:
    status: str
    reason: str
    #: The per-arm interior test (condition i) the verdict was reached with.
    cond_i: list


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


def check_cond_i(data: ConstraintData):
    """Per-arm test ``g_i in int(Ki*)``: ``g_i > 1e-9`` on an orthant arm,
    always on a zero arm (its dual is the line), never on a free arm (its
    dual is the point 0)."""
    g = data.g[:, 0]
    passed = np.where(data.arm_kinds == ORTHANT, g > 1e-9, data.arm_kinds == ZERO)
    return [bool(v) for v in passed]


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
    orth, free_ = data.K0.kinds == ORTHANT, data.K0.kinds == FREE
    F = data.f
    return np.hstack([F[:, orth], F[:, free_], -F[:, free_]]), orth.sum(), free_.sum()


def _arm_sum_interior(data: ConstraintData) -> bool:
    """True when ``f_1 + ... + f_S`` lies in ``int(K0*)`` with every orthant
    coordinate above its rounding error ``1e-9 * max(1, sum_i |f_ij|)``; no
    free coordinate may be present.  A recession direction ``r`` has ``f_i^T
    r <= 0`` for every arm, so the sum then leaves it only ``r = 0``: the
    recession LP's dual certificate with every multiplier 1 (Gordan's
    alternative), so that LP could only return 0.
    """
    orth, free_ = data.K0.kinds == ORTHANT, data.K0.kinds == FREE
    if free_.any():
        return False
    F = data.f[1:, orth]
    return bool((F.sum(axis=0) > 1e-9 * np.maximum(1.0, np.abs(F).sum(axis=0))).all())


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
    b = data.d[1:]
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
    test (so no arm cone has a free coordinate), an arm sum in ``int(K0*)``
    (:func:`_arm_sum_interior`) proves the recession cone of the
    x-projection {0} (Bounded) with no LP; failing that, the decision is
    made by LPs whose certificates are re-verified: that recession cone is
    {0} (Bounded), or it is not and the region has a point (NotBounded), or
    the region has a Farkas certificate of emptiness (Bounded).  A
    certificate that fails its check gives Inconclusive.
    The verdict carries the interior test it ran (``cond_i``).
    """
    cond_i = check_cond_i(data)
    if check_Fi_bounded_sufficient(data, 0):
        return BoundednessVerdict(BOUNDED, "shared constraint set is bounded", cond_i)
    for i in range(1, data.S + 1):
        if cond_i[i - 1] and check_Fi_bounded_sufficient(data, i):
            return BoundednessVerdict(BOUNDED, f"constraint set {i} is bounded", cond_i)

    if not all(cond_i):
        return BoundednessVerdict(
            INCONCLUSIVE, "interior test fails for some arm coefficient", cond_i
        )
    if _arm_sum_interior(data):
        return BoundednessVerdict(BOUNDED, "recession cone of the x-projection is {0}", cond_i)
    try:
        ray_max = _recession_norm_max(data)
        if ray_max <= 1e-9:
            return BoundednessVerdict(
                BOUNDED, "recession cone of the x-projection is {0}", cond_i
            )
        nonempty, _ = _shared_region_nonempty(data)
    except np.linalg.LinAlgError as exc:
        return BoundednessVerdict(INCONCLUSIVE, f"boundedness LP failed: {exc}", cond_i)
    if nonempty:
        return BoundednessVerdict(
            NOT_BOUNDED, f"recession direction with norm {ray_max:.3g} exists", cond_i
        )
    return BoundednessVerdict(BOUNDED, "x-projection region is empty", cond_i)


def _multipliers(data: ConstraintData):
    """Multipliers ``lam[r, i]`` placing reference set ``r`` inside arm
    ``i + 1``'s ``{x in K0 : f^T x <= d}``, for every reference and arm at
    once: ``lam d_r <= d_{i+1}`` and ``lam f_r - f_{i+1} in K0*``, by exact
    interval intersection.

    Reference 0 is the hyperplane slice ``{x in K0 : f_0^T x = d_0}`` and
    takes a free multiplier; an arm reference is the half-space slice
    ``{x in K0 : f_r^T x <= d_r}`` and takes a nonnegative one.  A free
    coordinate with ``f_r`` nonzero pins ``lam``; otherwise ``lam`` is 1
    when the interval holds it, else its finite end.  Returns the
    multipliers and a mask of those that re-verify, both ``(S+1) x S``.
    """
    orth, free_ = data.K0.kinds == ORTHANT, data.K0.kinds == FREE
    FR, DR = data.f, data.d
    # Axes: reference, arm, coordinate.
    F, d = FR[None, 1:], DR[None, 1:]
    fr, dr = FR[:, None], DR[:, None]
    ref, arm = np.arange(data.S + 1)[:, None], np.arange(data.S)
    # Ratios over a zero f_r or d_r are inf or nan; masks drop them.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio, d_ratio = F / fr, d / dr
        # Candidate bounds in order: coordinates, right-hand side, sign.
        # argmax and argmin take the first of equal bounds, so a zero keeps
        # the sign of the first bound met.
        sign = np.zeros(d_ratio.shape)
        sign[0] = -np.inf
        lows = np.concatenate([np.where(orth & (fr > 0.0), ratio, -np.inf),
                               np.where(dr < 0.0, d_ratio, -np.inf)[..., None],
                               sign[..., None]], axis=2)
        highs = np.concatenate([np.where(orth & (fr < 0.0), ratio, np.inf),
                                np.where(dr > 0.0, d_ratio, np.inf)[..., None]], axis=2)
        lo, hi = lows[ref, arm, lows.argmax(axis=2)], highs[ref, arm, highs.argmin(axis=2)]
        ok = ~(orth & (fr == 0.0) & (F > 0.0)).any(axis=2)
        ok &= ~(free_ & (fr == 0.0) & (np.abs(F) > _EXACT_TOL)).any(axis=2)
        ok &= ~((dr == 0.0) & (d < 0.0))

        lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
        width = np.maximum(np.maximum(1.0, np.where(lo_fin, np.abs(lo), 0.0)),
                           np.where(hi_fin, np.abs(hi), 0.0))
        fits = ~(lo > hi + _EXACT_TOL * width)
        # An interval empty only at roundoff level clamps to its upper end;
        # the re-verification below still gates the choice.
        ends = np.where(lo_fin, np.where(hi_fin & (hi < lo), hi, lo),
                        np.where(hi_fin, hi, 0.0))
        lam = np.where((lo <= 1.0) & (1.0 <= hi), 1.0, ends)

        pinned = free_ & (FR != 0.0)
        if pinned.any():
            pin = ratio[ref, arm, pinned.argmax(axis=1)[:, None]]
            agree = ~(pinned[:, None, :]
                      & (np.abs(ratio - pin[..., None]) > _EXACT_TOL)).any(axis=2)
            has_pin = pinned.any(axis=1)[:, None]
            lam = np.where(has_pin, pin, lam)
            fits = np.where(has_pin, agree & (lo - _EXACT_TOL <= pin)
                            & (pin <= hi + _EXACT_TOL), fits)
        ok &= fits

        f_max = np.abs(F).max(axis=2, initial=0.0)
        slack = _EXACT_TOL * np.maximum(np.maximum(1.0, np.abs(lam)), f_max)
        ok &= ~(lam * dr > d + slack)
        gap = lam[..., None] * fr - F
        ok &= ~(orth & (gap < -slack[..., None])).any(axis=2)
        ok &= ~(free_ & (np.abs(gap) > slack[..., None])).any(axis=2)
    return lam, ok


def check_cond_iii(data: ConstraintData) -> tuple[Optional[tuple], str]:
    """Search for ``(i_star, lambdas)`` certifying that constraint set
    ``i_star``'s x-projection is contained in every other one; returns the
    certificate or None, and the reason none was found ("" with one).

    Assumes the interior condition on the ``g_i`` has been verified.  The
    shared constraint is tried first, with free multipliers; then each arm,
    with nonnegative multipliers, in order of decreasing right-hand side,
    then index, provided the shared constraint is vacuous.
    """
    lam, ok = _multipliers(data)
    # The first arm without a multiplier, or S when every arm has one.
    first_fail = np.hstack([ok, np.zeros((data.S + 1, 1), bool)]).argmin(axis=1).tolist()
    vacuous = not np.any(data.f[0]) and data.d[0] == 0.0
    reasons = []
    arms = sorted(range(1, data.S + 1), key=lambda i: (-data.d[i], i))
    for r in [0] + arms:
        if r and not vacuous:
            reasons.append("arm references need a vacuous shared constraint (f0 = 0, d0 = 0)")
            break
        if first_fail[r] == data.S:
            return (r, lam[r].tolist()), ""
        reasons.append(f"reference {r}: no multiplier for arm {first_fail[r] + 1}")
    return None, "; ".join(reasons)


def build_condition_report(data: ConstraintData) -> ConditionReport:
    """All three checks; the interior test runs once, inside
    :func:`check_boundedness`, and the report reuses its result."""
    bounded = check_boundedness(data)
    cond_i = bounded.cond_i
    if all(cond_i):
        cert, reason = check_cond_iii(data)
    else:
        cert, reason = None, "skipped: interior condition failed"
    return ConditionReport(cond_i, bounded, cert, reason)
