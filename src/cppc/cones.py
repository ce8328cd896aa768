"""Ground-cone algebra and matrix-cone membership tests.

Ground cones are finite Cartesian products of nonnegative orthants, free
(whole-space) factors and zero factors.  Matrix-cone tests cover positive
semidefiniteness, doubly nonnegative (DNN) membership and completely
positive (CP) membership.  Every CP verdict of the package is decided here,
by one rule at every order: a DNN failure disproves membership, and one
nonnegative factor proves it: a candidate factor the caller hands in when
it passes its re-check, else one search (:func:`cp_factorize`).  Without a
factor, orders up to 4 are members (there DNN and CP coincide) and larger
orders are ``Unknown``.  :func:`principal_cp` decides a matrix and any of
its principal submatrices from one factor.  The search checks DNN on the
spectrum it takes its square root from, and a factor settles the PSD test
of the verdict, so a member costs one checked spectrum.  It runs Procrustes
steps from seeded random rotations, over-relaxed past the orthant on
alternate starts, finished by Newton steps and ended when they stall
(:func:`cp_factorize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .matrix_core import SymMatrix
# perfbench/tracer.py wraps the routine under this name.
from .matrix_core import sym_eigh as jacobi_eigh

ORTHANT = "orthant"
FREE = "free"
ZERO = "zero"

MEMBER = "Member"
NOT_MEMBER = "NotMember"
UNKNOWN = "Unknown"

#: Relative floor below which PSD eigenvalue tolerances are never pushed.
PSD_TOL_FLOOR = 1e-10


@dataclass(frozen=True)
class GroundCone:
    """Closed convex cone built from orthant/free/zero factors.

    ``factors`` is a flat tuple of ``(kind, dim)`` pairs; products of
    products are flattened at construction.  Membership tests read ``kinds``.
    """

    factors: tuple

    def __post_init__(self):
        for kind, dim in self.factors:
            if kind not in (ORTHANT, FREE, ZERO):
                raise ValueError(f"unknown cone factor kind {kind!r}")
            if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
                raise ValueError(f"cone factor {kind} dimension must be an integer, got {dim!r}")
            if dim < 0:
                raise ValueError("factor dimension must be nonnegative")

    @cached_property
    def kinds(self) -> np.ndarray:
        """Each coordinate's kind: a read-only ``str`` array, built once."""
        kinds = np.repeat(np.array([kind for kind, _ in self.factors], dtype=str),
                          [d for _, d in self.factors])
        kinds.setflags(write=False)
        return kinds

    @cached_property
    def _coords(self):
        """Indices of the orthant, free and zero coordinates in ``kinds``."""
        return tuple(np.flatnonzero(self.kinds == kind) for kind in (ORTHANT, FREE, ZERO))

    @property
    def dim(self) -> int:
        return self.kinds.size

    def is_orthant_like(self) -> bool:
        """True when every coordinate is orthant- or zero-constrained."""
        return not self._coords[1].size

    def to_json_dict(self):
        if len(self.factors) == 1:
            kind, d = self.factors[0]
            return {kind: d}
        return {"product": [{kind: d} for kind, d in self.factors]}

    @staticmethod
    def from_json_dict(obj: dict) -> "GroundCone":
        if not isinstance(obj, dict) or len(obj) != 1:
            raise ValueError(f"bad cone spec {obj!r}")
        key, val = next(iter(obj.items()))
        if key == "product":
            return product(*[GroundCone.from_json_dict(f) for f in val])
        if key in (ORTHANT, FREE, ZERO):
            return GroundCone(((key, val),))
        raise ValueError(f"unknown cone spec key {key!r}")

    def __repr__(self):
        parts = " x ".join(f"{kind}({d})" for kind, d in self.factors)
        return f"GroundCone({parts})"


def orthant(n: int) -> GroundCone:
    return GroundCone(((ORTHANT, n),))


def free(n: int) -> GroundCone:
    return GroundCone(((FREE, n),))


def zero(n: int) -> GroundCone:
    return GroundCone(((ZERO, n),))


def product(*cones: GroundCone) -> GroundCone:
    """Cartesian product, flattened."""
    factors = []
    for c in cones:
        factors.extend(c.factors)
    return GroundCone(tuple(factors))


def orthant_pattern(K: GroundCone, S: int = 0) -> np.ndarray:
    """The entries of a matrix over the lifted vector ``(1, x, y_1 .. y_S)``,
    ``x in K``, ``y_i >= 0``, that must be nonnegative: those whose row and
    column are orthant coordinates (the unit one, ``K``'s and the arms)."""
    nn = np.concatenate([[True], K.kinds == ORTHANT, np.ones(S, dtype=bool)])
    return np.outer(nn, nn)


def cone_contains(K: GroundCone, x, tol: float = 1e-9) -> bool:
    """Membership test: orthant coordinates above ``-tol``, zero coordinates
    within ``tol`` of zero, free coordinates unconstrained.  ``x`` is one
    vector, or a matrix whose rows must all be in ``K``.  A NaN entry passes
    the test of its kind, as the NaN extreme it gives compares false."""
    x = np.asarray(x, dtype=float)
    if x.size == K.dim or x.ndim != 2:
        x = x.reshape(1, -1)
    if x.shape[1] != K.dim:
        raise ValueError(f"vector has dim {x.shape[1]}, cone has dim {K.dim}")
    orth, _, zero_ = K._coords
    seg = x.take(orth, axis=1)
    if seg.size and seg.min() < -tol:
        return False
    seg = x.take(zero_, axis=1)
    return not (seg.size and np.abs(seg).max() > tol)


def dual_cone(K: GroundCone) -> GroundCone:
    """Orthant is self-dual, free and zero swap."""
    swap = {ORTHANT: ORTHANT, FREE: ZERO, ZERO: FREE}
    return GroundCone(tuple((swap[kind], d) for kind, d in K.factors))


def interior_dual_contains(K: GroundCone, g, tol: float = 1e-9) -> bool:
    """Test ``g`` for membership in the interior of the dual cone of ``K``.

    Orthant coordinates must be above ``tol`` (a NaN among them passes, as
    in :func:`cone_contains`); zero coordinates pose no restriction (their
    dual is the whole space); a free coordinate has an empty dual interior,
    so it always fails.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    if g.size != K.dim:
        raise ValueError(f"vector has dim {g.size}, cone has dim {K.dim}")
    orth, free_, _ = K._coords
    return not (free_.size or (orth.size and g.take(orth).min() <= tol))


@dataclass
class MembershipVerdict:
    """Outcome of a CP membership test with checkable evidence.

    ``witness`` holds a nonnegative factor ``B`` with ``B B^T = M`` for
    positive verdicts when one is available; ``detail`` names the rule or the
    violated condition.  ``Unknown`` only occurs for orders above 4.
    """

    verdict: str
    detail: str
    tol: float
    witness: Optional[np.ndarray] = None

    @property
    def is_member(self) -> bool:
        return self.verdict == MEMBER


def is_psd(M, tol: float = 1e-8) -> bool:
    """Positive semidefiniteness via the checked spectrum of ``sym_eigh``.

    The smallest eigenvalue may dip below zero by ``tol`` relative to the
    spectral scale (floored at 1).
    """
    return _psd(jacobi_eigh(M)[0], tol)


def is_dnn(M, tol: float = 1e-8) -> bool:
    """Doubly nonnegative: PSD and entrywise nonnegative within ``tol``."""
    return _dnn_spectrum(_array(M), tol) is not None


def is_cp(M, tol: float = 1e-8, candidate=None) -> MembershipVerdict:
    """Completely positive membership.

    A DNN failure certifies non-membership.  Otherwise one factor at
    ``max(tol, 1e-10) * max(1, max|M|)`` decides: ``candidate`` (a factor
    found earlier, e.g. for another call on the same matrix) when it passes
    :func:`_factors`, else one :func:`cp_factorize` search.  A factor
    certifies membership and is the witness; without one, orders up to 4
    are still members (there CP coincides with DNN) and larger orders are
    ``Unknown``.  A candidate that fails its re-check changes no verdict.
    """
    m = _array(M)
    return _searched(m, tol, _cp_limit(m, tol), candidate)


def principal_cp(M, index_sets, source: str = "the matrix"):
    """CP verdicts of ``M`` (None when it is not doubly nonnegative) and of
    its principal submatrices ``M[I]``, ``I`` a row of ``index_sets`` (a
    ``(k, p)`` integer array: every submatrix has order ``p``), from one
    factor.

    Principal submatrices of a CP matrix are CP (Berman, Shaked-Monderer
    2003): the rows ``B[I]`` of a nonnegative factor ``B`` of ``M`` factor
    ``M[I]``.  ``B`` is searched, as in :func:`is_cp`, at the smallest
    submatrix threshold, and every ``B[I]`` is re-checked against its own
    (as :func:`_factors`, all at once); a submatrix that fails, or every
    one when there is no factor, gets its own :func:`is_cp`.  Every verdict
    is at tolerance 1e-8.  ``source`` names ``M`` in the details of the
    verdicts read off its factor.
    """
    tol, m = 1e-8, _array(M)
    rows = np.asarray(index_sets)
    subs = m[rows[:, :, None], rows[:, None, :]]
    limits = tol * np.maximum(1.0, np.abs(subs).max(axis=(1, 2)))
    whole = _searched(m, tol, limits.min())
    ok = np.zeros(len(rows), dtype=bool)
    if whole.witness is not None:
        factors = whole.witness[rows]
        gap = np.linalg.norm(factors @ factors.transpose(0, 2, 1) - subs, axis=(1, 2))
        ok = (factors.min(axis=(1, 2)) >= 0.0) & (gap <= limits)
    detail = f"rows of {source}'s nonnegative factor"
    verdicts = [MembershipVerdict(MEMBER, detail, tol, witness=factors[k]) if ok[k]
                else is_cp(subs[k], tol) for k in range(len(rows))]
    return (None if whole.verdict == NOT_MEMBER else whole), verdicts


def _array(M) -> np.ndarray:
    return M.array if isinstance(M, SymMatrix) else np.asarray(M, dtype=float)


def _cp_limit(m: np.ndarray, tol: float) -> float:
    """The residual a factor of ``m`` must reach."""
    return max(tol, 1e-10) * max(1.0, float(np.abs(m).max()))


def _factors(B: np.ndarray, m: np.ndarray, limit: float) -> bool:
    """``B >= 0`` and ``||B B^T - m||_F <= limit``: ``B`` is a nonnegative
    factor of ``m`` within ``limit``."""
    return bool(B.min() >= 0.0 and np.linalg.norm(B @ B.T - m) <= limit)


def _psd(w: np.ndarray, tol: float) -> bool:
    """PSD test on the eigenvalues ``w``, see :func:`is_psd`."""
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    return bool(w.min() >= -max(tol, PSD_TOL_FLOOR) * scale)


def _dnn_spectrum(m: np.ndarray, tol: float):
    """The checked spectrum ``(w, v)`` of ``m`` when ``m`` is doubly
    nonnegative within ``tol``, None otherwise."""
    if m.min() < -tol:
        return None
    spectrum = jacobi_eigh(m)
    return spectrum if _psd(spectrum[0], tol) else None


def _searched(m: np.ndarray, tol: float, limit: float,
              candidate=None) -> MembershipVerdict:
    """Verdict of ``m`` from ``candidate`` when it is a factor within
    ``limit``, else from one factor search.

    A factor within ``limit`` puts every eigenvalue of ``m`` above
    ``-limit``, so it passes the PSD test at ``tol``: only without one is
    the spectrum checked here.  A member's one checked spectrum is thus the
    one :func:`cp_factorize` builds its root from, and a member decided by
    its candidate costs no spectrum at all.
    """
    if m.min() < -tol:
        r, c = np.unravel_index(int(np.argmin(m)), m.shape)
        return MembershipVerdict(NOT_MEMBER, f"negative entry {m[r, c]:.6g} at ({r}, {c})", tol)
    if candidate is not None and _factors(candidate, m, limit):
        factor = candidate
    else:
        factor = cp_factorize(m, tol=limit)
    if factor is None:
        w, _ = jacobi_eigh(m)
        if not _psd(w, tol):
            return MembershipVerdict(NOT_MEMBER, f"negative eigenvalue {w.min():.6g}", tol)
    if m.shape[0] <= 4:  # there DNN and CP coincide
        detail = "doubly nonnegative and order <= 4, hence completely positive"
    elif factor is not None:
        detail = "nonnegative factorization found"
    else:
        return MembershipVerdict(
            UNKNOWN, "doubly nonnegative but no nonnegative factorization found "
            "(inconclusive for orders above 4)", tol,
        )
    return MembershipVerdict(MEMBER, detail, tol, witness=factor)


#: Procrustes steps per start of :func:`cp_factorize`.
_ROTATION_ITERS = 400
#: Relaxation of the steps of alternate starts: each aims at
#: ``x + _OVER_RELAX * (max(x, 0) - x)``; 1 is the clip, 2 the reflection.
_OVER_RELAX = 4.0
#: Residual, relative to ``max(1, max|M|)``, below which a start tries
#: :func:`_newton_finish`.
_NEWTON_SWITCH = 1e-2
#: Newton steps per pass of :func:`_newton_finish` (at most two passes a try).
_NEWTON_STEPS = 8
#: After a failed try, the next waits until the residual is this fraction
#: of the residual the failed try started from.
_NEWTON_RETRY = 0.5
#: A start ends at the first step where its lowest residual so far is above
#: ``_STALL_FACTOR`` times its lowest residual ``_STALL_WINDOW`` steps before.
_STALL_WINDOW = 80
_STALL_FACTOR = 0.8
#: Random starting rotations per factor width.
_RESTARTS = 8


def cp_factorize(M, tol: Optional[float] = None) -> Optional[np.ndarray]:
    """Search for a nonnegative factor ``B`` with ``B B^T`` close to ``M``.

    Returns ``B`` with ``B >= 0`` and ``||B B^T - M||_F <= tol`` on
    success, ``None`` otherwise (also when ``M`` is not doubly nonnegative
    within 1e-8); failure is inconclusive, never a proof of non-membership.

    Every candidate is ``max(root @ Q, 0)``, ``root`` the eigenvector
    square root of ``M`` and ``Q`` with orthonormal rows, so ``B B^T = M``
    up to the clip (Groetzner, Duer, LAA 2020).  A step moves ``Q`` by
    Procrustes against a point derived from ``x = root @ Q``.  On the
    first, third, ... start of each width that point is the relaxed
    projection ``x + lambda (max(x, 0) - x)`` with ``lambda = _OVER_RELAX =
    4``, three times as far past the orthant as the reflection ``|x|``
    (``lambda = 2``): relaxed projections need far fewer steps than plain
    alternation (Bauschke, Combettes, Luke, JOSA A 2002), and on the
    benchmark completion inputs ``lambda = 4`` takes about a third of the
    reflection's steps.  On the other starts it is the clip ``max(x, 0)``
    (``lambda = 1``), which converges where the factor has exact zeros and
    the relaxed steps crawl (low-rank sparse Gram matrices).  Both end in
    a linear tail, which Newton steps that zero the negative entries of
    ``x``, or failing that its entries below ``|min x|``, finish
    (:func:`_newton_finish`).  The starts are seeded random rotations at a
    few factor widths.  There is no identity start: from the
    eigenbasis the plain steps stalled above the threshold on every
    completion input of rank above one that was measured, and a rank-one
    root of the wrong sign is turned by the first step from any start.

    Budget: at most 24 starts (``_RESTARTS`` at each of three widths) of
    one SVD plus one per step for up to ``_ROTATION_ITERS`` steps, so at
    most ``24 * (1 + _ROTATION_ITERS)`` SVDs.  A start ends once its lowest
    residual has stalled (``_STALL_FACTOR`` over ``_STALL_WINDOW`` steps),
    so one whose lowest residual stops falling after ``k`` steps ends by
    step ``k + _STALL_WINDOW``, and a search of such starts costs about
    ``24 * (1 + _STALL_WINDOW)`` SVDs.  Below the switch a start makes
    Newton tries of up to ``2 * _NEWTON_STEPS`` least-squares solves
    (:func:`_rotate_to_nonnegative` says when).
    """
    m = _array(M)
    n = m.shape[0]
    scale = max(1.0, float(np.abs(m).max()))
    if tol is None:
        tol = 1e-7 * scale
    spectrum = _dnn_spectrum(m, 1e-8)
    if spectrum is None:
        return None
    w, v = spectrum
    keep = w > 1e-12 * scale
    if not keep.any():
        return np.zeros((n, 1))
    root = v[:, keep] * np.sqrt(w[keep])
    r = root.shape[1]

    switch = _NEWTON_SWITCH * scale
    rng = np.random.default_rng(0)
    rank_budget = n * (n + 1) // 2
    widths = sorted({min(rank_budget, r), min(rank_budget, r + 2), min(rank_budget, 2 * n)})
    for width in widths:
        for start in range(_RESTARTS):
            u, _, vt = np.linalg.svd(rng.standard_normal((r, width)), full_matrices=False)
            b, res = _rotate_to_nonnegative(m, root, u @ vt, tol, start % 2 == 0, switch)
            if res <= tol:
                return b
    return None


def _rotate_to_nonnegative(m, root, q, tol, relaxed, switch):
    """Projections onto ``{root @ Q : Q Q^T = I}`` of the over-relaxed
    projection ``x - _OVER_RELAX * min(x, 0)`` of ``x = root @ Q`` onto the
    nonnegative orthant (``relaxed``) or of its clip; the candidate of each
    step is the clip ``max(root @ Q, 0)``, which reproduces ``m`` up to the
    clip.

    The candidate's residual is read after every step (one ``n x w``
    product, about a sixth of the step's SVD at orders 7 to 15) and
    returned as soon as it is at most ``tol``.  At the first step where it
    is at most ``switch``, :func:`_newton_finish` is tried from a copy of
    ``Q``; its clip is returned only when it passes the same check,
    otherwise the steps go on from ``Q`` and the next try waits until the
    residual is ``_NEWTON_RETRY`` times the failed one.  The start ends once
    its lowest residual has not fallen to ``_STALL_FACTOR`` times its lowest
    ``_STALL_WINDOW`` steps before.  The lowest, not the current one: the
    relaxed steps' residual swings by up to a factor of two between steps,
    and comparing two single readings also ended starts that were still
    leaving a plateau and went on to a factor.  Returns the last candidate
    and its residual.
    """
    retry = switch
    x = root @ q
    b = np.maximum(x, 0.0)
    res = float(np.linalg.norm(b @ b.T - m))
    lows = [res]  # the lowest residual after each number of steps
    for it in range(_ROTATION_ITERS):
        if res <= tol:
            return b, res
        if res <= retry:
            finished = _newton_finish(m, root, q, res, tol)
            if finished is not None:
                return finished
            retry = _NEWTON_RETRY * res
        if it >= _STALL_WINDOW and lows[it] > _STALL_FACTOR * lows[it - _STALL_WINDOW]:
            break
        # x + lambda (max(x, 0) - x) = x - lambda min(x, 0): past the clip by
        # lambda - 1 times the distance from x to it (lambda = 2 gives |x|).
        target = x - _OVER_RELAX * np.minimum(x, 0.0) if relaxed else b
        u, _, vt = np.linalg.svd(root.T @ target, full_matrices=False)
        q = u @ vt
        x = root @ q
        b = np.maximum(x, 0.0)
        res = float(np.linalg.norm(b @ b.T - m))
        lows.append(min(lows[-1], res))
    return b, res


def _newton_finish(m, root, q, res, tol):
    """Newton steps on the clip set of ``x = root @ Q``: each takes the
    minimum-norm least-squares skew ``K`` (unknowns its strict upper
    triangle) with ``(x K)_P = -x_P`` on a set ``P`` of entries of ``x``,
    and moves ``Q`` by the Cayley rotation ``(I - K/2)^{-1} (I + K/2)``,
    which keeps its rows orthonormal.  At most ``_NEWTON_STEPS`` steps,
    stopping when one fails to halve the residual ``res``.  Returns the
    clip and its residual once that is at most ``tol``, else None.

    ``P`` is first the negative entries.  If those steps fail, they are run
    again from ``Q`` with every entry below ``|min x|`` in ``P``: the
    entries just above zero are as likely zeros of the factor as those just
    below it, and the steps stall on those left positive (on the tail of
    one relaxed start they succeeded at 7 of 100 steps below the switch,
    with the band at 97).  The negative entries go first because the band
    zeroes the tiny positive entries of some factors (cubed random ones)
    and the dense positive factors of the completion inputs.

    ``K = J^T (J J^T)^+ (-x_P)`` for the map ``J`` from the unknowns to
    ``(x K)_P``: ``J J^T`` has order ``|P|``, ``J`` also ``w (w - 1) / 2``
    columns for ``Q`` of width ``w``, and on searches that never reach
    ``tol`` most tries are wide, with many entries in ``P``."""
    w = q.shape[1]
    eye = np.eye(w)
    for band in (0.0, 1.0):
        x, qb, last = root @ q, q, res
        for _ in range(_NEWTON_STEPS):
            i, j = np.nonzero(x < -band * x.min())
            rows = x[i]
            cross = rows[:, j]
            # K = C - C^T for C = sum_p lam_p x_{i_p}^T e_{j_p}^T: (x K)_P = gram @ lam.
            gram = (rows @ rows.T) * (j[:, None] == j) - cross * cross.T
            lam = np.linalg.lstsq(gram, -x[i, j], rcond=None)[0]
            half = 0.5 * rows.T @ (lam[:, None] * (j[:, None] == np.arange(w)))
            half -= half.T
            qb = qb @ np.linalg.solve(eye - half, eye + half)
            x = root @ qb
            b = np.maximum(x, 0.0)
            step_res = float(np.linalg.norm(b @ b.T - m))
            if step_res <= tol:
                return b, step_res
            if step_res > 0.5 * last:
                break
            last = step_res
    return None
