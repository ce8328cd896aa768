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
alternate starts (:func:`cp_factorize`).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    products are flattened at construction.
    """

    factors: tuple

    def __post_init__(self):
        for kind, dim in self.factors:
            if kind not in (ORTHANT, FREE, ZERO):
                raise ValueError(f"unknown cone factor kind {kind!r}")
            if dim < 0:
                raise ValueError("factor dimension must be nonnegative")

    @property
    def dim(self) -> int:
        return sum(d for _, d in self.factors)

    def coordinate_kinds(self) -> np.ndarray:
        """Array of factor kinds, one entry per coordinate."""
        kinds = []
        for kind, d in self.factors:
            kinds.extend([kind] * d)
        return np.array(kinds, dtype=object)

    def is_orthant_like(self) -> bool:
        """True when every coordinate is orthant- or zero-constrained."""
        return all(kind in (ORTHANT, ZERO) for kind, d in self.factors if d > 0)

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
            return GroundCone(((key, int(val)),))
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


def cone_contains(K: GroundCone, x, tol: float = 1e-9) -> bool:
    """Membership test, factorwise: orthant coordinates above ``-tol``, zero
    coordinates within ``tol`` of zero, free coordinates unconstrained.
    ``x`` is one vector, or a matrix whose rows must all be in ``K``."""
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


def dual_cone(K: GroundCone) -> GroundCone:
    """Orthant is self-dual, free and zero swap."""
    swap = {ORTHANT: ORTHANT, FREE: ZERO, ZERO: FREE}
    return GroundCone(tuple((swap[kind], d) for kind, d in K.factors))


def interior_dual_contains(K: GroundCone, g, tol: float = 1e-9) -> bool:
    """Test ``g`` for membership in the interior of the dual cone of ``K``.

    Orthant factors require strictly positive coordinates; zero factors pose
    no restriction (their dual is the whole space); a free factor of positive
    dimension has an empty dual interior, so it always fails.
    """
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


def principal_cp(M, index_sets, tol: float = 1e-8, source: str = "the matrix"):
    """CP verdicts of ``M`` (None when it is not doubly nonnegative) and of
    its principal submatrices ``M[I]``, ``I`` in ``index_sets``, from one
    factor.

    Principal submatrices of a CP matrix are CP (Berman, Shaked-Monderer
    2003): the rows ``B[I]`` of a nonnegative factor ``B`` of ``M`` factor
    ``M[I]``.  ``B`` is searched, as in :func:`is_cp`, at the smallest
    submatrix threshold, and each ``B[I]`` is re-checked against its own
    (:func:`_factors`); a submatrix that fails, or every one when there is
    no factor, gets its own :func:`is_cp`.  ``source`` names ``M`` in the
    details of the verdicts read off its factor.
    """
    m = _array(M)
    subs = [m[np.ix_(I, I)] for I in index_sets]
    limits = [_cp_limit(sub, tol) for sub in subs]
    whole = _searched(m, tol, min(limits))
    factor = whole.witness
    verdicts = []
    for I, sub, limit in zip(index_sets, subs, limits):
        B = None if factor is None else factor[I]
        if B is not None and _factors(B, sub, limit):
            verdicts.append(MembershipVerdict(
                MEMBER, f"rows of {source}'s nonnegative factor", tol, witness=B
            ))
        else:
            verdicts.append(is_cp(sub, tol))
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
#: Random starting rotations per factor width.
_RESTARTS = 8
#: Projected-gradient steps of :func:`_polish_nonneg_factor`.
_POLISH_ITERS = 300


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
    the relaxed steps crawl (low-rank sparse Gram matrices).  The starts
    are seeded random rotations at a few factor widths, followed by a short
    projected-gradient polish of the best candidate.  There is no identity start: from the
    eigenbasis the plain steps stalled above the threshold on every
    completion input of rank above one that was measured, and a rank-one
    root of the wrong sign is turned by the first step from any start.
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

    rng = np.random.default_rng(0)
    rank_budget = n * (n + 1) // 2
    widths = sorted({min(rank_budget, r), min(rank_budget, r + 2), min(rank_budget, 2 * n)})
    best, best_res = None, np.inf
    for width in widths:
        if width < r:
            continue
        for start in range(_RESTARTS):
            u, _, vt = np.linalg.svd(rng.standard_normal((r, width)), full_matrices=False)
            b, res = _rotate_to_nonnegative(m, root, u @ vt, tol, relaxed=start % 2 == 0)
            if res < best_res:
                best, best_res = b, res
            if best_res <= tol:
                return best
    b, res = _polish_nonneg_factor(m, best, tol)
    return b if res <= tol else None


def _rotate_to_nonnegative(m, root, q, tol, relaxed):
    """Projections onto ``{root @ Q : Q Q^T = I}`` of the over-relaxed
    projection ``x - _OVER_RELAX * min(x, 0)`` of ``x = root @ Q`` onto the
    nonnegative orthant (``relaxed``) or of its clip; the candidate of each
    step is the clip ``max(root @ Q, 0)``, which reproduces ``m`` up to the
    clip."""
    x = root @ q
    b = np.maximum(x, 0.0)
    res = float(np.linalg.norm(b @ b.T - m))
    for it in range(_ROTATION_ITERS):
        if res <= tol:
            return b, res
        # x + lambda (max(x, 0) - x) = x - lambda min(x, 0): past the clip by
        # lambda - 1 times the distance from x to it (lambda = 2 gives |x|).
        target = x - _OVER_RELAX * np.minimum(x, 0.0) if relaxed else b
        u, _, vt = np.linalg.svd(root.T @ target, full_matrices=False)
        x = root @ (u @ vt)
        b = np.maximum(x, 0.0)
        if (it + 1) % 10 == 0 or it == _ROTATION_ITERS - 1:
            res = float(np.linalg.norm(b @ b.T - m))
    return b, res


def _polish_nonneg_factor(m, b, tol):
    """Projected gradient descent on ``||B B^T - M||_F^2`` over ``B >= 0``,
    at most ``_POLISH_ITERS`` steps."""
    res = float(np.linalg.norm(b @ b.T - m))
    step = 1.0 / max(1.0, 4.0 * float(np.linalg.norm(b.T @ b)))
    for _ in range(_POLISH_ITERS):
        if res <= tol:
            break
        grad = 4.0 * (b @ (b.T @ b) - m @ b)
        trial = np.maximum(b - step * grad, 0.0)
        trial_res = float(np.linalg.norm(trial @ trial.T - m))
        if trial_res < res:
            b, res = trial, trial_res
            step *= 1.2
        else:
            step *= 0.5
            if step < 1e-16:
                break
    return b, res
