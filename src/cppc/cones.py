"""Ground-cone algebra and matrix-cone membership tests.

Ground cones are finite Cartesian products of nonnegative orthants, free
(whole-space) factors and zero factors.  Matrix-cone tests cover positive
semidefiniteness, doubly nonnegative (DNN) membership and completely
positive (CP) membership.  Every CP verdict of the package is decided here,
by one rule at every order: a DNN failure disproves membership, and one
nonnegative factor search (:func:`cp_factorize`) proves it; without a
factor, orders up to 4 are members (there DNN and CP coincide) and larger
orders are ``Unknown``.  :func:`principal_cp` decides a matrix and any of
its principal submatrices from one factor.
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
    coordinates within ``tol`` of zero, free coordinates unconstrained."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != K.dim:
        raise ValueError(f"vector has dim {x.size}, cone has dim {K.dim}")
    pos = 0
    for kind, d in K.factors:
        seg = x[pos : pos + d]
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
    w, _ = jacobi_eigh(M)
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    thr = max(tol, PSD_TOL_FLOOR) * scale
    return bool(w.min() >= -thr)


def is_dnn(M, tol: float = 1e-8) -> bool:
    """Doubly nonnegative: PSD and entrywise nonnegative within ``tol``."""
    m = _array(M)
    if m.min() < -tol:
        return False
    return is_psd(m, tol)


def is_cp(M, tol: float = 1e-8) -> MembershipVerdict:
    """Completely positive membership.

    A DNN failure certifies non-membership.  Otherwise one
    :func:`cp_factorize` search at ``max(tol, 1e-10) * max(1, max|M|)``
    decides: a factor certifies membership and is the witness; without one,
    orders up to 4 are still members (there CP coincides with DNN) and
    larger orders are ``Unknown``.
    """
    m = _array(M)
    if not is_dnn(m, tol):
        return MembershipVerdict(NOT_MEMBER, _dnn_violation(m, tol), tol)
    return _searched(m, tol, _cp_limit(m, tol))


def principal_cp(M, index_sets, tol: float = 1e-8, source: str = "the matrix"):
    """CP verdicts of ``M`` (None when it is not doubly nonnegative) and of
    its principal submatrices ``M[I]``, ``I`` in ``index_sets``, from one
    factor.

    Principal submatrices of a CP matrix are CP (Berman, Shaked-Monderer
    2003): the rows ``B[I]`` of a nonnegative factor ``B`` of ``M`` factor
    ``M[I]``.  ``B`` is searched at the smallest submatrix threshold, and
    each ``B[I] >= 0`` and ``||B[I] B[I]^T - M[I]||_F`` is re-checked
    against its own; a submatrix that fails, or every one when there is no
    factor, gets its own :func:`is_cp`.  ``source`` names ``M`` in the
    details of the verdicts read off its factor.
    """
    m = _array(M)
    subs = [m[np.ix_(I, I)] for I in index_sets]
    limits = [_cp_limit(sub, tol) for sub in subs]
    whole = _searched(m, tol, min(limits)) if is_dnn(m, tol) else None
    factor = None if whole is None else whole.witness
    verdicts = []
    for I, sub, limit in zip(index_sets, subs, limits):
        B = None if factor is None else factor[I]
        if B is not None and B.min() >= 0.0 and np.linalg.norm(B @ B.T - sub) <= limit:
            verdicts.append(MembershipVerdict(
                MEMBER, f"rows of {source}'s nonnegative factor", tol, witness=B
            ))
        else:
            verdicts.append(is_cp(sub, tol))
    return whole, verdicts


def _array(M) -> np.ndarray:
    return M.array if isinstance(M, SymMatrix) else np.asarray(M, dtype=float)


def _cp_limit(m: np.ndarray, tol: float) -> float:
    """The residual a factor of ``m`` must reach."""
    return max(tol, 1e-10) * max(1.0, float(np.abs(m).max()))


def _searched(m: np.ndarray, tol: float, limit: float) -> MembershipVerdict:
    """Verdict of the doubly nonnegative ``m`` from one factor search."""
    factor = cp_factorize(m, tol=limit)
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


def _dnn_violation(m: np.ndarray, tol: float) -> str:
    if m.min() < -tol:
        r, c = np.unravel_index(int(np.argmin(m)), m.shape)
        return f"negative entry {m[r, c]:.6g} at ({r}, {c})"
    w, _ = jacobi_eigh(m)
    return f"negative eigenvalue {w.min():.6g}"


#: Alternating-projection steps per start of :func:`cp_factorize`.
_ROTATION_ITERS = 400
#: Random starting rotations per factor width, besides the identity.
_RESTARTS = 8


def cp_factorize(M, tol: Optional[float] = None) -> Optional[np.ndarray]:
    """Search for a nonnegative factor ``B`` with ``B B^T`` close to ``M``.

    Returns ``B`` with ``||B B^T - M||_F <= tol`` on success, ``None``
    otherwise; failure is inconclusive, never a proof of non-membership.

    The engine alternates between the rotation orbit of a fixed square-root
    factor of ``M`` (via Procrustes steps) and the nonnegative orthant, with
    seeded random restarts over the starting rotation and the number of
    factor columns, followed by a short projected-gradient polish.
    """
    m = _array(M)
    n = m.shape[0]
    scale = max(1.0, float(np.abs(m).max()))
    if tol is None:
        tol = 1e-7 * scale
    if not is_dnn(m, tol=1e-8):
        return None
    if np.abs(m).max() == 0.0:
        return np.zeros((n, 1))
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    keep = w > 1e-12 * scale
    if not keep.any():
        return np.zeros((n, 1))
    root = v[:, keep] * np.sqrt(np.maximum(w[keep], 0.0))
    r = root.shape[1]

    rng = np.random.default_rng(0)
    rank_budget = n * (n + 1) // 2
    widths = sorted({min(rank_budget, max(r, 1)), min(rank_budget, r + 2), min(rank_budget, 2 * n)})
    best, best_res = None, np.inf
    for width in widths:
        if width < r:
            continue
        starts = [np.hstack([np.eye(r), np.zeros((r, width - r))])]
        for _ in range(_RESTARTS):
            g = rng.standard_normal((r, width))
            u, _, vt = np.linalg.svd(g, full_matrices=False)
            starts.append(u @ vt)
        for q0 in starts:
            b, res = _rotate_to_nonnegative(m, root, q0, tol)
            if res < best_res:
                best, best_res = b, res
            if best_res <= tol:
                return best
    if best is not None:
        b, res = _polish_nonneg_factor(m, best, tol)
        if res <= tol:
            return b
    return None


def _rotate_to_nonnegative(m, root, q, tol):
    """Alternating projection between ``{root @ Q : Q Q^T = I}`` and the
    nonnegative matrices; both iterates reproduce ``m`` up to the clip."""
    b = np.maximum(root @ q, 0.0)
    res = float(np.linalg.norm(b @ b.T - m))
    for it in range(_ROTATION_ITERS):
        if res <= tol:
            return b, res
        u, _, vt = np.linalg.svd(root.T @ b, full_matrices=False)
        q = u @ vt
        b = np.maximum(root @ q, 0.0)
        if (it + 1) % 10 == 0 or it == _ROTATION_ITERS - 1:
            res = float(np.linalg.norm(b @ b.T - m))
    return b, float(np.linalg.norm(b @ b.T - m))


def _polish_nonneg_factor(m, b, tol, iters: int = 300):
    """Projected gradient descent on ``||B B^T - M||_F^2`` over ``B >= 0``."""
    res = float(np.linalg.norm(b @ b.T - m))
    step = 1.0 / max(1.0, 4.0 * float(np.linalg.norm(b.T @ b)))
    for _ in range(iters):
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
