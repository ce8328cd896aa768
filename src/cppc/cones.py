"""Ground-cone algebra and matrix-cone membership tests.

Ground cones are finite Cartesian products of nonnegative orthants, free
(whole-space) factors and zero factors.  Matrix-cone tests cover positive
semidefiniteness, doubly nonnegative (DNN) membership and completely
positive (CP) membership; the latter is exact up to order 4, where DNN and
CP coincide, and certificate-based above that.
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
    m = M.array if isinstance(M, SymMatrix) else np.asarray(M, dtype=float)
    if m.min() < -tol:
        return False
    return is_psd(m, tol)


def is_cp(M, tol: float = 1e-8) -> MembershipVerdict:
    """Completely positive membership.

    Orders up to 4 are decided exactly: there CP coincides with DNN.  Above
    that, a successful nonnegative factorization certifies membership, a DNN
    failure certifies non-membership, and everything else is ``Unknown``.
    """
    m = M.array if isinstance(M, SymMatrix) else np.asarray(M, dtype=float)
    n = m.shape[0]
    dnn = is_dnn(m, tol)
    if n <= 4:
        if dnn:
            # Verdict rests on the order <= 4 equivalence; the factor, when
            # the quick search finds one, is a bonus witness.
            factor = cp_factorize(
                m,
                max_iters=300,
                restarts=1,
                tol=max(tol, 1e-9) * max(1.0, np.abs(m).max()),
            )
            return MembershipVerdict(
                MEMBER,
                "doubly nonnegative and order <= 4, hence completely positive",
                tol,
                witness=factor,
            )
        return MembershipVerdict(
            NOT_MEMBER, _dnn_violation(m, tol), tol
        )
    if not dnn:
        return MembershipVerdict(NOT_MEMBER, _dnn_violation(m, tol), tol)
    factor = cp_factorize(m, tol=max(tol, 1e-10) * max(1.0, np.abs(m).max()))
    if factor is not None:
        return MembershipVerdict(
            MEMBER, "nonnegative factorization found", tol, witness=factor
        )
    return MembershipVerdict(
        UNKNOWN,
        "doubly nonnegative but no nonnegative factorization found "
        "(inconclusive for orders above 4)",
        tol,
    )


def _dnn_violation(m: np.ndarray, tol: float) -> str:
    if m.min() < -tol:
        r, c = np.unravel_index(int(np.argmin(m)), m.shape)
        return f"negative entry {m[r, c]:.6g} at ({r}, {c})"
    w, _ = jacobi_eigh(m)
    return f"negative eigenvalue {w.min():.6g}"


def cp_factorize(
    M,
    max_iters: int = 400,
    tol: Optional[float] = None,
    restarts: int = 8,
) -> Optional[np.ndarray]:
    """Search for a nonnegative factor ``B`` with ``B B^T`` close to ``M``.

    Returns ``B`` with ``||B B^T - M||_F <= tol`` on success, ``None``
    otherwise; failure is inconclusive, never a proof of non-membership.

    The engine alternates between the rotation orbit of a fixed square-root
    factor of ``M`` (via Procrustes steps) and the nonnegative orthant, with
    seeded random restarts over the starting rotation and the number of
    factor columns, followed by a short projected-gradient polish.
    """
    m = M.array if isinstance(M, SymMatrix) else np.asarray(M, dtype=float)
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
        for _ in range(restarts):
            g = rng.standard_normal((r, width))
            u, _, vt = np.linalg.svd(g, full_matrices=False)
            starts.append(u @ vt)
        for q0 in starts:
            b, res = _rotate_to_nonnegative(m, root, q0, max_iters, tol)
            if res < best_res:
                best, best_res = b, res
            if best_res <= tol:
                return best
    if best is not None:
        b, res = _polish_nonneg_factor(m, best, tol)
        if res <= tol:
            return b
    return None


def _rotate_to_nonnegative(m, root, q, max_iters, tol):
    """Alternating projection between ``{root @ Q : Q Q^T = I}`` and the
    nonnegative matrices; both iterates reproduce ``m`` up to the clip."""
    b = np.maximum(root @ q, 0.0)
    res = float(np.linalg.norm(b @ b.T - m))
    for it in range(max_iters):
        if res <= tol:
            return b, res
        u, _, vt = np.linalg.svd(root.T @ b, full_matrices=False)
        q = u @ vt
        b = np.maximum(root @ q, 0.0)
        if (it + 1) % 10 == 0 or it == max_iters - 1:
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
