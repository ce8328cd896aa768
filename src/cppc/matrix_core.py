"""Dense symmetric matrices, their checked eigendecomposition, and
width-one arrowhead partial matrices.

A width-one arrowhead partial matrix has a fully specified northwest block
``X`` of order ``n1`` and ``S`` arms of one row each: the arm's cross row
``Z_i`` (``1 x n1``) and diagonal entry ``Y_i`` (order one).  Arm ``i`` is
row ``n1 + i - 1`` of the full matrix, so the entries between two arms,
the off-diagonal entries of the trailing ``S x S`` block, are the
unspecified ones.  Unspecified entries are never represented by sentinel
values, only by the pattern itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Default absolute tolerance for "does a full matrix agree with a partial one".
AGREEMENT_TOL = 1e-8

_SYMMETRY_TOL = 1e-8


def _as_matrix(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class SymMatrix:
    """Symmetric matrix with upper-triangle-authoritative storage.

    Symmetry is enforced at construction (the upper triangle wins); the
    wrapped array is frozen afterwards so instances can be shared freely.
    """

    __slots__ = ("_array",)

    def __init__(self, values):
        arr = _as_matrix(values, "SymMatrix")
        if arr.shape[0] != arr.shape[1]:
            raise ValueError(f"SymMatrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("SymMatrix order must be at least 1")
        scale = max(1.0, float(np.abs(arr).max()))
        if np.abs(arr - arr.T).max() > _SYMMETRY_TOL * scale:
            raise ValueError("input is not symmetric within tolerance")
        upper = np.triu(arr)
        self._array = upper + np.triu(arr, 1).T
        self._array.setflags(write=False)

    @property
    def order(self) -> int:
        return self._array.shape[0]

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view."""
        return self._array

    def __getitem__(self, idx):
        return self._array[idx]

    def to_lists(self):
        return self._array.tolist()

    def __repr__(self):
        return f"SymMatrix(order={self.order})"


def sym_eigh(M):
    """Checked eigendecomposition of a symmetric matrix, or of every matrix
    of a ``(k, o, o)`` stack (LAPACK ``eigh``).

    Accepts a ``SymMatrix``, a square array or a stack of them, each
    symmetrised first.  The result of each matrix ``A`` is accepted only
    when the a-posteriori bound

        ``||A V - V diag(w)||_F + max|w| * ||V^T V - I||_F <= 1e-13 * ||A||_F``

    holds.  For orthonormal ``V``, ``A - V diag(w) V^T`` is symmetric with
    2-norm ``||A V - V diag(w)||_2``, so by Weyl's inequality every ``w[k]``
    lies within the bound of the k-th eigenvalue of ``A``; the second term
    accounts, to first order, for the orthogonality defect of the computed
    ``V`` (Kahan's residual bounds; Parlett, *The Symmetric Eigenvalue
    Problem*, SIAM 1998, ch. 11).

    Returns ``(w, v)``, stacked for a stack: eigenvalues in ascending order
    and orthonormal eigenvectors, column ``v[..., :, k]`` belonging to
    ``w[..., k]``.  Raises ``ValueError`` on non-square or non-finite input
    and ``np.linalg.LinAlgError`` naming the first matrix of a stack that
    fails the bound.
    """
    a = M.array if isinstance(M, SymMatrix) else np.asarray(M, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    w, v = np.linalg.eigh(a)
    fro = (-2, -1)
    defect = np.swapaxes(v, -1, -2) @ v - np.eye(w.shape[-1])
    bound = (np.linalg.norm(a @ v - v * w[..., None, :], axis=fro)
             + np.abs(w).max(axis=-1, initial=0.0) * np.linalg.norm(defect, axis=fro))
    threshold = 1e-13 * np.linalg.norm(a, axis=fro)
    failed = np.flatnonzero(bound > threshold)
    if failed.size:
        k = failed[0]
        stack = "" if a.ndim == 2 else f" (matrix {k} of the stack)"
        raise np.linalg.LinAlgError(
            f"eigendecomposition residual bound {np.ravel(bound)[k]:.3e} exceeds "
            f"{np.ravel(threshold)[k]:.3e}{stack}"
        )
    return w, v


@dataclass(frozen=True)
class ArrowheadPattern:
    """Width-one arrowhead specification pattern: one shared block of order
    ``n1`` plus ``S`` arms of one row each.  The arm width ``n2`` is named
    by the JSON schema and must be 1."""

    n1: int
    n2: int
    S: int

    def __post_init__(self):
        for name in ("n1", "n2", "S"):
            size = getattr(self, name)
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
                raise ValueError(f"pattern size {name} must be an integer, got {size!r}")
        if self.n2 != 1:
            raise ValueError(f"width must be one, got n2={self.n2}")
        if self.n1 < 1 or self.S < 1:
            raise ValueError(f"pattern sizes must be positive, got {self}")

    @property
    def total_order(self) -> int:
        return self.n1 + self.S


class PartialMatrix:
    """Width-one arrowhead partial matrix with blocks ``X``, ``Z_i`` (one row
    each) and ``Y_i`` (order one).  Its zero-filled matrix is built once, at
    construction."""

    __slots__ = ("pattern", "X", "Z", "Y", "_zero_filled")

    def __init__(self, pattern: ArrowheadPattern, X: SymMatrix, Z, Y):
        n1, S = pattern.n1, pattern.S
        if X.order != n1:
            raise ValueError(f"X has order {X.order}, pattern wants {n1}")
        Z = [np.array(z, dtype=float) for z in Z]
        Y = list(Y)
        if len(Z) != S or len(Y) != S:
            raise ValueError(f"expected {S} arm blocks, got {len(Z)} Z and {len(Y)} Y")
        for k, z in enumerate(Z):
            if z.shape != (1, n1):
                raise ValueError(f"Z[{k}] has shape {z.shape}, expected (1, {n1})")
            if not np.isfinite(z).all():
                raise ValueError(f"Z[{k}] contains non-finite entries")
            z.setflags(write=False)
        for k, y in enumerate(Y):
            if y.order != 1:
                raise ValueError(f"Y[{k}] has order {y.order}, expected 1")
        self.pattern = pattern
        self.X = X
        self.Z = tuple(Z)
        self.Y = tuple(Y)
        full = np.zeros((n1 + S, n1 + S))
        full[:n1, :n1] = X.array
        full[n1:, :n1] = np.concatenate(Z)
        full[:n1, n1:] = full[n1:, :n1].T
        arms = np.arange(n1, n1 + S)
        full[arms, arms] = [y[0, 0] for y in Y]
        self._zero_filled = SymMatrix(full)

    def specified_mask(self) -> np.ndarray:
        """Boolean mask of specified positions in the full matrix: all but
        the off-diagonal entries of the trailing ``S x S`` block."""
        S = self.pattern.S
        mask = np.ones((self.pattern.total_order,) * 2, dtype=bool)
        mask[-S:, -S:] = np.eye(S, dtype=bool)
        return mask

    def zero_filled(self) -> SymMatrix:
        """Full matrix with unspecified entries set to zero."""
        return self._zero_filled

    def scaled(self, factor: float) -> "PartialMatrix":
        """Entrywise positive rescaling (pattern unchanged)."""
        if factor <= 0.0:
            raise ValueError("scaling factor must be positive")
        return PartialMatrix(
            self.pattern,
            SymMatrix(self.X.array * factor),
            [z * factor for z in self.Z],
            [SymMatrix(y.array * factor) for y in self.Y],
        )

    @staticmethod
    def from_json_dict(obj: dict) -> "PartialMatrix":
        required = {"n1", "n2", "S", "X", "Z", "Y"}
        missing = required - obj.keys()
        if missing:
            raise ValueError(f"partial matrix JSON is missing keys {sorted(missing)}")
        pattern = ArrowheadPattern(obj["n1"], obj["n2"], obj["S"])
        X = SymMatrix(obj["X"])
        Z = [_as_matrix(z, f"Z[{k}]") for k, z in enumerate(obj["Z"])]
        Y = [SymMatrix(y) for y in obj["Y"]]
        return PartialMatrix(pattern, X, Z, Y)

    def __repr__(self):
        p = self.pattern
        return f"PartialMatrix(n1={p.n1}, S={p.S})"


@dataclass(frozen=True)
class Completion:
    """A full symmetric matrix together with the partial matrix it completes."""

    full: SymMatrix
    source: PartialMatrix
    agreement_tol: float = field(default=AGREEMENT_TOL)

    def __post_init__(self):
        if self.full.order != self.source.pattern.total_order:
            raise ValueError(
                f"completion order {self.full.order} does not match pattern "
                f"order {self.source.pattern.total_order}"
            )
        if not agrees(self.full, self.source, self.agreement_tol):
            raise ValueError("completion disagrees with a specified entry")

    def unspecified_entries(self) -> dict:
        """Values placed at the unspecified positions, keyed by (row, col), row < col."""
        rows, cols = np.nonzero(np.triu(~self.source.specified_mask()))
        return {(int(r), int(c)): float(self.full[r, c]) for r, c in zip(rows, cols)}


def agrees(full: SymMatrix, pm: PartialMatrix, tol: float = AGREEMENT_TOL) -> bool:
    """True iff ``full`` matches every specified entry of ``pm`` within ``tol``."""
    if full.order != pm.pattern.total_order:
        raise ValueError(
            f"order mismatch: full has {full.order}, pattern wants "
            f"{pm.pattern.total_order}"
        )
    mask = pm.specified_mask()
    diff = np.abs(full.array - pm.zero_filled().array)
    return bool(diff[mask].max() <= tol)
