"""Dense symmetric matrices, their checked eigendecomposition, and
arrowhead partial matrices.

An arrowhead partial matrix has a fully specified northwest block ``X`` of
order ``n1``, arm cross blocks ``Z_i`` (``n2`` x ``n1``) and arm diagonal
blocks ``Y_i`` (order ``n2``); the off-arm blocks are structurally
unspecified.  Unspecified entries are never represented by sentinel values,
only by the pattern itself.
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


def sym_eigh(M, tol: float = 1e-13):
    """Checked eigendecomposition of a symmetric matrix, or of every matrix
    of a ``(k, o, o)`` stack (LAPACK ``eigh``).

    Accepts a ``SymMatrix``, a square array or a stack of them, each
    symmetrised first.  The result of each matrix ``A`` is accepted only
    when the a-posteriori bound

        ``||A V - V diag(w)||_F + max|w| * ||V^T V - I||_F <= tol * ||A||_F``

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
    threshold = tol * np.linalg.norm(a, axis=fro)
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
    """Arrowhead specification pattern: one shared block of order ``n1`` plus
    ``S`` arms of width ``n2``."""

    n1: int
    n2: int
    S: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1 or self.S < 1:
            raise ValueError(f"pattern sizes must be positive, got {self}")

    @property
    def total_order(self) -> int:
        return self.n1 + self.S * self.n2

    def arm_slice(self, i: int) -> slice:
        """Row/column range of arm ``i`` (1-based) in the full matrix."""
        if not 1 <= i <= self.S:
            raise IndexError(f"arm index {i} out of range 1..{self.S}")
        start = self.n1 + (i - 1) * self.n2
        return slice(start, start + self.n2)


class PartialMatrix:
    """Arrowhead partial matrix with blocks ``X``, ``Z_i``, ``Y_i``."""

    __slots__ = ("pattern", "X", "Z", "Y")

    def __init__(self, pattern: ArrowheadPattern, X: SymMatrix, Z, Y):
        if X.order != pattern.n1:
            raise ValueError(f"X has order {X.order}, pattern wants {pattern.n1}")
        Z = [np.asarray(z, dtype=float) for z in Z]
        Y = list(Y)
        if len(Z) != pattern.S or len(Y) != pattern.S:
            raise ValueError(
                f"expected {pattern.S} arm blocks, got {len(Z)} Z and {len(Y)} Y"
            )
        for k, z in enumerate(Z):
            if z.shape != (pattern.n2, pattern.n1):
                raise ValueError(
                    f"Z[{k}] has shape {z.shape}, expected ({pattern.n2}, {pattern.n1})"
                )
            if not np.isfinite(z).all():
                raise ValueError(f"Z[{k}] contains non-finite entries")
            z.setflags(write=False)
        for k, y in enumerate(Y):
            if y.order != pattern.n2:
                raise ValueError(f"Y[{k}] has order {y.order}, expected {pattern.n2}")
        self.pattern = pattern
        self.X = X
        self.Z = tuple(Z)
        self.Y = tuple(Y)

    def specified_mask(self) -> np.ndarray:
        """Boolean mask of specified positions in the full matrix."""
        n = self.pattern.total_order
        mask = np.zeros((n, n), dtype=bool)
        n1 = self.pattern.n1
        mask[:n1, :n1] = True
        for i in range(1, self.pattern.S + 1):
            s = self.pattern.arm_slice(i)
            mask[s, :n1] = True
            mask[:n1, s] = True
            mask[s, s] = True
        return mask

    def zero_filled(self) -> SymMatrix:
        """Full matrix with unspecified entries set to zero."""
        n = self.pattern.total_order
        full = np.zeros((n, n))
        n1 = self.pattern.n1
        full[:n1, :n1] = self.X.array
        for i in range(1, self.pattern.S + 1):
            s = self.pattern.arm_slice(i)
            full[s, :n1] = self.Z[i - 1]
            full[:n1, s] = self.Z[i - 1].T
            full[s, s] = self.Y[i - 1].array
        return SymMatrix(full)

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

    def to_json_dict(self) -> dict:
        return {
            "n1": self.pattern.n1,
            "n2": self.pattern.n2,
            "S": self.pattern.S,
            "X": self.X.to_lists(),
            "Z": [z.tolist() for z in self.Z],
            "Y": [y.to_lists() for y in self.Y],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "PartialMatrix":
        required = {"n1", "n2", "S", "X", "Z", "Y"}
        missing = required - obj.keys()
        if missing:
            raise ValueError(f"partial matrix JSON is missing keys {sorted(missing)}")
        pattern = ArrowheadPattern(int(obj["n1"]), int(obj["n2"]), int(obj["S"]))
        X = SymMatrix(obj["X"])
        Z = [_as_matrix(z, f"Z[{k}]") for k, z in enumerate(obj["Z"])]
        Y = [SymMatrix(y) for y in obj["Y"]]
        return PartialMatrix(pattern, X, Z, Y)

    def __repr__(self):
        p = self.pattern
        return f"PartialMatrix(n1={p.n1}, n2={p.n2}, S={p.S})"


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
        mask = self.source.specified_mask()
        out = {}
        n = self.full.order
        for r in range(n):
            for c in range(r + 1, n):
                if not mask[r, c]:
                    out[(r, c)] = float(self.full[r, c])
        return out


def extract_block(pm: PartialMatrix, i: int) -> SymMatrix:
    """Fully specified principal submatrix ``[[X, Z_i^T], [Z_i, Y_i]]`` of arm ``i``.

    ``i`` is 1-based.
    """
    if not 1 <= i <= pm.pattern.S:
        raise IndexError(f"arm index {i} out of range 1..{pm.pattern.S}")
    z = pm.Z[i - 1]
    return SymMatrix(
        np.block([[pm.X.array, z.T], [z, pm.Y[i - 1].array]])
    )


def partial_frobenius(a: PartialMatrix, b: PartialMatrix) -> float:
    """Frobenius product over specified entries only.

    Computed as twice the sum over specified off-diagonal positions plus the
    diagonal sum, which equals the dense Frobenius product of the zero-filled
    matrices.
    """
    if a.pattern != b.pattern:
        raise ValueError(f"pattern mismatch: {a.pattern} vs {b.pattern}")
    ax, bx = a.X.array, b.X.array
    total = 2.0 * float(np.sum(np.triu(ax, 1) * np.triu(bx, 1)))
    total += float(np.sum(np.diag(ax) * np.diag(bx)))
    for za, zb in zip(a.Z, b.Z):
        total += 2.0 * float(np.sum(za * zb))
    for ya, yb in zip(a.Y, b.Y):
        total += 2.0 * float(np.sum(np.triu(ya.array, 1) * np.triu(yb.array, 1)))
        total += float(np.sum(np.diag(ya.array) * np.diag(yb.array)))
    return total


def assemble_completion(pm: PartialMatrix, off_blocks) -> Completion:
    """Fill the unspecified off-arm blocks of ``pm`` with the given values.

    ``off_blocks`` lists one ``n2 x n2`` block per unordered arm pair, in
    lexicographic order (1,2), (1,3), ..., (S-1,S); block ``B`` for pair
    (i, j) is placed at (arm i rows, arm j columns), its transpose mirrored.
    """
    S = pm.pattern.S
    n2 = pm.pattern.n2
    expected = S * (S - 1) // 2
    blocks = [np.asarray(blk, dtype=float) for blk in off_blocks]
    if len(blocks) != expected:
        raise ValueError(f"expected {expected} off blocks, got {len(blocks)}")
    full = pm.zero_filled().array.copy()
    k = 0
    for i in range(1, S + 1):
        si = pm.pattern.arm_slice(i)
        for j in range(i + 1, S + 1):
            blk = blocks[k]
            if blk.shape != (n2, n2):
                raise ValueError(
                    f"off block for pair ({i},{j}) has shape {blk.shape}, "
                    f"expected ({n2}, {n2})"
                )
            sj = pm.pattern.arm_slice(j)
            full[si, sj] = blk
            full[sj, si] = blk.T
            k += 1
    return Completion(SymMatrix(full), pm)


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
