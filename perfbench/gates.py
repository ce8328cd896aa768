"""Correctness gates, evaluated with numpy alone outside the timed region.

Each gate returns the list of its violations; an empty list is a pass.  A
case whose output violates a gate counts as failed and makes the run
incorrect.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance of the QP bound gates: the solver's own ``tol_gap``.
QP_TOL = 1e-6
#: Feasibility tolerance of a reported x-part, as ``QPInstance.feasible``.
QP_FEAS_TOL = 1e-7
#: A returned completion must reproduce the specified entries to this.
AGREEMENT_TOL = 1e-7
#: Entry and eigenvalue slack of the doubly-nonnegative check, relative to
#: the spectral scale, as ``complete_numeric`` promises.
DNN_TOL = 1e-6


def lower_excess(lower: float, oracle: float) -> float:
    """``(lower - oracle) / max(1, |oracle|)``; positive means lower overshoots."""
    return (lower - oracle) / max(1.0, abs(oracle))


def qp_gate(A, a, F, d, oracle: float, lower: float, upper, x_part, overall: str) -> list:
    """Bounds against the global optimum ``oracle`` of the orthant QP."""
    errors = []
    tol = QP_TOL * max(1.0, abs(oracle))
    if not lower <= oracle + tol:
        errors.append(f"lower {lower:.12g} exceeds the optimum {oracle:.12g} by more than {tol:.1e}")
    if overall == "ProvenExact" and lower < oracle - tol:
        errors.append(f"ProvenExact but lower {lower:.12g} is below the optimum {oracle:.12g}")
    if upper is None:
        return errors
    if upper < oracle - tol:
        errors.append(f"upper {upper:.12g} is below the optimum {oracle:.12g}")
    if x_part is None:
        errors.append("upper reported without an x-part")
        return errors
    x = np.asarray(x_part, dtype=float)
    violation = max(float((F @ x - d).max()), float((-x).max()))
    if violation > QP_FEAS_TOL * max(1.0, float(np.abs(d).max())):
        errors.append(f"x-part violates the constraints by {violation:.3g}")
    value = float(x @ A @ x + 2.0 * a @ x)
    if abs(value - upper) > 1e-9 * max(1.0, abs(value)):
        errors.append(f"upper {upper:.12g} is not the objective {value:.12g} at the x-part")
    return errors


def completion_gate(specified: np.ndarray, mask: np.ndarray, full) -> list:
    """A completion agrees with every specified entry and is doubly nonnegative."""
    full = np.asarray(full, dtype=float)
    errors = []
    gap = float(np.abs(full - specified)[mask].max())
    if gap > AGREEMENT_TOL:
        errors.append(f"completion misses a specified entry by {gap:.3g}")
    if np.abs(full - full.T).max() > AGREEMENT_TOL:
        errors.append("completion is not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (full + full.T))
    scale = max(1.0, float(np.abs(eig).max()))
    if eig[0] < -DNN_TOL * scale:
        errors.append(f"completion has eigenvalue {eig[0]:.3g}")
    if full.min() < -DNN_TOL:
        errors.append(f"completion has entry {full.min():.3g}")
    return errors


def block_residuals(X, Z, Y, f, g, d) -> list:
    """Both block equations of every arm, from the unit-corner partial matrix.

    ``X`` is the shared block with the unit coordinate first, ``Z[i]`` the
    arm row and ``Y[i]`` the arm diagonal entry; ``f[0]``/``d[0]`` are the
    shared constraint, ``f[i]``, ``g[i-1]``, ``d[i]`` arm ``i``.
    """
    x, Xs = X[0, 1:], X[1:, 1:]
    out = [f[0] @ x - d[0], f[0] @ Xs @ f[0] - d[0] ** 2]
    for i in range(1, len(d)):
        y, z = Z[i - 1][0], Z[i - 1][1:]
        out.append(f[i] @ x + g[i - 1] * y - d[i])
        out.append(f[i] @ Xs @ f[i] + 2.0 * g[i - 1] * (f[i] @ z) + g[i - 1] ** 2 * Y[i - 1] - d[i] ** 2)
    return [float(v) for v in out]


def certificate_gate(X, Z, Y, f, g, d, tol: float) -> list:
    """A ``Certified`` verdict's data meets both block equations within ``tol``."""
    worst = max(abs(v) for v in block_residuals(X, Z, Y, f, g, d))
    if worst > tol:
        return [f"Certified data leaves a block residual of {worst:.3g} > {tol:.1e}"]
    if min(g) <= 0.0:
        return ["Certified data has a nonpositive arm coefficient"]
    return []
