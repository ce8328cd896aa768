"""Instance generators for the three benchmark workloads.

Every case is built from numpy's ``default_rng`` alone, so the same
``(workload, seed)`` always yields byte-identical instances in the same
order.  The program under test only ever sees the generated objects.

Why the ladders are fixed
-------------------------
The run time of cppc is chaotic in its input.  Relabelling the variables of
the n = m = 6 Baseline QP moves ``exactness_report`` from 4.4 s to 24 s (the
iteration at which a face polish is first accepted changes); with the
polish off, a relabelling flips n = 4, m = 16, family seed 2 between
converging and stalling; and relabelled completion cases moved the median
case time by 22 % across seeds.  Fresh QP family draws spread from 0.25 s
to over 40 s per case.  A run of half a minute holds a handful of cases, so
runs on inputs drawn per seed could not be compared within a 25 % bound.
Every workload therefore times a fixed ladder, and the seed orders its
cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from cppc import (
    ArrowheadPattern,
    CompletionProblem,
    ConstraintData,
    PartialMatrix,
    QPInstance,
    SymMatrix,
    orthant,
)

#: The benchmarked workloads, on which no case is known to fail.
WORKLOADS = ("qp-square", "qp-tall", "completion")
#: Reproducers of known defects: runnable like a workload, never benchmarked,
#: because their cases fail by design.
DEFECTS = ("qp-tall-stall",)

#: ``qp-square``: n = m at the ROADMAP Baseline family seed.
QP_SQUARE_SIZES = (4, 6, 8)
#: ``qp-tall``: (m, family seed) at n = 4.
QP_TALL_N = 4
QP_TALL_LADDER = ((12, 0), (16, 0), (20, 0))
#: ``qp-tall-stall``: family seed 2 at m = 20 stalls at MaxIters with the
#: polish off.
QP_TALL_STALL = ((20, 2),)
#: ``completion``: (n, S, kind).  "positive" arms are multiples of one
#: positive functional (certifiable, boundedness settled at once), "mixed"
#: arms have mixed signs (boundedness goes to vertex enumeration), "rank1"
#: blocks have rank one and come without data (``find_data`` runs).
COMPLETION_LADDER = (
    (6, 10, "positive"),
    (7, 12, "positive"),
    (8, 12, "positive"),
    (6, 10, "mixed"),
    (8, 12, "mixed"),
    (8, 10, "rank1"),
)


@dataclass
class QPCase:
    name: str
    qp: QPInstance


@dataclass
class CompletionCase:
    name: str
    kind: str
    problem: CompletionProblem


def qp_family(n: int, m: int, family_seed: int):
    """Data ``(A, a, F, d)`` of the ROADMAP Baseline family ``inst(n, m, seed)``."""
    rng = np.random.default_rng(family_seed)
    G = rng.standard_normal((n, n))
    A = -G @ G.T / n
    a = 0.1 * rng.standard_normal(n)
    F = rng.uniform(0.1, 1.0, (m, n))
    return A, a, F, np.ones(m)


def completion_data(n: int, S: int, kind: str, rng):
    """Gram rows ``(v0, V, W)`` and data ``(F, g, d)`` of one completion case.

    ``v0`` (the unit coordinate) and the shared rows ``V`` are drawn
    nonnegative, and every arm row is ``w_i = (d_i v0 - V^T f_i) / g_i``.
    That keeps ``w_i`` nonnegative, so the Gram matrix of all rows is a
    completely positive completion, and it puts ``(-d_i, f_i, g_i)`` in the
    kernel of block ``i``: both block equations hold by construction.
    """
    r = 1 if kind == "rank1" else n + S
    v0 = rng.uniform(1.0, 2.0, r)
    V = rng.uniform(0.0, 1.0, (n, r))
    d = np.ones(S)
    g = rng.uniform(0.5, 1.5, S)
    if kind == "positive":
        F = rng.uniform(0.5, 1.0, S)[:, None] * rng.uniform(0.2, 1.0, n)[None, :]
    elif kind in ("mixed", "rank1"):
        # Arm i is negative in coordinate i mod n, so no arm alone bounds
        # the region, while every column sum stays positive: the region is
        # bounded, but only the recession-cone test can tell.
        F = rng.uniform(0.2, 1.0, (S, n))
        F[np.arange(S), np.arange(S) % n] = -rng.uniform(0.05, 0.3, S)
    else:
        raise ValueError(f"unknown completion case kind {kind!r}")
    # Shrink V so that every arm keeps at least half of d_i v0.
    load = (np.maximum(F, 0.0) @ V) / v0[None, :]
    V *= 0.5 / load.max()
    W = (d[:, None] * v0[None, :] - F @ V) / g[:, None]
    scale = 1.0 / np.linalg.norm(v0)
    return v0 * scale, V * scale, W * scale, F, g, d


def completion_problem(v0, V, W, F, g, d, with_data: bool) -> CompletionProblem:
    n, S = V.shape[0], W.shape[0]
    shared = np.vstack([v0, V])
    X = shared @ shared.T
    Z = [(W[i] @ shared.T)[None, :] for i in range(S)]
    Y = [SymMatrix([[float(W[i] @ W[i])]]) for i in range(S)]
    pm = PartialMatrix(ArrowheadPattern(n + 1, 1, S), SymMatrix(X), Z, Y)
    data: Optional[ConstraintData] = None
    if with_data:
        data = ConstraintData.build(
            orthant(n),
            [orthant(1)] * S,
            [np.zeros(n)] + [F[i] for i in range(S)],
            [np.array([g[i]]) for i in range(S)],
            [0.0] + [float(v) for v in d],
        )
    return CompletionProblem.from_partial_matrix(pm, orthant(n), data)


def make_cases(workload: str, seed: int) -> list:
    """The cases of one workload for one seed, in execution order."""
    rng = np.random.default_rng([seed, (WORKLOADS + DEFECTS).index(workload)])
    if workload == "qp-square":
        cases = [
            QPCase(f"n{n}", QPInstance.build(*qp_family(n, n, 0)))
            for n in QP_SQUARE_SIZES
        ]
    elif workload in ("qp-tall", "qp-tall-stall"):
        ladder = QP_TALL_LADDER if workload == "qp-tall" else QP_TALL_STALL
        cases = [
            QPCase(f"m{m}-s{fs}", QPInstance.build(*qp_family(QP_TALL_N, m, fs)))
            for m, fs in ladder
        ]
    elif workload == "completion":
        cases = []
        for index, (n, S, kind) in enumerate(COMPLETION_LADDER):
            parts = completion_data(n, S, kind, np.random.default_rng([7, index]))
            problem = completion_problem(*parts, with_data=kind != "rank1")
            cases.append(CompletionCase(f"{kind}-n{n}-S{S}", kind, problem))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS + DEFECTS}")
    return [cases[k] for k in rng.permutation(len(cases))]
