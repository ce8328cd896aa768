"""Spans around calls into the cppc modules, recorded from outside.

The tracer replaces a function under the name its caller looks up (for
example ``qp_relax.solve``, the name ``solve_bounds`` resolves at call time)
with a wrapper that records one span per call: metric name, case, start,
end and the enclosing span.  Nothing under ``src/`` is touched; ``remove``
puts every original back.  Spans stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

from cppc import cli, completion, conditions, cones, conic_solver, oracles, qp_relax
from cppc.conic_solver import ConicProgram


@dataclass
class Span:
    name: str
    case: str
    start: float
    end: float
    parent: Optional[int]
    #: Values read off the call's result, e.g. a solver status.
    info: dict = field(default_factory=dict)


def _solve_info(res) -> dict:
    return {
        "status": res.status,
        "iterations": int(res.iterations),
        "polish_accepted": "face polish accepted" in (res.diagnostics or ""),
    }


def _program_info(prog) -> dict:
    return {"eq_rows": len(prog.equalities), "num_vars": int(prog.num_vars)}


#: (owner, attribute, metric, result reader).  The owner is the module (or
#: class) whose attribute the calling code looks up.
TARGETS = (
    (cli, "dumps_json", "cli.dumps_json", None),
    (qp_relax, "build_sparse_relaxation", "qp_relax.build", _program_info),
    (qp_relax, "solve", "conic_solver.solve", _solve_info),
    (qp_relax, "rank_one_certificate", "qp_relax.rank_one_certificate", None),
    (qp_relax, "certificate_a", "qp_relax.certificate_a", None),
    (qp_relax, "certificate_b", "qp_relax.certificate_b", None),
    (qp_relax, "check_boundedness", "conditions.check_boundedness",
     lambda v: {"status": v.status}),
    (qp_relax, "jacobi_eigh", "jacobi.jacobi_eigh", None),
    (completion, "certify_completable", "completion.certify", None),
    (completion, "find_data", "completion.find_data", None),
    (completion, "complete_numeric", "completion.complete_numeric", None),
    (completion, "solve", "conic_solver.solve", _solve_info),
    (completion, "build_condition_report", "conditions.build_condition_report", None),
    (completion, "jacobi_eigh", "jacobi.jacobi_eigh", None),
    (conditions, "check_boundedness", "conditions.check_boundedness",
     lambda v: {"status": v.status}),
    (oracles, "polyhedron_vertices", "oracles.polyhedron_vertices", None),
    (oracles, "standard_form_feasible_point", "oracles.standard_form_feasible_point", None),
    (cones, "is_cp", "cones.is_cp", lambda v: {"verdict": v.verdict}),
    (cones, "cp_factorize", "cones.cp_factorize", None),
    (cones, "jacobi_eigh", "jacobi.jacobi_eigh", None),
    (conic_solver, "kkt_residuals", "conic_solver.kkt_residuals", None),
    (conic_solver, "jacobi_eigh", "jacobi.jacobi_eigh", None),
    (ConicProgram, "constraint_matrix", "conic_solver.constraint_matrix", None),
)


class Tracer:
    """Records spans while installed; ``case`` names the case being run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.case = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields the span."""
        index = len(self.spans)
        span = Span(name, self.case, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, metric: str, reader) -> Callable:
        def traced(*args, **kwargs):
            with self.span(metric) as span:
                result = fn(*args, **kwargs)
            if reader is not None:
                span.info = reader(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, metric, reader in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, metric, reader))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def to_json(self) -> list:
        return [
            {"name": s.name, "case": s.case, "start": s.start, "end": s.end,
             "parent": s.parent, **({"info": s.info} if s.info else {})}
            for s in self.spans
        ]
