"""One closed-loop run of a workload: a single caller runs one case at a time.

A run executes the workload's cases in rounds for about ``seconds``.  Every
case execution runs under a work budget enforced by ``SIGALRM`` in this
process; a case over budget is recorded as a timeout and counts as failed,
and the run goes on.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

import gates
from cases import CompletionCase, QPCase
from cppc import cli, completion, conic_solver, oracles, qp_relax
from cppc.conic_solver import SolveOptions
from speed import SpeedProbe
from tracer import Tracer

#: Per-case work budget in seconds (the slowest ladder case needs ~10 s).
CASE_BUDGET_S = 30.0
#: No case starts later than this after the run began; later cases are
#: recorded as timeouts, so a regression cannot keep a run from ending.
RUN_LIMIT_S = 140.0


class CaseTimeout(BaseException):
    """Raised by the budget alarm.  Not an ``Exception``, so no handler in the
    code under test can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout


@dataclass
class Execution:
    """One execution of one case: time of the entry-point calls and outcome."""

    case: str
    seconds: float
    traced: bool
    failure: Optional[str] = None  # timeout, raise, unsolved or gate
    gate_errors: list = field(default_factory=list)
    result: dict = field(default_factory=dict)
    round: int = 0
    #: qp-square: the dense comparator on the same instance (None: not Optimal).
    dense_s: Optional[float] = None
    #: Machine slowdown probed around the execution (see ``speed.py``).
    slowdown: float = 1.0


class Budget:
    def __init__(self, run_start: float):
        self.run_end = run_start + RUN_LIMIT_S
        signal.signal(signal.SIGALRM, _on_alarm)

    def call(self, fn):
        """``fn()``, or ``CaseTimeout`` once it runs over budget."""
        budget = min(CASE_BUDGET_S, self.run_end - time.perf_counter())
        if budget <= 0.0:
            raise CaseTimeout
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)


# -- references (computed once per run, outside the timed region) -----------

def reference(case) -> dict:
    if isinstance(case, QPCase):
        qp = case.qp
        value, _ = oracles.qp_global_minimum(qp.A.array, qp.a, qp.F, qp.d, range(qp.n))
        if value is None:
            raise RuntimeError(f"case {case.name}: the oracle found no feasible point")
        return {"oracle": value, "obj": qp.to_json_dict()}
    pm = case.problem.pm
    return {"specified": pm.zero_filled().array, "mask": pm.specified_mask()}


# -- entry points (timed) and their checks (not timed) -----------------------

def _qp_square(case: QPCase, ref: dict) -> dict:
    config = cli.RunConfig(command="solve-qp", input_path=f"<{case.name}>")
    out = cli.run_solve_qp(config, ref["obj"])
    cli.dumps_json(out)
    return {"lower": out["lower"], "upper": out["upper"], "x_part": out["x_part"],
            "overall": out["overall"], "proven_by": out["proven_by"]}


def _qp_tall(case: QPCase, ref: dict) -> dict:
    report = qp_relax.exactness_report(case.qp, SolveOptions(polish=False))
    return {"lower": report.lower, "upper": report.upper,
            "x_part": None if report.solution is None else report.solution.x,
            "overall": report.overall, "proven_by": list(report.proven_by),
            "diagnostics": report.diagnostics}


def _completion(case: CompletionCase, ref: dict) -> dict:
    cert = completion.certify_completable(case.problem)
    res = completion.complete_numeric(case.problem)
    return {"verdict": cert.verdict, "data": cert.data, "tol": cert.tol,
            "full": None if res.completion is None else res.completion.full.array,
            "diagnostics": res.diagnostics}


ENTRY = {"qp-square": _qp_square, "qp-tall": _qp_tall, "qp-tall-stall": _qp_tall,
         "completion": _completion}


def check(case, ref: dict, result: dict) -> tuple:
    """``(failure, gate_errors)`` of one finished execution."""
    if isinstance(case, QPCase):
        lower = result["lower"]
        if lower != lower:
            return f"no lower bound: {result.get('diagnostics', '')}", []
        qp = case.qp
        errors = gates.qp_gate(qp.A.array, qp.a, qp.F, qp.d, ref["oracle"], lower,
                               result["upper"], result["x_part"], result["overall"])
        return ("gate" if errors else None), errors
    if result["full"] is None:
        return f"no completion: {result['diagnostics']}", []
    errors = gates.completion_gate(ref["specified"], ref["mask"], result["full"])
    if result["verdict"] == "Certified":
        pm, data = case.problem.pm, result["data"]
        errors += gates.certificate_gate(
            pm.X.array, [z[0] for z in pm.Z], [float(y.array[0, 0]) for y in pm.Y],
            data.f, [float(v[0]) for v in data.g], data.d, result["tol"])
    return ("gate" if errors else None), errors


def execute(workload: str, case, ref: dict, budget: Budget, traced: bool) -> Execution:
    entry = ENTRY[workload]
    start = time.perf_counter()
    try:
        result = budget.call(lambda: entry(case, ref))
    except CaseTimeout:
        return Execution(case.name, time.perf_counter() - start, traced, "timeout")
    except Exception as exc:  # the run goes on; the case counts as failed
        traceback.print_exc()
        return Execution(case.name, time.perf_counter() - start, traced,
                         f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    failure, errors = check(case, ref, result)
    return Execution(case.name, seconds, traced, failure, errors, result)


def dense_seconds(case: QPCase, budget: Budget) -> Optional[float]:
    """Time of the paper's comparator, one DNN block of order n+m+1, or None
    when it does not reach ``Optimal`` within the budget."""
    start = time.perf_counter()
    try:
        res = budget.call(
            lambda: conic_solver.solve(qp_relax.build_dense_reformulation(case.qp)))
    except CaseTimeout:
        return None
    except Exception:  # the comparator failing does not stop the run
        traceback.print_exc()
        return None
    seconds = time.perf_counter() - start
    return seconds if res.status == conic_solver.OPTIMAL else None


def run_loop(workload: str, cases: list, refs: dict, seconds: float, trace: bool,
             tracer: Tracer, budget: Budget, probe: SpeedProbe,
             between: Callable[[], None] = lambda: None) -> list:
    """Execute the cases round after round until ``seconds`` have passed.

    The first round (the first two in a traced run, whose odd rounds are
    traced) always runs in full.  After that a case starts only while its
    last execution still fits before the deadline, so a run ends close to
    ``seconds`` and its last round may be partial.  The machine speed is
    probed between executions; an execution's slowdown is the median of the
    two probes before and the two after it, so that one probe caught by a
    burst of other work does not skew it.  ``between()`` runs after every
    execution, before the probe that follows it.
    """
    deadline = time.perf_counter() + seconds
    probes = [probe.slowdown()]
    full_rounds = 2 if trace else 1
    last: dict = {}
    executions: list[Execution] = []
    for round_ in itertools.count():
        traced = trace and round_ % 2 == 1
        for case in cases:
            now = time.perf_counter()
            if round_ >= full_rounds and (now + last[case.name] > deadline or now > budget.run_end):
                for i, run in enumerate(executions):
                    run.slowdown = statistics.median(probes[max(0, i - 1):i + 3])
                return executions
            start = now
            tracer.case = case.name
            if traced:
                tracer.install()
            try:
                run = execute(workload, case, refs[case.name], budget, traced)
            finally:
                if traced:
                    tracer.remove()
            if workload == "qp-square":
                with tracer.span("conic_solver.dense_solve") if traced else nullcontext():
                    run.dense_s = dense_seconds(case, budget)
            last[case.name] = time.perf_counter() - start
            run.round = round_
            executions.append(run)
            between()
            probes.append(probe.slowdown())
