"""End-to-end metrics of a run and per-layer metrics of its traced rounds.

Every metric is ``name -> (value, unit)``.  A case can run several times in
a run; ``wall_s`` is one pass over the cases, the sum of each case's median
time.  End-to-end times are at the reference machine speed (``speed.py``);
per-layer times are clock readings.  Per-layer values are per pass: a span
of a case counts ``1 / (traced executions of that case)``.
"""

from __future__ import annotations

import statistics

import numpy as np

import gates
from cases import QP_SQUARE_SIZES

#: The metrics of the result line, as listed in BENCHMARK.json.  Only
#: metrics that every workload measures and that are never zero are listed;
#: the others are printed in the report above the result line.
#: ``case_s.p50`` is printed there too: it is the time of one mid-ladder
#: case, run once or twice in a run, and spreads up to a quarter between
#: runs of the same code on a shared machine.  A per-layer
#: time is listed only when all three workloads spend time in that layer,
#: because a layer a workload never calls reads exactly zero on every run.
END_TO_END = ("setup_s", "wall_s", "case_s.p90", "peak_rss_mb")
PER_LAYER = (
    "qp_relax.eq_rows",
    "qp_relax.num_vars",
    "qp_relax.proven_by.rank_one",
    "qp_relax.proven_by.bound_match",
    "qp_relax.proven_by.certificate_a",
    "qp_relax.proven_by.certificate_b",
    "conic_solver.solve_s",
    "conic_solver.calls",
    "conic_solver.iterations",
    "conic_solver.s_per_iter",
    "conic_solver.constraint_matrix_s",
    "conic_solver.polish_accepted_frac",
    "conic_solver.status.Optimal",
    "conic_solver.status.MaxIters",
    "conic_solver.status.Infeasible",
    "conditions.check_boundedness_s",
    "conditions.boundedness.Bounded",
    "conditions.boundedness.NotBounded",
    "conditions.boundedness.Inconclusive",
    "oracles.polyhedron_vertices_calls",
    "cones.is_cp.Member",
    "cones.is_cp.NotMember",
    "cones.is_cp.Unknown",
    "jacobi.jacobi_eigh_s",
    "jacobi.jacobi_eigh_calls",
    "trace.overhead_frac",
)

PROVEN_BY = ("rank_one", "bound_match", "certificate_a", "certificate_b")
STATUSES = ("Optimal", "MaxIters", "Infeasible")
BOUNDEDNESS = ("Bounded", "NotBounded", "Inconclusive")
CP_VERDICTS = ("Member", "NotMember", "Unknown")


def case_medians(runs, value=lambda e: e.seconds) -> list:
    """Each case's median of ``value`` over its executions in ``runs``."""
    by_case: dict = {}
    for e in runs:
        by_case.setdefault(e.case, []).append(value(e))
    return [statistics.median(v) for v in by_case.values()]


def pass_seconds(runs, value=lambda e: e.seconds) -> float:
    """One pass over the cases of ``runs``: the sum of each case's median."""
    return sum(case_medians(runs, value))


def at_reference(e) -> float:
    """Execution time at the reference machine speed."""
    return e.seconds / e.slowdown


def end_to_end(workload: str, runs, setup_s: float, peak_rss_mb: float) -> dict:
    """Every end-to-end metric of the workload, from the untraced executions.

    Case times are at the reference machine speed; their ``.raw`` variants
    are the clock readings.  ``setup_s`` is sampled throughout the run, so it
    is scaled by the run's median slowdown: measured on a 2-core VM, the
    median setup time of ten runs moved by 38 % between sets of runs made
    minutes apart, and by 23 % when scaled.  The case percentiles take each
    case once, at its median, so that which cases a partial last round
    repeated does not move them.
    """
    plain = [e for e in runs if not e.traced]
    p50, p90 = np.percentile(case_medians(plain, at_reference), [50, 90])
    raw50, raw90 = np.percentile(case_medians(plain), [50, 90])
    slowdown = statistics.median(e.slowdown for e in runs)
    out = {
        "setup_s": (setup_s / slowdown, "s"),
        "setup_s.raw": (setup_s, "s"),
        "wall_s": (pass_seconds(plain, at_reference), "s"),
        "case_s.p50": (float(p50), "s"),
        "case_s.p90": (float(p90), "s"),
        "case_s.cases": (len(case_medians(plain)), "count"),
        "case_s.executions": (len(plain), "count"),
        "failed_frac": (sum(e.failure is not None for e in runs) / len(runs), "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "wall_s.raw": (pass_seconds(plain), "s"),
        "case_s.p50.raw": (float(raw50), "s"),
        "case_s.p90.raw": (float(raw90), "s"),
        "machine.slowdown": (slowdown, "ratio"),
    }
    if workload == "qp-square":
        dense_ok = all(e.dense_s is not None for e in plain)
        out["dense_s"] = (pass_seconds(plain, lambda e: e.dense_s / e.slowdown)
                          if dense_ok else float("nan"), "s")
    if workload.startswith("qp-"):
        proven = sum(e.result.get("overall") == "ProvenExact" for e in runs)
        out["proven_frac"] = (proven / len(runs), "frac")
    else:
        certified = sum(e.result.get("verdict") == "Certified" for e in runs)
        out["certified_frac"] = (certified / len(runs), "frac")
    return out


def case_weights(runs) -> dict:
    """``case -> 1 / traced executions``: weights that turn sums into per pass."""
    counts: dict = {}
    for e in runs:
        if e.traced:
            counts[e.case] = counts.get(e.case, 0) + 1
    return {case: 1.0 / n for case, n in counts.items()}


class _Spans:
    def __init__(self, spans, weights):
        self.spans, self.w = spans, weights

    def seconds(self, *names) -> float:
        return sum((s["end"] - s["start"]) * self.w[s["case"]]
                   for s in self.spans if s["name"] in names)

    def count(self, name, pred=lambda info: True) -> float:
        return sum(self.w[s["case"]] for s in self.spans
                   if s["name"] == name and pred(s.get("info", {})))

    def total(self, name, key) -> float:
        return sum(s["info"][key] * self.w[s["case"]] for s in self.spans if s["name"] == name)


def per_layer(workload: str, runs, spans: list, refs: dict) -> dict:
    """Per-layer metrics of the traced rounds; ``spans`` are ``Tracer.to_json``."""
    weights = case_weights(runs)
    sp = _Spans(spans, weights)
    solve_s = sp.seconds("conic_solver.solve")
    solves = sp.count("conic_solver.solve")
    iterations = sp.total("conic_solver.solve", "iterations")
    out = {
        "cli.dumps_json_s": (sp.seconds("cli.dumps_json"), "s"),
        "qp_relax.build_s": (sp.seconds("qp_relax.build"), "s"),
        "qp_relax.eq_rows": (sp.total("qp_relax.build", "eq_rows"), "count"),
        "qp_relax.num_vars": (sp.total("qp_relax.build", "num_vars"), "count"),
        "qp_relax.certificates_s": (sp.seconds(
            "qp_relax.rank_one_certificate", "qp_relax.certificate_a",
            "qp_relax.certificate_b"), "s"),
        "qp_relax.certificate_b_s": (sp.seconds("qp_relax.certificate_b"), "s"),
    }
    traced = [e for e in runs if e.traced]
    for name in PROVEN_BY:
        count = sum(weights[e.case] for e in traced if name in e.result.get("proven_by", ()))
        out[f"qp_relax.proven_by.{name}"] = (count, "count")
    out.update({
        "conic_solver.solve_s": (solve_s, "s"),
        "conic_solver.calls": (solves, "count"),
        "conic_solver.iterations": (iterations, "count"),
        "conic_solver.s_per_iter": (solve_s / iterations if iterations else 0.0, "s"),
        "conic_solver.constraint_matrix_s": (sp.seconds("conic_solver.constraint_matrix"), "s"),
        "conic_solver.kkt_residuals_s": (sp.seconds("conic_solver.kkt_residuals"), "s"),
        "conic_solver.polish_accepted_frac": (
            sp.count("conic_solver.solve", lambda i: i["polish_accepted"]) / solves
            if solves else 0.0, "frac"),
    })
    for status in STATUSES:
        out[f"conic_solver.status.{status}"] = (
            sp.count("conic_solver.solve", lambda i: i["status"] == status), "count")
    out.update({
        "completion.certify_s": (sp.seconds("completion.certify"), "s"),
        "completion.find_data_s": (sp.seconds("completion.find_data"), "s"),
        "completion.complete_numeric_s": (sp.seconds("completion.complete_numeric"), "s"),
        "conditions.check_boundedness_s": (sp.seconds("conditions.check_boundedness"), "s"),
        "conditions.build_condition_report_s": (
            sp.seconds("conditions.build_condition_report"), "s"),
    })
    for status in BOUNDEDNESS:
        out[f"conditions.boundedness.{status}"] = (
            sp.count("conditions.check_boundedness", lambda i: i["status"] == status), "count")
    out.update({
        "oracles.polyhedron_vertices_s": (sp.seconds("oracles.polyhedron_vertices"), "s"),
        "oracles.polyhedron_vertices_calls": (sp.count("oracles.polyhedron_vertices"), "count"),
        "oracles.standard_form_feasible_point_s": (
            sp.seconds("oracles.standard_form_feasible_point"), "s"),
        "cones.is_cp_s": (sp.seconds("cones.is_cp"), "s"),
        "cones.cp_factorize_s": (sp.seconds("cones.cp_factorize"), "s"),
    })
    for verdict in CP_VERDICTS:
        out[f"cones.is_cp.{verdict}"] = (
            sp.count("cones.is_cp", lambda i: i["verdict"] == verdict), "count")
    out.update({
        "jacobi.jacobi_eigh_s": (sp.seconds("jacobi.jacobi_eigh"), "s"),
        "jacobi.jacobi_eigh_calls": (sp.count("jacobi.jacobi_eigh"), "count"),
    })
    if workload.startswith("qp-"):
        excess = [gates.lower_excess(e.result["lower"], refs[e.case]["oracle"])
                  for e in runs if e.result and e.result["lower"] == e.result["lower"]]
        out["qp_relax.lower_excess_max"] = (max(excess) if excess else float("nan"), "frac")
    if workload == "qp-square":
        out.update(baseline_metrics(spans, weights))
    wall_plain = pass_seconds([e for e in runs if not e.traced], at_reference)
    wall_traced = pass_seconds(traced, at_reference)
    out["trace.overhead_frac"] = ((wall_traced - wall_plain) / wall_plain, "frac")
    return out


def baseline_metrics(spans, weights: dict) -> dict:
    """Sparse and dense solve time per ladder size, the ROADMAP Baseline table,
    from the spans of traced qp-square rounds (``weights`` from ``case_weights``)."""
    sp = _Spans(spans, weights)
    out = {}
    for n in QP_SQUARE_SIZES:
        case = [s for s in spans if s["case"] == f"n{n}"]
        at_n = _Spans(case, weights)
        out[f"conic_solver.solve_s.n{n}"] = (at_n.seconds("conic_solver.solve"), "s")
        out[f"conic_solver.dense_s.n{n}"] = (at_n.seconds("conic_solver.dense_solve"), "s")
    out["conic_solver.sparse_over_dense"] = (
        sp.seconds("conic_solver.solve") / sp.seconds("conic_solver.dense_solve"), "ratio")
    return out


def baseline_table(metrics: dict) -> str:
    """Markdown sparse-vs-dense table from ``conic_solver.{solve,dense}_s.n<k>``."""
    lines = ["| n = m | sparse | dense |", "|---|---|---|"]
    for n in QP_SQUARE_SIZES:
        sparse = metrics[f"conic_solver.solve_s.n{n}"][0]
        dense = metrics[f"conic_solver.dense_s.n{n}"][0]
        lines.append(f"| {n} | {sparse:.2f} s | {dense:.2f} s |")
    return "\n".join(lines)
