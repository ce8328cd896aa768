"""Tests of the benchmark itself: inputs, gates, budget, tracer, metric names.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cases
import gates
import metrics
import workloads
from cppc import qp_relax
from tracer import TARGETS, Tracer

ROOT = Path(__file__).resolve().parents[1]


def _fingerprint(case) -> bytes:
    if isinstance(case, cases.QPCase):
        qp = case.qp
        arrays = [qp.A.array, qp.a, qp.F, qp.d]
    else:
        pm, data = case.problem.pm, case.problem.data
        arrays = [pm.X.array, *pm.Z, *(y.array for y in pm.Y)]
        if data is not None:
            arrays += [*data.f, *data.g, np.array(data.d)]
    return case.name.encode() + b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_same_seed_gives_identical_instances(workload):
    first = [_fingerprint(c) for c in cases.make_cases(workload, 5)]
    second = [_fingerprint(c) for c in cases.make_cases(workload, 5)]
    assert first == second


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_ladders_are_fixed_and_the_seed_orders_them(workload):
    orders = {tuple(c.name for c in cases.make_cases(workload, s)) for s in range(8)}
    assert len(orders) > 1
    ladders = {frozenset(_fingerprint(c) for c in cases.make_cases(workload, s)) for s in range(8)}
    assert len(ladders) == 1


def test_qp_square_is_the_baseline_family():
    A, a, F, d = cases.qp_family(4, 4, 0)
    G = np.random.default_rng(0).standard_normal((4, 4))
    np.testing.assert_array_equal(A, -G @ G.T / 4)
    assert F.min() >= 0.1 and F.max() <= 1.0 and np.all(d == 1.0)


@pytest.mark.parametrize("seed", [0, 3])
def test_completion_data_satisfies_block_equations(seed):
    for case in cases.make_cases("completion", seed):
        if case.kind == "rank1":
            assert case.problem.data is None
            continue
        pm, data = case.problem.pm, case.problem.data
        res = gates.block_residuals(
            pm.X.array, [z[0] for z in pm.Z], [float(y.array[0, 0]) for y in pm.Y],
            data.f, [float(g[0]) for g in data.g], data.d)
        assert max(abs(r) for r in res) <= 1e-12, case.name


@pytest.mark.parametrize("kind", ["positive", "mixed", "rank1"])
def test_completion_generator_gram_is_a_cp_completion(kind):
    v0, V, W, F, g, d = cases.completion_data(6, 10, kind, np.random.default_rng(0))
    assert min(v0.min(), V.min(), W.min()) >= 0.0
    rows = np.vstack([v0, V, W])
    full = rows @ rows.T
    problem = cases.completion_problem(v0, V, W, F, g, d, with_data=True)
    pm = problem.pm
    assert gates.completion_gate(pm.zero_filled().array, pm.specified_mask(), full) == []
    if kind == "mixed":
        assert all((F < 0).any(axis=1)) and (F.sum(axis=0) > 0).all()


# -- gates reject corrupted results -------------------------------------------

def _qp_reference():
    A, a, F, d = cases.qp_family(3, 3, 0)
    from cppc import oracles

    value, x = oracles.qp_global_minimum(A, a, F, d, range(3))
    return A, a, F, d, value, x


def test_qp_gate_accepts_the_optimum():
    A, a, F, d, value, x = _qp_reference()
    assert gates.qp_gate(A, a, F, d, value, value, value, x, "ProvenExact") == []


def test_qp_gate_rejects_lower_above_oracle():
    A, a, F, d, value, x = _qp_reference()
    shifted = value + 1e-4 * max(1.0, abs(value))
    assert gates.qp_gate(A, a, F, d, value, shifted, None, None, "Unknown")


def test_qp_gate_rejects_upper_below_oracle_and_bad_x_part():
    A, a, F, d, value, x = _qp_reference()
    assert gates.qp_gate(A, a, F, d, value, value, value - 1e-3, x, "Unknown")
    outside = x + 10.0
    upper = float(outside @ A @ outside + 2 * a @ outside)
    assert any("violates" in e for e in gates.qp_gate(A, a, F, d, value, value, upper, outside, "Unknown"))
    assert gates.qp_gate(A, a, F, d, value, value, value + 1.0, x, "Unknown")
    assert gates.qp_gate(A, a, F, d, value, value, value, None, "Unknown")


def test_qp_gate_rejects_proven_exact_below_oracle():
    A, a, F, d, value, x = _qp_reference()
    assert gates.qp_gate(A, a, F, d, value, value - 1e-3, None, None, "ProvenExact")
    assert gates.qp_gate(A, a, F, d, value, value - 1e-3, None, None, "Unknown") == []


def _completion_reference():
    v0, V, W, F, g, d = cases.completion_data(6, 10, "positive", np.random.default_rng(1))
    rows = np.vstack([v0, V, W])
    problem = cases.completion_problem(v0, V, W, F, g, d, with_data=True)
    return problem, rows @ rows.T


def test_completion_gate_rejects_a_perturbed_specified_entry():
    problem, full = _completion_reference()
    pm = problem.pm
    bad = full.copy()
    bad[0, 1] += 1e-5
    bad[1, 0] += 1e-5
    assert gates.completion_gate(pm.zero_filled().array, pm.specified_mask(), bad)


def test_completion_gate_rejects_a_non_dnn_matrix():
    problem, full = _completion_reference()
    pm = problem.pm
    mask = pm.specified_mask()
    r, c = np.argwhere(~mask)[0]
    bad = full.copy()
    bad[r, c] = bad[c, r] = -0.5
    assert gates.completion_gate(pm.zero_filled().array, mask, bad)


def test_certificate_gate_rejects_perturbed_data():
    problem, _ = _completion_reference()
    pm, data = problem.pm, problem.data
    args = (pm.X.array, [z[0] for z in pm.Z], [float(y.array[0, 0]) for y in pm.Y])
    g = [float(v[0]) for v in data.g]
    assert gates.certificate_gate(*args, data.f, g, data.d, 1e-8) == []
    d = list(data.d)
    d[1] += 1e-6
    assert gates.certificate_gate(*args, data.f, g, d, 1e-8)


# -- budget, tracer and metric names --------------------------------------------

def test_budget_times_out_a_runaway_case(monkeypatch):
    monkeypatch.setattr(workloads, "CASE_BUDGET_S", 0.05)
    budget = workloads.Budget(time.perf_counter())

    def spin():
        while True:
            pass

    with pytest.raises(workloads.CaseTimeout):
        budget.call(spin)
    assert budget.call(lambda: 7) == 7


def test_tracer_records_spans_and_restores_every_target():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
    qp = qp_relax.QPInstance.build(-np.eye(2), np.zeros(2), [[1, 2], [2, 1]], [1, 1])
    tracer = Tracer()
    tracer.case = "fixture"
    tracer.install()
    try:
        report = qp_relax.exactness_report(qp)
    finally:
        tracer.remove()
    assert report.overall == "ProvenExact"
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    names = {s.name for s in tracer.spans}
    assert {"qp_relax.build", "conic_solver.solve", "conic_solver.constraint_matrix",
            "jacobi.jacobi_eigh"} <= names
    solve = next(s for s in tracer.spans if s.name == "conic_solver.solve")
    assert solve.info["status"] == "Optimal" and solve.info["iterations"] > 0
    inner = next(s for s in tracer.spans if s.name == "conic_solver.constraint_matrix")
    assert tracer.spans[inner.parent].name == "conic_solver.solve"


def _fake_runs():
    def execution(name, seconds, failure=None, traced=False, dense=0.5):
        result = {"overall": "ProvenExact", "verdict": "Certified", "lower": -1.0,
                  "proven_by": ["rank_one"]}
        return workloads.Execution(name, seconds, traced, failure, [], result, dense_s=dense)

    return [execution("n4", 1.0), execution("n6", 2.0, "timeout"), execution("n4", 3.0),
            execution("n4", 2.0), execution("n6", 9.0, traced=True)]


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_end_to_end_holds_every_reported_metric(workload):
    e2e = metrics.end_to_end(workload, _fake_runs(), 0.2, 50.0)
    assert set(metrics.END_TO_END) <= set(e2e)
    assert e2e["wall_s"][0] == 4.0 and e2e["case_s.executions"][0] == 4
    assert e2e["case_s.p50"][0] == 2.0 and e2e["case_s.cases"][0] == 2
    assert e2e["failed_frac"][0] == 0.2
    assert all(e2e[name][0] > 0 for name in metrics.END_TO_END)


def test_times_are_scaled_to_the_reference_speed():
    runs = [workloads.Execution("a", 4.0, False, slowdown=2.0)]
    e2e = metrics.end_to_end("qp-tall", runs, 0.2, 50.0)
    assert e2e["wall_s"][0] == 2.0 and e2e["wall_s.raw"][0] == 4.0
    assert e2e["setup_s"][0] == 0.1 and e2e["setup_s.raw"][0] == 0.2


def test_case_weights_make_layer_sums_per_pass():
    runs = _fake_runs()
    weights = metrics.case_weights(runs)
    assert weights == {"n6": 1.0}
    runs.append(workloads.Execution("n6", 1.0, True))
    spans = [{"name": "conic_solver.solve", "case": "n6", "start": 0.0, "end": 3.0}] * 2
    assert metrics._Spans(spans, metrics.case_weights(runs)).seconds("conic_solver.solve") == 3.0


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)
    import run

    assert run.WORKLOADS == cases.WORKLOADS and run.DEFECTS == cases.DEFECTS
    assert set(workloads.ENTRY) == set(cases.WORKLOADS + cases.DEFECTS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qp-tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
