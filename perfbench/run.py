"""cppc benchmark: one closed-loop workload run, checked against references.

Run from the repository root:

    python3 perfbench/run.py --workload qp-square --seed 1 --seconds 36 --trace 0

Workloads (see ``cases.py`` for how their inputs are built):

* ``qp-square``  ``cppc solve-qp`` in process (``cli.run_solve_qp`` plus
  ``cli.dumps_json``) on the ROADMAP Baseline ladder n = m in {4, 6, 8},
  default ``SolveOptions``; the dense reformulation is timed on the same
  instances as the paper's comparator.
* ``qp-tall``    ``exactness_report(qp, SolveOptions(polish=False))`` at n = 4,
  m in {12, 16, 20}: the ADMM loop does nearly all the work.
* ``completion`` ``certify_completable`` then ``complete_numeric`` on
  arrowheads with a known completely positive completion.

``--workload qp-tall-stall`` runs the qp-tall entry point on the known
MaxIters stall at m = 20, family seed 2, alone.  It reproduces the defect
(every execution fails) and is not one of the benchmarked workloads.

Case times are reported at a reference machine speed probed around every
case (``speed.py``), next to the clock readings.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced rounds, reports the per-layer metrics, writes every span to
``perfbench/out/trace-<workload>.json`` and prints the sparse-vs-dense
Baseline table (qp-square).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2
means the benchmark could not run at all.
"""

import os

# Pin BLAS threads before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("qp-square", "qp-tall", "completion")
DEFECTS = ("qp-tall-stall",)
#: Fresh interpreters timed for ``setup_s`` before the first case; one more
#: is timed after every case execution (``SetupTimer``).
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + DEFECTS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class SetupTimeout(Exception):
    pass


def _on_setup_alarm(signum, frame):
    raise SetupTimeout


class SetupTimer:
    """Times fresh interpreters that ``import cppc.cli``.

    ``setup_s`` is the median of ``SETUP_SAMPLES`` samples taken at the start
    and one more after every case execution, so that it spans the whole run
    and not only the few seconds a burst of samples would take: on a shared
    machine the start-up time moves by a third within ten seconds.  Each
    child is awaited with a blocking ``wait()``, bounded by an alarm;
    ``subprocess.run`` with a timeout polls in sleeps of up to 50 ms, which
    would round every reading up to the next poll.
    """

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: list[float] = []

    def sample(self) -> None:
        previous = signal.signal(signal.SIGALRM, _on_setup_alarm)
        try:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", "import cppc.cli"], cwd=ROOT,
                                    env=self.env)
            signal.setitimer(signal.ITIMER_REAL, 60.0)
            try:
                code = proc.wait()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            self.samples.append(time.perf_counter() - start)
        finally:
            signal.signal(signal.SIGALRM, previous)
        if code != 0:
            raise RuntimeError(f"import cppc.cli exited with code {code}")

    def median(self) -> float:
        return statistics.median(self.samples)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "git_commit": git_commit(),
    }


def show(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cppc" / "__init__.py").is_file():
        print(f"perfbench: no cppc sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    run_start = time.perf_counter()
    sys.path.insert(0, str(SRC))

    import metrics
    from cases import make_cases
    from speed import SpeedProbe
    from tracer import Tracer
    from workloads import Budget, reference, run_loop

    setup = SetupTimer()
    for _ in range(SETUP_SAMPLES):
        setup.sample()

    env = environment(args.seed)
    print("environment " + json.dumps(env))
    cases = make_cases(args.workload, args.seed)
    refs = {case.name: reference(case) for case in cases}
    tracer = Tracer()
    runs = run_loop(args.workload, cases, refs, args.seconds, bool(args.trace), tracer,
                    Budget(run_start), SpeedProbe(), between=setup.sample)
    setup_s = setup.median()

    print("== case executions (round, traced rounds marked *)")
    for e in runs:
        note = e.failure or ""
        if e.gate_errors:
            note += ": " + "; ".join(e.gate_errors)
        print(f"  {e.round}{'*' if e.traced else ' '} {e.case:22s} {e.seconds:9.3f} s"
              f"  slowdown {e.slowdown:.3f}  {note}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = metrics.end_to_end(args.workload, runs, setup_s, peak_rss_mb)
    e2e["setup_s.samples"] = (len(setup.samples), "count")
    show(f"end-to-end metrics, {args.workload}", e2e)
    reported = {name: e2e[name] for name in metrics.END_TO_END}
    if args.trace:
        spans = tracer.to_json()
        layers = metrics.per_layer(args.workload, runs, spans, refs)
        show(f"per-layer metrics, {args.workload}", layers)
        if args.workload == "qp-square":
            print("== Baseline table (sparse vs dense solve, traced rounds)")
            print(metrics.baseline_table(layers))
        OUT.mkdir(parents=True, exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "environment": env,
            "case_weights": metrics.case_weights(runs),
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
            "spans": spans,
        }))
        print(f"trace written to {trace_file.relative_to(ROOT)}")
        reported = {name: layers[name] for name in metrics.PER_LAYER}
    result = {
        "correct": not any(e.gate_errors for e in runs),
        "attempted": len(runs),
        "failed": sum(e.failure is not None for e in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
