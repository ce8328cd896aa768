"""Rebuild the ROADMAP Baseline sparse-vs-dense table from a qp-square trace.

    python3 perfbench/run.py --workload qp-square --seed 0 --seconds 36 --trace 1
    python3 perfbench/baseline.py [perfbench/out/trace-qp-square.json]

The table is computed from the spans alone: ``conic_solver.solve`` (the
sparse relaxation, as ``solve_bounds`` calls it) and
``conic_solver.dense_solve`` (the dense reformulation) per ladder size.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import metrics  # noqa: E402


def main(argv) -> int:
    path = Path(argv[0] if argv else "perfbench/out/trace-qp-square.json")
    trace = json.loads(path.read_text())
    if trace["workload"] != "qp-square":
        print(f"{path} is a {trace['workload']} trace; the table needs qp-square",
              file=sys.stderr)
        return 2
    table = metrics.baseline_metrics(trace["spans"], trace["case_weights"])
    env = trace["environment"]
    print(f"Sparse vs dense relaxation, commit {env['git_commit']}, "
          f"{env['nproc']} cores, BLAS threads 1, seed {env['seed']}:\n")
    print(metrics.baseline_table(table))
    ratio = table["conic_solver.sparse_over_dense"][0]
    print(f"\nsparse / dense = {ratio:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
