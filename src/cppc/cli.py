"""Command-line interface: parse problem files, run the completion or QP
pipelines, emit machine-readable JSON on stdout and a human summary on
stderr.

Commands
--------
check     completability certification of a width-one arrowhead partial matrix
complete  numeric completion search (with the grid oracle as fallback evidence)
solve-qp  sparse relaxation bounds and exactness report for a QP instance
oracle    brute-force reference outputs (completion grid search or QP optimum)

Exit codes: 0 computed (including NoCertificate/Unknown outcomes), 1 input
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import completion as completion_mod
from . import oracles, qp_relax
from .conditions import ConstraintData
from .cones import ORTHANT, GroundCone
from .conic_solver import SolveOptions
from .matrix_core import PartialMatrix

_COMPLETION_KEYS = {"n1", "n2", "S", "X", "Z", "Y", "f", "g", "d", "f0", "d0", "K"}
_QP_KEYS = {"A", "a", "F", "d", "K"}


@dataclass
class RunConfig:
    command: str
    input_path: str
    out_path: Optional[str] = None
    tol: Optional[float] = None
    max_iters: Optional[int] = None
    quiet: bool = False


#: Spaces per nesting level of :func:`dumps_json`.
_JSON_INDENT = 2


def dumps_json(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""

    def render(node, depth):
        pad = " " * (_JSON_INDENT * depth)
        pad_in = " " * (_JSON_INDENT * (depth + 1))
        if node is None:
            return "null"
        if node is True:
            return "true"
        if node is False:
            return "false"
        if isinstance(node, str):
            return json.dumps(node)
        if isinstance(node, (int, np.integer)):
            return str(int(node))
        if isinstance(node, (float, np.floating)):
            val = float(node)
            if val != val:
                return '"nan"'
            if val in (float("inf"), float("-inf")):
                return f'"{val}"'
            return format(val, ".17g")
        if isinstance(node, np.ndarray):
            node = node.tolist()
        if isinstance(node, (list, tuple)):
            if not node:
                return "[]"
            inner = ",\n".join(pad_in + render(x, depth + 1) for x in node)
            return "[\n" + inner + "\n" + pad + "]"
        if isinstance(node, dict):
            if not node:
                return "{}"
            inner = ",\n".join(
                f"{pad_in}{json.dumps(str(k))}: {render(v, depth + 1)}"
                for k, v in node.items()
            )
            return "{\n" + inner + "\n" + pad + "}"
        raise TypeError(f"cannot serialize {type(node)!r}")

    return render(obj, 0) + "\n"


class InputError(ValueError):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc


def parse_completion_problem(obj: dict) -> completion_mod.CompletionProblem:
    unknown = obj.keys() - _COMPLETION_KEYS
    if unknown:
        raise InputError(f"unknown keys in completion problem: {sorted(unknown)}")
    pm = PartialMatrix.from_json_dict(obj)
    K = GroundCone.from_json_dict(obj["K"]) if "K" in obj else None
    problem = completion_mod.CompletionProblem.from_partial_matrix(pm, K)
    data_keys = {"f", "g", "d"} & obj.keys()
    if data_keys and data_keys != {"f", "g", "d"}:
        raise InputError("constraint data requires all of f, g, d")
    if data_keys:
        problem.data = ConstraintData.width_one(
            problem.K, obj["f"], obj["g"], obj["d"], obj.get("f0"), obj.get("d0", 0.0)
        )
    return problem


def _solver_opts(config: RunConfig) -> SolveOptions:
    overrides = {}
    if config.tol is not None:
        overrides.update(tol_primal=config.tol, tol_dual=config.tol,
                         tol_gap=max(config.tol, 1e-9))
    if config.max_iters is not None:
        overrides["max_iters"] = config.max_iters
    return SolveOptions(**overrides)


def _verdict_dict(v) -> Optional[dict]:
    if v is None:
        return None
    return {
        "verdict": v.verdict,
        "detail": v.detail,
        "witness_factor": None if v.witness is None else v.witness.tolist(),
    }


def _data_dict(data: Optional[ConstraintData]) -> Optional[dict]:
    if data is None:
        return None
    return {
        "f0": data.f[0].tolist(),
        "d0": float(data.d[0]),
        "f": data.f[1:].tolist(),
        "g": data.g[:, 0].tolist(),
        "d": data.d[1:].tolist(),
    }


def run_check(config: RunConfig, obj: dict) -> dict:
    problem = parse_completion_problem(obj)
    if config.tol is None:
        cert = completion_mod.certify_completable(problem)
    else:
        cert = completion_mod.certify_completable(problem, tol=config.tol)
    report = cert.report
    return {
        "verdict": cert.verdict,
        "reasons": cert.reasons,
        "data": _data_dict(cert.data),
        "block_residuals": [list(pair) for pair in cert.block_residuals],
        "f0_residuals": list(cert.f0_residuals),
        "block_cp": [_verdict_dict(v) for v in cert.block_verdicts],
        "conditions": None
        if report is None
        else {
            "cond_i": list(report.cond_i),
            "boundedness": {
                "status": report.boundedness.status,
                "reason": report.boundedness.reason,
            },
            "cond_iii": None
            if report.cond_iii is None
            else {"i_star": report.cond_iii[0], "lambdas": list(report.cond_iii[1])},
            "cond_iii_reason": report.cond_iii_reason,
        },
        "tolerance": cert.tol,
    }


def _completion_dict(completion) -> dict:
    return {
        "full": completion.full.to_lists(),
        "unspecified_entries": {
            f"{r},{c}": val for (r, c), val in sorted(completion.unspecified_entries().items())
        },
    }


def run_complete(config: RunConfig, obj: dict) -> dict:
    problem = parse_completion_problem(obj)
    res = completion_mod.complete_numeric(problem, _solver_opts(config))
    out = {
        "found": res.completion is not None,
        "diagnostics": res.diagnostics,
        "completion": None,
        "cp": _verdict_dict(res.cp_verdict),
        "oracle": None,
        "no_completion_certificate": None,
    }
    cert = res.no_completion_certificate
    if cert is not None:
        out["no_completion_certificate"] = {
            "arms": list(cert.arms), "u": cert.u.tolist(), "value": cert.value,
        }
    if res.completion is not None:
        out["completion"] = _completion_dict(res.completion)
        return out
    pairs = problem.S * (problem.S - 1) // 2
    if pairs <= 3:
        orc = oracles.brute_force_completion_oracle(problem.original, problem.K)
        out["oracle"] = {
            "best_min_eigenvalue": orc.best_min_eigenvalue,
            "entries": orc.entries,
            "found": orc.completion is not None,
        }
        if orc.completion is not None:
            out["found"] = True
            out["diagnostics"] += "; grid oracle found a completion"
            out["completion"] = _completion_dict(orc.completion)
    return out


def run_solve_qp(config: RunConfig, obj: dict) -> dict:
    unknown = obj.keys() - _QP_KEYS
    if unknown:
        raise InputError(f"unknown keys in QP instance: {sorted(unknown)}")
    qp = qp_relax.QPInstance.from_json_dict(obj)
    report = qp_relax.exactness_report(qp, _solver_opts(config))
    if report.lower != report.lower:  # NaN: solver breakdown
        raise NumericalFailure(report.diagnostics or "relaxation solve failed")
    cert_a = report.certificate_a
    cert_b = report.certificate_b
    return {
        "lower": report.lower,
        "upper": report.upper,
        "rank_one": report.rank_one,
        "certificate_a": None
        if cert_a is None
        else {
            "u": cert_a["u"].tolist(),
            "alpha": cert_a["alpha"].tolist(),
            "w": cert_a["w"].tolist(),
        },
        "certificate_b": None
        if cert_b is None
        else {
            "u": cert_b["u"].tolist(),
            "gamma": cert_b["gamma"].tolist(),
            "kernel_residual": cert_b["kernel_residual"],
            "polytope_bounded": cert_b["polytope_bounded"],
        },
        "overall": report.overall,
        "proven_by": report.proven_by,
        "x_part": None if report.solution is None else report.solution.x.tolist(),
        "diagnostics": report.diagnostics,
    }


#: Most KKT systems ``oracle`` lets :func:`oracles.qp_global_minimum` solve
#: on a QP, one per active subset of at most ``n`` of its rows: about 5 s
#: at the 40-45 us a system takes on one core at n <= 6.
QP_ORACLE_BUDGET = 100_000


def run_oracle(config: RunConfig, obj: dict) -> dict:
    if "n1" in obj:
        problem = parse_completion_problem(obj)
        orc = oracles.brute_force_completion_oracle(problem.original, problem.K)
        return {
            "kind": "completion",
            "found": orc.completion is not None,
            "best_min_eigenvalue": orc.best_min_eigenvalue,
            "entries": orc.entries,
        }
    if "A" in obj and "F" in obj:
        qp = qp_relax.QPInstance.from_json_dict(obj)
        nonneg = np.flatnonzero(qp.K.kinds == ORTHANT)
        systems = sum(math.comb(qp.m + nonneg.size, k) for k in range(qp.n + 1))
        if systems > QP_ORACLE_BUDGET:
            return {
                "kind": "qp",
                "optimum": None,
                "argmin": None,
                "diagnostics": f"active-set enumeration needs {systems} KKT systems, "
                               f"above the budget of {QP_ORACLE_BUDGET}",
            }
        val, x = oracles.qp_global_minimum(qp.A.array, qp.a, qp.F, qp.d, nonneg)
        return {
            "kind": "qp",
            "optimum": None if val is None else val,
            "argmin": None if x is None else x.tolist(),
        }
    raise InputError("oracle input is neither a partial matrix nor a QP instance")


class NumericalFailure(RuntimeError):
    pass


_COMMANDS = {
    "check": run_check,
    "complete": run_complete,
    "solve-qp": run_solve_qp,
    "oracle": run_oracle,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # Usage problems are input errors (exit 1); 2 is reserved for
        # numerical failures.
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cppc",
        description="Completely positive completion of arrowhead partial "
        "matrices and sparse DNN relaxations of QPs.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("input", help="path to the JSON problem file")
    parser.add_argument("--tol", type=float, default=None, help="tolerance override")
    parser.add_argument("--max-iters", type=int, default=None, help="interior-point iteration cap")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    return parser


def _summary(command: str, report: dict) -> str:
    if command == "check":
        msg = f"check: {report['verdict']}"
        if report["reasons"]:
            msg += " (" + "; ".join(report["reasons"]) + ")"
        return msg
    if command == "complete":
        if report["found"]:
            return "complete: completion found"
        extra = ""
        if report.get("oracle"):
            extra = (
                f" (oracle max smallest eigenvalue "
                f"{report['oracle']['best_min_eigenvalue']:.6g})"
            )
        return "complete: no completion found" + extra
    if command == "solve-qp":
        upper = report["upper"]
        return (
            f"solve-qp: lower {report['lower']:.9g}, upper "
            f"{'n/a' if upper is None else format(upper, '.9g')}, "
            f"overall {report['overall']}"
            + (f" via {', '.join(report['proven_by'])}" if report["proven_by"] else "")
        )
    return f"oracle: {report}"


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        if config.tol is not None and not (np.isfinite(config.tol) and config.tol > 0):
            raise InputError(f"--tol must be finite and positive, got {config.tol}")
        if config.max_iters is not None and config.max_iters < 1:
            raise InputError(f"--max-iters must be at least 1, got {config.max_iters}")
        obj = _load_json(config.input_path)
        if not isinstance(obj, dict):
            raise InputError("top-level JSON value must be an object")
        report = _COMMANDS[config.command](config, obj)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # LinAlgError subclasses ValueError, so it is caught first.
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 1
    text = dumps_json(report)
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not config.quiet:
        print(_summary(config.command, report), file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        input_path=args.input,
        out_path=args.out,
        tol=args.tol,
        max_iters=args.max_iters,
        quiet=args.quiet,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
