import json
import os
import re

import numpy as np
import pytest

from cppc import completion, qp_relax
from cppc.cli import RunConfig, dumps_json, main, parse_completion_problem, run
from cppc.conic_solver import SolveOptions
from cppc.qp_relax import QPInstance

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_capture(capsys, command, path, **kwargs):
    config = RunConfig(command=command, input_path=path, quiet=True, **kwargs)
    code = run(config)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_solve_qp_fixture(self, capsys):
        code, out, _ = run_capture(capsys, "solve-qp", fixture("qp_two_constraints.json"))
        assert code == 0
        report = json.loads(out)
        assert report["lower"] == pytest.approx(-0.25, abs=1e-4)
        assert report["upper"] == pytest.approx(-0.125, abs=1e-4)
        assert report["overall"] == "ProvenExact"
        u = report["certificate_b"]["u"]
        assert u[0] == pytest.approx(u[1], abs=1e-5)

    def test_check_fixture(self, capsys):
        code, out, _ = run_capture(capsys, "check", fixture("completable_arrowhead.json"))
        assert code == 0
        report = json.loads(out)
        # All three conditions hold on the supplied data, but the second
        # block's lifted equation misses by 1.8, so no certificate issues.
        assert report["verdict"] == "NoCertificate"
        assert any("block equations" in r for r in report["reasons"])
        assert report["conditions"]["cond_i"] == [True, True]
        assert report["conditions"]["boundedness"]["status"] == "Bounded"
        assert report["conditions"]["cond_iii"] == {"i_star": 1, "lambdas": [1.0, 1.0]}
        assert report["block_residuals"][1][1] == pytest.approx(1.8)

    def test_complete_noncompletable(self, capsys):
        code, out, _ = run_capture(capsys, "complete", fixture("noncompletable_arrowhead.json"))
        assert code == 0
        report = json.loads(out)
        assert report["found"] is False
        assert report["oracle"]["best_min_eigenvalue"] < -1e-3

    def test_complete_reports_proof_of_none(self, capsys):
        _, out, _ = run_capture(capsys, "complete", fixture("noncompletable_arrowhead.json"))
        cert = json.loads(out)["no_completion_certificate"]
        assert cert["arms"] == [1, 2]
        assert cert["value"] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert np.allclose(cert["u"], [1.0, -1.0, 1.0, -1.0], atol=1e-12)
        _, out, _ = run_capture(capsys, "complete", fixture("completable_arrowhead.json"))
        assert json.loads(out)["no_completion_certificate"] is None

    def test_complete_completable(self, capsys):
        code, out, _ = run_capture(capsys, "complete", fixture("completable_arrowhead.json"))
        assert code == 0
        report = json.loads(out)
        assert report["found"] is True
        entry = report["completion"]["unspecified_entries"]["2,3"]
        assert 0.0 <= entry <= 0.5

    def test_oracle_dispatch(self, capsys):
        code, out, _ = run_capture(capsys, "oracle", fixture("completable_arrowhead.json"))
        assert code == 0
        assert json.loads(out)["kind"] == "completion"
        code, out, _ = run_capture(capsys, "oracle", fixture("qp_two_constraints.json"))
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "qp"
        assert report["optimum"] == pytest.approx(-0.25, abs=1e-9)


    def test_free_coordinate_completion(self, tmp_path, capsys, free_coordinate_problem):
        # Completable over R_+ x R; the free row has negative entries.
        pm, _ = free_coordinate_problem
        full = pm.zero_filled().array
        obj = {"n1": 3, "n2": 1, "S": 2, "X": full[:3, :3].tolist(),
               "Z": [[full[3 + i, :3].tolist()] for i in range(2)],
               "Y": [[[full[3 + i, 3 + i]]] for i in range(2)],
               "K": {"product": [{"orthant": 1}, {"free": 1}]}}
        path = tmp_path / "free.json"
        path.write_text(json.dumps(obj))
        assert run(RunConfig(command="complete", input_path=str(path))) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert err == "complete: completion found\n" and report["found"] is True
        assert report["diagnostics"] == "closed-form max-determinant completion"
        assert report["cp"] is None and report["oracle"] is None
        code, out, _ = run_capture(capsys, "oracle", str(path))
        assert code == 0 and json.loads(out)["found"] is True


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_capture(capsys, "check", fixture("nope.json"))
        assert code == 1
        assert "not found" in err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json }")
        code, _, err = run_capture(capsys, "check", str(bad))
        assert code == 1
        assert "line" in err

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        with open(fixture("completable_arrowhead.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["mystery"] = 1
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_capture(capsys, "check", str(path))
        assert code == 1
        assert "unknown keys" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["f", "g", "d", "f0", "d0"])
    def test_non_finite_constraint_data_is_an_input_error(self, tmp_path, capsys, key, bad):
        # Comparisons with NaN are false, so unchecked data would pass every
        # condition and print "Certified".
        with open(fixture("completable_arrowhead.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        if key == "d0":
            obj[key] = bad
        elif key == "f":
            obj[key][0][0] = bad
        else:
            obj[key][0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code = main(["check", str(path)])
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert "invalid input" in out.err and "non-finite" in out.err

    @pytest.mark.parametrize("key, value, message", [
        ("S", 2.9, "pattern size S must be an integer, got 2.9"),
        ("S", 2.0, "pattern size S must be an integer, got 2.0"),
        ("K", {"orthant": 1.5}, "cone factor orthant dimension must be an integer, got 1.5"),
    ])
    def test_fractional_sizes_are_input_errors(self, tmp_path, capsys, key, value, message):
        # Truncated, 2.9 arms would run as 2 and an orthant of dimension 1.5 as 1.
        with open(fixture("completable_arrowhead.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        obj[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code = main(["check", str(path)])
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert f"invalid input: {message}\n" in out.err

    def test_wide_pattern_is_rejected_by_its_width(self, tmp_path, capsys):
        # The arm rows have width one, so only the width check can object.
        with open(fixture("completable_arrowhead.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["n2"] = 2
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(obj))
        code = main(["check", str(path)])
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert "invalid input: width must be one, got n2=2\n" in out.err

    def test_oracle_on_unrecognized_input(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text('{"x": 1}')
        code, _, err = run_capture(capsys, "oracle", str(path))
        assert code == 1

    def test_usage_error_is_input_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "whatever.json"])
        assert exc.value.code == 1

    def test_seed_flag_is_gone(self, capsys):
        # The data search has no randomness left to seed.
        with pytest.raises(SystemExit) as exc:
            main(["check", fixture("noncompletable_arrowhead.json"), "--seed", "0"])
        assert exc.value.code == 1

    def test_tolerance_reaches_check(self, capsys):
        code, out, _ = run_capture(
            capsys, "check", fixture("noncompletable_arrowhead.json"), tol=1e-6
        )
        assert code == 0 and json.loads(out)["tolerance"] == 1e-6

    def test_eigen_bound_failure_is_numerical_failure(self, capsys, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(m):
            w, v = eigh(m)
            return w, v + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        code, _, err = run_capture(capsys, "check", fixture("completable_arrowhead.json"))
        assert code == 2
        assert "numerical failure" in err and "residual bound" in err


    def test_solver_failure_exits_two(self, capsys):
        code = main(["solve-qp", fixture("qp_two_constraints.json"), "--max-iters", "1"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err.startswith(
            "error: numerical failure: solver failure: relaxation solve returned MaxIters"
        )

    @pytest.mark.parametrize("command, fixture_name, entry", [
        ("solve-qp", "qp_two_constraints.json", "exactness_report"),
        ("complete", "completable_arrowhead.json", "complete_numeric"),
    ])
    def test_tol_and_max_iters_reach_the_solver(self, capsys, monkeypatch,
                                                command, fixture_name, entry):
        owner = qp_relax if command == "solve-qp" else completion
        original = getattr(owner, entry)
        seen = []
        monkeypatch.setattr(owner, entry,
                            lambda problem, opts: seen.append(opts) or original(problem, opts))
        code = main([command, fixture(fixture_name), "--tol", "1e-7",
                     "--max-iters", "150", "--quiet"])
        assert code == 0
        assert seen == [SolveOptions(tol_primal=1e-7, tol_dual=1e-7, tol_gap=1e-7,
                                     max_iters=150)]


class TestSummary:
    @pytest.mark.parametrize("command, fixture_name, summary", [
        ("check", "noncompletable_arrowhead.json",
         "check: NoCertificate (no admissible data (f_i, g_i, d_i) found)\n"),
        ("complete", "completable_arrowhead.json", "complete: completion found\n"),
        ("complete", "noncompletable_arrowhead.json",
         "complete: no completion found (oracle max smallest eigenvalue -0.541381)\n"),
    ])
    def test_stderr_summary(self, capsys, command, fixture_name, summary):
        code = run(RunConfig(command=command, input_path=fixture(fixture_name)))
        out = capsys.readouterr()
        assert code == 0 and out.err == summary
        assert json.loads(out.out)

    def test_solve_qp_and_oracle_summaries(self, capsys):
        run(RunConfig(command="solve-qp", input_path=fixture("qp_two_constraints.json")))
        err = capsys.readouterr().err
        assert err.startswith("solve-qp: lower -0.2")
        assert err.endswith(", overall ProvenExact via certificate_b\n")
        run(RunConfig(command="oracle", input_path=fixture("qp_two_constraints.json")))
        assert capsys.readouterr().err.startswith("oracle: {'kind': 'qp', 'optimum': ")

    def test_quiet_suppresses_summary(self, capsys):
        run(RunConfig(command="check", input_path=fixture("noncompletable_arrowhead.json"),
                      quiet=True))
        assert capsys.readouterr().err == ""


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run_capture(capsys, "solve-qp", fixture("qp_two_constraints.json"))
        _, out2, _ = run_capture(capsys, "solve-qp", fixture("qp_two_constraints.json"))
        assert out1 == out2

    def test_emitted_certificate_reverifies_via_oracle(self, capsys):
        _, out, _ = run_capture(capsys, "solve-qp", fixture("qp_two_constraints.json"))
        report = json.loads(out)
        _, oracle_out, _ = run_capture(capsys, "oracle", fixture("qp_two_constraints.json"))
        oracle = json.loads(oracle_out)
        assert report["lower"] == pytest.approx(oracle["optimum"], abs=1e-4)


def golden_cases():
    """The recorded default output of every command on every fixture: exit
    code, stdout as parsed JSON (null when empty) and stderr."""
    with open(fixture("cli_golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _close(got, want) -> bool:
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def assert_matches(got, want, path="$"):
    """Same keys in the same order, same strings, booleans and integers;
    floats (and a float against an integer, as the writer prints an
    integral float without a point) within 1e-9 relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{k}]")
    elif float in (type(got), type(want)):
        assert {type(got), type(want)} <= {int, float} and _close(got, want), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def witnesses(command, report, problem_json):
    """Take every witness factor out of ``report``: ``(factor, matrix,
    tol)``, the matrix being the one the factor's verdict is about."""
    if command == "check":
        blocks = parse_completion_problem(problem_json).blocks
        return [(v.pop("witness_factor"), blocks[i], report["tolerance"])
                for i, v in enumerate(report["block_cp"])]
    if command == "complete" and report["cp"] is not None:
        # complete re-checks its completion at 1e-6.
        return [(report["cp"].pop("witness_factor"), report["completion"]["full"], 1e-6)]
    return []


def face_values(command, report):
    """Take the values that name one point of the relaxation's optimal face
    out of a ``solve-qp`` report: ``(x_part, upper, kernel_residual, u)``,
    the last two None without certificate B; None for other commands."""
    if command != "solve-qp" or report.get("x_part") is None:
        return None
    cert = report["certificate_b"]
    return (report.pop("x_part"), report.pop("upper"),
            cert and cert.pop("kernel_residual"), cert and cert["u"])


def assert_on_the_face(qp, lower, got, want):
    """The optimal face need not be one point, and the solver returns some
    point of it: ``x_part`` is feasible, ``upper`` is its objective and at
    least ``lower``, both lie within 1e-4 of the recorded ones, and the
    kernel residual passes certificate B's re-check."""
    (x, upper, residual, u), (x_want, upper_want, *_) = got, want
    assert qp.feasible(x)
    assert np.abs(np.subtract(x, x_want)).max() <= 1e-4
    assert (upper is None) == (upper_want is None)
    if upper is not None:
        assert upper == pytest.approx(qp.objective(x), rel=1e-12, abs=0.0)
        assert upper >= lower and abs(upper - upper_want) <= 1e-4
    if residual is not None:
        # The re-check bound with the corner's scale at 1, its least value.
        assert residual <= 10.0 * qp_relax.KERNEL_TOL * max(1.0, max(u))


def assert_factors(B, M, tol):
    """``B >= 0`` and ``||B B^T - M||_F`` within the CP check's limit."""
    B, M = np.asarray(B), np.asarray(M)
    assert B.min() >= 0.0
    assert np.linalg.norm(B @ B.T - M) <= max(tol, 1e-10) * max(1.0, np.abs(M).max())


@pytest.mark.parametrize("case", golden_cases(),
                         ids=lambda c: f"{c['command']}-{c['fixture']}")
def test_default_output_matches_the_recorded_one(capsys, case):
    # A factor is not unique, so witness factors are re-verified, not
    # compared; nor is a point of a QP's optimal face, so it is re-verified
    # and compared within a window.
    path = fixture(case["fixture"])
    code = run(RunConfig(command=case["command"], input_path=path))
    out = capsys.readouterr()
    assert code == case["exit"]
    got = json.loads(out.out) if out.out else None
    want = case["stdout"]
    if got is not None and want is not None:
        with open(path, encoding="utf-8") as fh:
            problem_json = json.load(fh)
        recorded = witnesses(case["command"], want, problem_json)
        for (B, M, tol), (B_want, _, _) in zip(witnesses(case["command"], got, problem_json),
                                               recorded, strict=True):
            assert (B is None) == (B_want is None)
            if B is not None:
                assert_factors(B, M, tol)
        face, face_want = face_values(case["command"], got), face_values(case["command"], want)
        assert (face is None) == (face_want is None)
        if face is not None:
            assert_on_the_face(QPInstance.from_json_dict(problem_json), got["lower"], face, face_want)
    assert_matches(got, want)
    # Text outside the numbers exactly, the numbers as floats; the upper
    # bound of solve-qp in the window of its face point.
    assert _NUMBER.split(out.err) == _NUMBER.split(case["stderr"])
    for g, w in zip(_NUMBER.finditer(out.err), _NUMBER.finditer(case["stderr"]), strict=True):
        g, w, before = float(g.group()), float(w.group()), w.string[:w.start()]
        if case["command"] == "solve-qp" and before.endswith("upper "):
            assert abs(g - w) <= 1e-4
        else:
            assert _close(g, w)


class TestJsonWriter:
    def test_seventeen_significant_digits(self):
        text = dumps_json({"v": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trips(self):
        obj = {"a": [1, 2.5, None, True], "b": {"c": "x"}, "d": []}
        assert json.loads(dumps_json(obj)) == obj

    def test_main_entry(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["oracle", fixture("qp_two_constraints.json"), "--out", str(out_path), "--quiet"])
        assert code == 0
        assert json.loads(out_path.read_text())["kind"] == "qp"
