import json
import os

import numpy as np
import pytest

from cppc.cli import RunConfig, dumps_json, main, run

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

    def test_oracle_on_unrecognized_input(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text('{"x": 1}')
        code, _, err = run_capture(capsys, "oracle", str(path))
        assert code == 1

    def test_usage_error_is_input_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "whatever.json"])
        assert exc.value.code == 1

    def test_eigen_bound_failure_is_numerical_failure(self, capsys, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(m):
            w, v = eigh(m)
            return w, v + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        code, _, err = run_capture(capsys, "check", fixture("completable_arrowhead.json"))
        assert code == 2
        assert "numerical failure" in err and "residual bound" in err


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run_capture(capsys, "solve-qp", fixture("qp_two_constraints.json"), seed=0)
        _, out2, _ = run_capture(capsys, "solve-qp", fixture("qp_two_constraints.json"), seed=0)
        assert out1 == out2

    def test_emitted_certificate_reverifies_via_oracle(self, capsys):
        _, out, _ = run_capture(capsys, "solve-qp", fixture("qp_two_constraints.json"))
        report = json.loads(out)
        _, oracle_out, _ = run_capture(capsys, "oracle", fixture("qp_two_constraints.json"))
        oracle = json.loads(oracle_out)
        assert report["lower"] == pytest.approx(oracle["optimum"], abs=1e-4)


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
