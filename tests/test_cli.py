"""Command-line harness: dispatch, exit codes, artifacts, round trips."""

import csv
import functools
import json

import pytest

from dpgap.cli import main
from dpgap.fem import solve

pytestmark = pytest.mark.usefixtures("capsys")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_gap_verdict_json(self, capsys):
        code, out, err = run(capsys, "classify", "--alpha", "2", "--beta", "2")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "Gap"

    def test_no_gap_verdict(self, capsys):
        code, out, _ = run(capsys, "classify", "--alpha", "0.5", "--beta", "2")
        assert code == 0
        assert json.loads(out)["verdict"] == "NoGap"

    def test_single_phase_exit_two(self, capsys):
        code, _, err = run(capsys, "classify", "--alpha", "0.5", "--beta", "-1")
        assert code == 2
        assert err.splitlines()[0].split(":")[0] == "PRECONDITION"


class TestPhaseDiagram:
    def test_csv_grid(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "phase-diagram", "--out", str(out_path))
        assert code == 0
        rows = list(csv.DictReader(out_path.open()))
        assert len(rows) == 36
        gaps = [r for r in rows if r["verdict"] == "Gap"]
        assert len(gaps) == 9
        assert all(min(float(r["alpha"]), float(r["beta"])) > 1.0 for r in gaps)

    def test_ordered_by_alpha_beta(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        run(capsys, "phase-diagram", "--out", str(out_path))
        rows = list(csv.DictReader(out_path.open()))
        keys = [(float(r["alpha"]), float(r["beta"])) for r in rows]
        assert keys == sorted(keys)

    def test_single_phase_cell(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "phase-diagram", "--alphas", "0.25",
                         "--betas=-0.5", "--out", str(out_path))
        assert code == 0
        rows = list(csv.DictReader(out_path.open()))
        assert rows == [{"alpha": "0.25", "beta": "-0.5", "verdict": "SinglePhase"}]

    def test_idempotent_rerun_bit_identical(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        run(capsys, "phase-diagram", "--out", str(out_path))
        first = out_path.read_bytes()
        run(capsys, "phase-diagram", "--out", str(out_path))
        assert out_path.read_bytes() == first


class TestGap:
    def test_precondition_exit_code_and_stderr(self, capsys):
        code, _, err = run(capsys, "gap", "--alpha", "2", "--beta", "0.5",
                           "--mode", "G")
        assert code == 2
        assert err.startswith("GAP_PRECONDITION_B_NOT_DUAL_INTEGRABLE:")

    def test_report_schema(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "gap", "--alpha", "2", "--beta", "2",
                         "--levels", "8", "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert list(report) == ["alpha", "beta", "mode", "verdict", "linear_mode",
                                "mode_note", "levels"]
        assert report["linear_mode"] == "solenoidal_exact"
        assert report["verdict"] == "Gap"
        level = report["levels"][0]
        assert {"n", "h_min", "E1", "E2", "s_opt", "sep_value"} <= set(level)
        assert level["E1"] <= level["E2"] + 1e-10

    def test_non_convergence_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(solve, "minimize",
                            functools.partial(solve.minimize, max_iterations=1))
        code, out, err = run(capsys, "gap", "--alpha", "2", "--beta", "2",
                             "--levels", "16")
        assert out == ""
        assert code == 3
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("SOLVER_NON_CONVERGED: ")


class TestCutoff:
    def test_loglog_profile_and_certificate(self, capsys, tmp_path):
        prof = tmp_path / "prof.csv"
        cert = tmp_path / "cert.json"
        code, _, _ = run(capsys, "cutoff", "--kind", "loglog", "--eps", "1e-2",
                         "--out", str(prof), "--certificate", str(cert))
        assert code == 0
        rows = list(csv.DictReader(prof.open()))
        assert list(rows[0]) == ["r", "eta", "eta_prime"]
        etas = [float(r["eta"]) for r in rows]
        assert etas == sorted(etas)
        meta = json.loads(cert.read_text())
        assert meta["kind"] == "LogLog"
        assert meta["r2"] == 1e-2

    def test_psi_harmonic_budget(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, _, _ = run(capsys, "cutoff", "--kind", "psi-harmonic",
                         "--alpha", "0.5", "--r2", "0.5", "--delta", "0.25",
                         "--out", str(tmp_path / "p.csv"),
                         "--certificate", str(cert))
        assert code == 0
        meta = json.loads(cert.read_text())
        assert meta["normalization_constant"] <= 0.25
        assert meta["energy"] <= 3.2 * 0.25

    def test_gap_regime_exit_three(self, capsys):
        code, _, err = run(capsys, "cutoff", "--kind", "psi-harmonic",
                           "--alpha", "2", "--r2", "0.5", "--delta", "0.25")
        assert code == 3
        assert err.startswith("NO_REMOVABLE_SINGULARITY:")


class TestSmallCommands:
    def test_flux_prints_one(self, capsys):
        code, out, _ = run(capsys, "flux", "--nquad", "1024")
        assert code == 0
        assert abs(float(out.strip()) - 1.0) < 1e-6

    def test_norm_reports_value(self, capsys):
        code, out, _ = run(capsys, "norm", "--field", "u2", "--p", "2",
                           "--gamma", "1", "--res", "32")
        assert code == 0
        assert json.loads(out)["luxemburg_norm"] > 0.0

    def test_conjugate_round_trip(self, capsys):
        code, out, _ = run(capsys, "conjugate", "--p", "2", "--gamma", "2")
        assert code == 0
        report = json.loads(out)
        assert report["conjugate"] == {"p": 2.0, "gamma": -2.0}
        assert report["round_trip"] == {"p": 2.0, "gamma": 2.0}
        for sample in report["samples"]:
            assert 0.2 <= sample["ratio"] <= 5.0

    def test_fields_csv_header(self, capsys, tmp_path):
        out_path = tmp_path / "fields.csv"
        code, _, _ = run(capsys, "fields", "--res", "8", "--out", str(out_path))
        assert code == 0
        header = out_path.open().readline().strip().split(",")
        assert header == ["x1", "x2", "a", "u2", "grad_u2_norm", "b2_norm"]


class TestRangeErrors:
    @pytest.mark.parametrize("argv", [("flux", "--nquad", "10"),
                                      ("norm", "--res", "0"),
                                      ("fields", "--res", "0"),
                                      ("gap", "--alpha", "2", "--beta", "2",
                                       "--levels", ""),
                                      ("phase-diagram", "--grid", ""),
                                      ("phase-diagram", "--alphas", "1",
                                       "--betas", "")],
                             ids=["flux", "norm", "fields", "gap",
                                  "phase-grid", "phase-betas"])
    def test_exit_two_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("RANGE: ")


class TestConfig:
    def test_config_mirrors_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "classify",
                                   "alpha": 2, "beta": 2}))
        code, out, _ = run(capsys, "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["verdict"] == "Gap"

    def test_explicit_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "classify",
                                   "alpha": 2, "beta": 2}))
        code, out, _ = run(capsys, "--config", str(cfg), "--beta", "0.5")
        assert code == 0
        assert json.loads(out)["verdict"] == "NoGap"

    def test_missing_config_exits_four(self, capsys, tmp_path):
        code, _, err = run(capsys, "--config", str(tmp_path / "nope.json"))
        assert code == 4
        assert err.startswith("IO_ERROR:")

    def test_json_report_reparses_losslessly(self, capsys):
        code, out, _ = run(capsys, "classify", "--alpha", "1.25", "--beta", "3")
        report = json.loads(out)
        # 17 significant digits round-trip doubles exactly
        assert isinstance(report["phi_tail"]["fitted_exponent"], float)
        assert json.loads(json.dumps(report)) == report
