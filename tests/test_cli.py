"""Command-line harness: dispatch, exit codes, artifacts, round trips, and
the library errors behind the exit codes."""

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dpgap
from dpgap.cli import _build_parser, main
from dpgap.cutoffs import find_inner_radius
from dpgap.errors import DpgapError, RangeError
from dpgap.fem import solve
from dpgap.fem.fields import DofField
from dpgap.fem.mesh import build_mesh
from dpgap.geometry import MAX_FIELDS_RESOLUTION, MAX_FLUX_NQUAD, eval_u2
from dpgap.orlicz import LogPower, PurePower, luxemburg_norm

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

    @pytest.mark.parametrize("alpha, beta, p, nulls", [
        ("2", "2", "19.035", ["phi_tail"]),  # phi's block sums overflow
        ("1", "0.01", "1.04", ["psi_star_tail"]),  # psi*'s block sums overflow
        # phi's block sums overflow, and psi* has no knot
        ("3", "2", "20.84", ["phi_tail", "psi_star_tail"]),
    ])
    def test_verdict_where_the_diagnostics_fail(self, capsys, alpha, beta, p, nulls):
        code, out, err = run(capsys, "classify", "--alpha", alpha, "--beta", beta, "--p", p)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["verdict"] == "NoGap"
        for tail in ("phi_tail", "psi_star_tail"):
            missing = [report[tail][key] is None for key in ("block_sums", "fitted_exponent")]
            assert missing == [tail in nulls] * 2

    def test_unfitted_exponent_is_null(self, capsys):
        # psi* = LogPower(11, -500): too few positive block sums to fit, and
        # -inf would not be JSON
        code, out, _ = run(capsys, "classify", "--alpha", "50", "--beta", "2", "--p", "1.1")
        assert code == 0
        psi_star = json.loads(out)["psi_star_tail"]
        assert psi_star["fitted_exponent"] is None
        assert len(psi_star["block_sums"]) == 61


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

    def test_domain_error_of_a_cell_exits_two(self, capsys):
        # only alpha + beta <= 0 reads SinglePhase; p = 1 is outside LogPower's domain
        code, out, err = run(capsys, "phase-diagram", "--p", "1", "--grid", "1,2")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("DOMAIN: ")

    @pytest.mark.parametrize("p", ["20.84", "25"])
    def test_rows_where_psi_star_has_no_knot(self, capsys, p):
        # psi* of alpha = 3 is LogPower(1.05, -0.15) at p = 20.84; its
        # exponents decide its tail, and p > 2 every phi tail
        code, out, err = run(capsys, "phase-diagram", "--p", p)
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 36
        assert {r["verdict"] for r in rows} == {"NoGap"}

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

    def test_force_g_overrides_the_precondition(self, capsys):
        argv = ("gap", "--alpha", "2", "--beta", "0.5", "--mode", "G", "--levels", "8")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("GAP_PRECONDITION_B_NOT_DUAL_INTEGRABLE: ")
        code, out, err = run(capsys, *argv, "--force-g")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["mode"], report["verdict"]) == ("G", "NoGap")

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
        monkeypatch.setattr(solve, "MAX_ITERATIONS", 1)
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

    def test_dual_tail_without_a_psi_star(self, capsys):
        # psi* has exponent 1.05 < 2, so its tail converges, as for any alpha;
        # its LogPower(1.05, -0.15) has no knot and is never built
        code, _, err = run(capsys, "cutoff", "--kind", "psi-harmonic", "--alpha", "3",
                           "--p", "20.84", "--delta", "0.25")
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

    def test_norm_non_finite_gamma_exit_two(self, capsys):
        code, out, err = run(capsys, "norm", "--gamma", "nan", "--res", "8")
        assert code == 2
        assert out == ""
        assert err.startswith("DOMAIN: ")

    def test_norm_unresolved_gamma_exit_three(self, capsys):
        # e + t rounds to e where the norm search ends, so the modular reads
        # t^p: the norm is refused, not printed as 7.5e14
        code, out, err = run(capsys, "norm", "--p", "2", "--gamma", "1e308", "--res", "16")
        assert code == 3
        assert out == ""
        assert err.startswith("NUMERICAL: rounding")

    def test_conjugate_round_trip(self, capsys):
        code, out, _ = run(capsys, "conjugate", "--p", "2", "--gamma", "2")
        assert code == 0
        report = json.loads(out)
        assert report["conjugate"] == {"p": 2.0, "gamma": -2.0}
        assert report["round_trip"] == {"p": 2.0, "gamma": 2.0}
        for sample in report["samples"]:
            assert 0.2 <= sample["ratio"] <= 5.0

    def test_conjugate_near_p_one(self, capsys):
        # sup_t (1.2 t - t^1.02 log^0.5(e + t)) = 0.0698479206..., by a dense
        # grid; plain Newton steps on ln f' 2-cycle at s = 1.2
        code, out, _ = run(capsys, "conjugate", "--p", "1.02", "--gamma", "0.5",
                           "--s", "1.19,1.2,1.21")
        assert code == 0
        numeric = [sample["numeric"] for sample in json.loads(out)["samples"]]
        assert numeric[1] == pytest.approx(0.0698479206, rel=1e-9)
        assert numeric == sorted(numeric)

    def test_fields_csv_header(self, capsys, tmp_path):
        out_path = tmp_path / "fields.csv"
        code, _, _ = run(capsys, "fields", "--res", "8", "--out", str(out_path))
        assert code == 0
        header = out_path.open().readline().strip().split(",")
        assert header == ["x1", "x2", "a", "u2", "grad_u2_norm", "b2_norm"]


class TestImports:
    def test_cli_imports_only_the_scipy_it_uses(self):
        # checked in a fresh interpreter: this process already holds
        # scipy.optimize, which the tests compare against
        code = ("import sys, dpgap.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'special'], "
                "['scipy', 'spatial'], ['scipy', 'fft'])))")
        src = os.path.dirname(os.path.dirname(dpgap.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert run.stdout.strip() == "[]"


class TestPeakMemory:
    def test_fields_streams_its_rows(self, tmp_path):
        # the whole CSV text held in memory before the file is written peaks at
        # 7.8 times the table's bytes at res 512; row by row, at 1.7
        res = 512
        out_path = tmp_path / "fields.csv"
        tracemalloc.start()
        try:
            code = main(["fields", "--res", str(res), "--out", str(out_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 3 * res * res * 6 * 8


class TestRangeErrors:
    @pytest.mark.parametrize("argv", [("flux", "--nquad", "10"),
                                      ("norm", "--res", "0"),
                                      ("fields", "--res", "0"),
                                      ("gap", "--alpha", "2", "--beta", "2",
                                       "--levels", ""),
                                      ("phase-diagram", "--grid", ""),
                                      ("phase-diagram", "--alphas", "1",
                                       "--betas", ""),
                                      ("conjugate", "--p", "2", "--gamma", "2",
                                       "--s", "10,0")],
                             ids=["flux", "norm", "fields", "gap",
                                  "phase-grid", "phase-betas", "conjugate"])
    def test_exit_two_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("RANGE: ")


class TestOneLineFailures:
    @pytest.mark.parametrize("argv", [("conjugate", "--p", "2", "--gamma", "nan"),
                                      ("conjugate", "--p", "2", "--gamma", "inf"),
                                      ("conjugate", "--p", "inf", "--gamma", "1")],
                             ids=["gamma-nan", "gamma-inf", "p-inf"])
    def test_conjugate_non_finite_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith("DOMAIN: ")

    @pytest.mark.parametrize("argv", [("conjugate", "--p", "2"),
                                      ("cutoff", "--kind", "spline"),
                                      ("gap", "--alpha", "2", "--beta", "2",
                                       "--mode", "neumann"),
                                      ("nonsense",)],
                             ids=["missing-flag", "bad-choice", "bad-mode",
                                  "bad-command"])
    def test_argparse_failure_is_one_range_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert re.match(r"^[A-Z_]+: ", lines[0])
        assert lines[0].startswith("RANGE: ")

    @pytest.mark.parametrize("command", ["norm", "fields"])
    def test_resolution_above_bound_exit_two(self, capsys, command):
        code, out, err = run(capsys, command, "--res", "100000000")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"RANGE: resolution must lie in [1, {MAX_FIELDS_RESOLUTION}]"]


# non-finite, zero, negative, subnormal, huge, just above 1 and typical
EXTREMES = [math.nan, math.inf, -math.inf, 0.0, -0.5, -3.0, 1e-320, 1e308, 1e6,
            1.0000001, 0.5, 1.0, 1.5, 2.0, 3.0]
_axis = st.lists(st.sampled_from(EXTREMES), min_size=1, max_size=3)
# grid resolutions: small, at the bounds, huge and not integers; never the
# largest legal grid (2048), which takes about 540 MiB
RESOLUTIONS = [-(2**62), -1, 0, 1, 2, 16, MAX_FIELDS_RESOLUTION + 1, 10**8, 2**62, "8.0", "nan"]

# a flag left out (None) takes its default
_optional = st.none() | st.sampled_from(EXTREMES)
_contract = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _flag(name, values):
    # the --name=value form, so argparse does not read "-3.0" as a flag
    return f"--{name}=" + ",".join(repr(float(v)) for v in values)


def _assert_exit_contract(code, err):
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
    else:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert re.match(r"^[A-Z_]+: ", lines[0]), err


class TestExitCodeContract:
    """Every input exits 0, 2, 3 or 4, and a failure leaves one ``CODE:`` line;
    NumPy warnings are errors here, so a warning on stderr fails too."""

    @_contract
    @given(alpha=st.sampled_from(EXTREMES), beta=st.sampled_from(EXTREMES),
           p=st.sampled_from(EXTREMES))
    @example(alpha=2.0, beta=2.0, p=1.0000001)  # knot beyond the double range
    @example(alpha=2.0, beta=-3.0, p=1.0000001)  # single-phase: refused before any integrand
    @example(alpha=2.0, beta=2.0, p=20.0)  # phi's dyadic block sums overflow: null
    @example(alpha=2.0, beta=2.0, p=19.035)  # the same, just past the range
    def test_classify(self, capsys, alpha, beta, p):
        code, _, err = run(capsys, "classify", _flag("alpha", [alpha]),
                           _flag("beta", [beta]), _flag("p", [p]))
        _assert_exit_contract(code, err)

    @_contract
    @given(alphas=_axis, betas=_axis, p=st.sampled_from(EXTREMES))
    @example(alphas=[1e308], betas=[1.0], p=2.0)  # psi overflows on the pair grid
    @example(alphas=[2.0], betas=[2.0], p=1e6)  # Phi'' overflows on the knot grid
    @example(alphas=[1.0, 2.0], betas=[1.0, 2.0], p=20.0)  # past the block sums' range
    @example(alphas=[3.0], betas=[2.0], p=20.84)  # psi* has no knot
    def test_phase_diagram(self, capsys, alphas, betas, p):
        code, _, err = run(capsys, "phase-diagram", _flag("alphas", alphas),
                           _flag("betas", betas), _flag("p", [p]))
        _assert_exit_contract(code, err)

    @_contract
    @given(kind=st.sampled_from(["loglog", "psi-harmonic"]),
           values=st.fixed_dictionaries({name: _optional for name in
                                         ("eps", "alpha", "p", "r1", "r2", "delta")}))
    @example(kind="psi-harmonic", values={"alpha": 1.0, "r1": 0.0})  # log before the check
    @example(kind="psi-harmonic", values={"alpha": 1.0, "r1": -0.5})
    @example(kind="psi-harmonic", values={"alpha": 1.0, "r1": 0.01, "r2": 0.0})
    # the first probe of the inner-radius search overflows
    @example(kind="psi-harmonic", values={"alpha": -3.0, "p": 1.5, "r2": 0.4, "delta": 0.5})
    @example(kind="loglog", values={"eps": 1e-320})  # ln r1 = -1/eps overflows
    @example(kind="loglog", values={"alpha": 0.0, "p": 1e308})  # log_eval overflows
    def test_cutoff(self, capsys, kind, values):
        flags = [_flag(name, [v]) for name, v in values.items() if v is not None]
        code, _, err = run(capsys, "cutoff", f"--kind={kind}", *flags)
        _assert_exit_contract(code, err)

    @_contract
    @given(p=st.sampled_from(EXTREMES), gamma=st.sampled_from(EXTREMES), s=_axis)
    @example(p=2.0, gamma=0.0, s=[1e-320])  # the closed form underflows to 0
    @example(p=1.5, gamma=1e308, s=[1.5])  # gamma / (1 - p) overflows
    @example(p=1e6, gamma=1e308, s=[1e-320])  # ln f' overflows
    @example(p=1.0000001, gamma=1e6, s=[1e6])  # the closed form overflows
    @example(p=1.0000000000000009, gamma=1.0, s=[10.0])  # p read as 1: division by 0
    def test_conjugate(self, capsys, p, gamma, s):
        code, _, err = run(capsys, "conjugate", _flag("p", [p]), _flag("gamma", [gamma]),
                           _flag("s", s))
        _assert_exit_contract(code, err)

    @_contract
    @given(field=st.sampled_from(["u2", "grad_u2", "b2", "v"]), p=st.sampled_from(EXTREMES),
           gamma=st.sampled_from(EXTREMES), res=st.sampled_from(RESOLUTIONS))
    # t^p underflows to 0 where log^gamma(e + t) overflows: 0 * inf
    @example(field="u2", p=1e6, gamma=1e6, res=16)
    @example(field="grad_u2", p=1e6, gamma=1e6, res=16)
    def test_norm(self, capsys, field, p, gamma, res):
        code, _, err = run(capsys, "norm", f"--field={field}", _flag("p", [p]),
                           _flag("gamma", [gamma]), f"--res={res}")
        _assert_exit_contract(code, err)

    @_contract
    @given(nquad=st.sampled_from([-(2**62), -1, 0, 63, 64, 65, 1024, MAX_FLUX_NQUAD + 2,
                                  10**9, 2**62, "1e3", "nan"]))
    @example(nquad=MAX_FLUX_NQUAD + 2)  # the rule was allocated unbounded
    def test_flux(self, capsys, nquad):
        code, _, err = run(capsys, "flux", f"--nquad={nquad}")
        _assert_exit_contract(code, err)

    @_contract
    @given(res=st.sampled_from(RESOLUTIONS))
    def test_fields(self, capsys, res):
        code, _, err = run(capsys, "fields", f"--res={res}")
        _assert_exit_contract(code, err)

    # a fixed draw keeps the run time fixed: a pair that stalls Newton takes
    # its 5000 iterations, about 100 s at n = 16
    @settings(max_examples=15, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(alpha=st.sampled_from(EXTREMES), beta=st.sampled_from(EXTREMES),
           grading=st.sampled_from(EXTREMES),
           mode=st.sampled_from([None, "G", "dirichlet", "neumann"]),
           levels=st.sampled_from([8, 16]))
    @example(alpha=2.0, beta=0.5, grading=2.0, mode="G", levels=8)  # NoGap pair in G mode
    # runs that solve: a Gap pair in G mode, a NoGap pair in Dirichlet mode,
    # and a grading just above 1
    @example(alpha=2.0, beta=2.0, grading=3.0, mode=None, levels=16)
    @example(alpha=2.0, beta=0.5, grading=1.5, mode="dirichlet", levels=16)
    @example(alpha=1.5, beta=1.5, grading=1.0000001, mode="G", levels=8)
    @example(alpha=2.0, beta=2.0, grading=1e308, mode="G", levels=8)  # nodes collapse to 0
    def test_gap(self, capsys, alpha, beta, grading, mode, levels):
        flags = [_flag("alpha", [alpha]), _flag("beta", [beta]), _flag("grading", [grading]),
                 f"--levels={levels}"] + ([f"--mode={mode}"] if mode else [])
        code, _, err = run(capsys, "gap", *flags)
        _assert_exit_contract(code, err)


def _assert_library_contract(call):
    """call() returns or raises a DpgapError; any other exception, and any
    NumPy warning (an error here), fails."""
    try:
        call()
    except DpgapError:
        pass


_extreme = st.sampled_from(EXTREMES)


class TestLibraryContract:
    """The public constructors and checks take the CLI's extreme values and
    either return or raise a ``DpgapError`` subclass, which the CLI maps to
    its exit code."""

    @_contract
    @given(p=_extreme, gamma=_extreme)
    def test_integrands(self, p, gamma):
        _assert_library_contract(lambda: LogPower(p, gamma))
        _assert_library_contract(lambda: PurePower(p))

    @_contract
    @given(n=st.sampled_from(EXTREMES + [8, 16, 1025, 2**62]), grading=_extreme)
    def test_build_mesh(self, n, grading):
        _assert_library_contract(lambda: build_mesh(n, grading))

    @_contract
    @given(x=_extreme, y=_extreme)
    @example(x=math.inf, y=0.1)  # NaN barycentric coordinates
    @example(x=-math.inf, y=0.1)
    @example(x=1e308, y=0.1)  # the barycentric coordinates overflow
    def test_locate(self, x, y):
        mesh = build_mesh(8, 2.0)
        _assert_library_contract(lambda: mesh.locate([[x, y]]))

    @_contract
    @given(values=st.lists(_extreme, min_size=1, max_size=3),
           weights=st.lists(_extreme, min_size=1, max_size=3), p=_extreme, gamma=_extreme)
    def test_luxemburg_norm(self, values, weights, p, gamma):
        _assert_library_contract(
            lambda: luxemburg_norm(values, weights, LogPower(p, gamma)))

    @_contract
    @given(pure=st.booleans(), p=_extreme, gamma=_extreme, r2=_extreme, delta=_extreme)
    def test_find_inner_radius(self, pure, p, gamma, r2, delta):
        _assert_library_contract(lambda: find_inner_radius(
            PurePower(p) if pure else LogPower(p, gamma), r2, delta))

    @_contract
    @given(levels=st.lists(st.sampled_from(EXTREMES + [2**62]), max_size=3))
    @example(levels=[math.nan])  # int() raised a bare ValueError
    @example(levels=[math.inf])  # and an OverflowError
    def test_gap_experiment(self, levels):
        # no drawn level is a legal mesh resolution, so nothing is solved
        _assert_library_contract(lambda: solve.gap_experiment(2.0, 2.0, levels))

    @_contract
    @given(radii=st.lists(st.sampled_from(EXTREMES + [0.25]), max_size=4))
    @example(radii=[])  # the fit indexed an empty table
    @example(radii=[0.5, 0.5, 0.5])  # a fit through one distinct radius warned
    def test_cone_trace_diagnostic(self, radii):
        mesh = build_mesh(8, 2.0)
        u = DofField.interpolate(mesh, eval_u2)
        _assert_library_contract(lambda: solve.cone_trace_diagnostic(u, mesh, radii))

    @_contract
    @given(radius=_extreme)
    @example(radius=math.nan)  # failed both range tests and raised MeshError in locate
    def test_cone_trace_radius_range(self, radius):
        mesh = build_mesh(8, 2.0)
        u = DofField.interpolate(mesh, eval_u2)
        if mesh.h_min <= radius < 1.0:
            table, _ = solve.cone_trace_diagnostic(u, mesh, [radius])
            assert table[0, 0] == radius
        else:
            with pytest.raises(RangeError):
                solve.cone_trace_diagnostic(u, mesh, [radius])


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

    def test_null_out_writes_no_file(self, capsys, tmp_path, monkeypatch):
        # a null was passed on as the string "None": flux wrote a file of that name
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "flux", "nquad": 64, "out": None}))
        code, out, _ = run(capsys, "--config", str(cfg))
        assert code == 0
        assert float(out) == float(run(capsys, "flux", "--nquad", "64")[1])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_null_mode_takes_the_default(self, capsys, tmp_path):
        # a null mode was the invalid choice 'None' and exited 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "gap", "alpha": 2, "beta": 2,
                                   "levels": [8], "mode": None}))
        code, out, err = run(capsys, "--config", str(cfg))
        assert (code, err) == (0, "")
        assert json.loads(out)["mode"] == "G"

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


def _readme_commands():
    """{subcommand: its --flags} from README.md's command table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | purpose | main flags |", 1)[1]
    commands = {}
    for row in table.splitlines()[2:]:
        if not row.startswith("| `"):
            break
        command, _, flags = row.strip("|").split(" | ")
        commands[command.strip(" `")] = set(re.findall(r"--[a-z][a-z0-9-]*", flags))
    return commands


def _parser_commands():
    """{subcommand: its --flags} from the CLI's parser, without --help."""
    sub, = (a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for a in p._actions for opt in a.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, p in sub.choices.items()}


class TestReadme:
    def test_command_table_matches_the_parser(self):
        assert _readme_commands() == _parser_commands()
