"""The benchmark's own tests: every check passes on the output of a small
configuration and rejects a deliberately corrupted copy of that output.

    python3 -m pytest perfbench -q
"""

import copy
import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dpgap import cutoffs, orlicz  # noqa: E402
from dpgap.fem import mesh as fem_mesh  # noqa: E402
from dpgap.fem import solve as fem_solve  # noqa: E402


def _passes(workload, out):
    ledger = checks.Ledger()
    workload.check_round(out, ledger)
    workload.check_run(workload.fingerprint(out), ledger)
    return ledger


@pytest.fixture(scope="module")
def g_run():
    # n = 16 misses the 2% flux-identity bound, so the small G run starts at 32
    wl = workloads.GapWorkload(2.0, 2.0, fem_solve.OBJECTIVE_G, "Gap", seed=0,
                               levels=(32, 40))
    ledger = checks.Ledger()
    return wl, wl.run_round(ledger), ledger


@pytest.fixture(scope="module")
def d_run():
    wl = workloads.GapWorkload(2.0, 0.5, fem_solve.OBJECTIVE_DIRICHLET, "NoGap",
                               seed=0, levels=(16, 32))
    ledger = checks.Ledger()
    return wl, wl.run_round(ledger), ledger


@pytest.fixture(scope="module")
def lab_run():
    wl = workloads.LabWorkload(seed=3, grid=6, evaluate_points=300, mesh_n=16,
                               conjugate_samples=8, fields_res=64, halvings=(3, 3, 2, 1))
    ledger = checks.Ledger()
    return wl, wl.run_round(ledger), ledger


def test_gap_g_passes(g_run):
    wl, report, ledger = g_run
    assert ledger.failed == 0 and ledger.attempted == 2
    ledger = _passes(wl, report)
    assert ledger.problems == [] and ledger.failed == 0


@pytest.mark.parametrize("corrupt, check", [
    (lambda r: r.update(verdict="NoGap"), "levels_converged"),
    (lambda r: r["levels"][1].update(converged=False), "levels_converged"),
    (lambda r: r["levels"][0].update(E1=r["levels"][0]["E2"] + 1e-3), "levels_converged"),
    (lambda r: r["levels"][0].update(nesting_violation=1e-3), "levels_converged"),
    (lambda r: r["levels"][1].update(E2=1e-9), "g_mode_energies"),
    (lambda r: r["levels"][1].update(E1=0.0), "g_mode_energies"),
    (lambda r: r["levels"][0].update(s_opt=-r["levels"][0]["s_opt"]), "flux_identity"),
    (lambda r: r["levels"][1].update(sep_value=0.9 * r["levels"][1]["sep_value"]),
     "flux_identity"),
])
def test_gap_g_rejects(g_run, corrupt, check):
    report = copy.deepcopy(g_run[1])
    corrupt(report)
    if check == "levels_converged":
        assert checks.levels_converged(report, "Gap")
    else:
        assert getattr(checks, check)(report)


def test_enrichment_ray(g_run):
    wl, report, _ = g_run
    coarse = report["levels"][0]
    mesh = fem_mesh.build_mesh(coarse["n"], workloads.GRADING)
    ts = [0.0, coarse["s_opt"], 2.0 * coarse["s_opt"]]
    values = checks.ray_energies(wl.pair, mesh, ts)
    assert values[0] == 0.0
    assert checks.below_ray(coarse["E1"], ts, values) == []
    # the ray value at s_opt lies above E1; an E1 above it must be rejected
    assert checks.below_ray(values[1] + 1e-9, ts, values)


def test_gap_dirichlet_passes(d_run):
    wl, report, ledger = d_run
    assert ledger.failed == 0
    ledger = _passes(wl, report)
    assert ledger.problems == [] and ledger.failed == 0


@pytest.mark.parametrize("corrupt, check", [
    (lambda r: r.update(verdict="Gap"), "levels_converged"),
    (lambda r: r["levels"][0].update(E1=r["levels"][0]["E2"] + 1e-6), "levels_converged"),
    (lambda r: r["levels"][1].update(sep_value=1.01), "boundary_flux_value"),
    (lambda r: r["levels"][1].update(s_opt=-2.0 * r["levels"][0]["s_opt"]),
     "collapse_with_refinement"),
    (lambda r: r["levels"][1].update(E1=r["levels"][1]["E2"] - 1.0),
     "collapse_with_refinement"),
])
def test_gap_dirichlet_rejects(d_run, corrupt, check):
    report = copy.deepcopy(d_run[1])
    corrupt(report)
    if check == "levels_converged":
        assert checks.levels_converged(report, "NoGap")
    else:
        assert getattr(checks, check)(report)


def test_interpolant_bound(d_run):
    wl, report, _ = d_run
    level = report["levels"][0]
    f_interp = checks.interpolant_energy(wl.pair, fem_mesh.build_mesh(level["n"], 2.0))
    assert level["E2"] < f_interp
    assert checks.below_interpolant(level, f_interp) == []
    assert checks.below_interpolant(dict(level, E2=1.001 * f_interp), f_interp)
    assert checks.below_interpolant(dict(level, E2=-1e-9), f_interp)


def test_rerun_must_match(g_run):
    wl, report, _ = g_run
    ledger = checks.Ledger()
    wl.check_run(wl.fingerprint(report).replace("0", "1", 1), ledger)
    assert ledger.problems


def test_lab_passes(lab_run):
    wl, out, ledger = lab_run
    assert ledger.failed == 0
    ledger = _passes(wl, out)
    assert ledger.problems == [] and ledger.failed == 0
    assert [o for _, o in out["refusals"]] == ["refused", "refused"]


def test_phase_verdicts_reject_flip(lab_run):
    rows = list(lab_run[1]["phase"])
    assert any(a == 1.0 for a, _, _ in rows)
    a, b, v = rows[0]
    rows[0] = (a, b, "Gap" if v == "NoGap" else "NoGap")
    assert checks.phase_verdicts(rows)


def _cut(out, kind):
    for psi, delta, (cut, residual) in out["cutoffs"]:
        if isinstance(psi, kind):
            return psi, delta, cut, residual


def test_pure_power_cutoff_rejects(lab_run):
    wl, out, _ = lab_run
    psi, delta, cut, _ = _cut(out, orlicz.PurePower)
    assert checks.pure_power_cutoff(cut, wl.r2, delta) == []
    assert checks.pure_power_cutoff(dataclasses.replace(cut, c=cut.c * (1 + 1e-6)),
                                    wl.r2, delta)
    assert checks.pure_power_cutoff(
        dataclasses.replace(cut, energy_certificate=cut.energy_certificate * (1 + 1e-6)),
        wl.r2, delta)
    # half the radius still satisfies c <= delta but is not the largest such
    smaller = cutoffs.build_psi_harmonic_cutoff(psi, cut.r1 / 2.0, wl.r2)
    assert checks.pure_power_cutoff(smaller, wl.r2, delta)


def test_log_power_cutoff_rejects(lab_run):
    _, out, _ = lab_run
    _, delta, cut, residual = _cut(out, orlicz.LogPower)
    assert checks.log_power_cutoff(cut, delta, residual) == []
    assert checks.log_power_cutoff(cut, 0.99 * cut.c, residual)
    assert checks.log_power_cutoff(
        dataclasses.replace(cut, energy_certificate=1.001 * math.pi * cut.c), delta, residual)
    assert checks.log_power_cutoff(cut, delta, 1e-6)
    assert checks.log_power_cutoff(
        dataclasses.replace(cut, eta_table=0.99 * cut.eta_table), delta, residual)


def test_refusal_and_loglog_reject():
    assert checks.refused("refused", 2.0) == []
    assert checks.refused(1e-3, 2.0)
    assert checks.loglog_decay(5.0, 0.01) == []
    assert checks.loglog_decay(5.0, 3.0)
    assert checks.loglog_decay(5.0, 0.0)


def test_conjugate_rejects(lab_run):
    _, out, _ = lab_run
    for f, star, ss, numeric in out["conjugates"]:
        numeric = np.asarray(numeric)
        assert checks.conjugate_values(f, star, ss, numeric) == []
        assert checks.conjugate_values(f, star, ss, 100.0 * numeric)
    # half the conjugate may stay inside the [1/5, 5] bracket; Young's
    # inequality catches it near the maximizer
    for f, star, ss, numeric in out["conjugates"]:
        problems = checks.conjugate_values(f, star, ss, 0.5 * np.asarray(numeric))
        assert any(p.startswith("Young") for p in problems)


def test_luxemburg_rejects(lab_run):
    _, out, _ = lab_run
    table, weights, norms = out["norms"]
    for col, g, norm in norms:
        f = orlicz.LogPower(2.0, g)
        assert checks.luxemburg_threshold(norm, table[:, col], weights, f, "") == []
        assert checks.luxemburg_threshold(1.01 * norm, table[:, col], weights, f, "")
        assert checks.luxemburg_threshold(0.99 * norm, table[:, col], weights, f, "")
        if g == 0.0:
            assert checks.luxemburg_quadratic(norm, table[:, col], weights) == []
            assert checks.luxemburg_quadratic(norm * (1 + 1e-7), table[:, col], weights)


def test_mesh_queries_reject(lab_run):
    wl, out, _ = lab_run
    values, table = out["mesh"]
    assert checks.linear_reproduction(values + 1e-9, wl.points, wl.linear)
    bad = np.array(table)
    bad[0, 2] = -0.4999
    assert checks.cone_traces(bad)


def test_tracer_restores_and_counts():
    originals = [getattr(o, a) for o, a, _, _ in tracing._targets(fem_solve.spla)]
    spla = fem_solve.spla
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = fem_solve.gap_experiment(2.0, 2.0, [8], grading=2.0)
    finally:
        tracer.uninstall()
    assert fem_solve.spla is spla
    assert [getattr(o, a) for o, a, _, _ in tracing._targets(spla)] == originals
    level = report.levels[0]
    # G mode: one factorization for the stationary conforming start, then one
    # per enriched Newton iteration
    assert tracer.calls("solve.linear") == level["iters_enriched"] + 1
    assert tracer.calls("classifier.classify") == 1
    assert set(tracer.level_seconds()) == {8}
    assert tracer.self_seconds("solve.minimize") > 0.0


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lab_analysis",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
