"""Acceptance gate: ten go/no-go criteria printed one line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the PASS/FAIL lines
as they complete; the two minimization experiments dominate the runtime.
"""

import time

import numpy as np
import pytest

from dpgap.classifier import phase_diagram
from dpgap.cli import _dump_json
from dpgap.cutoffs import (build_loglog_cutoff, build_psi_harmonic_cutoff,
                           cutoff_energy, find_inner_radius,
                           solve_normalization_constant)
from dpgap.fem import DofField, EnrichedField, build_mesh, gap_experiment
from dpgap.fem.assembly import modular_energy, modular_gradient
from dpgap.geometry import boundary_flux, disjoint_support_audit
from dpgap.orlicz import (LogPower, PurePower, conjugate_log_power,
                          conjugate_numeric, double_phase_log)

GRID = [0.25, 0.5, 1.0, 1.25, 2.0, 3.0]


def _report(num, name, ok, detail):
    print(f"CRITERION {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def gap_runs():
    """Two independent runs of the gap experiment, timed."""
    t0 = time.time()
    first = gap_experiment(2.0, 2.0, [32, 64, 128], grading=2.0)
    elapsed = time.time() - t0
    second = gap_experiment(2.0, 2.0, [32, 64, 128], grading=2.0)
    return first, second, elapsed


@pytest.fixture(scope="module")
def no_gap_runs():
    first = gap_experiment(2.0, 0.5, [32, 64, 128], grading=2.0,
                           mode="dirichlet")
    second = gap_experiment(2.0, 0.5, [32, 64, 128], grading=2.0,
                            mode="dirichlet")
    return first, second


@pytest.fixture(scope="module")
def phase_runs():
    t0 = time.time()
    first = phase_diagram(GRID, GRID)
    elapsed = time.time() - t0
    second = phase_diagram(GRID, GRID)
    return first, second, elapsed


def test_criterion_01_phase_diagram(phase_runs):
    rows, _, elapsed = phase_runs
    wrong = [(a, b, v) for a, b, v in rows
             if v != ("Gap" if min(a, b) > 1.0 else "NoGap")]
    ok = not wrong and elapsed < 5.0
    _report(1, "phase diagram 6x6 exact", ok,
            f"{len(wrong)} misclassified, {elapsed:.2f}s")


def test_criterion_02_boundary_flux():
    e1 = abs(boundary_flux(1024) - 1.0)
    e2 = abs(boundary_flux(8192) - 1.0)
    ok = e1 < 1e-6 and e2 < 1e-9
    _report(2, "boundary flux", ok, f"|err|={e1:.2e} @1024, {e2:.2e} @8192")


def test_criterion_03_disjoint_supports():
    worst = disjoint_support_audit(1_000_000, seed=20260823)
    _report(3, "disjoint supports", worst == 0.0,
            f"max |grad u2||b2| = {worst}")


def test_criterion_04_conjugate_duality():
    worst = 0.0
    for p, gamma in [(2.0, 1.0), (2.0, -1.0), (2.0, 2.0), (2.0, -2.0),
                     (3.0, 2.0)]:
        star = conjugate_log_power(p, gamma)
        back = conjugate_log_power(star.p, star.gamma)
        if (back.p, back.gamma) != (p, gamma):
            _report(4, "conjugate duality", False,
                    f"round trip broke at ({p},{gamma})")
        for s in (10.0, 1e3, 1e6):
            ratio = conjugate_numeric(LogPower(p, gamma), s) / float(star(s))
            worst = max(worst, ratio, 1.0 / ratio)
    _report(4, "conjugate duality", worst <= 5.0,
            f"bracket C = {worst:.3f} <= 5")


def test_criterion_05_cutoff_energy_decay():
    phi = LogPower(2.0, -2.0)
    products = [cutoff_energy(build_loglog_cutoff(float(np.exp(-u))), phi)
                * u for u in (5.0, 10.0, 20.0, 40.0)]
    loglog_ok = max(products) < 10.0

    psi = PurePower(2.0)
    ratios = []
    for k in range(1, 9):
        delta = 2.0 ** -k
        r1 = find_inner_radius(psi, 0.5, delta)
        cut = build_psi_harmonic_cutoff(psi, r1, 0.5)
        ratios.append(cut.energy_certificate / delta)
    K = max(ratios)
    _report(5, "cutoff energy decay", loglog_ok and K < 3.2,
            f"loglog E*log(1/eps) in [{min(products):.2f}, {max(products):.2f}], "
            f"psi-harmonic K = {K:.3f}")


def test_criterion_06_normalization_constant():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        r2 = rng.uniform(0.05, 0.5)
        r1 = r2 * rng.uniform(1e-6, 0.5)
        c = solve_normalization_constant(PurePower(2.0), r1, r2)
        exact = 2.0 / np.log(r2 / r1)
        worst = max(worst, abs(c - exact) / exact)
    _report(6, "normalization constant", worst < 1e-8,
            f"max rel err {worst:.2e} over 10 pairs")


def test_criterion_07_gap_demonstration(gap_runs):
    report, _, elapsed = gap_runs
    levels = report.levels
    e2_ok = all(lv["E2"] >= -1e-6 for lv in levels)
    c0 = [-lv["E1"] for lv in levels]
    c0_ok = all(c > 0.0 for c in c0)
    variation = abs(c0[-1] - c0[-2]) / c0[-1]
    sep_devs = [abs(lv["sep_value"] / (-lv["s_opt"]) - 1.0) for lv in levels]
    ok = (e2_ok and c0_ok and variation < 0.20 and max(sep_devs) < 0.02
          and elapsed < 180.0)
    _report(7, "gap demonstration (2,2)", ok,
            f"E2 >= -1e-6: {e2_ok}, c0 = {c0[-1]:.4f} "
            f"(variation {variation:.1%}), max |sep/(-s)-1| = "
            f"{max(sep_devs):.2%}, {elapsed:.0f}s")


def test_criterion_08_no_gap_collapse(no_gap_runs):
    report, _ = no_gap_runs
    s = [abs(lv["s_opt"]) for lv in report.levels]
    gaps = [abs(lv["E1"] - lv["E2"]) for lv in report.levels]
    s_ok = all(a > b for a, b in zip(s, s[1:]))
    decreases = [1.0 - b / a for a, b in zip(gaps, gaps[1:])]
    gap_ok = all(d >= 0.30 for d in decreases)
    _report(8, "no-gap collapse (2,0.5)", s_ok and gap_ok,
            f"|s_opt| = {[f'{v:.2e}' for v in s]}, "
            f"|E1-E2| decreases {[f'{d:.0%}' for d in decreases]}")


def test_criterion_09_gradient_correctness():
    mesh = build_mesh(8, grading=2.0)
    rng = np.random.default_rng(9)
    worst = 0.0
    for pair in (double_phase_log(2.0, 2.0), double_phase_log(0.5, 3.0)):
        for _ in range(10):
            vals = np.zeros(mesh.n_vertices)
            vals[mesh.interior] = 0.5 * rng.standard_normal(len(mesh.interior))
            u = EnrichedField(DofField(mesh, vals), float(rng.uniform(-0.5, 0.5)))
            nodal, s_grad = modular_gradient(u, pair)
            d = rng.standard_normal(mesh.n_vertices)
            d[mesh.boundary_mask] = 0.0
            ds = float(rng.standard_normal())
            h = 1e-6
            up = EnrichedField(DofField(mesh, vals + h * d), u.s + h * ds)
            um = EnrichedField(DofField(mesh, vals - h * d), u.s - h * ds)
            fd = (modular_energy(up, pair)
                  - modular_energy(um, pair)) / (2.0 * h)
            an = float(nodal @ d) + s_grad * ds
            worst = max(worst, abs(an - fd) / max(abs(fd), 1e-10))
    _report(9, "gradient correctness", worst < 1e-5,
            f"max rel deviation {worst:.2e} over 20 random fields")


def test_criterion_10_determinism(phase_runs, gap_runs, no_gap_runs):
    p1, p2, _ = phase_runs
    g1, g2, _ = gap_runs
    n1, n2 = no_gap_runs
    phase_same = _dump_json(
        [list(r) for r in p1]) == _dump_json([list(r) for r in p2])
    gap_same = _dump_json(g1.to_dict()) == _dump_json(g2.to_dict())
    no_gap_same = _dump_json(n1.to_dict()) == _dump_json(n2.to_dict())
    _report(10, "determinism", phase_same and gap_same and no_gap_same,
            f"phase {phase_same}, gap {gap_same}, no-gap {no_gap_same}")
