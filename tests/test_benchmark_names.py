"""The package names that the benchmark under perfbench/ reads still exist.

The default test run collects only tests/, so perfbench's own tests never
run with it. This guard fails when a change deletes or renames a function
that perfbench/tracing.py wraps, a name that perfbench/workloads.py imports
or reads, or what perfbench/checks.py reads from a mesh or a cutoff.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from dpgap.cutoffs import build_psi_harmonic_cutoff
from dpgap.fem import build_mesh
from dpgap.orlicz import PurePower

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    # import without writing bytecode into the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_traced_targets_exist(perfbench):
    for owner, attr, _, _ in perfbench("tracing")._targets(scipy.sparse.linalg):
        assert callable(getattr(owner, attr)), f"{owner!r}.{attr}"


def test_full_rule_read_by_checks():
    mesh = build_mesh(8)
    qpts, qw, qel = mesh.qpts, mesh.qw, mesh.qel
    assert qpts.shape == (len(qw), 2) and qel.shape == qw.shape
    assert float(np.sum(qw)) == pytest.approx(4.0, abs=1e-12)


def test_names_read_outside_the_tracer(perfbench):
    # workloads.py imports _dump_json and DofField and calls
    # DofField.interpolate and orlicz.PurePower
    workloads = perfbench("workloads")
    assert callable(workloads._dump_json) and callable(workloads.DofField.interpolate)
    assert issubclass(workloads.orlicz.PurePower, workloads.orlicz.LogPower)
    # checks.py reads these of a psi-harmonic cutoff
    cut = build_psi_harmonic_cutoff(PurePower(2.0), 0.125, 0.5)
    for value in (cut.eta(cut.r2), cut.c, cut.r1, cut.energy_certificate):
        assert np.isfinite(value)
