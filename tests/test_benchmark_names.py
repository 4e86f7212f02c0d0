"""The package names that the benchmark under perfbench/ reads still exist.

The default test run collects only tests/, so perfbench's own tests never
run with it. This guard fails when a change deletes or renames a function
that perfbench/tracing.py wraps, or the full rule that perfbench/checks.py
reads from a mesh.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from dpgap.fem import build_mesh

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    # import without writing bytecode into the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def test_traced_targets_exist(tracing):
    for owner, attr, _, _ in tracing._targets(scipy.sparse.linalg):
        assert callable(getattr(owner, attr)), f"{owner!r}.{attr}"


def test_full_rule_read_by_checks():
    mesh = build_mesh(8)
    qpts, qw, qel = mesh.qpts, mesh.qw, mesh.qel
    assert qpts.shape == (len(qw), 2) and qel.shape == qw.shape
    assert float(np.sum(qw)) == pytest.approx(4.0, abs=1e-12)
