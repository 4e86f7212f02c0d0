"""Span tracer that wraps dpgap's layer functions from outside.

``install`` replaces each traced name where its caller looks it up (the
module globals of ``dpgap.fem.solve``, the layer modules, or a class
attribute) by a wrapper that records a span: name, start, end, parent span
and a work count. ``uninstall`` puts every original back. Nothing inside
``src/dpgap`` is edited. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import types
from time import perf_counter

import numpy as np
import scipy.sparse.linalg as spla

from dpgap import classifier, cutoffs, geometry, orlicz
from dpgap.fem import mesh as fem_mesh
from dpgap.fem import solve as fem_solve


def _points(args):
    return len(np.atleast_2d(args[1]))


def _size(args):
    return int(np.size(args[1]))


def _first(args):
    return int(args[0])


def _targets(solve_linalg):
    """(owner, attribute, span name, work count of one call)."""
    return [
        (fem_solve, "gap_experiment", "solve.gap_experiment", None),
        (fem_solve, "minimize", "solve.minimize", None),
        (solve_linalg, "spsolve", "solve.linear", None),
        (fem_solve, "modular_hessian", "assembly.hessian", None),
        (fem_solve, "modular_gradient", "assembly.gradient", None),
        (fem_solve, "modular_energy", "assembly.energy", None),
        (fem_solve, "build_mesh", "mesh.build", _first),
        (fem_mesh, "build_mesh", "mesh.build", _first),
        (fem_mesh.MeshSpace, "locate", "mesh.locate", _points),
        (orlicz.LogPower, "__call__", "orlicz.integrand", _size),
        (orlicz.LogPower, "deriv_ratio", "orlicz.integrand", _size),
        (orlicz.LogPower, "second_deriv", "orlicz.integrand", _size),
        (orlicz, "conjugate_numeric", "orlicz.conjugate", None),
        (orlicz, "luxemburg_norm", "orlicz.luxemburg", None),
        (fem_solve, "classify_alpha_beta", "classifier.classify", None),
        (classifier, "classify_alpha_beta", "classifier.classify", None),
        (cutoffs, "find_inner_radius", "cutoffs.inner_radius", None),
        (cutoffs, "build_psi_harmonic_cutoff", "cutoffs.build", None),
        (cutoffs, "build_loglog_cutoff", "cutoffs.build", None),
        (cutoffs, "cutoff_energy", "cutoffs.build", None),
        (cutoffs, "_normalization_integral", "cutoffs.normalization", None),
        (geometry, "sample_fields_grid", "geometry.fields", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, work]
        self._stack = []
        self._undo = []

    def _open(self, name, work):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, work])
        self._stack.append(index)
        return index

    def _close(self, index, start):
        end = perf_counter()
        self._stack.pop()
        self.spans[index][1] = start
        self.spans[index][2] = end

    def _wrap(self, owner, attr, name, count):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            index = self._open(name, count(args) if count else 1)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index, start)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self):
        # fem.solve reaches spsolve through its module global ``spla``; give it
        # a copy of that module so the wrapper does not leak into SciPy itself
        linalg = types.ModuleType(spla.__name__)
        linalg.__dict__.update(spla.__dict__)
        self._undo.append((fem_solve, "spla", fem_solve.spla))
        fem_solve.spla = linalg
        for owner, attr, name, count in _targets(linalg):
            self._wrap(owner, attr, name, count)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ summaries

    def _outermost(self, name):
        """Spans of this name with no ancestor of the same name."""
        out = []
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(span)
        return out

    def seconds(self, name):
        return sum(s[2] - s[1] for s in self._outermost(name))

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def work(self, name):
        return sum(s[4] for s in self._outermost(name))

    def self_seconds(self, name):
        """Duration of the spans minus the part their direct children cover."""
        total = 0.0
        for index, span in enumerate(self.spans):
            if span[0] == name:
                total += span[2] - span[1]
                total -= sum(c[2] - c[1] for c in self.spans if c[3] == index)
        return total

    def level_seconds(self):
        """Wall time per mesh level of a gap experiment: from the level's mesh
        build to the next level's, or to the end of the experiment."""
        levels = {}
        for index, span in enumerate(self.spans):
            if span[0] == "solve.gap_experiment":
                builds = [s for s in self.spans
                          if s[0] == "mesh.build" and s[3] == index]
                ends = [b[1] for b in builds[1:]] + [span[2]]
                for build, end in zip(builds, ends):
                    levels[build[4]] = levels.get(build[4], 0.0) + end - build[1]
        return levels

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "work": work}) + "\n")
