"""The benchmark workloads: inputs made from a seed, one timed round, checks.

A round is the unit that is timed. ``run_round`` calls dpgap's public
functions and returns their outputs; ``check_round`` checks those outputs
outside the timed region; ``check_run`` runs the checks that need a second
computation, such as a rerun for byte-identical output.
"""

from __future__ import annotations

import math

import numpy as np

import checks
from dpgap import classifier, cutoffs, geometry, orlicz
from dpgap.cli import _dump_json
from dpgap.errors import NoRemovableSingularityError
from dpgap.fem import mesh as fem_mesh
from dpgap.fem import solve as fem_solve
from dpgap.fem.fields import DofField

GRADING = 2.0
ACCEPTANCE_LEVELS = (32, 64, 128)
RAY_PROBES = 8
RERUN_ALPHAS = 6


class GapWorkload:
    """One ``gap_experiment`` per round, on the acceptance levels."""

    def __init__(self, alpha, beta, mode, verdict, seed, levels=ACCEPTANCE_LEVELS):
        self.alpha, self.beta, self.mode, self.verdict = alpha, beta, mode, verdict
        self.levels = list(levels)
        self.pair = orlicz.double_phase_log(alpha, beta)
        # the seed draws where the G-mode check probes the enrichment ray,
        # as multiples of the computed optimal amplitude
        self.ray_factors = np.random.default_rng(seed).uniform(0.0, 2.0, RAY_PROBES)
        self._interp = {}

    def _mesh(self, n):
        # built afresh for each check: a mesh kept between rounds would
        # raise the peak memory of the rounds that follow
        return fem_mesh.build_mesh(n, GRADING)

    def _experiment(self, levels):
        return fem_solve.gap_experiment(self.alpha, self.beta, levels,
                                        grading=GRADING, mode=self.mode)

    def run_round(self, ledger):
        report = ledger.attempt(self._experiment, self.levels, units=len(self.levels))
        return None if report is None else report.to_dict()

    def check_round(self, report, ledger):
        if report is None:
            return
        ledger.expect(checks.levels_converged(report, self.verdict))
        if self.mode == fem_solve.OBJECTIVE_G:
            ledger.expect(checks.g_mode_energies(report))
            ledger.expect(checks.flux_identity(report))
            coarse = report["levels"][0]
            ts = [coarse["s_opt"]] + list(self.ray_factors * coarse["s_opt"])
            values = checks.ray_energies(self.pair, self._mesh(coarse["n"]), ts)
            ledger.expect(checks.below_ray(coarse["E1"], ts, values))
        else:
            for lv in report["levels"]:
                n = lv["n"]
                if n not in self._interp:
                    self._interp[n] = checks.interpolant_energy(self.pair, self._mesh(n))
                ledger.expect(checks.below_interpolant(lv, self._interp[n]))
            ledger.expect(checks.boundary_flux_value(report))
            ledger.expect(checks.collapse_with_refinement(report))

    def fingerprint(self, report):
        """JSON of the coarsest level, which a rerun must reproduce."""
        return None if report is None else _dump_json(report["levels"][0])

    def check_run(self, first, ledger):
        """Rerun the coarsest level alone; its JSON must match the round's."""
        if first is None:
            return
        again = ledger.attempt(self._experiment, self.levels[:1])
        if again is not None:
            ledger.expect(checks.same_text(first, self.fingerprint(again.to_dict()),
                                           f"level n={self.levels[0]}"))


def _grid(rng, count, lo, hi):
    """Sorted seeded values in (lo, hi) plus the borderline value 1."""
    return sorted(set(rng.uniform(lo, hi, count - 1).tolist()) | {1.0})


class LabWorkload:
    """Everything the lab computes without Newton: no assembly, no sparse solve."""

    # sized so that one round takes about as long as a gap round; two rounds
    # do not fit in the run, so every run times one cold round
    def __init__(self, seed, grid=60, evaluate_points=450_000, mesh_n=128,
                 conjugate_samples=1500, fields_res=512, halvings=(8, 8, 4, 2)):
        rng = np.random.default_rng(seed)
        self.alphas = _grid(rng, grid, 0.05, 3.0)
        self.betas = _grid(rng, grid, 0.05, 3.0)
        self.r2 = float(rng.uniform(0.25, 0.5))
        # budgets delta = 2^-1 ... 2^-k keep r1 in double range: k <= 8 for
        # t^2 and alpha = 0, 4 for alpha = 0.5 and 2 for alpha = 1
        psis = [orlicz.PurePower(2.0), orlicz.LogPower(2.0, 0.0),
                orlicz.LogPower(2.0, 0.5), orlicz.LogPower(2.0, 1.0)]
        self.cutoff_cases = [(psi, [2.0 ** -k for k in range(1, kmax + 1)])
                             for psi, kmax in zip(psis, halvings)]
        self.refusal_alphas = sorted(rng.uniform(1.05, 3.0, 2).tolist())
        self.loglog_u = [5.0, 10.0, 20.0, 40.0]
        self.loglog_phi = orlicz.LogPower(2.0, -2.0)
        self.conjugate_cases = [(orlicz.LogPower(p, g), orlicz.conjugate_log_power(p, g),
                                 np.sort(10.0 ** rng.uniform(0.0, 6.0, conjugate_samples)))
                                for p, g in [(2.0, 1.0), (2.0, -1.0), (2.0, 2.0),
                                             (2.0, -2.0), (3.0, 2.0)]]
        self.fields_res = fields_res
        self.norm_gammas = [0.0, 1.0, -1.0]
        self.mesh_n = mesh_n
        self.points = rng.uniform(-1.0, 1.0, (evaluate_points, 2))
        self.linear = rng.standard_normal(3)
        self.cone_radii_exp = np.sort(rng.uniform(0.0, 1.0, 16))

    # -------------------------------------------------------------- round

    def _phase(self):
        return classifier.phase_diagram(self.alphas, self.betas)

    def _cutoff(self, psi, delta):
        r1 = cutoffs.find_inner_radius(psi, self.r2, delta)
        cut = cutoffs.build_psi_harmonic_cutoff(psi, r1, self.r2)
        return cut, cutoffs.euler_lagrange_residual(cut)

    def _refusal(self, alpha):
        try:
            return cutoffs.find_inner_radius(orlicz.LogPower(2.0, alpha), self.r2, 0.25)
        except NoRemovableSingularityError:
            return "refused"

    def _loglog(self, u):
        return cutoffs.cutoff_energy(cutoffs.build_loglog_cutoff(math.exp(-u)),
                                     self.loglog_phi)

    def _conjugates(self, f, ss):
        return [orlicz.conjugate_numeric(f, s) for s in ss]

    def _norms(self):
        table = geometry.sample_fields_grid(self.fields_res)
        weights = np.full(len(table), 4.0 / len(table))
        norms = [(col, g, orlicz.luxemburg_norm(table[:, col], weights,
                                                 orlicz.LogPower(2.0, g)))
                 for col in (3, 4, 5) for g in self.norm_gammas]
        return table, weights, norms

    def _mesh_queries(self):
        mesh = fem_mesh.build_mesh(self.mesh_n, GRADING)
        c = self.linear
        values = mesh.evaluate(c[0] + mesh.nodes @ c[1:], self.points)
        u2 = DofField.interpolate(mesh, geometry.eval_u2)
        # radii log-spaced between the smallest ring and 0.9
        radii = mesh.h_min * (0.9 / mesh.h_min) ** self.cone_radii_exp
        table, _ = fem_solve.cone_trace_diagnostic(u2, mesh, radii)
        return values, table

    def run_round(self, ledger):
        out = {"phase": ledger.attempt(self._phase, units=len(self.alphas) * len(self.betas))}
        out["cutoffs"] = [(psi, delta, ledger.attempt(self._cutoff, psi, delta))
                          for psi, deltas in self.cutoff_cases for delta in deltas]
        out["refusals"] = [(a, ledger.attempt(self._refusal, a)) for a in self.refusal_alphas]
        out["loglog"] = [(u, ledger.attempt(self._loglog, u)) for u in self.loglog_u]
        out["conjugates"] = [(f, star, ss, ledger.attempt(self._conjugates, f, ss,
                                                          units=len(ss)))
                             for f, star, ss in self.conjugate_cases]
        out["norms"] = ledger.attempt(self._norms, units=3 * len(self.norm_gammas))
        out["mesh"] = ledger.attempt(self._mesh_queries, units=2)
        return out

    # ------------------------------------------------------------- checks

    def check_round(self, out, ledger):
        if out["phase"] is not None:
            ledger.expect(checks.phase_verdicts(out["phase"]))
        for psi, delta, result in out["cutoffs"]:
            if result is None:
                continue
            cut, residual = result
            if isinstance(psi, orlicz.PurePower):
                ledger.expect(checks.pure_power_cutoff(cut, self.r2, delta))
            ledger.expect(checks.log_power_cutoff(cut, delta, residual))
        for alpha, outcome in out["refusals"]:
            if outcome is not None:
                ledger.expect(checks.refused(outcome, alpha))
        for u, energy in out["loglog"]:
            if energy is not None:
                ledger.expect(checks.loglog_decay(u, energy))
        for f, star, ss, numeric in out["conjugates"]:
            if numeric is not None:
                ledger.expect(checks.conjugate_values(f, star, ss, numeric))
        if out["norms"] is not None:
            table, weights, norms = out["norms"]
            for col, g, norm in norms:
                if g == 0.0:
                    ledger.expect(checks.luxemburg_quadratic(norm, table[:, col], weights))
                ledger.expect(checks.luxemburg_threshold(
                    norm, table[:, col], weights, orlicz.LogPower(2.0, g),
                    f"column {col}, gamma {g}"))
        if out["mesh"] is not None:
            values, table = out["mesh"]
            ledger.expect(checks.linear_reproduction(values, self.points, self.linear))
            ledger.expect(checks.cone_traces(table))

    def fingerprint(self, out):
        """JSON of the phase-diagram rows of the first RERUN_ALPHAS alphas,
        which a rerun must reproduce."""
        rows = out["phase"]
        if rows is None:
            return None
        return _dump_json([list(r) for r in rows[:RERUN_ALPHAS * len(self.betas)]])

    def check_run(self, first, ledger):
        """Rerun the phase diagram for the first alphas; its JSON must match."""
        if first is None:
            return
        again = ledger.attempt(classifier.phase_diagram, self.alphas[:RERUN_ALPHAS],
                               self.betas, units=RERUN_ALPHAS * len(self.betas))
        if again is not None:
            ledger.expect(checks.same_text(first, self.fingerprint({"phase": again}),
                                           "phase diagram"))


def make(name, seed):
    if name == "gap_g_2_2":
        return GapWorkload(2.0, 2.0, fem_solve.OBJECTIVE_G, "Gap", seed)
    if name == "gap_dirichlet_2_05":
        return GapWorkload(2.0, 0.5, fem_solve.OBJECTIVE_DIRICHLET, "NoGap", seed)
    if name == "lab_analysis":
        return LabWorkload(seed)
    raise KeyError(name)


NAMES = ("gap_g_2_2", "gap_dirichlet_2_05", "lab_analysis")
