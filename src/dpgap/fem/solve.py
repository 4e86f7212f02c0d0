"""Convex minimization of the double-phase functionals and the gap experiment.

The enriched minimization starts from the conforming minimizer with zero jump
amplitude and only ever descends, so the space-nesting inequality E1 <= E2
holds by construction, not just in the limit.

Each Newton direction is one sparse LU solve with a minimum-degree ordering
of A^T + A. In the enriched space only the nodal block is factored and the
jump amplitude s, the one dof that couples to every enriched element, is
eliminated by its Schur complement. At a point whose gradient is exactly
zero, such as the G-mode conforming start u = 0, the Newton loop takes the
zero step without assembling the Hessian or factoring anything.

One fallback rule: an iteration first tries the Newton direction. If it is
singular, non-finite or not a descent direction, or if no Armijo step exists
in 50 halvings, the same iteration takes the gradient direction from the same
point. If that has no Armijo step either, the loop returns.

Assembly returns the nodal part and the s part of gradient and Hessian
separately. Only this module knows the bordered layout of the reduced
unknowns, [interior nodal values..., s].

In G mode the linear term int b2 . grad u is taken in its solenoidal-exact
form: it vanishes on every conforming field, so only the enrichment pairing
L_s s, read from the mesh's ``enrichment_rule``, enters the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..classifier import CONVERGES, classify_alpha_beta
from ..errors import GapPreconditionError, RangeError
from ..geometry import eval_u2
from ..orlicz import double_phase_log
from .assembly import (enrichment_rule, modular_energy, modular_gradient,
                       modular_hessian, separating_functional)
from .fields import DofField, EnrichedField
from .mesh import build_mesh

CONFORMING = "conforming"
ENRICHED = "enriched"
OBJECTIVE_G = "G"
OBJECTIVE_DIRICHLET = "dirichlet"

MAX_ITERATIONS = 5000
REL_DECREASE_TOL = 1e-10
GRAD_TOL = 1e-8
_ARMIJO = 1e-4


@dataclass
class MinimizeResult:
    field: object
    value: float
    iterations: int
    converged: bool
    grad_norm: float


class _Objective:
    """Reduced view of F or G over interior dofs (+ trailing s for enriched)."""

    def __init__(self, space, objective, pair, mesh, boundary_data=0.0):
        self.pair = pair
        self.mesh = mesh
        self.interior = mesh.interior
        self.enriched = space == ENRICHED
        self.full = np.zeros(mesh.n_vertices)
        self.full[mesh.boundary_mask] = boundary_data
        # G keeps only the b2 pairing of the jump amplitude: by the
        # solenoidal-exact identity (see assembly._b2_pairing) L . values is 0
        self.L_s = 0.0
        if objective == OBJECTIVE_G and self.enriched:
            self.L_s = enrichment_rule(mesh).L_s

    def make_field(self, x):
        values = self.full.copy()
        if self.enriched:
            values[self.interior] = x[:-1]
            return EnrichedField(DofField(self.mesh, values), float(x[-1]))
        values[self.interior] = x
        return DofField(self.mesh, values)

    def value(self, x):
        u = self.make_field(x)
        val = modular_energy(u, self.pair, self.mesh)
        if self.enriched:
            val += u.s * self.L_s
        return val

    def grad(self, x):
        u = self.make_field(x)
        nodal, s_grad = modular_gradient(u, self.pair, self.mesh)
        g = nodal[self.interior]
        if self.enriched:
            g = np.append(g, s_grad + self.L_s)
        return g

    def hess(self, x):
        """(K, c, h_ss): interior nodal block, its s border or None, s-s entry."""
        K, border, h_ss = modular_hessian(self.make_field(x), self.pair, self.mesh)
        idx = self.interior
        c = None if border is None else border[idx]
        return K[idx][:, idx].tocsc(), c, h_ss


def _newton_direction(K, c, h_ss, g):
    """Solve (H + 1e-14 I) d = -g with a minimum-degree ordering.

    H is K alone when c is None. Otherwise H is K bordered by the column c
    and the corner h_ss, and the last unknown is the jump amplitude s: K is
    factored once for the two right-hand sides -g_u and c, and s is
    eliminated by its Schur complement h_ss - c.z. A zero Schur complement
    gives a non-finite direction. A zero gradient never gets here:
    ``_newton_descent`` skips it without assembling H.
    """
    K = K + 1e-14 * sp.eye(K.shape[0], format="csc")
    if c is None:
        return spla.spsolve(K, -g, permc_spec="MMD_AT_PLUS_A")
    yz = spla.spsolve(K, np.column_stack([-g[:-1], c]), permc_spec="MMD_AT_PLUS_A")
    y, z = yz[:, 0], yz[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        d_s = (-g[-1] - c @ y) / (h_ss + 1e-14 - c @ z)
        return np.append(y - d_s * z, d_s)


def _newton_descent(obj, x, g):
    """The Newton direction at x if it is finite and descends, else None.

    Nothing is assembled at an exactly zero gradient, where -g is the zero step.
    """
    if not np.any(g):
        return None
    try:
        d = _newton_direction(*obj.hess(x), g)
    except RuntimeError:
        return None
    if not np.all(np.isfinite(d)) or float(d @ g) >= 0.0:
        return None
    return d


def _backtrack(obj, x, f, d, g):
    """(step, value) of the first Armijo step in 1, 1/2, ..., 2^-49, or None."""
    slope = float(d @ g)
    step = 1.0
    for _ in range(50):
        f_new = obj.value(x + step * d)
        if np.isfinite(f_new) and f_new <= f + _ARMIJO * step * slope:
            return step, f_new
        step *= 0.5
    return None


def _newton(obj, x0, max_iterations=MAX_ITERATIONS):
    x = np.asarray(x0, dtype=np.float64).copy()
    f = obj.value(x)
    iterations = 0
    grad_norm = np.inf
    rel = np.inf
    for iterations in range(1, max_iterations + 1):
        g = obj.grad(x)
        grad_norm = float(np.max(np.abs(g))) if g.size else 0.0
        if grad_norm < GRAD_TOL and rel < REL_DECREASE_TOL:
            return x, f, iterations - 1, True, grad_norm
        d = _newton_descent(obj, x, g)
        accepted = None if d is None else _backtrack(obj, x, f, d, g)
        if accepted is None:
            d = -g
            accepted = _backtrack(obj, x, f, d, g)
            if accepted is None:
                return x, f, iterations, grad_norm < GRAD_TOL, grad_norm
        step, f_new = accepted
        x = x + step * d
        rel = abs(f - f_new) / max(abs(f), abs(f_new), 1e-30)
        f = f_new
    return x, f, iterations, False, grad_norm


def minimize(space, objective, pair, mesh, boundary_data=0.0, x0=None,
             max_iterations=MAX_ITERATIONS):
    """Damped Newton with backtracking on the convex objective.

    ``space`` in {conforming, enriched}; ``objective`` in {G, dirichlet}.
    Dirichlet mode minimizes the modular energy alone under the given
    boundary data; G mode adds the linear term at zero boundary values.
    """
    if space not in (CONFORMING, ENRICHED):
        raise RangeError(f"unknown space: {space}")
    if objective not in (OBJECTIVE_G, OBJECTIVE_DIRICHLET):
        raise RangeError(f"unknown objective: {objective}")
    if objective == OBJECTIVE_G:
        boundary_data = 0.0
    obj = _Objective(space, objective, pair, mesh, boundary_data)
    if x0 is None:
        n_int = len(mesh.interior)
        x0 = np.zeros(n_int + (1 if space == ENRICHED else 0))
    x, f, iterations, converged, grad_norm = _newton(obj, x0, max_iterations)
    return MinimizeResult(obj.make_field(x), f, iterations, converged, grad_norm)


@dataclass
class GapReport:
    alpha: float
    beta: float
    mode: str
    verdict: str
    levels: list = field(default_factory=list)
    mode_note: str | None = None

    def to_dict(self):
        return {
            "alpha": self.alpha, "beta": self.beta, "mode": self.mode,
            "verdict": self.verdict, "linear_mode": "solenoidal_exact",
            "mode_note": self.mode_note, "levels": list(self.levels),
        }


def _g_mode_admissible(report):
    # the gap demonstration needs b2 in the conjugate class (psi* tail
    # finite) and the jump direction in the energy space (phi tail finite)
    return (report.psi_star_tail.status == CONVERGES
            and report.phi_tail.status == CONVERGES)


def gap_experiment(alpha, beta, levels, grading=2.0, mode=None, force_g=False):
    """Minimize over conforming vs enriched spaces across mesh levels.

    Returns a GapReport with per-level E1 (enriched), E2 (conforming), the
    optimal jump amplitude, and the separating-functional value on the
    enriched minimizer.
    """
    levels = [int(n) for n in levels]
    if not levels:
        raise RangeError("at least one mesh level is required")
    if levels != sorted(levels):
        raise RangeError("mesh levels must be ascending")
    regime = classify_alpha_beta(alpha, beta)
    note = None
    if mode is None:
        if _g_mode_admissible(regime):
            mode = OBJECTIVE_G
        else:
            mode = OBJECTIVE_DIRICHLET
            note = ("the pair fails the dual-integrability preconditions "
                    "of G mode; fell back to Dirichlet mode")
    elif mode == OBJECTIVE_G and not _g_mode_admissible(regime) and not force_g:
        raise GapPreconditionError(
            "the pair fails the dual-integrability preconditions of G mode "
            "(pass force_g=True to override)")

    pair = double_phase_log(alpha, beta)
    report = GapReport(alpha=float(alpha), beta=float(beta), mode=mode,
                       verdict=regime.verdict, mode_note=note)
    for n in levels:
        mesh = build_mesh(n, grading)
        # G mode starts from zero; Dirichlet takes the u2 trace and interpolant
        if mode == OBJECTIVE_G:
            start = np.zeros(mesh.n_vertices)
        else:
            start = np.asarray(eval_u2(mesh.nodes[:, 0], mesh.nodes[:, 1]))
        bdata = start[mesh.boundary_mask]
        conf = minimize(CONFORMING, mode, pair, mesh, boundary_data=bdata,
                        x0=start[mesh.interior])
        x0e = np.concatenate([conf.field.values[mesh.interior], [0.0]])
        enr = minimize(ENRICHED, mode, pair, mesh, boundary_data=bdata,
                       x0=x0e)
        sep = separating_functional(enr.field, mesh)
        level = {
            "n": n,
            "h_min": mesh.h_min,
            "E1": enr.value,
            "E2": conf.value,
            "s_opt": float(enr.field.s),
            "sep_value": sep,
            "iters_conforming": conf.iterations,
            "iters_enriched": enr.iterations,
            "converged": bool(conf.converged and enr.converged),
        }
        if enr.value > conf.value + 1e-10:
            level["nesting_violation"] = enr.value - conf.value
        report.levels.append(level)
    return report


def cone_trace_diagnostic(u, mesh, radii):
    """Mean of u on arcs inside the vertical cones, per radius.

    Returns (table, fit_exponent) where table rows are
    (r, mean over the top arc, mean over the bottom arc) and the exponent is
    the fitted decay rate of |mean(r) - u(0)| against log(1/r).
    """
    radii = np.asarray(sorted(float(r) for r in radii))
    if np.any(radii < mesh.h_min):
        raise RangeError("trace radius below the smallest mesh ring")
    if np.any(radii >= 1.0):
        raise RangeError("trace radius must be below 1: the log-log fit "
                         "takes log(log(1/r)), which needs r < 1")
    ang_top = np.linspace(np.deg2rad(65.0), np.deg2rad(115.0), 41)
    ang_bot = ang_top + np.pi
    u0 = float(u.evaluate([[0.0, 0.0]])[0])
    rows = []
    for r in radii:
        top = np.column_stack([r * np.cos(ang_top), r * np.sin(ang_top)])
        bot = np.column_stack([r * np.cos(ang_bot), r * np.sin(ang_bot)])
        rows.append((float(r),
                     float(np.mean(u.evaluate(top))),
                     float(np.mean(u.evaluate(bot)))))
    table = np.array(rows)
    dev = 0.5 * (np.abs(table[:, 1] - u0) + np.abs(table[:, 2] - u0))
    good = dev > 1e-14
    if good.sum() >= 3:
        exponent = float(np.polyfit(np.log(np.log(1.0 / table[good, 0])),
                                    np.log(dev[good]), 1)[0])
    else:
        exponent = 0.0
    return table, exponent
