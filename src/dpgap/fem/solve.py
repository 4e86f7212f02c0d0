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
separately. A minimization starts from a field and returns one: only
``_Objective`` maps fields to and from the reduced unknowns, [interior
nodal values..., s], whose trailing s ``_newton_direction`` eliminates.

In G mode the linear term int b2 . grad u is taken in its solenoidal-exact
form: it vanishes on every conforming field, so only the enrichment pairing
L_s s, read from the mesh's ``enrichment_rule``, enters the objective.

The gap experiment solves on the quadrant [0,1]^2. Both mirror symmetries of
the discrete problem are exact: the weight a depends on |x1| and |x2|, u2 and
E = eta u2 are even in x1 and odd in x2, and the mesh with its quadrature is
mirror-symmetric. So Newton iterates from a start in that class stay in it,
and the quadrant with u = 0 on x2 = 0 and a natural boundary on x1 = 0
carries the whole computation on a quarter of the unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..classifier import GAP, classify_alpha_beta
from ..errors import DomainError, GapPreconditionError, RangeError
from ..geometry import eval_u2
from ..orlicz import double_phase_log
from .assembly import (enrichment_rule, modular_energy, modular_gradient,
                       modular_hessian, separating_functional)
from .fields import DofField, EnrichedField
from .mesh import build_mesh

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


class _Objective:
    """Reduced view of F or G over the start's interior values (+ s if enriched)."""

    def __init__(self, objective, pair, start):
        base = start.base if isinstance(start, EnrichedField) else start
        if not isinstance(base, DofField):
            raise DomainError("a minimization starts from a DofField or an EnrichedField")
        self.pair = pair
        self.mesh = base.mesh
        self.interior = self.mesh.interior
        self.enriched = base is not start
        self.full = base.values
        self.x0 = np.append(base.values[self.interior], [start.s] if self.enriched else [])
        # G keeps only the b2 pairing of the jump amplitude: by the
        # solenoidal-exact identity (see assembly._b2_pairing) L . values is 0,
        # which holds for zero boundary values only
        self.L_s = 0.0
        if objective == OBJECTIVE_G:
            if np.any(base.values[self.mesh.boundary_mask]):
                raise RangeError("G mode needs zero boundary values in the start field")
            if self.enriched:
                self.L_s = enrichment_rule(self.mesh).L_s

    def make_field(self, x):
        values = self.full.copy()
        if self.enriched:
            values[self.interior] = x[:-1]
            return EnrichedField(DofField(self.mesh, values), float(x[-1]))
        values[self.interior] = x
        return DofField(self.mesh, values)

    def value(self, x):
        u = self.make_field(x)
        val = modular_energy(u, self.pair)
        if self.enriched:
            val += u.s * self.L_s
        return val

    def grad(self, x):
        u = self.make_field(x)
        nodal, s_grad = modular_gradient(u, self.pair)
        g = nodal[self.interior]
        if self.enriched:
            g = np.append(g, s_grad + self.L_s)
        return g

    def hess(self, x):
        """(K, c, h_ss): interior nodal block, its s border or None, s-s entry."""
        K, border, h_ss = modular_hessian(self.make_field(x), self.pair)
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
        d_s = (-g[-1] - np.sum(c * y)) / (h_ss + 1e-14 - np.sum(c * z))
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
    if not np.all(np.isfinite(d)) or float(np.sum(d * g)) >= 0.0:
        return None
    return d


def _backtrack(obj, x, f, d, g):
    """(step, value) of the first Armijo step in 1, 1/2, ..., 2^-49, or None."""
    slope = float(np.sum(d * g))
    step = 1.0
    for _ in range(50):
        f_new = obj.value(x + step * d)
        if np.isfinite(f_new) and f_new <= f + _ARMIJO * step * slope:
            return step, f_new
        step *= 0.5
    return None


def _newton(obj, x0):
    x = np.asarray(x0, dtype=np.float64).copy()
    f = obj.value(x)
    iterations = 0
    rel = np.inf
    for iterations in range(1, MAX_ITERATIONS + 1):
        g = obj.grad(x)
        grad_norm = float(np.max(np.abs(g))) if g.size else 0.0
        if grad_norm < GRAD_TOL and rel < REL_DECREASE_TOL:
            return x, f, iterations - 1, True
        d = _newton_descent(obj, x, g)
        accepted = None if d is None else _backtrack(obj, x, f, d, g)
        if accepted is None:
            d = -g
            accepted = _backtrack(obj, x, f, d, g)
            if accepted is None:
                return x, f, iterations, grad_norm < GRAD_TOL
        step, f_new = accepted
        x = x + step * d
        rel = abs(f - f_new) / max(abs(f), abs(f_new), 1e-30)
        f = f_new
    return x, f, iterations, False


def minimize(objective, pair, start):
    """Damped Newton with backtracking on the convex objective.

    ``objective`` in {G, dirichlet}. A DofField start minimizes over the
    conforming space and an EnrichedField start over the enriched one. The
    start gives the mesh and the fixed boundary values, and its interior
    values (and s) are the first iterate; it is left unchanged. Dirichlet
    mode minimizes the modular energy alone. G mode adds the linear term,
    whose solenoidal-exact form holds at zero boundary values only, so a
    G-mode start with a nonzero boundary value raises RangeError. A start of
    any other type raises DomainError.
    """
    if objective not in (OBJECTIVE_G, OBJECTIVE_DIRICHLET):
        raise RangeError(f"unknown objective: {objective}")
    obj = _Objective(objective, pair, start)
    x, f, iterations, converged = _newton(obj, obj.x0)
    return MinimizeResult(obj.make_field(x), f, iterations, converged)


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


def gap_experiment(alpha, beta, levels, grading=2.0, mode=None, force_g=False):
    """Minimize over conforming vs enriched spaces across mesh levels.

    Returns a GapReport with per-level E1 (enriched), E2 (conforming), the
    optimal jump amplitude, and the separating-functional value on the
    enriched minimizer.

    Each level is solved on the quadrant mesh (see the module docstring).
    The minimizers are even in x1 and odd in x2, so every energy and the
    pairing over (-1,1)^2 are 4 times their quadrant values, and the report
    holds those full-domain values.
    """
    levels = list(levels)
    # NaN fails the comparison; int() of NaN or inf raises no DpgapError
    if not all(abs(n) < np.inf for n in levels):
        raise RangeError("mesh levels must be finite")
    if any(n != int(n) for n in levels):
        raise RangeError("mesh levels must be whole numbers")
    levels = [int(n) for n in levels]
    if not levels:
        raise RangeError("at least one mesh level is required")
    if levels != sorted(levels):
        raise RangeError("mesh levels must be ascending")
    regime = classify_alpha_beta(alpha, beta)
    # G mode needs b2 in the conjugate class (psi* tail finite) and the jump
    # direction in the energy space (phi tail finite): the Gap verdict
    g_admissible = regime.verdict == GAP
    note = None
    if mode is None:
        if g_admissible:
            mode = OBJECTIVE_G
        else:
            mode = OBJECTIVE_DIRICHLET
            note = ("the pair fails the dual-integrability preconditions "
                    "of G mode; fell back to Dirichlet mode")
    elif mode == OBJECTIVE_G and not g_admissible and not force_g:
        raise GapPreconditionError(
            "the pair fails the dual-integrability preconditions of G mode "
            "(pass force_g=True to override)")

    pair = double_phase_log(alpha, beta)
    report = GapReport(alpha=float(alpha), beta=float(beta), mode=mode,
                       verdict=regime.verdict, mode_note=note)
    for n in levels:
        mesh = build_mesh(n, grading, quadrant=True)
        # G mode starts from zero; Dirichlet takes the u2 trace and interpolant
        if mode == OBJECTIVE_G:
            start = DofField(mesh, np.zeros(mesh.n_vertices))
        else:
            start = DofField.interpolate(mesh, eval_u2)
        conf = minimize(mode, pair, start)
        enr = minimize(mode, pair, EnrichedField(conf.field, 0.0))
        # full-domain values: each integral is 4 times its quadrant part
        E1, E2 = 4.0 * enr.value, 4.0 * conf.value
        sep = 4.0 * separating_functional(enr.field)
        level = {
            "n": n,
            "h_min": mesh.h_min,
            "E1": E1,
            "E2": E2,
            "s_opt": float(enr.field.s),
            "sep_value": sep,
            "iters_conforming": conf.iterations,
            "iters_enriched": enr.iterations,
            "converged": bool(conf.converged and enr.converged),
        }
        if E1 > E2 + 1e-10:
            level["nesting_violation"] = E1 - E2
        report.levels.append(level)
    return report


def cone_trace_diagnostic(u, mesh, radii):
    """Mean of u on arcs inside the vertical cones, per radius.

    Returns (table, fit_exponent) where table rows are
    (r, mean over the top arc, mean over the bottom arc) and the exponent is
    the fitted decay rate of |mean(r) - u(0)| against log(1/r), 0.0 below 3 distinct radii.
    """
    radii = np.asarray(sorted(float(r) for r in radii))
    if radii.size == 0:
        raise RangeError("at least one trace radius is required")
    # written so that a NaN radius fails it
    if not np.all((radii >= mesh.h_min) & (radii < 1.0)):
        raise RangeError(f"trace radii must lie in [{mesh.h_min!r}, 1), from the "
                         "smallest mesh ring: the log-log fit takes log(log(1/r)), "
                         "which needs r < 1")
    ang_top = np.linspace(np.deg2rad(65.0), np.deg2rad(115.0), 41)
    ang = np.concatenate([ang_top, ang_top + np.pi])
    arcs = radii[:, None, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    # the origin and every arc point in one evaluate call
    vals = u.evaluate(np.concatenate([[[0.0, 0.0]], arcs.reshape(-1, 2)]))
    u0 = float(vals[0])
    table = np.column_stack([radii, vals[1:].reshape(len(radii), 2, 41).mean(axis=2)])
    dev = 0.5 * (np.abs(table[:, 1] - u0) + np.abs(table[:, 2] - u0))
    good = dev > 1e-14
    if np.unique(table[good, 0]).size >= 3:
        exponent = float(np.polyfit(np.log(np.log(1.0 / table[good, 0])),
                                    np.log(dev[good]), 1)[0])
    else:
        exponent = 0.0
    return table, exponent
