"""Correctness checks for the benchmark workloads.

Every check compares an output of dpgap with a property of the method or
with a value computed here independently of the layer that produced it.
None of them compares against stored numbers, and none of them looks at a
clock. Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

from dpgap.fem.fields import enrichment_gradient
from dpgap.geometry import eval_b2, eval_u2, eval_weight

# tolerances; perfbench/README.md gives the reason and today's margin of each
E2_ZERO_TOL = 1e-12
FLUX_IDENTITY_TOL = 0.02
BOUNDARY_FLUX_TOL = 2e-3
ENERGY_ORDER_RTOL = 1e-12
CUTOFF_CLOSED_FORM_RTOL = 1e-8
CERTIFICATE_RTOL = 1e-9
EULER_LAGRANGE_TOL = 1e-9
ETA_END_TOL = 1e-10
LOGLOG_DECAY_MAX = 10.0
CONJUGATE_BRACKET = 5.0
YOUNG_ATOL = 1e-9
LUXEMBURG_RTOL = 1e-9
EVALUATE_ATOL = 1e-12


class Ledger:
    """Counts operations attempted and failed, and collects check problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.failures = []

    def attempt(self, fn, *args, units=1):
        """Run one operation; an exception marks its units failed, returns None."""
        self.attempted += units
        try:
            return fn(*args)
        except Exception as exc:  # an operation boundary: count it and go on
            self.failed += units
            self.failures.append(f"{getattr(fn, '__name__', fn)}: "
                                 f"{type(exc).__name__}: {exc}")
            return None

    def expect(self, problems):
        self.problems.extend(problems)

    @property
    def correct(self):
        return not self.problems


# ----------------------------------------------------------------- gap runs

def levels_converged(report, verdict):
    """Every level converged, the verdict is as given, and E1 <= E2."""
    out = []
    if report["verdict"] != verdict:
        out.append(f"verdict {report['verdict']!r}, expected {verdict!r}")
    for lv in report["levels"]:
        n = lv["n"]
        if not lv["converged"]:
            out.append(f"n={n}: not converged")
        if not lv["E1"] <= lv["E2"]:
            out.append(f"n={n}: E1 = {lv['E1']!r} > E2 = {lv['E2']!r}")
        if "nesting_violation" in lv:
            out.append(f"n={n}: nesting_violation {lv['nesting_violation']!r}")
    return out


def g_mode_energies(report):
    """E2 = 0: the conforming G starts at 0 and only descends from a
    nonnegative modular energy; E1 < 0: the enrichment lowers it."""
    out = []
    for lv in report["levels"]:
        if abs(lv["E2"]) > E2_ZERO_TOL:
            out.append(f"n={lv['n']}: |E2| = {abs(lv['E2']):.3e} > {E2_ZERO_TOL}")
        if not lv["E1"] < 0.0:
            out.append(f"n={lv['n']}: E1 = {lv['E1']!r} is not negative")
    return out


def flux_identity(report):
    """sep_value = -s_opt up to quadrature: the flux identity int b2.grad E = -1."""
    out = []
    for lv in report["levels"]:
        s = lv["s_opt"]
        dev = abs(lv["sep_value"] / (-s) - 1.0) if s != 0.0 else math.inf
        if not dev < FLUX_IDENTITY_TOL:
            out.append(f"n={lv['n']}: |sep/(-s_opt) - 1| = {dev:.4f}")
    return out


def boundary_flux_value(report):
    """In Dirichlet mode the separating functional is the boundary flux, 1."""
    out = []
    for lv in report["levels"]:
        dev = abs(lv["sep_value"] - 1.0)
        if not dev <= BOUNDARY_FLUX_TOL:
            out.append(f"n={lv['n']}: |sep_value - 1| = {dev:.3e}")
    return out


def collapse_with_refinement(report):
    """No gap: |s_opt| and |E1 - E2| both decrease strictly with the level."""
    out = []
    levels = report["levels"]
    for a, b in zip(levels, levels[1:]):
        if not abs(b["s_opt"]) < abs(a["s_opt"]):
            out.append(f"|s_opt| does not decrease from n={a['n']} to n={b['n']}")
        if not abs(b["E1"] - b["E2"]) < abs(a["E1"] - a["E2"]):
            out.append(f"|E1-E2| does not decrease from n={a['n']} to n={b['n']}")
    return out


def ray_energies(pair, mesh, ts):
    """G(t E) on the pure enrichment ray, from the mesh quadrature alone.

    Uses the analytic enrichment gradient and b2 at the quadrature points and
    the weight at element centroids, not the assembly layer.
    """
    ge = enrichment_gradient(mesh.qpts)
    b = eval_b2(mesh.qpts[:, 0], mesh.qpts[:, 1])
    centroid = mesh.nodes[mesh.tris].mean(axis=1)[mesh.qel]
    a = eval_weight(centroid[:, 0], centroid[:, 1])
    norm_ge = np.hypot(ge[:, 0], ge[:, 1])
    pairing = float(np.sum(mesh.qw * (b[0] * ge[:, 0] + b[1] * ge[:, 1])))
    out = []
    for t in ts:
        tg = abs(t) * norm_ge
        modular = float(np.sum(mesh.qw * (pair.phi(tg) + a * pair.psi(tg))))
        out.append(modular + t * pairing)
    return out


def below_ray(E1, ts, values):
    """E1 is the minimum over a space that contains every t E."""
    return [f"E1 = {E1!r} > G({t:.6g} E) = {g!r}" for t, g in zip(ts, values)
            if not E1 <= g + ENERGY_ORDER_RTOL * abs(g)]


def interpolant_energy(pair, mesh):
    """F(I_h u2): modular energy of the nodal interpolant of u2, with element
    gradients formed here from the vertex coordinates."""
    p = mesh.nodes[mesh.tris]
    v = np.asarray(eval_u2(mesh.nodes[:, 0], mesh.nodes[:, 1]))[mesh.tris]
    edges = p[:, 1:] - p[:, :1]                       # (Ne, 2, 2), one edge a row
    grads = np.linalg.solve(edges, (v[:, 1:] - v[:, :1])[..., None])[..., 0]
    area = 0.5 * np.abs(edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0])
    centroid = p.mean(axis=1)
    a = eval_weight(centroid[:, 0], centroid[:, 1])
    t = np.hypot(grads[:, 0], grads[:, 1])
    return float(np.sum(area * (pair.phi(t) + a * pair.psi(t))))


def below_interpolant(level, f_interp):
    """0 <= E2 <= F(I_h u2): Newton starts at the interpolant and descends."""
    e2 = level["E2"]
    out = []
    if not e2 >= 0.0:
        out.append(f"n={level['n']}: E2 = {e2!r} < 0")
    if not e2 <= f_interp * (1.0 + ENERGY_ORDER_RTOL):
        out.append(f"n={level['n']}: E2 = {e2!r} > F(I_h u2) = {f_interp!r}")
    return out


def same_text(first, again, what):
    """Reruns of one computation serialize to the same bytes."""
    return [] if first == again else [f"{what}: rerun is not byte-identical"]


# ------------------------------------------------------------- lab analysis

def phase_verdicts(rows):
    """Gap exactly when min(alpha, beta) > 1."""
    return [f"({a}, {b}): {v}" for a, b, v in rows
            if v != ("Gap" if min(a, b) > 1.0 else "NoGap")]


def _rel(a, b):
    return abs(a - b) / abs(b)


def pure_power_cutoff(cut, r2, delta):
    """t^2: c = 2/log(r2/r1), energy 2 pi/log(r2/r1), r1 the largest dyadic
    radius r2/2^k with c <= delta."""
    out = []
    log_ratio = math.log(r2 / cut.r1)
    c_exact = 2.0 / log_ratio
    if not _rel(cut.c, c_exact) <= CUTOFF_CLOSED_FORM_RTOL:
        out.append(f"delta={delta}: c = {cut.c!r}, closed form {c_exact!r}")
    cert_exact = 2.0 * math.pi / log_ratio
    if not _rel(cut.energy_certificate, cert_exact) <= CUTOFF_CLOSED_FORM_RTOL:
        out.append(f"delta={delta}: certificate {cut.energy_certificate!r}, "
                   f"closed form {cert_exact!r}")
    k = round(log_ratio / math.log(2.0))
    if not (k >= 1 and abs(log_ratio / math.log(2.0) - k) < 1e-9):
        out.append(f"delta={delta}: r1 = {cut.r1!r} is not r2 / 2^k")
    elif not (2.0 / (k * math.log(2.0)) <= delta
              and (k == 1 or 2.0 / ((k - 1) * math.log(2.0)) > delta)):
        out.append(f"delta={delta}: r2/2^{k} is not the largest dyadic radius "
                   "with c <= delta")
    return out


def log_power_cutoff(cut, delta, el_residual):
    """psi(t) <= t psi'(t)/2 for alpha >= 0 gives energy <= pi c; the profile
    solves the radial Euler-Lagrange equation and reaches 1 at r2."""
    out = []
    if not cut.c <= delta * (1.0 + CERTIFICATE_RTOL):
        out.append(f"delta={delta}: c = {cut.c!r} above the budget")
    if not cut.energy_certificate <= math.pi * cut.c * (1.0 + CERTIFICATE_RTOL):
        out.append(f"delta={delta}: certificate {cut.energy_certificate!r} "
                   f"> pi c = {math.pi * cut.c!r}")
    if not el_residual <= EULER_LAGRANGE_TOL:
        out.append(f"delta={delta}: Euler-Lagrange residual {el_residual:.3e}")
    eta_end = float(cut.eta(cut.r2))
    if not abs(eta_end - 1.0) <= ETA_END_TOL:
        out.append(f"delta={delta}: eta(r2) = {eta_end!r}")
    return out


def refused(outcome, alpha):
    """A converging dual tail leaves no vanishing-energy cutoff to find."""
    return [] if outcome == "refused" else [
        f"alpha={alpha}: find_inner_radius returned {outcome!r} instead of refusing"]


def loglog_decay(u, energy):
    """The log-log cutoff energy decays like 1/log(1/eps)."""
    if energy > 0.0 and energy * u < LOGLOG_DECAY_MAX:
        return []
    return [f"log(1/eps)={u}: energy {energy!r}, energy*log(1/eps) = {energy * u!r}"]


def conjugate_values(f, closed_form, ss, numeric):
    """Numeric conjugate within [1/5, 5] of the closed form, and Young's
    inequality f(t) + f*(s) >= t s over a wide range of t."""
    out = []
    ss = np.asarray(ss)
    numeric = np.asarray(numeric)
    ratio = numeric / np.asarray(closed_form(ss))
    bad = ~((ratio >= 1.0 / CONJUGATE_BRACKET) & (ratio <= CONJUGATE_BRACKET))
    out += [f"s={s!r}: numeric/closed = {r!r}" for s, r in zip(ss[bad], ratio[bad])]
    # ratio 1.65 between grid points, so one t sits near every maximizer
    ts = np.geomspace(1e-4, 1e9, 61)
    products = ss[:, None] * ts[None, :]
    slack = np.asarray(f(ts))[None, :] + numeric[:, None] - products
    bad = slack < -YOUNG_ATOL * np.maximum(1.0, products)
    out += [f"Young fails at s={ss[i]!r}, t={ts[j]!r}: {slack[i, j]!r}"
            for i, j in zip(*np.nonzero(bad))]
    return out


def luxemburg_quadratic(norm, values, weights):
    """Under t^2 the Luxemburg norm is sqrt(sum w v^2)."""
    exact = math.sqrt(float(np.sum(weights * np.asarray(values) ** 2)))
    if _rel(norm, exact) <= LUXEMBURG_RTOL:
        return []
    return [f"t^2 Luxemburg norm {norm!r}, closed form {exact!r}"]


def luxemburg_threshold(norm, values, weights, f, what):
    """The norm is the threshold: modular <= 1 at it, > 1 just below it."""
    v = np.abs(np.asarray(values))

    def modular(g):
        with np.errstate(over="ignore"):
            return float(np.sum(weights * np.asarray(f(v / g))))

    if modular(norm) <= 1.0 and modular(norm * (1.0 - LUXEMBURG_RTOL)) > 1.0:
        return []
    return [f"{what}: {norm!r} is not the modular threshold"]


def linear_reproduction(values, points, coef):
    """P1 interpolation reproduces a linear function at any point."""
    exact = coef[0] + points @ np.asarray(coef[1:])
    err = float(np.max(np.abs(np.asarray(values) - exact)))
    return [] if err <= EVALUATE_ATOL else [f"evaluate error {err:.3e} on a linear field"]


def cone_traces(table):
    """Inside the vertical cones u2 is exactly +1/2 above and -1/2 below."""
    table = np.asarray(table)
    bad = (table[:, 1] != 0.5) | (table[:, 2] != -0.5)
    return [f"r={r!r}: traces ({top!r}, {bot!r})" for r, top, bot in table[bad]]
