"""Singularity-removing radial cutoffs and their energy certificates.

Two families: the explicit log-log profile on [e^{-1/eps}, eps], and the
psi-harmonic profile eta'(r) = (psi')^{-1}(c/r) on [r1, r2] with c chosen so
that eta(r2) = 1.  The psi-harmonic profile is the minimizer of
int psi(|grad eta|) among radial transitions, so the radial Euler-Lagrange
identity (r psi'(eta'))' = 0 holds along it; we build eta' from the true
inverse of psi' (not a growth-equivalent conjugate) precisely so that this
identity is satisfied to solver precision.

The psi-harmonic builders take a ``LogPower`` or ``PurePower`` psi: the
inverse is a bisection on ``psi.log_deriv`` (ln psi' as a function of ln t),
and the dual tail of ``find_inner_radius`` is that of ``orlicz.conjugate``.
Energies accept any integrand with ``log_eval`` or a plain call.

Inner radii and slopes routinely leave double-precision range (r1 = e^{-1/eps}
for the log-log family, eta' ~ c/r near a borderline inner radius), so all
tables, inversions and quadratures live in log coordinates; profiles expose
``eta_at_log`` alongside the plain callables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .classifier import DIVERGES, tail_integral_verdict
from .errors import (DomainError, EnergyOverflowError,
                     NoRemovableSingularityError, NormalizationError,
                     RangeError)
from .orlicz import DoublePhase, LogPower, PurePower, conjugate

LOGLOG = "LogLog"
PSI_HARMONIC = "PsiHarmonic"

N_NODES = 4096
_ENERGY_NODES = 16384
_MAX_BRACKET_EXPANSIONS = 400
# inner radii below e^{-700} underflow double precision
_LN_R_MIN = -700.0


def _log_deriv_inverse(psi, ln_s):
    """ln t solving psi'(t) = e^{ln_s}, by bisection in ln t."""
    ln_s = np.atleast_1d(np.asarray(ln_s, dtype=np.float64))
    lo = np.minimum(ln_s, 4.0 * ln_s) - 100.0
    hi = np.maximum(ln_s, 4.0 * ln_s) + 100.0
    for _ in range(12):
        bad_lo = psi.log_deriv(lo) > ln_s
        bad_hi = psi.log_deriv(hi) < ln_s
        if not (np.any(bad_lo) or np.any(bad_hi)):
            break
        span = hi - lo
        lo = np.where(bad_lo, lo - span, lo)
        hi = np.where(bad_hi, hi + span, hi)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        below = psi.log_deriv(mid) < ln_s
        new_lo = np.where(below, mid, lo)
        new_hi = np.where(below, hi, mid)
        # a step is a function of (lo, hi) alone, so once one leaves both
        # unchanged every later step repeats it: stopping here is exact
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RadialCutoff:
    """Radial transition profile: 0 on [0, r1], 1 on [r2, inf)."""

    kind: str
    r1: float
    r2: float
    ln_r1: float
    ln_r2: float
    c: float | None = None
    eps: float | None = None
    ln_r: np.ndarray = field(default=None, repr=False)
    eta_table: np.ndarray = field(default=None, repr=False)
    ln_eta_prime_table: np.ndarray = field(default=None, repr=False)
    psi: object = field(default=None, repr=False)
    energy_certificate: float | None = None

    def eta_at_log(self, ln_r):
        ln_r = np.asarray(ln_r, dtype=np.float64)
        if self.kind == LOGLOG:
            out = _loglog_eta_from_log(ln_r, self.eps)
        else:
            out = np.interp(ln_r, self.ln_r, self.eta_table,
                            left=0.0, right=1.0)
        return np.clip(out, 0.0, 1.0)[()]

    def eta(self, r):
        r = np.asarray(r, dtype=np.float64)
        out = np.zeros_like(r)
        pos = r > 0.0
        with np.errstate(divide="ignore"):
            out[pos] = self.eta_at_log(np.log(r[pos]))
        return out[()]

    def ln_eta_prime_at_log(self, ln_r):
        """ln eta'(r) on the ramp; -inf outside (r1, r2)."""
        ln_r = np.asarray(ln_r, dtype=np.float64)
        out = np.full_like(ln_r, -np.inf)
        inside = (ln_r > self.ln_r1) & (ln_r < self.ln_r2)
        if self.kind == LOGLOG:
            d = _loglog_denominator(self.eps)
            out[inside] = -ln_r[inside] - np.log(-ln_r[inside]) - np.log(d)
        else:
            out[inside] = _log_deriv_inverse(self.psi, np.log(self.c) - ln_r[inside])
        return out[()]

    def profile_table(self):
        """Columns (r, eta, eta_prime, ln_r); extreme entries saturate to 0/inf."""
        with np.errstate(over="ignore"):
            r = np.exp(self.ln_r)
            if self.kind == LOGLOG:
                ep = np.exp(self.ln_eta_prime_at_log(self.ln_r))
            else:
                ep = np.exp(self.ln_eta_prime_table)
        return np.column_stack([r, self.eta_table, ep, self.ln_r])


def _check_radii(ln_r1, ln_r2):
    if not (_LN_R_MIN <= ln_r1 < ln_r2 <= np.log(0.5)):
        raise RangeError("radii must satisfy 0 < r1 < r2 <= 1/2 "
                         "within double-precision range")


def _normalization_integral(psi, ln_c, u_grid):
    # int_{r1}^{r2} (psi')^{-1}(c/rho) drho, evaluated as exp(ln t + u) in u = ln rho
    ln_t = _log_deriv_inverse(psi, ln_c - u_grid)
    return float(np.trapezoid(np.exp(ln_t + u_grid), u_grid))


def solve_normalization_constant(psi, r1, r2):
    """The unique c > 0 with int_{r1}^{r2} (psi')^{-1}(c/rho) drho = 1."""
    _check_radii(np.log(r1), np.log(r2))
    u_grid = np.linspace(np.log(r1), np.log(r2), N_NODES)

    def gap(ln_c):
        return _normalization_integral(psi, ln_c, u_grid) - 1.0

    lo = hi = 0.0
    g = gap(0.0)
    if g < 0.0:
        for _ in range(_MAX_BRACKET_EXPANSIONS):
            hi += np.log(2.0)
            if gap(hi) >= 0.0:
                break
        else:
            raise NormalizationError("no upper bracket for the normalization constant")
        lo = hi - np.log(2.0)
    elif g > 0.0:
        for _ in range(_MAX_BRACKET_EXPANSIONS):
            lo -= np.log(2.0)
            if gap(lo) <= 0.0:
                break
        else:
            raise NormalizationError("no lower bracket for the normalization constant")
        hi = lo + np.log(2.0)
    ln_c = float(brentq(gap, lo, hi, rtol=8.9e-16, xtol=1e-15))
    if abs(gap(ln_c)) > 1e-8:
        raise NormalizationError("normalization residual above tolerance")
    return float(np.exp(ln_c))


def build_psi_harmonic_cutoff(psi, r1, r2):
    """Radial cutoff with eta'(r) = (psi')^{-1}(c/r), eta(r1)=0, eta(r2)=1."""
    _check_radii(np.log(r1), np.log(r2))
    u = np.linspace(np.log(r1), np.log(r2), N_NODES)
    c = solve_normalization_constant(psi, r1, r2)
    ln_ep = _log_deriv_inverse(psi, np.log(c) - u)
    # cumulative trapezoid of eta' dr = e^{ln eta' + u} du reuses the
    # normalization rule, so eta(r2) = 1 to the solver tolerance
    integrand = np.exp(ln_ep + u)
    eta = np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(u))])
    cut = RadialCutoff(kind=PSI_HARMONIC, r1=float(r1), r2=float(r2),
                       ln_r1=float(np.log(r1)), ln_r2=float(np.log(r2)),
                       c=c, ln_r=u, eta_table=eta,
                       ln_eta_prime_table=ln_ep, psi=psi)
    return replace(cut, energy_certificate=cutoff_energy(cut, psi))


def find_inner_radius(psi, r2, delta):
    """Largest dyadic r1 = r2 / 2^k with normalization constant <= delta.

    Only possible when int_0 psi*(1/r) r dr diverges; in the gap regime the
    constant stays bounded away from 0 and the search fails by design.  Near
    the borderline the required r1 can underflow double precision; that is
    reported as a normalization error rather than silently clamped.
    """
    if delta <= 0.0:
        raise RangeError("energy budget delta must be positive")
    if not (0.0 < r2 <= 0.5):
        raise RangeError("outer radius must lie in (0, 1/2]")
    verdict = tail_integral_verdict(conjugate(psi))
    if verdict.status != DIVERGES:
        raise NoRemovableSingularityError(
            f"dual tail integral verdict is {verdict.status}; "
            "a vanishing-energy cutoff requires divergence")
    ln_r2 = np.log(r2)
    ln_delta = np.log(delta)
    k_max = int((ln_r2 - _LN_R_MIN) / np.log(2.0))

    def feasible(k):
        # c(r1, r2) <= delta iff the (increasing-in-c) integral at delta is >= 1
        u = np.linspace(ln_r2 - k * np.log(2.0), ln_r2, N_NODES)
        return _normalization_integral(psi, ln_delta, u) >= 1.0

    if not feasible(k_max):
        raise NormalizationError(
            "required inner radius underflows double precision for this budget")
    # smallest feasible halving count: exponential bracket, then bisection
    hi = 1
    while hi < k_max and not feasible(hi):
        hi = min(2 * hi, k_max)
    lo = hi // 2  # infeasible (or 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return float(np.exp(ln_r2 - hi * np.log(2.0)))


def _loglog_denominator(eps):
    return np.log(1.0 / eps) - np.log(np.log(1.0 / eps))


def _loglog_eta_from_log(ln_r, eps):
    ln_r = np.asarray(ln_r, dtype=np.float64)
    inv = 1.0 / eps
    out = np.empty_like(ln_r)
    low = ln_r <= -inv
    high = ln_r >= np.log(eps)
    mid = ~(low | high)
    out[low] = 0.0
    out[high] = 1.0
    out[mid] = (np.log(inv) - np.log(-ln_r[mid])) / _loglog_denominator(eps)
    return out


def build_loglog_cutoff(eps):
    """Three-branch profile: 0 below e^{-1/eps}, log-log ramp, 1 above eps."""
    if not (0.0 < eps < 0.1):
        raise RangeError("eps must lie in (0, 1/10)")
    ln_r2 = float(np.log(eps))
    ln_r1 = float(-1.0 / eps)
    # nodes equispaced in w = ln ln(1/r), where the ramp is linear
    w = np.linspace(np.log(-ln_r2), np.log(-ln_r1), N_NODES)
    ln_r = -np.exp(w)[::-1]
    eta = _loglog_eta_from_log(ln_r, eps)
    r1 = float(np.exp(ln_r1))  # may underflow to 0; ln_r1 is the reference
    return RadialCutoff(kind=LOGLOG, r1=r1, r2=float(eps),
                        ln_r1=ln_r1, ln_r2=ln_r2, eps=float(eps),
                        ln_r=ln_r, eta_table=eta)


def _log_f(f, ln_t):
    if hasattr(f, "log_eval"):
        return np.asarray(f.log_eval(ln_t))
    with np.errstate(over="ignore"):
        vals = np.asarray(f(np.exp(ln_t)))
    if not np.all(np.isfinite(vals)):
        raise EnergyOverflowError("integrand overflowed in the energy quadrature")
    return np.log(np.maximum(vals, 1e-300))


def cutoff_energy(cutoff, integrand):
    """2 pi int f(|eta'(r)|) r dr; cone-splits a DoublePhase integrand.

    The checkerboard weight is 1 on half of every centered annulus, so for
    Phi(x,t) = phi(t) + a(x) psi(t) the radial energy is the average of the
    a=0 and a=1 integrands, i.e. energy(phi) + energy(psi)/2.
    """
    if isinstance(integrand, DoublePhase):
        return (_scalar_energy(cutoff, integrand.phi)
                + 0.5 * _scalar_energy(cutoff, integrand.psi))
    return _scalar_energy(cutoff, integrand)


def _scalar_energy(cutoff, f):
    if cutoff.kind == PSI_HARMONIC:
        u = cutoff.ln_r
        ln_vals = _log_f(f, cutoff.ln_eta_prime_table) + 2.0 * u
        total = float(np.trapezoid(np.exp(ln_vals), u))
    else:
        eps = cutoff.eps
        inv = 1.0 / eps
        d = _loglog_denominator(eps)
        # u = ln(1/r) in [ln(1/eps), 1/eps]; w = ln u keeps the huge range
        # tractable; eta' = e^u / (u d), integrand f(eta') e^{-2u} u dw
        w = np.linspace(np.log(np.log(inv)), np.log(inv), _ENERGY_NODES)
        uu = np.exp(w)
        q = -(np.log(uu) + np.log(d))  # ln eta' = u + q, |q| small
        if isinstance(f, (LogPower, PurePower)):
            # combine log f(e^{u+q}) - 2u symbolically: the p*u and 2u parts
            # cancel in exact arithmetic but not in floats once u ~ 1/eps
            gamma = getattr(f, "gamma", 0.0)
            ln_term = (np.log(f.scale) + (f.p - 2.0) * uu + f.p * q + w)
            if gamma != 0.0:
                big = uu + q > 40.0
                ln_L = np.empty_like(uu)
                ln_L[big] = np.log(uu[big] + q[big])
                ln_L[~big] = np.log(np.log(np.e + np.exp(uu[~big] + q[~big])))
                ln_term += gamma * ln_L
        else:
            ln_term = _log_f(f, uu + q) - 2.0 * uu + w
        with np.errstate(over="ignore"):
            vals = np.exp(ln_term)
        if not np.all(np.isfinite(vals)):
            raise EnergyOverflowError("integrand overflowed in the energy quadrature")
        total = float(np.trapezoid(vals, w))
    if not np.isfinite(total):
        raise EnergyOverflowError("non-finite cutoff energy")
    return 2.0 * np.pi * total


def euler_lagrange_residual(cutoff):
    """Scale-free max-norm of d/d(ln r) of r psi'(eta'(r)) over interior nodes."""
    if cutoff.kind != PSI_HARMONIC:
        raise DomainError("Euler-Lagrange residual applies to psi-harmonic cutoffs")
    ln_flux = cutoff.ln_r + cutoff.psi.log_deriv(cutoff.ln_eta_prime_table)
    dflux = np.gradient(np.exp(ln_flux - np.log(cutoff.c)), cutoff.ln_r)
    return float(np.max(np.abs(dflux[1:-1])))
