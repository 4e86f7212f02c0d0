"""Singularity-removing radial cutoffs and their energy certificates.

Two families: the explicit log-log profile on [e^{-1/eps}, eps], and the
psi-harmonic profile eta'(r) = (psi')^{-1}(c/r) on [r1, r2] with c chosen so
that eta(r2) = 1.  The psi-harmonic profile is the minimizer of
int psi(|grad eta|) among radial transitions, so the radial Euler-Lagrange
identity (r psi'(eta'))' = 0 holds along it; we build eta' from the true
inverse of psi' (not a growth-equivalent conjugate) precisely so that this
identity is satisfied to solver precision.

The psi-harmonic builders take a ``LogPower`` psi (a ``PurePower`` is one):
the inverse is ``orlicz.log_deriv_inverse``, a safeguarded Newton iteration
on ln psi' as a function of ln t.  The dual tail of ``find_inner_radius`` is
the closed-form ``tail_status`` of psi*'s exponents, which
``orlicz.conjugate_exponents`` maps from psi's; no psi* is built.  Energies
take a ``LogPower`` or a ``DoublePhase`` of them and read the integrand
through its ``log_eval(ln_t, k)``.

Inner radii and slopes routinely leave double-precision range (r1 = e^{-1/eps}
for the log-log family, eta' ~ c/r near a borderline inner radius), so all
tables, inversions and quadratures live in log coordinates; profiles expose
``eta_at_log`` alongside the plain callables.  A profile's ln eta' exists
only as ``ln_eta_prime_table`` on its nodes ``ln_r``, filled by the builder:
the psi-harmonic one from the inverse above, the log-log one in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .classifier import DIVERGES, tail_status
from .errors import (DomainError, EnergyOverflowError,
                     NoRemovableSingularityError, NormalizationError,
                     RangeError)
from .orlicz import (DoublePhase, _brent_root, _check_integrand, conjugate_exponents,
                     log_deriv_inverse)

LOGLOG = "LogLog"
PSI_HARMONIC = "PsiHarmonic"

N_NODES = 4096
_ENERGY_NODES = 16384
_MAX_BRACKET_EXPANSIONS = 400
# inner radii below e^{-700} underflow double precision
_LN_R_MIN = -700.0


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
        # NaN goes on to eta_at_log, which returns NaN for it
        pos = ~(r <= 0.0)
        with np.errstate(divide="ignore"):
            out[pos] = self.eta_at_log(np.log(r[pos]))
        return out[()]

    def profile_table(self):
        """Columns (r, eta, eta_prime, ln_r); extreme entries saturate to 0/inf."""
        with np.errstate(over="ignore"):
            r = np.exp(self.ln_r)
            ep = np.exp(self.ln_eta_prime_table)
        return np.column_stack([r, self.eta_table, ep, self.ln_r])


def _log_radii(r1, r2):
    """(ln r1, ln r2); NaN fails the first test, so no log sees r <= 0."""
    if not (0.0 < r1 < r2 <= 0.5 and _LN_R_MIN <= np.log(r1) < np.log(r2)):
        raise RangeError("radii must satisfy 0 < r1 < r2 <= 1/2 "
                         "within double-precision range")
    return np.log(r1), np.log(r2)


def _normalization_integral(psi, ln_c, u_grid):
    # int_{r1}^{r2} (psi')^{-1}(c/rho) drho, evaluated as exp(ln t + u) in u = ln rho;
    # an overflow to inf only means the integral is far above 1
    ln_t = log_deriv_inverse(psi, ln_c - u_grid)
    with np.errstate(over="ignore"):
        return float(np.trapezoid(np.exp(ln_t + u_grid), u_grid))


def solve_normalization_constant(psi, r1, r2):
    """The unique c > 0 with int_{r1}^{r2} (psi')^{-1}(c/rho) drho = 1."""
    _check_integrand(psi, "solve_normalization_constant")
    u_grid = np.linspace(*_log_radii(r1, r2), N_NODES)

    def gap(ln_c):
        return _normalization_integral(psi, ln_c, u_grid) - 1.0

    lo = hi = 0.0
    g = gap(0.0)
    if g < 0.0 or g > 0.0:
        # step ln c by ln 2 up from gap < 0, or down from gap > 0, to a sign change
        step = np.log(2.0) if g < 0.0 else -np.log(2.0)
        x = 0.0
        for _ in range(_MAX_BRACKET_EXPANSIONS):
            x += step
            if step * gap(x) >= 0.0:
                break
        else:
            side = "upper" if step > 0.0 else "lower"
            raise NormalizationError(f"no {side} bracket for the normalization constant")
        lo, hi = sorted((x, x - step))
    ln_c = _brent_root(gap, lo, hi, xtol=1e-15, rtol=8.9e-16)
    if abs(gap(ln_c)) > 1e-8:
        raise NormalizationError("normalization residual above tolerance")
    return float(np.exp(ln_c))


def build_psi_harmonic_cutoff(psi, r1, r2):
    """Radial cutoff with eta'(r) = (psi')^{-1}(c/r), eta(r1)=0, eta(r2)=1."""
    ln_r1, ln_r2 = _log_radii(r1, r2)
    u = np.linspace(ln_r1, ln_r2, N_NODES)
    c = solve_normalization_constant(psi, r1, r2)
    ln_ep = log_deriv_inverse(psi, np.log(c) - u)
    # cumulative trapezoid of eta' dr = e^{ln eta' + u} du reuses the
    # normalization rule, so eta(r2) = 1 to the solver tolerance
    integrand = np.exp(ln_ep + u)
    eta = np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(u))])
    cut = RadialCutoff(kind=PSI_HARMONIC, r1=float(r1), r2=float(r2),
                       ln_r1=float(ln_r1), ln_r2=float(ln_r2),
                       c=c, ln_r=u, eta_table=eta,
                       ln_eta_prime_table=ln_ep, psi=psi)
    return replace(cut, energy_certificate=cutoff_energy(cut, psi))


def find_inner_radius(psi, r2, delta):
    """Largest dyadic r1 = r2 / 2^k with normalization constant <= delta.

    Only possible when int_0 psi*(1/r) r dr diverges (``tail_status`` of
    ``conjugate_exponents(psi.p, psi.gamma)``); in the gap regime the
    constant stays bounded away from 0 and the search fails by design.  Near the borderline the required
    r1 can underflow double precision; that is reported as a normalization
    error rather than silently clamped.
    """
    if not (0.0 < delta < np.inf):
        raise RangeError("energy budget delta must be positive and finite")
    if not (0.0 < r2 <= 0.5):
        raise RangeError("outer radius must lie in (0, 1/2]")
    _check_integrand(psi, "find_inner_radius")
    status, _ = tail_status(*conjugate_exponents(psi.p, psi.gamma))
    if status != DIVERGES:
        raise NoRemovableSingularityError(
            f"dual tail integral verdict is {status}; "
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


def _loglog_ln_eta_prime_from_log(ln_r, eps):
    # ln eta'(r) = ln(1/r) - ln ln(1/r) - ln d on the ramp, -inf off it
    out = np.full_like(ln_r, -np.inf)
    inside = (ln_r > -1.0 / eps) & (ln_r < np.log(eps))
    out[inside] = -ln_r[inside] - np.log(-ln_r[inside]) - np.log(_loglog_denominator(eps))
    return out


def build_loglog_cutoff(eps):
    """Three-branch profile: 0 below e^{-1/eps}, log-log ramp, 1 above eps."""
    # below about 5.6e-309, ln r1 = -1/eps overflows
    if not (0.0 < eps < 0.1 and 1.0 / eps < np.inf):
        raise RangeError("eps must lie in (0, 1/10), with 1/eps finite")
    ln_r2 = float(np.log(eps))
    ln_r1 = float(-1.0 / eps)
    # nodes equispaced in w = ln ln(1/r), where the ramp is linear
    w = np.linspace(np.log(-ln_r2), np.log(-ln_r1), N_NODES)
    ln_r = -np.exp(w)[::-1]
    r1 = float(np.exp(ln_r1))  # may underflow to 0; ln_r1 is the reference
    return RadialCutoff(kind=LOGLOG, r1=r1, r2=float(eps),
                        ln_r1=ln_r1, ln_r2=ln_r2, eps=float(eps),
                        ln_r=ln_r, eta_table=_loglog_eta_from_log(ln_r, eps),
                        ln_eta_prime_table=_loglog_ln_eta_prime_from_log(ln_r, eps))


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
    _check_integrand(f, "cutoff_energy")
    if not isinstance(cutoff, RadialCutoff):
        raise DomainError(f"cutoff_energy takes a RadialCutoff, not {type(cutoff).__name__}")
    # a huge exponent overflows log_eval itself (to inf, or to NaN from
    # inf - inf); the finiteness check below rejects both
    with np.errstate(over="ignore", invalid="ignore"):
        if cutoff.kind == PSI_HARMONIC:
            x = cutoff.ln_r
            ln_vals = f.log_eval(cutoff.ln_eta_prime_table) + 2.0 * x
        else:
            d = _loglog_denominator(cutoff.eps)
            # u = ln(1/r) in [ln(1/eps), 1/eps]; x = ln u keeps the huge range
            # tractable; eta' = e^(u + q) = e^u / (u d) and the integrand is
            # f(eta') e^{-2u} u dx = (f(eta') / eta'^2) e^{2q} u dx, with
            # f / eta'^2 taken inside log_eval: ln eta' reaches 1/eps, where
            # subtracting 2 ln eta' from ln f(eta') would cancel every bit
            x = np.linspace(np.log(np.log(1.0 / cutoff.eps)), np.log(1.0 / cutoff.eps),
                            _ENERGY_NODES)
            uu = np.exp(x)
            q = -(np.log(uu) + np.log(d))
            ln_vals = f.log_eval(uu + q, 2.0) + 2.0 * q + x
        vals = np.exp(ln_vals)
    if not np.all(np.isfinite(vals)):
        raise EnergyOverflowError("integrand overflowed in the energy quadrature")
    total = float(np.trapezoid(vals, x))
    if not np.isfinite(total):
        raise EnergyOverflowError("non-finite cutoff energy")
    return 2.0 * np.pi * total


def euler_lagrange_residual(cutoff):
    """Scale-free max-norm of d/d(ln r) of r psi'(eta'(r)) over interior nodes."""
    if not isinstance(cutoff, RadialCutoff) or cutoff.kind != PSI_HARMONIC:
        raise DomainError("Euler-Lagrange residual applies to psi-harmonic cutoffs")
    ln_flux = cutoff.ln_r + cutoff.psi.log_deriv_with_slope(cutoff.ln_eta_prime_table)[0]
    dflux = np.gradient(np.exp(ln_flux - np.log(cutoff.c)), cutoff.ln_r)
    return float(np.max(np.abs(dflux[1:-1])))
