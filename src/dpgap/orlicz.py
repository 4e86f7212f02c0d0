"""N-function algebra: log-power integrands, conjugates, Luxemburg norms.

The working family is ``t^p * log^gamma(e + t)`` (no 1/p prefactor; every
downstream verdict is invariant under positive scalar factors, which is
tested).  For ``gamma < 1 - p`` the raw formula is not convex near the
origin and is replaced below a knot ``t0`` by a quadratic substitute
matching value and slope at the knot; only large-t behaviour matters for
anything built on top.

This module is the only one that knows how an integrand behaves in log
space (``log_eval``, ``log_deriv``) and which conjugate stands for it
(``conjugate``); the classifier and the cutoffs ask the integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import DomainError, NormOverflowError, UnboundedConjugateError

_T_MAX = 1.0e300
# above this argument the integrand is evaluated in log space
_LOG_SWITCH = 1.0e8
_CONJ_BRACKET = (1.0e-12, 1.0e12)

# smallest acceptable slope ratio Phi'(t0) t0 / Phi(t0) at the knot; below 1
# the quadratic substitute would need a negative leading coefficient
_KNOT_MIN_RATIO = 1.05


def _check_arg(t):
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise DomainError("non-finite evaluation argument")
    if np.any(t < 0.0):
        raise DomainError("negative evaluation argument")
    if np.any(t > _T_MAX):
        raise DomainError("argument above 1e300 rejected")
    return t


def _deriv_ratio(f, t, floor=1e-12):
    """Phi'(t)/t with the argument floored to avoid 0/0 in assembly."""
    t = np.maximum(np.asarray(t, dtype=np.float64), floor)
    return f.deriv(t) / t


def _logpower_second_deriv(t, p, gamma, scale):
    L = np.log(np.e + t)
    A = p / t + gamma / ((np.e + t) * L)
    dA = -p / t**2 - gamma * (L + 1.0) / ((np.e + t) * L) ** 2
    return scale * t**p * L**gamma * (A * A + dA)


def _slope_ratio(t, p, gamma):
    # Phi'(t) t / Phi(t) for the raw formula
    return p + gamma * t / ((np.e + t) * np.log(np.e + t))


def _find_knot(p, gamma, scale):
    """Convexification knot and quadratic substitute coefficients.

    Returns (t0, a2, a1); t0 = 0 when the raw formula is already convex.
    """
    if gamma >= 0.0:
        return 0.0, 0.0, 0.0
    grid = np.logspace(-8.0, 10.0, 2400)
    neg = np.where(_logpower_second_deriv(grid, p, gamma, scale) < 0.0)[0]
    if neg.size == 0:
        return 0.0, 0.0, 0.0
    i = neg[-1]
    hi = grid[i + 1] if i + 1 < len(grid) else 2.0 * grid[i]
    # for p near 1 with very negative gamma the sign change sits beyond the
    # grid; extend the bracket until the second derivative turns positive
    while _logpower_second_deriv(hi, p, gamma, scale) < 0.0:
        hi *= 10.0
        if hi > 1e280:  # pragma: no cover
            raise DomainError("convexification knot search failed")
    t0 = brentq(
        lambda t: _logpower_second_deriv(t, p, gamma, scale),
        grid[i], hi, xtol=1e-14, rtol=1e-13,
    )
    # push the knot right until the substitute coefficients are nonnegative
    if _slope_ratio(t0, p, gamma) < _KNOT_MIN_RATIO:
        hi = t0
        while _slope_ratio(hi, p, gamma) < _KNOT_MIN_RATIO:
            hi *= 2.0
            if hi > 1e250:  # pragma: no cover
                raise DomainError("convexification knot search failed")
        t0 = brentq(
            lambda t: _slope_ratio(t, p, gamma) - _KNOT_MIN_RATIO,
            hi / 2.0, hi, xtol=1e-14, rtol=1e-13,
        )
    val = scale * t0**p * math.log(math.e + t0) ** gamma
    r = _slope_ratio(t0, p, gamma)
    a2 = (r - 1.0) * val / t0**2
    a1 = (2.0 - r) * val / t0
    return t0, a2, a1


# The evaluators below take the knot data (t0, a2, a1) of ``_find_knot``: below
# t0 the quadratic substitute a2*t^2 + a1*t is used (a2 and a1 already contain
# ``scale``); t0 = 0 disables it.

def _logpower_eval(t, p, gamma, scale, t0, a2, a1):
    out = np.empty_like(t)
    small = t < t0
    big = t > _LOG_SWITCH
    mid = ~(small | big)

    tm = t[mid]
    out[mid] = scale * tm**p * np.log(np.e + tm) ** gamma

    if np.any(small):
        ts = t[small]
        out[small] = a2 * ts * ts + a1 * ts
    if np.any(big):
        with np.errstate(over="ignore"):
            out[big] = np.exp(_logpower_log_eval(np.log(t[big]), p, gamma, scale))
    return out


def _logpower_deriv(t, p, gamma, scale, t0, a2, a1):
    out = np.empty_like(t)
    small = t < t0
    reg = ~small

    tr = t[reg]
    L = np.log(np.e + tr)
    with np.errstate(over="ignore", invalid="ignore"):
        base = scale * tr ** (p - 1.0) * L ** (gamma - 1.0)
        out[reg] = base * (p * L + gamma * tr / (np.e + tr))
    # t = 0 in the raw branch: derivative limit is 0 for p > 1
    out[reg & (t == 0.0)] = 0.0

    if np.any(small):
        out[small] = 2.0 * a2 * t[small] + a1
    return out


def _logpower_log_eval(ln_t, p, gamma, scale):
    """log of the raw integrand, overflow-safe for huge arguments."""
    ln_t = np.asarray(ln_t, dtype=np.float64)
    big = ln_t > 40.0
    L = np.empty_like(ln_t)
    L[big] = ln_t[big] + np.log1p(np.exp(1.0 - ln_t[big]))
    L[~big] = np.log(np.e + np.exp(ln_t[~big]))
    return np.log(scale) + p * ln_t + gamma * np.log(L)


@dataclass(frozen=True)
class LogPower:
    """Integrand t^p log^gamma(e+t), convexified near 0 when needed."""

    p: float
    gamma: float = 0.0
    scale: float = 1.0
    _knot: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.p > 1.0):
            raise DomainError("LogPower requires p > 1")
        if not (self.scale > 0.0):
            raise DomainError("LogPower requires scale > 0")
        object.__setattr__(self, "_knot", _find_knot(self.p, self.gamma, self.scale))

    @property
    def knot(self):
        return self._knot[0]

    def __call__(self, t):
        t = _check_arg(t)
        t0, a2, a1 = self._knot
        return _logpower_eval(t, self.p, self.gamma, self.scale, t0, a2, a1)

    def deriv(self, t):
        t = _check_arg(t)
        t0, a2, a1 = self._knot
        return _logpower_deriv(t, self.p, self.gamma, self.scale, t0, a2, a1)

    deriv_ratio = _deriv_ratio

    def second_deriv(self, t):
        t = _check_arg(t)
        t0, a2, a1 = self._knot
        t = np.asarray(t, dtype=np.float64)
        # below 1e-8 the raw formula cancels catastrophically (A^2 + dA with
        # A ~ p/t); the clamp keeps the t->0 limit p(p-1)t^{p-2}L^gamma exact
        # to quadrature accuracy for p = 2 and finite elsewhere
        out = _logpower_second_deriv(np.maximum(t, 1e-8), self.p, self.gamma, self.scale)
        return np.where(t < t0, 2.0 * a2, out)

    def log_eval(self, ln_t):
        """log Phi(t) given ln t; raw branch only, for overflow-free tails."""
        return _logpower_log_eval(ln_t, self.p, self.gamma, self.scale)

    def log_deriv(self, ln_t):
        """ln Phi'(e^{ln_t}), stable across the full double exponent range."""
        ln_t = np.atleast_1d(np.asarray(ln_t, dtype=np.float64))
        out = np.empty_like(ln_t)
        mid = np.abs(ln_t) <= 600.0
        d = self.deriv(np.exp(ln_t[mid]))
        # for p > 2.18 deriv under- or overflows inside the band; those points
        # take the asymptote of their side, like every point beyond the band
        tiny, big = ln_t < -600.0, ln_t > 600.0
        tiny[mid], big[mid] = d == 0.0, np.isinf(d)
        ok = (d != 0.0) & ~np.isinf(d)
        mid[mid] = ok
        out[mid] = np.log(d[ok])
        if np.any(big):
            u = ln_t[big]
            # L = log(e + t) ~ ln t; t/(e + t) ~ 1
            out[big] = (np.log(self.scale) + (self.p - 1.0) * u
                        + (self.gamma - 1.0) * np.log(u)
                        + np.log(self.p * u + self.gamma))
        if np.any(tiny):
            t0, _, a1 = self._knot
            if t0 > 0.0:
                out[tiny] = np.log(a1)  # deriv -> a1 below the knot
            else:
                out[tiny] = np.log(self.scale * self.p) + (self.p - 1.0) * ln_t[tiny]
        return out


@dataclass(frozen=True)
class PurePower:
    """c * t^p; the analytic workhorse for closed-form cross-checks."""

    p: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.p > 1.0):
            raise DomainError("PurePower requires p > 1")

    def __call__(self, t):
        t = _check_arg(t)
        with np.errstate(over="ignore"):
            return self.scale * np.asarray(t, dtype=np.float64) ** self.p

    def deriv(self, t):
        t = _check_arg(t)
        return self.scale * self.p * np.asarray(t, dtype=np.float64) ** (self.p - 1.0)

    deriv_ratio = _deriv_ratio

    def second_deriv(self, t):
        t = _check_arg(t)
        return self.scale * self.p * (self.p - 1.0) * np.asarray(t) ** (self.p - 2.0)

    def log_eval(self, ln_t):
        return math.log(self.scale) + self.p * np.asarray(ln_t, dtype=np.float64)

    def log_deriv(self, ln_t):
        """ln Phi'(e^{ln_t}), exact."""
        ln_t = np.atleast_1d(np.asarray(ln_t, dtype=np.float64))
        return np.log(self.scale * self.p) + (self.p - 1.0) * ln_t


class TabulatedConjugate:
    """Numeric conjugate of a base N-function, cached on a log grid.

    512 log-spaced nodes with monotone (PCHIP in log-log) interpolation;
    outside the table the interpolant's own extrapolation is used.
    """

    N_NODES = 512
    S_RANGE = (1.0e-6, 1.0e9)

    def __init__(self, base):
        s = np.logspace(math.log10(self.S_RANGE[0]), math.log10(self.S_RANGE[1]),
                        self.N_NODES)
        vals = np.array([conjugate_numeric(base, si) for si in s])
        pos = vals > 0.0
        self._interp = PchipInterpolator(np.log(s[pos]), np.log(vals[pos]),
                                         extrapolate=True)

    def __call__(self, s):
        s = _check_arg(s)
        s = np.asarray(s, dtype=np.float64)
        out = np.zeros_like(s)
        pos = s > 0.0
        out[pos] = np.exp(self._interp(np.log(s[pos])))
        return out

    def deriv(self, s):
        s = np.asarray(s, dtype=np.float64)
        out = np.zeros_like(s)
        pos = s > 0.0
        ls = np.log(s[pos])
        out[pos] = np.exp(self._interp(ls)) / s[pos] * self._interp.derivative()(ls)
        return out

    deriv_ratio = _deriv_ratio


def conjugate_log_power(p, gamma):
    """Closed-form conjugate exponents: (p, gamma) -> (p', gamma/(1-p)).

    Exact on the exponent parameters (rational arithmetic); the returned
    descriptor is an equivalence-class representative, valid up to a
    multiplicative growth constant.
    """
    if not p > 1.0:
        raise DomainError("conjugate_log_power requires p > 1")
    fp = Fraction(p).limit_denominator(10**12)
    fg = Fraction(gamma).limit_denominator(10**12)
    q = fp / (fp - 1)
    gq = fg / (1 - fp)
    return LogPower(float(q), float(gq))


def conjugate(f):
    """The conjugate that stands for f*: the closed-form growth-class
    representative for a LogPower, the exact conjugate for a PurePower, and
    a numeric table for anything else."""
    if isinstance(f, LogPower):
        return conjugate_log_power(f.p, f.gamma)
    if isinstance(f, PurePower):
        q = f.p / (f.p - 1.0)
        cq = (f.p - 1.0) / f.p * (f.scale * f.p) ** (1.0 / (1.0 - f.p))
        return PurePower(q, cq)
    return TabulatedConjugate(f)


def conjugate_numeric(f, s):
    """Legendre-Fenchel conjugate sup_t (s t - f(t)) of a convex N-function.

    Locates the stationary point f'(t) = s by bisection on a log bracket.
    """
    s = float(s)
    if not math.isfinite(s) or s < 0.0:
        raise DomainError("conjugate argument must be finite and nonnegative")
    if s == 0.0:
        return 0.0
    lo, hi = _CONJ_BRACKET
    dlo = float(f.deriv(lo))
    dhi = float(f.deriv(hi))
    if dhi < s:
        raise UnboundedConjugateError(
            f"f' never reaches {s} on [{lo}, {hi}]")
    if dlo >= s:
        # supremum attained at (numerical) zero
        return max(0.0, s * lo - float(f(lo)))
    t_star = brentq(lambda t: float(f.deriv(t)) - s, lo, hi,
                    xtol=1e-300, rtol=1e-12, maxiter=200)
    return s * t_star - float(f(t_star))


def luxemburg_norm(values, weights, f):
    """inf{gamma > 0 : sum_i w_i f(|v_i| / gamma) <= 1} by bisection."""
    values = np.abs(np.asarray(values, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights <= 0.0):
        raise DomainError("quadrature weights must be positive")
    if not np.any(values > 0.0):
        return 0.0

    def modular(g):
        with np.errstate(over="ignore"):
            return np.sum(weights * np.asarray(f(values / g)))

    lo = hi = 1.0
    while not (modular(hi) <= 1.0):
        hi *= 4.0
        if hi > 1.0e12:
            raise NormOverflowError("modular exceeds 1 for every gamma up to 1e12")
    while modular(lo) <= 1.0 and lo > 1.0e-14:
        lo /= 4.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if modular(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-10 * hi:
            break
    return hi


@dataclass(frozen=True)
class DoublePhase:
    """Phi(x, t) = phi(t) + a(x) psi(t); the weight a is the mesh phase."""

    phi: object
    psi: object


def double_phase_log(alpha, beta, p=2.0, scale=1.0):
    """The borderline checkerboard pair: phi = t^p log^{-beta}, psi = t^p log^{alpha}."""
    return DoublePhase(phi=LogPower(p, -beta, scale), psi=LogPower(p, alpha, scale))
