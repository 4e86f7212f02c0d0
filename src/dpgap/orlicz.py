"""N-function algebra: log-power integrands, conjugates, Luxemburg norms.

The working family is ``t^p * log^gamma(e + t)``, with no 1/p prefactor or
other factor: every verdict built on it depends on (p, gamma) alone.  For
``gamma < 1 - p`` the raw formula is not convex near the origin and is
replaced below a knot ``t0`` by a quadratic substitute matching value and
slope at the knot; only large-t behaviour matters for anything built on top.

The integrand is ``LogPower``, and ``PurePower`` (t^p) is its gamma = 0
member: log^0 = 1 and there is no knot.  This module is the only one that
knows how the integrand behaves in log space (``log_eval``, and
``log_deriv_with_slope``, the one evaluator of ln Phi', which returns it
with its slope d ln Phi' / d ln t) and which closed-form conjugate stands
for its growth class (``conjugate_exponents``, and ``conjugate_log_power``
built from them).
Every quantity goes through one rule, ``_split_at_knot``: the substitute
below the knot, in t for the value and its two derivatives and in ln t for
the log-space ones.
``log_eval(ln_t, k)`` is ln(Phi(t) / t^k); the integrand and its two
derivatives are taken from log space wherever their direct formulas leave
the double range, and the integrand also above 1e8.  ``log_deriv_inverse``
is the one inverse of Phi': a safeguarded Newton iteration in ln t that
evaluates ``log_deriv_with_slope`` once per iterate.  The psi-harmonic
cutoffs and ``conjugate_numeric`` both go through it.  ``luxemburg_norm``
finds the modular's threshold by false position in (ln gamma, ln M).
The scalar root solves, the convexification knot here and the cutoffs'
normalization constant, go through ``_brent_root``: Brent's method, ported
from SciPy's ``brentq`` so that it returns the same roots bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, NormOverflowError, NumericalError, UnboundedConjugateError

_T_MAX = 1.0e300
# above this argument the integrand is evaluated in log space
_LOG_SWITCH = 1.0e8
# above this argument the second derivative is evaluated in log space
_D2_LOG_SWITCH = 1.0e150
_CONJ_BRACKET = (1.0e-12, 1.0e12)

# smallest acceptable slope ratio Phi'(t0) t0 / Phi(t0) at the knot; below 1
# the quadratic substitute would need a negative leading coefficient
_KNOT_MIN_RATIO = 1.05
# Brent's method stops after this many iterations and takes no relative
# tolerance below 4 ulp
_BRENT_MAXITER = 100
_BRENT_RTOL_MIN = 4.0 * np.finfo(np.float64).eps


def _check_arg(t):
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise DomainError("non-finite evaluation argument")
    if np.any(t < 0.0):
        raise DomainError("negative evaluation argument")
    if np.any(t > _T_MAX):
        raise DomainError("argument above 1e300 rejected")
    return t


def _logpower_second_deriv(t, p, gamma):
    L = np.log(np.e + t)
    A = p / t + gamma / ((np.e + t) * L)
    dA = -p / t**2 - gamma * (L + 1.0) / ((np.e + t) * L) ** 2
    return t**p * L**gamma * (A * A + dA)


def _slope_ratio(t, p, gamma):
    # Phi'(t) t / Phi(t) for the raw formula
    return p + gamma * t / ((np.e + t) * np.log(np.e + t))


def _brent_root(f, a, b, xtol, rtol):
    """A root of f on [a, b], where f changes sign, by Brent's method
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973).

    This is SciPy's ``brentq`` with maxiter 100, step for step in double
    arithmetic, so it returns the same root to the last bit.  f is called
    with Python floats, so float overflow in f raises OverflowError rather
    than warning.  Raises NumericalError for a tolerance that is too small, a
    NaN value of f, no sign change on [a, b], or no convergence in 100
    iterations.
    """
    if xtol <= 0:
        raise NumericalError(f"root finder: xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL_MIN:
        raise NumericalError(f"root finder: rtol too small ({rtol:g} < {_BRENT_RTOL_MIN:g})")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericalError(f"root finder: the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NumericalError("root finder: f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.nan  # bisect unless an interpolation step is short enough
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # in C the step is inf or NaN and fails the test below
        # min(b, a) is C's MIN(a, b) = a < b ? a : b, also where a or b is NaN
        if 2 * abs(stry) < min(3 * abs(sbis) - delta, abs(spre)):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NumericalError(f"root finder: no convergence in {_BRENT_MAXITER} iterations, "
                         f"value is {xcur}")


def _knot_search(p, gamma):
    """Convexification knot and quadratic substitute coefficients.

    Returns (t0, a2, a1); t0 = 0 when the raw formula is already convex.
    Raises DomainError when the sign change of Phi'' lies beyond the range
    where Phi'' can be evaluated.
    """
    if gamma >= 0.0:
        return 0.0, 0.0, 0.0
    try:
        grid = np.logspace(-8.0, 10.0, 2400)
        # Phi'' overflowing to inf or NaN (huge p, or t past 1e154) fails the
        # sign tests
        with np.errstate(all="ignore"):
            neg = np.where(_logpower_second_deriv(grid, p, gamma) < 0.0)[0]
            if neg.size == 0:
                return 0.0, 0.0, 0.0
            i = neg[-1]
            hi = grid[i + 1] if i + 1 < len(grid) else 2.0 * grid[i]
            # for p near 1 with very negative gamma the sign change sits beyond
            # the grid; extend the bracket until the second derivative turns
            # positive
            while _logpower_second_deriv(hi, p, gamma) < 0.0:
                hi *= 10.0
                if hi > 1e280:  # pragma: no cover
                    raise DomainError("convexification knot search failed")
        t0 = _brent_root(
            lambda t: _logpower_second_deriv(t, p, gamma),
            grid[i], hi, xtol=1e-14, rtol=1e-13,
        )
        # push the knot right until the substitute coefficients are nonnegative
        if _slope_ratio(t0, p, gamma) < _KNOT_MIN_RATIO:
            hi = t0
            while _slope_ratio(hi, p, gamma) < _KNOT_MIN_RATIO:
                hi *= 2.0
                if hi > 1e250:  # pragma: no cover
                    raise DomainError("convexification knot search failed")
            t0 = _brent_root(
                lambda t: _slope_ratio(t, p, gamma) - _KNOT_MIN_RATIO,
                hi / 2.0, hi, xtol=1e-14, rtol=1e-13,
            )
        val = t0**p * math.log(math.e + t0) ** gamma
        r = _slope_ratio(t0, p, gamma)
        a2 = (r - 1.0) * val / t0**2
        a1 = (2.0 - r) * val / t0
    except OverflowError as exc:
        # _brent_root calls Phi'' with Python floats, so its t**2 raises where
        # the sign change sits past t ~ 1e154, e.g. p = 1 + 1e-7, gamma = -2
        raise DomainError("convexification knot search failed") from exc
    return t0, a2, a1


def _split_at_knot(x, x_knot, raw, substitute):
    """raw(x) at and above the knot and substitute(x) below it, computed
    quietly.  x is t or ln t and x_knot the knot in the same variable: t0 = 0
    or ln t0 = -inf where there is none.  raw and substitute return an array
    of x's shape, or a pair of them, which comes back as one array of shape
    (2,) + x.shape."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(all="ignore"):
        if x_knot == -math.inf or not (small := x < x_knot).any():
            return np.asarray(raw(x))
        if small.all():
            return np.asarray(substitute(x))
        above = np.asarray(raw(x[~small]))
        out = np.empty(above.shape[:-1] + x.shape)
        out[..., ~small] = above
        out[..., small] = substitute(x[small])
    return out


def _fill_from_log(out, t, where, log_value):
    # out[where] = exp(log_value(ln t)): inf on overflow, 0 on underflow
    if where.any():
        with np.errstate(over="ignore"):
            out[where] = np.exp(log_value(np.log(t[where])))
    return out


@dataclass(frozen=True)
class LogPower:
    """Integrand t^p log^gamma(e+t), convexified near 0 when needed: below
    the knot t0 it is a2 t^2 + a1 t."""

    p: float
    gamma: float = 0.0
    _knot: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        name = type(self).__name__
        if not (1.0 < self.p < math.inf):
            raise DomainError(f"{name} requires a finite p > 1")
        if not math.isfinite(self.gamma):
            raise DomainError(f"{name} requires a finite gamma")
        object.__setattr__(self, "_knot", _knot_search(self.p, self.gamma))

    @property
    def knot(self):
        return self._knot[0]

    @property
    def _ln_knot(self):
        return math.log(self.knot) if self.knot > 0.0 else -math.inf

    def __call__(self, t):
        t = _check_arg(t)
        p, gamma = self.p, self.gamma
        t0, a2, a1 = self._knot
        out = _split_at_knot(t, t0, lambda x: x**p * np.log(np.e + x) ** gamma,
                             lambda x: a2 * x * x + a1 * x)
        # above 1e8, on either side of the knot, and where the direct formula
        # leaves the double range (0 * inf is NaN) the value is exp(log_eval)
        return _fill_from_log(out, t, (t > _LOG_SWITCH) | ~np.isfinite(out), self.log_eval)

    def deriv(self, t):
        t = _check_arg(t)
        p, gamma = self.p, self.gamma
        t0, a2, a1 = self._knot

        def raw(x):
            L = np.log(np.e + x)
            return x ** (p - 1.0) * L ** (gamma - 1.0) * (p * L + gamma * x / (np.e + x))

        out = _split_at_knot(t, t0, raw, lambda x: 2.0 * a2 * x + a1)
        # where t^(p-1) overflows, or underflows while L^(gamma-1) overflows
        # (0 * inf is NaN), the derivative is exp(ln Phi')
        return _fill_from_log(out, t, ~np.isfinite(out),
                              lambda x: self.log_deriv_with_slope(x)[0])

    def deriv_ratio(self, t, floor):
        """Phi'(t)/t with the argument floored to avoid 0/0 in assembly."""
        t = np.maximum(np.asarray(t, dtype=np.float64), floor)
        return self.deriv(t) / t

    def second_deriv(self, t):
        # below 1e-8 the raw formula cancels catastrophically (A^2 + dA with
        # A ~ p/t); the clamp keeps the t->0 limit p(p-1)t^{p-2}L^gamma exact
        # to quadrature accuracy for p = 2 and finite elsewhere
        p, gamma = self.p, self.gamma
        t0, a2, _ = self._knot

        def raw(x):
            x = np.asarray(np.maximum(x, 1e-8))
            out = np.asarray(_logpower_second_deriv(x, p, gamma))
            # above 1e150, where A^2 leaves the normal range, and where the
            # formula is not finite (t^p overflows, or 0 * inf), Phi'' is
            # (Phi / t^2)(r^2 + t^2 A') with r = t A, both factors O(1)
            far = (x > _D2_LOG_SWITCH) | ~np.isfinite(out)
            if far.any():
                xf = x[far]
                L = np.log(np.e + xf)
                r = _slope_ratio(xf, p, gamma)
                t2_dA = -p - gamma * (L + 1.0) * (xf / ((np.e + xf) * L)) ** 2
                out[far] = np.exp(self.log_eval(np.log(xf), 2.0)) * (r * r + t2_dA)
            return out

        return _split_at_knot(_check_arg(t), t0, raw, lambda x: np.full_like(x, 2.0 * a2))

    # In log space L = ln(e + t) is np.logaddexp(1, ln t), finite for every
    # finite ln t, so these need no overflow switch.

    def log_eval(self, ln_t, k=0.0):
        """ln(Phi(t) / t^k) given ln t.

        Dividing by t^k here keeps (p - k) ln t exact where ln t is huge;
        subtracting k ln t from ln Phi(t) there would cancel every bit.
        """
        p, gamma = self.p, self.gamma
        _, a2, a1 = self._knot
        return _split_at_knot(
            ln_t, self._ln_knot,
            lambda x: (p - k) * x + gamma * np.log(np.logaddexp(1.0, x)),
            lambda x: (1.0 - k) * x + np.log(a1 + a2 * np.exp(x)))[()]

    def log_deriv_with_slope(self, ln_t):
        """(ln Phi', d ln Phi' / d ln t) at ln_t, as an array of shape
        (2,) + ln_t's shape; a caller that needs only ln Phi' reads [0]."""
        p, gamma = self.p, self.gamma
        _, a2, a1 = self._knot

        def raw(x):
            # Phi' = t^{p-1} L^{gamma-1} d with L = ln(e + t), d = p L + gamma w
            # and w = t / (e + t), the derivative of L in ln t
            L = np.logaddexp(1.0, x)
            w = np.exp(x - L)
            d = p * L + gamma * w
            return ((p - 1.0) * x + (gamma - 1.0) * np.log(L) + np.log(d),
                    (p - 1.0) + (gamma - 1.0) * w / L + w * (p + gamma * (1.0 - w)) / d)

        def substitute(x):
            # Phi' = a1 + q with q = 2 a2 t; the slope underflows to 0 far
            # below the knot, where ln Phi' flattens to ln a1
            q = 2.0 * a2 * np.exp(x)
            return np.log(a1 + q), q / (a1 + q)

        return _split_at_knot(ln_t, self._ln_knot, raw, substitute)


@dataclass(frozen=True)
class PurePower(LogPower):
    """t^p, the gamma = 0 ``LogPower``: the analytic workhorse for
    closed-form cross-checks."""

    gamma: float = field(default=0.0, init=False)


def log_deriv_inverse(f, ln_s):
    """ln t with ln f'(t) = ln_s, elementwise, for an integrand with
    ``log_deriv_with_slope``.

    The bracket starts at [min(ln s, 4 ln s) - 100, max(ln s, 4 ln s) + 100]
    in ln t and doubles its span past an end that does not hold the root, at
    most 12 times; where no root exists (ln s below ln f'(0+) of a knotted f)
    the result is the far end of that bracket.  Each doubling evaluates
    ln f' only at the ends it moved.
    """
    ln_s = np.asarray(ln_s, dtype=np.float64)
    flat = ln_s.ravel()
    lo = np.minimum(flat, 4.0 * flat) - 100.0
    hi = np.maximum(flat, 4.0 * flat) + 100.0
    g_lo = f.log_deriv_with_slope(lo)[0] - flat
    g_hi = f.log_deriv_with_slope(hi)[0] - flat
    for doubling in range(12):
        bad_lo = np.flatnonzero(g_lo > 0.0)
        bad_hi = np.flatnonzero(g_hi < 0.0)
        if bad_lo.size == 0 and bad_hi.size == 0:
            break
        span = hi - lo
        lo[bad_lo] -= span[bad_lo]
        hi[bad_hi] += span[bad_hi]
        # after the last doubling the moved ends keep their old g, so those
        # entries start from the bracket's midpoint
        if doubling < 11:
            for end, g, bad in ((lo, g_lo, bad_lo), (hi, g_hi, bad_hi)):
                if bad.size:
                    g[bad] = f.log_deriv_with_slope(end[bad])[0] - flat[bad]
    return _newton_in_log(f, flat, lo, hi, g_lo, g_hi).reshape(ln_s.shape)[()]


# bisection alone meets the stopping rule within about 70 steps from any
# bracket that log_deriv_inverse or conjugate_numeric builds
_NEWTON_MAX_STEPS = 200
# the Newton step divides by at least this slope, so it stays finite; a slope
# that underflowed to 0 below a knot sends it out of the bracket
_MIN_SLOPE = 1e-200
# from this iterate on, one whose |g| has not halved since the last is followed
# by the midpoint, which breaks 2-cycles of Newton steps inside the bracket
_PROGRESS_CHECK_FROM = 30


def _newton_in_log(f, ln_s, lo, hi, g_lo, g_hi):
    """Safeguarded Newton on g(x) = ln f'(e^x) - ln s over brackets [lo, hi].

    All arguments are 1-d arrays of one length, and none is written to.  g_lo
    and g_hi are g at the ends: where they change sign the first iterate is
    the secant point, elsewhere the midpoint.  Each iterate takes ln f' and
    its slope from one call of ``log_deriv_with_slope``, whose value the
    callers also read for g at the ends, and narrows its bracket; the next
    iterate is its Newton step if that lies strictly inside and the
    bracket's midpoint otherwise, or where |g| has not halved since the last
    iterate from the ``_PROGRESS_CHECK_FROM``-th on.  An entry stops once |g|
    is within 2 ulp of max(1, |ln s|), or when its next iterate would not
    move; from then on the iteration runs on the entries still going.
    """
    straddle = (g_lo < 0.0) & (g_hi > 0.0)
    frac = np.divide(g_lo, g_lo - g_hi, out=np.full_like(lo, 0.5), where=straddle)
    x = lo + frac * (hi - lo)
    tol = 2.0 * np.spacing(np.maximum(1.0, np.abs(ln_s)))
    out = np.empty_like(x)
    active = np.arange(x.size)
    last = np.full_like(x, math.inf)  # g at the previous iterate
    for k in range(_NEWTON_MAX_STEPS):
        if active.size == 0:
            break
        value, slope = f.log_deriv_with_slope(x)
        g = value - ln_s
        above = g > 0.0
        lo = np.where(above, lo, x)
        hi = np.where(above, x, hi)
        x_next = x - g / np.maximum(slope, _MIN_SLOPE)
        newton = (lo < x_next) & (x_next < hi)
        if k >= _PROGRESS_CHECK_FROM:
            newton &= np.abs(g) <= 0.5 * np.abs(last)
        x_next = np.where(newton, x_next, 0.5 * (lo + hi))
        going = (np.abs(g) > tol) & (x_next != x)
        last = g
        if not going.all():
            out[active[~going]] = x[~going]
            active, x_next, lo, hi, ln_s, tol, last = (
                v[going] for v in (active, x_next, lo, hi, ln_s, tol, last))
        x = x_next
    out[active] = x
    return out


def conjugate_exponents(p, gamma):
    """Closed-form conjugate exponents: (p, gamma) -> (p/(p-1), gamma/(1-p)).

    Rational arithmetic on each parameter's nearest fraction with denominator
    <= 10^12 where it rounds back to the parameter (1.1 is 11/10), else on its
    binary value; the pair is that of a growth-class representative.
    """
    if not (1.0 < p < math.inf):
        raise DomainError("conjugate_exponents requires a finite p > 1")
    if not math.isfinite(gamma):
        raise DomainError("conjugate_exponents requires a finite gamma")
    fp, fg = (f if float(f := Fraction(x).limit_denominator(10**12)) == x else Fraction(x)
              for x in (p, gamma))
    try:
        return float(fp / (fp - 1)), float(fg / (1 - fp))
    except OverflowError as exc:
        raise DomainError("conjugate exponent gamma/(1-p) overflows") from exc


def conjugate_log_power(p, gamma):
    """The ``LogPower`` with ``conjugate_exponents(p, gamma)``."""
    return LogPower(*conjugate_exponents(p, gamma))


def _check_integrand(f, caller):
    if not isinstance(f, LogPower):
        raise DomainError(f"{caller} takes a LogPower or a PurePower, "
                          f"not {type(f).__name__}")


def conjugate_numeric(f, s):
    """Legendre-Fenchel conjugate sup_t (s t - f(t)) of a ``LogPower`` f,
    elementwise in s; a scalar s gives a float.

    The supremum is s t* - f(t*) at the t* in [1e-12, 1e12] with f'(t*) = s,
    found by the Newton iteration of ``log_deriv_inverse`` on that bracket.
    Where f'(1e-12) >= s it is the endpoint value max(0, s 1e-12 - f(1e-12));
    an s above f'(1e12) raises ``UnboundedConjugateError``.
    """
    _check_integrand(f, "conjugate_numeric")
    s = np.asarray(s, dtype=np.float64)
    if not np.all((s >= 0.0) & (s < math.inf)):
        raise DomainError("conjugate argument must be finite and nonnegative")
    lo, hi = _CONJ_BRACKET
    flat = s.ravel()
    pos = flat > 0.0
    # g_lo, g_hi: ln f' - ln s at the ends of the bracket
    ln_s = np.log(flat, out=np.full_like(flat, -math.inf), where=pos)
    g_lo, g_hi = (v - ln_s for v in f.log_deriv_with_slope(np.log(_CONJ_BRACKET))[0])
    if np.any(g_hi < 0.0):
        raise UnboundedConjugateError(
            f"f' never reaches {flat[g_hi < 0.0][0]} on [{lo}, {hi}]")
    inner = pos & (g_lo < 0.0)
    n = np.count_nonzero(inner)
    t_star = np.exp(_newton_in_log(f, ln_s[inner], np.full(n, math.log(lo)),
                                   np.full(n, math.log(hi)), g_lo[inner], g_hi[inner]))
    out = np.zeros_like(flat)
    out[inner] = flat[inner] * t_star - f(t_star)
    # elsewhere the supremum is attained at (numerical) zero
    edge = pos & ~inner
    if np.any(edge):
        out[edge] = np.maximum(0.0, flat[edge] * lo - float(f(lo)))
    return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)


# a probe this close to a bracket end in ln gamma moves this far inside, so
# the bracket closes from both sides to its 1e-10 relative width
_NORM_TOL_STEP = 0.4e-10


def luxemburg_norm(values, weights, f):
    """inf{gamma > 0 : sum_i w_i f(|v_i| / gamma) <= 1}, to 1e-10 relative.

    The bracket starts at max |v_i| and moves by factors of 4 until the
    modular M crosses 1 inside it.  Illinois false position on
    (ln gamma, ln M), where ln M is nearly linear, then closes it; a probe
    within ``_NORM_TOL_STEP`` of an end is moved that far inside.  Returns hi
    with M(hi) <= 1 < M(lo) and hi - lo <= 1e-10 hi; a subnormal norm stops
    where no double lies between lo and hi any more.  Raises
    ``NormOverflowError`` for a norm past the largest double, and
    ``NumericalError`` for one below max |v_i| / 1e300, and where rounding in
    log^gamma(e + t) could put the exact threshold more than another 1e-10
    away (checked from |gamma| about 2.3e5 on).
    """
    _check_integrand(f, "luxemburg_norm")
    values = np.abs(np.asarray(values, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != values.shape:
        raise DomainError("values and quadrature weights must have the same shape")
    if not np.all((weights > 0.0) & (weights < math.inf)):
        raise DomainError("quadrature weights must be finite and positive")
    if not np.all(values < math.inf):
        raise DomainError("field values must be finite")
    if not np.any(values > 0.0):
        return 0.0

    def modular(g):
        with np.errstate(over="ignore"):
            return float(np.sum(weights * np.asarray(f(values / g))))

    lo = hi = v_max = float(np.max(values))
    m_lo = m_hi = modular(hi)
    while not m_hi <= 1.0:
        lo, m_lo = hi, m_hi
        hi *= 4.0
        if hi == math.inf:
            raise NormOverflowError("modular exceeds 1 for every gamma up to the "
                                    "largest double")
        m_hi = modular(hi)
    while m_lo <= 1.0:
        hi, m_hi = lo, m_lo
        lo /= 4.0
        # the integrand takes no argument above 1e300 (this also stops lo at 0)
        if not lo > v_max / _T_MAX:
            raise NumericalError("Luxemburg norm below max |v| / 1e300, past the "
                                 "integrand's argument range")
        m_lo = modular(lo)

    def ln(m):
        return math.log(m) if m > 0.0 else -math.inf

    x_lo, x_hi, y_lo, y_hi = math.log(lo), math.log(hi), ln(m_lo), ln(m_hi)
    moved = None  # the end the last probe replaced
    for _ in range(200):
        if hi - lo <= 1e-10 * hi:
            break
        if x_hi - x_lo <= 2.0 * _NORM_TOL_STEP or not math.isfinite(y_lo - y_hi):
            x = 0.5 * (x_lo + x_hi)
        else:
            x = x_lo + y_lo / (y_lo - y_hi) * (x_hi - x_lo)
            x = min(max(x, x_lo + _NORM_TOL_STEP), x_hi - _NORM_TOL_STEP)
        g = math.exp(x)
        if not lo < g < hi:
            break
        m = modular(g)
        # Illinois: an end kept twice in a row has its ln M halved
        if m <= 1.0:
            if moved == "hi":
                y_lo *= 0.5
            hi, x_hi, y_hi, moved = g, x, ln(m), "hi"
        else:
            if moved == "lo":
                y_hi *= 0.5
            lo, x_lo, y_lo, moved = g, x, ln(m), "lo"
    # ln(e + t) carries a relative rounding error of up to 2^-52, so every
    # term of M, and M, one of up to a factor e^err with err = |gamma| 2^-51.
    # The exact modular still crosses 1 within 1e-10 of [lo, hi] where
    # M <= e^-err at hi (1 + 1e-10) and M > e^err at lo (1 - 1e-10); past
    # err = 709, e^err overflows and no M shows that
    err = abs(f.gamma) * 2.0**-51
    if err > 1e-10 and not (err < 709.0
                            and modular(hi * (1.0 + 1e-10)) <= math.exp(-err)
                            and modular(lo * (1.0 - 1e-10)) > math.exp(err)):
        raise NumericalError("rounding in log^gamma(e + t) can move the Luxemburg "
                             "norm by more than 1e-10 relative")
    return hi


@dataclass(frozen=True)
class DoublePhase:
    """Phi(x, t) = phi(t) + a(x) psi(t); the weight a is the mesh phase."""

    phi: object
    psi: object


def double_phase_log(alpha, beta):
    """The borderline checkerboard pair: phi = t^2 log^{-beta}, psi = t^2 log^{alpha}."""
    return DoublePhase(phi=LogPower(2.0, -beta), psi=LogPower(2.0, alpha))
