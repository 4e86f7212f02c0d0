"""Orlicz integrand machinery: conjugates, norms, double-phase pairs."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from dpgap import cutoffs, orlicz
from dpgap.errors import DomainError, DpgapError, NumericalError, UnboundedConjugateError
from dpgap.geometry import sample_fields_grid
from dpgap.orlicz import (LogPower, PurePower, _brent_root, _knot_search, conjugate_exponents,
                          conjugate_log_power, conjugate_numeric, double_phase_log,
                          luxemburg_norm)


class Quadratic:
    """t^2 with a derivative, but neither a LogPower nor a PurePower."""

    def __call__(self, t):
        return np.asarray(t, dtype=np.float64) ** 2

    def deriv(self, t):
        return 2.0 * np.asarray(t, dtype=np.float64)


CONJ_CASES = [(2.0, 1.0), (2.0, -1.0), (2.0, 2.0), (2.0, -2.0), (3.0, 2.0)]
# knotted (p, gamma) pairs: the quadratic substitute runs up to 4.5, 175, 765
# and 3.0e14 respectively
KNOTTED = [(2.0, -3.0), (2.0, -5.0), (1.5, -3.0), (1.2, -5.0)]


def _decimal_log_space(f, ln_t):
    """(ln f(t), ln f'(t)) for each ln t, in 50-digit decimal arithmetic."""
    t0, a2, a1 = (Decimal(v) for v in f._knot)
    p, gamma = Decimal(f.p), Decimal(f.gamma)
    out = []
    with localcontext() as ctx:
        ctx.prec = 50
        e = Decimal(1).exp()
        for x in ln_t:
            t = Decimal(float(x)).exp()
            if t < t0:
                val, der = a2 * t * t + a1 * t, a1 + 2 * a2 * t
            else:
                L = (e + t).ln()
                val = t**p * L**gamma
                der = t ** (p - 1) * L ** (gamma - 1) * (p * L + gamma * t / (e + t))
            out.append((float(val.ln()), float(der.ln())))
    return np.array(out).T


def _decimal_second_deriv(f, t):
    """Phi''(t) of the raw formula for each t, in 50-digit decimal arithmetic."""
    p, gamma = Decimal(f.p), Decimal(f.gamma)
    out = []
    with localcontext() as ctx:
        ctx.prec = 50
        e = Decimal(1).exp()
        for tv in t:
            tv = Decimal(float(tv))
            L = (e + tv).ln()
            A = p / tv + gamma / ((e + tv) * L)
            dA = -p / tv**2 - gamma * (L + 1) / ((e + tv) * L) ** 2
            out.append(float(tv**p * L**gamma * (A * A + dA)))
    return np.array(out)


def _assert_log_space_matches_reference(f, ln_t):
    ref_eval, ref_deriv = _decimal_log_space(f, ln_t)
    tol = 1e-14 * np.maximum(1.0, np.abs(ln_t))
    assert np.all(np.abs(f.log_eval(ln_t) - ref_eval) <= tol)
    assert np.all(np.abs(f.log_eval(ln_t, 2.0) - (ref_eval - 2.0 * ln_t)) <= tol)
    assert np.all(np.abs(f.log_deriv_with_slope(ln_t)[0] - ref_deriv) <= tol)


class TestLogPower:
    def test_plain_values(self):
        f = LogPower(2.0, 0.0)
        t = np.array([1.0, 2.0, 10.0])
        assert np.allclose(f(t), t**2 * np.log(np.e + t) ** 0)

    def test_log_factor(self):
        f = LogPower(2.0, 3.0)
        assert f(5.0) == pytest.approx(25.0 * np.log(np.e + 5.0) ** 3)
        assert float(LogPower(2.0, 1.0)(3.0)) == pytest.approx(
            9.0 * np.log(np.e + 3.0))

    def test_zero_maps_to_zero(self):
        for g in (-3.0, -1.0, 0.0, 2.0):
            f = LogPower(2.0, g)
            assert float(f(0.0)) == 0.0
            if f.knot == 0.0:  # the raw formula has slope 0 at the origin
                assert float(f.deriv(0.0)) == 0.0

    def test_rejects_sublinear_exponent(self):
        with pytest.raises(DomainError):
            LogPower(1.0, 0.0)

    def test_rejects_non_finite_parameters(self):
        for kwargs in ({"gamma": np.nan}, {"gamma": np.inf}, {"p": np.nan}):
            with pytest.raises(DomainError):
                LogPower(**{"p": 2.0, **kwargs})

    def test_knot_beyond_double_range_rejected(self):
        # for p = 1 + 1e-7 and gamma = -2 the raw formula turns convex only
        # near ln t ~ 2e7; the search overflows instead of finding it
        with pytest.raises(DomainError, match="knot search failed"):
            LogPower(1.0000001, -2.0)

    def test_huge_exponent_knot_search_is_quiet(self):
        # Phi'' overflows on the knot grid (RuntimeWarning is an error here)
        assert LogPower(1e6, -2.0).knot == 0.0

    def test_rejects_huge_argument(self):
        with pytest.raises(DomainError):
            LogPower(2.0, 1.0)(1e301)

    def test_log_eval_matches_plain_eval(self):
        f = LogPower(2.0, -1.5)
        t = np.logspace(1.0, 8.0, 40)  # above any convexification knot
        assert np.allclose(np.exp(f.log_eval(np.log(t))), f(t), rtol=1e-12)
        # above 1e8 the integrand itself is evaluated in log space
        t = np.logspace(8.0, 100.0, 60)
        for p, gamma in ((2.0, -1.5), (2.0, 2.0), (3.0, 0.5)):
            direct = t**p * np.log(np.e + t) ** gamma
            np.testing.assert_allclose(LogPower(p, gamma)(t), direct, rtol=1e-12)

    @pytest.mark.parametrize("p,gamma", KNOTTED)
    def test_log_eval_follows_knot(self, p, gamma):
        f = LogPower(p, gamma)
        t = np.logspace(-3.0, 150.0, 1200)
        np.testing.assert_allclose(np.exp(f.log_eval(np.log(t))) / f(t), 1.0,
                                   rtol=0.0, atol=1e-13)

    def test_no_jump_at_log_switch(self):
        # the knot sits above 1e8, where evaluation moves to log space
        f = LogPower(1.2, -5.0)
        t0, a2, a1 = f._knot
        assert t0 > 1e9
        t = 1e8 * (1.0 + np.linspace(-0.01, 0.01, 41))
        np.testing.assert_allclose(f(t), a2 * t * t + a1 * t, rtol=1e-13)
        np.testing.assert_allclose(f.deriv(t), 2.0 * a2 * t + a1, rtol=1e-13)

    @pytest.mark.parametrize("p,gamma", [(2.0, 0.5), (2.0, -2.0), (3.0, 0.0), (2.0, 2.0),
                                         (1.5, -3.0), (1.2, -5.0), (2.0, -3.0)])
    def test_log_space_matches_decimal_reference(self, p, gamma):
        f = LogPower(p, gamma)
        ln_t = np.linspace(-1000.0, 1000.0, 401)
        if f.knot > 0.0:
            ln_t = np.sort(np.append(ln_t, np.log(f.knot) + np.array([-1e-9, 0.0, 1e-9])))
        _assert_log_space_matches_reference(f, ln_t)

    def test_knot_continuity(self):
        # below the knot the quadratic substitute takes over; it matches the
        # raw formula in value and slope at t0
        f = LogPower(2.0, -3.0)
        t0 = f.knot
        assert t0 > 0.0
        below = np.nextafter(t0, 0.0)
        assert float(f(below)) == pytest.approx(float(f(t0)), rel=1e-12)
        assert float(f.deriv(below)) == pytest.approx(float(f.deriv(t0)), rel=1e-12)
        assert 0.0 < float(f(0.5 * t0)) <= 0.5 * float(f(t0))  # convex, f(0) = 0

    @given(st.floats(1.2, 4.0), st.floats(-4.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_convexity_on_log_grid(self, p, gamma):
        f = LogPower(p, gamma)
        t = np.logspace(-6.0, 6.0, 200)
        v = np.asarray(f(t))
        # chord midpoint above function value, pairwise along the grid
        mid = f(0.5 * (t[:-1] + t[1:]))
        assert np.all(mid <= 0.5 * (v[:-1] + v[1:]) + 1e-12 * v[1:])

    @given(st.floats(1.2, 4.0), st.floats(-4.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_increasing(self, p, gamma):
        f = LogPower(p, gamma)
        t = np.logspace(-8.0, 8.0, 300)
        assert np.all(np.diff(np.asarray(f(t))) > 0.0)

    def test_log_deriv_where_deriv_under_or_overflows(self):
        # for p = 3, deriv is 0 at t = e^-500 and inf at e^500; ln f' from
        # log_deriv_with_slope stays finite there
        f = LogPower(3.0, 0.0)
        got = f.log_deriv_with_slope([-500.0, 500.0])[0]
        assert got[0] == pytest.approx(np.log(3.0) - 1000.0, rel=1e-15)
        assert got[1] == pytest.approx(np.log(3.0) + 1000.0, rel=1e-12)
        # across the whole range it matches a 50-digit reference
        _assert_log_space_matches_reference(f, np.linspace(-1000.0, 1000.0, 401))

    def test_log_deriv_where_deriv_is_subnormal(self):
        # for p = 2.5, deriv(t) = 2.5 t^1.5 is subnormal below ln t ~ -472.9;
        # its log lost most of its bits and jumped by 0.92 between neighbours
        # near ln t = -496. The asymptote joins the direct log without a jump
        f = LogPower(2.5, 0.0)
        ln_t = np.linspace(-520.0, -460.0, 60001)
        assert np.any(np.abs(ln_t + 496.0) < 1e-3)
        np.testing.assert_allclose(np.diff(f.log_deriv_with_slope(ln_t)[0]),
                                   1.5 * np.diff(ln_t), rtol=0.0, atol=1e-11)
        assert f.log_deriv_with_slope([-496.0])[0, 0] == np.log(2.5) + 1.5 * -496.0
        assert (LogPower(3.0, 0.0).log_deriv_with_slope([-372.0])[0, 0]
                == np.log(3.0) + 2.0 * -372.0)

    @pytest.mark.parametrize("p,gamma", [(2.0, 1.0), (2.0, -2.0), (3.0, 0.5)] + KNOTTED)
    def test_log_deriv_slope_matches_finite_difference(self, p, gamma):
        # d ln f' / d ln t, the Newton slope of log_deriv_inverse, on both
        # sides of any knot
        f = LogPower(p, gamma)
        ln_t = np.linspace(-30.0, 700.0, 367) + 0.123
        h = 1e-5
        fd = (f.log_deriv_with_slope(ln_t + h)[0]
              - f.log_deriv_with_slope(ln_t - h)[0]) / (2.0 * h)
        np.testing.assert_allclose(f.log_deriv_with_slope(ln_t)[1], fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("f", [LogPower(2.0, 1.0), LogPower(3.0, 0.5), PurePower(2.5),
                                   LogPower(2.0, -4.0)] + [LogPower(p, g) for p, g in KNOTTED],
                             ids=["L2,1", "L3,0.5", "t2.5", "L2,-4", "L2,-3", "L2,-5",
                                  "L1.5,-3", "L1.2,-5"])
    def test_log_deriv_and_slope_match_the_two_output_evaluation(self, f):
        # a scalar's (ln f', slope) is its entry of the batch evaluation, bit
        # for bit on both sides of any knot
        ln_t = np.linspace(-700.0, 700.0, 4097)
        batch = f.log_deriv_with_slope(ln_t)
        assert batch.shape == (2, ln_t.size)
        for i in range(0, ln_t.size, 32):
            got = f.log_deriv_with_slope(float(ln_t[i]))
            assert got.shape == (2,) and got.tobytes() == batch[:, i].tobytes()

    def test_pure_power_log_deriv_slope(self):
        assert PurePower(2.5).log_deriv_with_slope(np.zeros(4))[1].tolist() == [1.5] * 4

    @pytest.mark.parametrize("f", [PurePower(2.5), PurePower(1.5)], ids=["t2.5", "t1.5"])
    def test_pure_power_log_space_matches_decimal_reference(self, f):
        _assert_log_space_matches_reference(f, np.linspace(-1000.0, 1000.0, 401))

    def test_pure_power_is_the_gamma_zero_log_power(self):
        f = PurePower(2.5)
        assert isinstance(f, LogPower)
        assert (f.gamma, f.knot) == (0.0, 0.0)
        t = np.logspace(-12.0, 12.0, 241)
        twin = LogPower(2.5, 0.0)
        for name in ("__call__", "deriv", "second_deriv"):
            assert getattr(f, name)(t).tobytes() == getattr(twin, name)(t).tobytes()
        assert f.deriv_ratio(t, floor=1e-12).tobytes() == twin.deriv_ratio(t, floor=1e-12).tobytes()
        with pytest.raises(DomainError, match="^PurePower requires a finite p > 1$"):
            PurePower(1.0)

    def test_deriv_past_the_double_range(self):
        # t^(p-1) overflows before L^(gamma-1) brings the product back into
        # range; such entries are exp(ln f')
        f = LogPower(3.0, -5.0)
        assert float(f.deriv(1.35e154)) == pytest.approx(9.66552445e295, rel=1e-9)
        t = np.logspace(-12.0, 299.0, 3001)
        with np.errstate(over="ignore"):
            from_log = np.exp(f.log_deriv_with_slope(np.log(t))[0])
        np.testing.assert_allclose(f.deriv(t), from_log, rtol=1e-12)

    @pytest.mark.parametrize("f", [LogPower(3.0, -5.0), LogPower(2.0, 1.0), LogPower(1.5, -3.0),
                                   PurePower(2.0), PurePower(1.5), PurePower(3.0)],
                             ids=["L3,-5", "L2,1", "L1.5,-3", "t2", "t1.5", "t3"])
    def test_second_deriv_past_the_double_range(self, f):
        # above 1e150 (p/t)^2 leaves the normal range, and t^p overflows where
        # (p/t)^2 underflows to 0; both read the log-space form
        t = np.logspace(100.0, 300.0, 81)
        np.testing.assert_allclose(f.second_deriv(t), _decimal_second_deriv(f, t), rtol=1e-12)
        assert float(PurePower(2.0).second_deriv(1e200)) == 2.0

    def test_second_deriv_direct_formula_kept_where_finite(self):
        # the FEM Hessian reads these values: below 1e150 they are the direct
        # formula, bit for bit
        for p, gamma in ((2.0, 2.0), (2.0, -0.5), (3.0, 0.5), (1.5, 0.0)):
            assert LogPower(p, gamma).knot == 0.0
            t = np.logspace(-8.0, 149.0, 400)
            L = np.log(np.e + t)
            A = p / t + gamma / ((np.e + t) * L)
            dA = -p / t**2 - gamma * (L + 1.0) / ((np.e + t) * L) ** 2
            with np.errstate(over="ignore", invalid="ignore"):
                direct = 1.0 * t**p * L**gamma * (A * A + dA)
            kept = np.isfinite(direct)
            assert kept.sum() > 250
            got = LogPower(p, gamma).second_deriv(t)
            assert got[kept].tobytes() == direct[kept].tobytes()
            assert np.all(np.isfinite(got))

    def test_second_deriv_no_nan_at_extreme_exponents(self):
        # t^p underflows to 0 where log^gamma(e + t) overflows: 0 * inf was NaN
        got = LogPower(1e6, 1e6).second_deriv(np.array([1e-3, 0.5, 0.9]))
        assert got.tolist() == [0.0, 0.0, np.inf]

    def test_log_switch_wins_over_a_higher_knot(self):
        # LogPower(1.2, -5) has its knot near 3.0e14: between 1e8 and the knot
        # the value is exp(log_eval), not the quadratic substitute in t
        f = LogPower(1.2, -5.0)
        t = np.logspace(8.0, 14.0, 61)[1:]
        assert np.all(t < f.knot)
        assert f(t).tobytes() == np.exp(f.log_eval(np.log(t))).tobytes()

    def test_direct_formula_kept_where_finite(self):
        for p, gamma in ((2.0, 2.0), (2.0, -2.0), (3.0, 0.5)):
            t = np.logspace(-12.0, 8.0, 400)
            assert LogPower(p, gamma)(t).tobytes() == (t**p * np.log(np.e + t) ** gamma).tobytes()

    @pytest.mark.parametrize("p,gamma", [(1e6, 1e6), (1e6, -1e6), (1e308, 1e308), (1e6, 0.0)])
    def test_extreme_exponents_give_no_nan(self, p, gamma):
        # t^p underflows to 0 where log^gamma(e + t) overflows: 0 * inf was
        # NaN with a RuntimeWarning (an error here); log space gives 0 or inf
        f = LogPower(p, gamma)
        t = np.array([0.0, 1e-3, 0.5, 0.9, 1.0, 10.0])
        for values in (f(t), f.deriv(t)):
            assert not np.any(np.isnan(values))
            assert values[0] == 0.0 and values[-1] == np.inf

    def test_log_space_quiet_at_extreme_exponents(self):
        # (p - k) ln t and gamma ln L overflow to inf without a warning
        assert LogPower(1e308, 0.0).log_eval([10.0])[0] == np.inf
        assert conjugate_numeric(LogPower(1e6, 1e308), 1e-320) == 0.0

    def test_deriv_matches_finite_difference(self):
        f = LogPower(2.0, -2.0)
        t = np.logspace(-2.0, 4.0, 30)
        h = 1e-6 * t
        fd = (np.asarray(f(t + h)) - np.asarray(f(t - h))) / (2.0 * h)
        assert np.allclose(np.asarray(f.deriv(t)), fd, rtol=1e-6)

    def test_second_deriv_nonnegative(self):
        for gamma in (-3.0, -1.0, 2.0):
            f = LogPower(2.0, gamma)
            t = np.logspace(-10.0, 8.0, 200)
            assert np.all(np.asarray(f.second_deriv(t)) >= 0.0)


def _scipy_brent_root(f, a, b, xtol, rtol):
    """SciPy's brentq behind _brent_root's signature and exit contract."""
    try:
        return brentq(f, a, b, xtol=xtol, rtol=rtol)
    except (ValueError, RuntimeError) as exc:
        raise NumericalError(str(exc)) from exc


def _outcome(call, *args):
    """The root, or the class of the error raised."""
    try:
        return call(*args)
    except (DpgapError, OverflowError) as exc:
        return type(exc)


def _brent_family(rng):
    """(f, a, b, xtol, rtol) cases: smooth, flat, stepped and tiny-valued
    functions, roots at either end, and brackets too wide to converge in
    100 iterations."""
    c = float(rng.uniform(-2.0, 2.0))
    s = float(rng.uniform(0.1, 5.0))
    fs = [lambda x: (x - c) ** 3 + s * (x - c),
          lambda x: math.tanh(s * (x - c)),
          lambda x: math.exp(s * x) - math.exp(s * c),
          lambda x: math.floor(4.0 * (x - c)) + 0.5,
          lambda x: math.atan(x - c) + 1e-3 * math.sin(50.0 * x),
          # the inverse quadratic step's denominator dblk*dpre*(fblk - fpre)
          # underflows to 0 here
          lambda x: 1e-300 * ((x - c) ** 3 + s)]
    a, b = float(rng.uniform(-6.0, -2.0)), float(rng.uniform(2.0, 6.0))
    xtol, rtol = float(10.0 ** rng.uniform(-15, -2)), float(10.0 ** rng.uniform(-15.3, -3))
    cases = [(f, a, b, xtol, rtol) for f in fs]
    cases += [(fs[0], c, b, xtol, rtol), (fs[1], a, c, xtol, rtol),
              (fs[1], -1e300, 3e300, 1e-300, rtol)]
    return cases


class TestBrentRoot:
    def test_bit_identical_to_brentq(self):
        rng = np.random.default_rng(20261022)
        outcomes = set()
        for _ in range(200):
            for case in _brent_family(rng):
                want = _outcome(_scipy_brent_root, *case)
                assert _outcome(_brent_root, *case) == want, case[1:]
                outcomes.add(want if isinstance(want, type) else float)
        # roots, and failures: no sign change, no convergence, rtol below 4 ulp
        assert outcomes == {float, NumericalError}

    def test_calls_f_with_python_floats(self):
        seen = []
        _brent_root(lambda x: seen.append(type(x)) or x - 0.5,
                    np.float64(0.0), np.float64(2.0), 1e-12, 1e-12)
        assert set(seen) == {float}

    def test_nan_value_is_numerical_error(self):
        with pytest.raises(NumericalError, match="NaN"):
            _brent_root(lambda x: -1.0 if x < 0.5 else math.nan, 0.0, 1.0, 1e-12, 1e-12)

    def test_no_sign_change_is_numerical_error(self):
        with pytest.raises(NumericalError, match="different signs"):
            _brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-12)

    @pytest.mark.parametrize("xtol, rtol", [(0.0, 1e-12), (-1.0, 1e-12), (1e-12, 1e-16)])
    def test_bad_tolerance_is_numerical_error(self, xtol, rtol):
        with pytest.raises(NumericalError, match="too small"):
            _brent_root(lambda x: x, -1.0, 1.0, xtol, rtol)

    def test_no_convergence_is_numerical_error(self):
        # bisection from a bracket of width 4e300 down to xtol = 1e-300
        with pytest.raises(NumericalError, match="no convergence in 100 iterations"):
            _brent_root(lambda x: math.atan(x - 1.0), -1e300, 3e300, 1e-300, 1e-15)

    def test_knot_search_matches_brentq(self, monkeypatch):
        cases = [(float(p), float(-g)) for p in np.linspace(1.05, 6.0, 12)
                 for g in np.geomspace(0.05, 30.0, 12)]
        here = [_outcome(_knot_search, p, g) for p, g in cases]
        monkeypatch.setattr(orlicz, "_brent_root", _scipy_brent_root)
        assert here == [_outcome(_knot_search, p, g) for p, g in cases]
        assert any(isinstance(r, tuple) and r[0] > 0.0 for r in here)

    def test_normalization_constant_matches_brentq(self, monkeypatch):
        psis = [PurePower(2.0), LogPower(2.0, 0.0), LogPower(2.0, 0.5), LogPower(2.0, 1.0)]
        r1s = [1e-200, 1e-30, 1e-4, 0.1]
        here = [cutoffs.solve_normalization_constant(psi, r1, 0.5) for psi in psis for r1 in r1s]
        monkeypatch.setattr(cutoffs, "_brent_root", _scipy_brent_root)
        assert here == [cutoffs.solve_normalization_constant(psi, r1, 0.5)
                        for psi in psis for r1 in r1s]


class TestConjugate:
    @given(st.floats(1.1, 6.0), st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    @example(5.0, 2.305445497723923e-12)  # gamma moved to a multiple of 1e-12
    def test_parameter_round_trip_exact(self, p, gamma):
        back = conjugate_exponents(*conjugate_exponents(p, gamma))
        assert back[0] == pytest.approx(p, abs=1e-12)
        assert back[1] == pytest.approx(gamma, abs=1e-12)

    def test_exponent_map(self):
        assert conjugate_exponents(2.0, 2.0) == (2.0, -2.0)
        q, gq = conjugate_exponents(3.0, 2.0)
        assert q == pytest.approx(1.5)
        assert gq == pytest.approx(-1.0)
        assert all(type(v) is float for v in (q, gq))

    @pytest.mark.parametrize("p,gamma", CONJ_CASES)
    def test_rule_log_power_is_closed_form(self, p, gamma):
        # the LogPower of the exponent map, whose values the map's floats fix
        star = conjugate_log_power(p, gamma)
        assert (star.p, star.gamma) == conjugate_exponents(p, gamma)
        assert (star.p, star.gamma) == pytest.approx((p / (p - 1.0), gamma / (1.0 - p)))

    def test_rule_pure_power_is_exact(self):
        # (t^p)* = (p-1)/p p^{-1/(p-1)} s^{p/(p-1)}
        p = 3.0
        for s in (0.5, 10.0, 1e4):
            exact = (p - 1.0) / p * p ** (-1.0 / (p - 1.0)) * s ** (p / (p - 1.0))
            assert exact == pytest.approx(conjugate_numeric(PurePower(p), s), rel=1e-10)

    def test_pure_power_conjugate_is_its_growth_class(self):
        assert conjugate_exponents(3.0, 0.0) == (1.5, 0.0)
        assert conjugate_log_power(3.0, 0.0) == LogPower(1.5, 0.0)

    @pytest.mark.parametrize("f", [Quadratic(), lambda t: t * t, "t^2", None],
                             ids=["class", "lambda", "str", "None"])
    def test_other_integrand_raises(self, f):
        with pytest.raises(DomainError, match="LogPower or a PurePower"):
            conjugate_numeric(f, 1.0)
        with pytest.raises(DomainError, match="LogPower or a PurePower"):
            luxemburg_norm([1.0], [1.0], f)

    @pytest.mark.parametrize("p,gamma", CONJ_CASES)
    def test_numeric_within_bracket(self, p, gamma):
        star = conjugate_log_power(p, gamma)
        for s in (10.0, 1e3, 1e6):
            ratio = conjugate_numeric(LogPower(p, gamma), s) / float(star(s))
            assert 0.2 <= ratio <= 5.0

    @pytest.mark.parametrize("p,gamma", CONJ_CASES)
    def test_bracket_stable_under_doubling(self, p, gamma):
        star = conjugate_log_power(p, gamma)
        s = np.array([1e3, 1e4, 1e5, 1e6])
        r1 = np.array([conjugate_numeric(LogPower(p, gamma), v) / float(star(v))
                       for v in s])
        r2 = np.array([conjugate_numeric(LogPower(p, gamma), 2 * v) / float(star(2 * v))
                       for v in s])
        assert np.all(np.abs(r2 / r1 - 1.0) < 0.05)

    def test_pure_power_conjugate_exact(self):
        # the conjugate of t^2 is s^2/4
        f = PurePower(2.0)
        for s in (1.0, 7.0, 100.0):
            assert conjugate_numeric(f, s) == pytest.approx(s * s / 4.0, rel=1e-9)

    def test_sandwich_inequality(self):
        # psi(psi*(t)/t) <= psi*(t) <= psi(2 psi*(t)/t) for the true conjugate
        for p, gamma in [(2.0, 1.0), (2.0, -1.0), (3.0, 2.0)]:
            psi = LogPower(p, gamma)
            for t in np.logspace(0.0, 6.0, 25):
                star = conjugate_numeric(psi, t)
                if star <= 0.0:
                    continue
                lo = float(psi(star / t))
                hi = float(psi(2.0 * star / t))
                assert lo <= star * (1.0 + 1e-6)
                assert star <= hi * (1.0 + 1e-6)

    def test_unbounded_conjugate_raises(self):
        # f'(1e12) is about 1.0000029, so f' never reaches 2 on the bracket
        slow = PurePower(1.0000001)
        with pytest.raises(UnboundedConjugateError):
            conjugate_numeric(slow, 2.0)
        with pytest.raises(UnboundedConjugateError):
            conjugate_numeric(slow, np.array([1.0, 2.0]))

    def test_conjugate_log_power_rejects_non_finite(self):
        for p, gamma in [(2.0, np.nan), (2.0, np.inf), (np.inf, 1.0), (np.nan, 1.0),
                         (1.0, 1.0)]:
            for conj in (conjugate_exponents, conjugate_log_power):
                with pytest.raises(DomainError):
                    conj(p, gamma)

    @pytest.mark.parametrize("f", [LogPower(2.0, 1.0), LogPower(3.0, 2.0),
                                   LogPower(2.0, -5.0), PurePower(2.5)],
                             ids=["L2,1", "L3,2", "L2,-5", "t2.5"])
    def test_array_matches_scalar_calls(self, f):
        # zeros, the endpoint branch (f'(1e-12) >= s) and interior roots
        s = np.concatenate([[0.0, 1e-30, 1e-14], np.logspace(-6.0, 3.0, 61)])
        got = conjugate_numeric(f, s.reshape(2, 32))
        assert got.shape == (2, 32)
        scalar = [conjugate_numeric(f, v) for v in s]
        assert all(type(v) is float for v in scalar)
        assert got.ravel().tolist() == scalar
        assert got.ravel()[0] == 0.0

    @pytest.mark.parametrize("f", [LogPower(2.0, 1.0), LogPower(1.5, -3.0), LogPower(2.0, -4.0),
                                   PurePower(2.5)],
                             ids=["L2,1", "L1.5,-3", "L2,-4", "t2.5"])
    def test_scalar_is_the_array_entry_bit_for_bit(self, f):
        # one code path for scalar and array s, the endpoint branch included
        s = np.concatenate([[0.0, 1e-300], np.logspace(-12.0, 1.0, 4095)])
        got = conjugate_numeric(f, s)
        for i in range(0, s.size, 16):
            assert np.float64(conjugate_numeric(f, float(s[i]))).tobytes() == got[i].tobytes()

    @pytest.mark.parametrize("p, gamma, s", [(1.02, 0.5, 1.19), (1.02, 0.5, 1.2), (1.02, 0.5, 1.21),
                                             (2.0, 1.0, 1e3), (1.5, -3.0, 50.0), (1.2, 3.0, 3.0),
                                             (1.5, 8.0, 1e3)])
    def test_numeric_is_the_grid_supremum(self, p, gamma, s):
        # sup_t (s t - f(t)) on a log grid over the bracket, then on a linear
        # grid between the neighbours of its best point
        f = LogPower(p, gamma)
        t = np.logspace(-12.0, 12.0, 200001)
        i = int(np.argmax(s * t - f(t)))
        t = np.linspace(t[max(i - 1, 0)], t[min(i + 1, t.size - 1)], 200001)
        assert conjugate_numeric(f, s) == pytest.approx(float(np.max(s * t - f(t))), rel=1e-9)

    def test_endpoint_branch(self):
        # f'(1e-12) >= s: the supremum sits at t = 1e-12 and is clipped at 0
        f = LogPower(2.0, -5.0)  # f'(0+) = a1 > 0, so small s stay at the endpoint
        a1 = f._knot[2]
        assert conjugate_numeric(f, 0.5 * a1) == 0.0
        assert conjugate_numeric(f, np.array([0.5 * a1, 2.0 * a1]))[0] == 0.0
        assert conjugate_numeric(f, 2.0 * a1) > 0.0


class TestYoung:
    def test_gap_nonnegative_random(self):
        rng = np.random.default_rng(7)
        f = LogPower(2.0, 1.5)
        t = rng.uniform(0.0, 1e4, 10_000)
        s = rng.uniform(0.0, 1e4, 10_000)
        gaps = np.array([float(f(tv)) + conjugate_numeric(f, sv) - tv * sv
                         for tv, sv in zip(t[:200], s[:200])])
        assert np.all(gaps >= -1e-9 * (1.0 + np.abs(gaps)))
        # vectorized remainder
        fstar = np.array([conjugate_numeric(f, sv) for sv in s[:200]])
        assert np.all(t[:200] * s[:200] <= np.asarray(f(t[:200])) + fstar + 1e-7)


class TestLuxemburg:
    def test_constant_field_quadratic(self):
        n = 1000
        norm = luxemburg_norm(np.ones(n), np.full(n, 4.0 / n), PurePower(2.0))
        assert norm == pytest.approx(2.0, rel=1e-8)

    def test_linear_profile_quadratic(self):
        n = 4096
        x = (np.arange(n) + 0.5) / n
        norm = luxemburg_norm(x, np.full(n, 1.0 / n), PurePower(2.0))
        assert norm == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-4)

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0.0, 2.0, 500)
        w = np.full(500, 1.0 / 500)
        f = PurePower(2.0)
        assert luxemburg_norm(3.0 * v, w, f) == pytest.approx(
            3.0 * luxemburg_norm(v, w, f), rel=1e-7)

    @given(v=st.floats(1e-300, 1e300))
    @settings(deadline=None)
    @example(v=1e-15)  # these read 3.55e-15: the bracket was clamped at 1e-14
    @example(v=1e-20)
    @example(v=1e-100)
    @example(v=1e13)  # and above 1e12 the norm raised NormOverflowError
    @example(v=1e300)
    def test_tiny_and_large_fields(self, v):
        norm = luxemburg_norm(np.full(4, v), np.full(4, 0.25), PurePower(2.0))
        assert norm == pytest.approx(v, rel=1e-10)

    @given(c=st.floats(1e-300, 1e13))
    @settings(deadline=None)
    @example(c=1e-300)
    @example(c=1e13)
    def test_homogeneity_across_scales(self, c):
        v = np.random.default_rng(3).uniform(0.0, 2.0, 500)
        w = np.full(500, 1.0 / 500)
        f = PurePower(2.0)
        assert luxemburg_norm(c * v, w, f) == pytest.approx(c * luxemburg_norm(v, w, f),
                                                            rel=1e-9)

    def test_few_modular_evaluations(self, monkeypatch):
        # Illinois false position on (ln gamma, ln M) from a bracket of ratio
        # 4; bisection to 1e-10 took about 38 evaluations
        table = sample_fields_grid(128)
        w = np.full(len(table), 4.0 / len(table))
        calls = []
        call = LogPower.__call__

        def counted(f, t):
            calls.append(1)
            return call(f, t)

        for col in (3, 4, 5):
            for gamma in (0.0, 1.0, -1.0):
                f = LogPower(2.0, gamma)
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(LogPower, "__call__", counted)
                    norm = luxemburg_norm(table[:, col], w, f)
                assert len(calls) <= 12
                # the norm is the threshold: M(norm) <= 1 < M(norm (1 - 1e-10))
                v = np.abs(table[:, col])
                assert np.sum(w * f(v / norm)) <= 1.0
                assert np.sum(w * f(v / (norm * (1.0 - 1e-10)))) > 1.0

    @staticmethod
    def _single_point_norm_reference(p, gamma):
        # 1 / t with t^p log^gamma(e + t) = 1: bisection on ln t in 40 digits
        with localcontext() as ctx:
            ctx.prec = 40
            e = Decimal(1).exp()
            lo, hi = Decimal(-60), Decimal(10)
            for _ in range(200):
                mid = (lo + hi) / 2
                if p * mid + gamma * (e + mid.exp()).ln().ln() > 0:
                    hi = mid
                else:
                    lo = mid
            return float((-lo).exp())

    @pytest.mark.parametrize("gamma", [1e4, 1e5, 1e6, 1e8, 1e10, 1e12, 1e14, 1e308])
    def test_huge_gamma_to_tolerance_or_refused(self, gamma):
        # log^gamma(e + t) carries a rounding error of up to |gamma| 2^-51;
        # for gamma = 1e12 the norm read 8.0637315958e9, 4.3e-6 off, and for
        # gamma = 1e308 the modular read t^2, as e + t rounds to e
        f = LogPower(2.0, gamma)
        try:
            norm = luxemburg_norm([1.0], [1.0], f)
        except NumericalError as exc:
            assert "rounding" in str(exc)
            assert gamma >= 1e8
            return
        assert gamma <= 1e6
        ref = self._single_point_norm_reference(Decimal(2), Decimal(gamma))
        assert norm == pytest.approx(ref, rel=2e-10)

    def test_steep_modular_with_huge_gamma(self):
        # for p = 1e308 the modular jumps from 0 to inf where |v| / gamma
        # crosses 1, and rounding in log^gamma(e + t) cannot move that
        f = LogPower(1e308, 1e6)
        assert luxemburg_norm([0.5, 0.25], [0.5, 0.5], f) == pytest.approx(0.5, rel=1e-10)

    def test_norm_below_argument_range_refused(self):
        # the norm is about 1e-320, so |v| / gamma would pass the integrand's
        # 1e300 cap: a NumericalError, not a DomainError about an argument the
        # caller never passed
        with pytest.raises(NumericalError, match="argument range"):
            luxemburg_norm([1.0], [1e-320], PurePower(1.0000001))

    def test_zero_field(self):
        assert luxemburg_norm(np.zeros(10), np.full(10, 0.1), PurePower(2.0)) == 0.0

    @pytest.mark.parametrize("weights", [np.full(4, np.nan), [0.5, np.inf, 0.5, 0.5],
                                         [0.5, 0.0, 0.5, 0.5]], ids=["nan", "inf", "zero"])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(DomainError, match="finite and positive"):
            luxemburg_norm(np.ones(4), weights, PurePower(2.0))

    @pytest.mark.parametrize("values, weights", [([1.0, 1.0, 1.0], [1.0, 1.0]),
                                                 ([1.0, 1.0], [0.5]),
                                                 ([1.0, 1.0], 0.5),
                                                 (1.0, [0.5, 0.5])],
                             ids=["longer-values", "one-weight", "scalar-weight",
                                  "scalar-value"])
    def test_mismatched_shapes_rejected(self, values, weights):
        with pytest.raises(DomainError, match="same shape"):
            luxemburg_norm(values, weights, PurePower(2.0))

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(11)
        w = np.full(300, 1.0 / 300)
        f = LogPower(2.0, 1.0)
        for _ in range(5):
            a = rng.uniform(0.0, 5.0, 300)
            b = rng.uniform(0.0, 5.0, 300)
            assert (luxemburg_norm(a + b, w, f)
                    <= luxemburg_norm(a, w, f) + luxemburg_norm(b, w, f) + 1e-8)


class TestDoublePhase:
    def test_parameter_map(self):
        dp = double_phase_log(1.5, 0.75)
        assert dp.phi.gamma == -0.75
        assert dp.psi.gamma == 1.5
        assert dp.phi.p == dp.psi.p == 2.0
