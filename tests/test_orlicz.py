"""Orlicz integrand machinery: conjugates, norms, double-phase pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgap.errors import DomainError, UnboundedConjugateError
from dpgap.orlicz import (LogPower, PurePower, TabulatedConjugate, conjugate,
                          conjugate_log_power, conjugate_numeric, double_phase_log,
                          luxemburg_norm)

CONJ_CASES = [(2.0, 1.0), (2.0, -1.0), (2.0, 2.0), (2.0, -2.0), (3.0, 2.0)]


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

    def test_scale_factor(self):
        assert float(LogPower(2.0, 1.0, scale=3.0)(7.0)) == pytest.approx(
            3.0 * float(LogPower(2.0, 1.0)(7.0)))

    def test_rejects_sublinear_exponent(self):
        with pytest.raises(DomainError):
            LogPower(1.0, 0.0)

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
        # for p = 3, deriv is 0 at t = e^-500 and inf at e^500, both inside
        # |ln t| <= 600; log_deriv takes the asymptote of each side there
        f = LogPower(3.0, 0.0)
        got = f.log_deriv([-500.0, 500.0])
        assert got[0] == pytest.approx(np.log(3.0) - 1000.0, rel=1e-15)
        assert got[1] == pytest.approx(np.log(3.0) + 1000.0, rel=1e-12)
        # where deriv is finite and nonzero the log is taken directly
        ln_t = np.array([-300.0, 0.0, 300.0])
        np.testing.assert_array_equal(f.log_deriv(ln_t), np.log(f.deriv(np.exp(ln_t))))

    def test_log_deriv_where_deriv_is_subnormal(self):
        # for p = 2.5, deriv(t) = 2.5 t^1.5 is subnormal below ln t ~ -472.9;
        # its log lost most of its bits and jumped by 0.92 between neighbours
        # near ln t = -496. The asymptote joins the direct log without a jump
        f = LogPower(2.5, 0.0)
        ln_t = np.linspace(-520.0, -460.0, 60001)
        assert np.any(np.abs(ln_t + 496.0) < 1e-3)
        np.testing.assert_allclose(np.diff(f.log_deriv(ln_t)), 1.5 * np.diff(ln_t),
                                   rtol=0.0, atol=1e-11)
        assert f.log_deriv([-496.0])[0] == np.log(2.5) + 1.5 * -496.0
        assert LogPower(3.0, 0.0).log_deriv([-372.0])[0] == np.log(3.0) + 2.0 * -372.0

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


class TestConjugate:
    @given(st.floats(1.1, 6.0), st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_parameter_round_trip_exact(self, p, gamma):
        star = conjugate_log_power(p, gamma)
        back = conjugate_log_power(star.p, star.gamma)
        assert back.p == pytest.approx(p, abs=1e-12)
        assert back.gamma == pytest.approx(gamma, abs=1e-12)

    def test_exponent_map(self):
        star = conjugate_log_power(2.0, 2.0)
        assert (star.p, star.gamma) == (2.0, -2.0)
        star = conjugate_log_power(3.0, 2.0)
        assert star.p == pytest.approx(1.5)
        assert star.gamma == pytest.approx(-1.0)

    @pytest.mark.parametrize("p,gamma", CONJ_CASES)
    def test_rule_log_power_is_closed_form(self, p, gamma):
        star = conjugate(LogPower(p, gamma))
        expected = conjugate_log_power(p, gamma)
        assert star == expected
        s = np.logspace(-6.0, 9.0, 64)
        assert np.asarray(star(s)).tobytes() == np.asarray(expected(s)).tobytes()

    def test_rule_pure_power_is_exact(self):
        f = PurePower(3.0, 2.0)
        star = conjugate(f)
        # (c t^p)* = (p-1)/p (c p)^{-1/(p-1)} s^{p/(p-1)}
        assert isinstance(star, PurePower)
        assert star.p == 1.5
        assert star.scale == pytest.approx(2.0 / 3.0 / np.sqrt(6.0), rel=1e-15)
        for s in (0.5, 10.0, 1e4):
            assert float(star(s)) == pytest.approx(conjugate_numeric(f, s), rel=1e-10)

    def test_rule_other_integrand_is_tabulated(self):
        class Quadratic:
            def __call__(self, t):
                return np.asarray(t, dtype=np.float64) ** 2

            def deriv(self, t):
                return 2.0 * np.asarray(t, dtype=np.float64)

        star = conjugate(Quadratic())
        assert isinstance(star, TabulatedConjugate)
        s = np.array([1e-3, 1.0, 1e3])
        np.testing.assert_allclose(star(s), s**2 / 4.0, rtol=1e-9)

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
        # (t^2/ scale...) conjugate of t^2 is s^2/4
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
        slow = PurePower(2.0, scale=1e-290)
        with pytest.raises(UnboundedConjugateError):
            conjugate_numeric(slow, 1e280)


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

    def test_zero_field(self):
        assert luxemburg_norm(np.zeros(10), np.full(10, 0.1), PurePower(2.0)) == 0.0

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
        dp = double_phase_log(1.5, 0.75, p=2.0)
        assert dp.phi.gamma == -0.75
        assert dp.psi.gamma == 1.5
        assert dp.phi.p == dp.psi.p == 2.0
