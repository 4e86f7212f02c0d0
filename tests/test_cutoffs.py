"""Singularity-removing radial cutoffs and their energy certificates."""

import numpy as np
import pytest

from dpgap import cutoffs
from dpgap.cutoffs import (build_loglog_cutoff, build_psi_harmonic_cutoff,
                           cutoff_energy, euler_lagrange_residual,
                           find_inner_radius, solve_normalization_constant)
from dpgap.errors import (NoRemovableSingularityError, NormalizationError,
                          RangeError)
from dpgap.orlicz import DoublePhase, LogPower, PurePower


class TestNormalization:
    def test_quadratic_closed_form(self):
        # psi = t^2: eta' = c/(2r), so int eta' dr = 1 gives c = 2/ln(r2/r1)
        rng = np.random.default_rng(42)
        for _ in range(10):
            r2 = rng.uniform(0.05, 0.5)
            r1 = r2 * rng.uniform(1e-6, 0.5)
            c = solve_normalization_constant(PurePower(2.0), r1, r2)
            assert c == pytest.approx(2.0 / np.log(r2 / r1), rel=1e-8)

    def test_scale_halves_constant(self):
        # psi = 2 t^2 doubles psi', so c doubles as well
        c1 = solve_normalization_constant(PurePower(2.0), 0.01, 0.5)
        c2 = solve_normalization_constant(PurePower(2.0, scale=2.0), 0.01, 0.5)
        assert c2 == pytest.approx(2.0 * c1, rel=1e-8)

    def test_bad_radii_rejected(self):
        with pytest.raises(RangeError):
            solve_normalization_constant(PurePower(2.0), 0.5, 0.01)
        with pytest.raises(RangeError):
            solve_normalization_constant(PurePower(2.0), 0.1, 0.9)


class TestDerivInverse:
    def test_quadratic(self):
        s = np.array([1.0, 10.0, 1e6])
        t = np.exp(cutoffs._log_deriv_inverse(PurePower(2.0), np.log(s)))
        np.testing.assert_allclose(t, s / 2.0, rtol=1e-12)

    def test_inverts_log_power_derivative(self):
        psi = LogPower(2.0, 1.0)
        t = np.logspace(-3.0, 6.0, 40)
        ln_s = np.log(np.asarray(psi.deriv(t)))
        np.testing.assert_allclose(np.exp(cutoffs._log_deriv_inverse(psi, ln_s)), t,
                                   rtol=1e-9)


def _inverse_reference(psi, ln_s):
    """The bracket search followed by all 110 bisection steps."""
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
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class TestLogDerivInverse:
    PSIS = [PurePower(2.0)] + [LogPower(2.0, g) for g in (0.0, 0.5, 1.0, -2.0)]
    LN_S = np.linspace(-700.0, 700.0, 281)  # reaches the |ln t| > 600 branches

    @pytest.mark.parametrize("psi", PSIS, ids=["t2", "L0", "L0.5", "L1", "L-2"])
    def test_matches_full_bisection(self, psi):
        got = cutoffs._log_deriv_inverse(psi, self.LN_S)
        assert got.tobytes() == _inverse_reference(psi, self.LN_S).tobytes()

    def test_stops_at_fixed_point(self, monkeypatch):
        calls = []
        log_deriv = LogPower.log_deriv

        def counted(psi, ln_t):
            calls.append(1)
            return log_deriv(psi, ln_t)

        monkeypatch.setattr(LogPower, "log_deriv", counted)
        cutoffs._log_deriv_inverse(LogPower(2.0, 0.5), self.LN_S)
        # bracket and bisection together stay below the 110-step cap
        assert len(calls) < 110


class TestPsiHarmonic:
    def test_endpoints_and_monotonicity(self):
        cut = build_psi_harmonic_cutoff(LogPower(2.0, 1.0), 1e-4, 0.5)
        assert cut.eta(1e-4) == pytest.approx(0.0, abs=1e-9)
        assert cut.eta(0.5) == pytest.approx(1.0, abs=1e-7)
        assert cut.eta(1e-5) == 0.0
        assert cut.eta(0.9) == 1.0
        r = np.logspace(-4, np.log10(0.5), 300)
        assert np.all(np.diff(cut.eta(r)) >= 0.0)

    def test_capacity_energy_quadratic(self):
        # psi = t^2: energy 2 pi int (c/2r)^2 r dr = pi c^2/4 ln(r2/r1)
        #          = pi c = 2 pi / ln(r2/r1), the ring capacity
        for r1, r2 in [(1e-3, 0.5), (1e-8, 0.25)]:
            cut = build_psi_harmonic_cutoff(PurePower(2.0), r1, r2)
            expected = 2.0 * np.pi / np.log(r2 / r1)
            assert cut.energy_certificate == pytest.approx(expected, rel=1e-6)

    def test_euler_lagrange_residual(self):
        cut = build_psi_harmonic_cutoff(LogPower(2.0, 1.0), 1e-5, 0.5)
        assert euler_lagrange_residual(cut) < 1e-6

    def test_energy_decays_with_budget(self):
        psi = PurePower(2.0)
        energies = []
        for k in range(1, 9):
            delta = 2.0 ** -k
            r1 = find_inner_radius(psi, 0.5, delta)
            cut = build_psi_harmonic_cutoff(psi, r1, 0.5)
            energies.append(cut.energy_certificate / delta)
        # one module-wide constant bounds energy / delta (pi c <= pi delta)
        assert max(energies) < 3.2

    def test_energy_decays_with_budget_log_weight(self):
        # the log-weighted borderline case reaches fewer budget levels before
        # the inner radius leaves double range, but the same bound holds
        psi = LogPower(2.0, 0.5)
        for k in range(1, 5):
            delta = 2.0 ** -k
            r1 = find_inner_radius(psi, 0.5, delta)
            cut = build_psi_harmonic_cutoff(psi, r1, 0.5)
            assert cut.energy_certificate <= 3.2 * delta

    def test_gap_regime_rejected(self):
        with pytest.raises(NoRemovableSingularityError):
            find_inner_radius(LogPower(2.0, 2.0), 0.5, 0.25)

    def test_borderline_budget_underflows(self):
        # alpha = 1 sits on the boundary: tiny budgets need radii below
        # double-precision range and must fail loudly
        with pytest.raises(NormalizationError):
            find_inner_radius(LogPower(2.0, 1.0), 0.5, 1e-3)


class TestLogLog:
    def test_endpoints(self):
        cut = build_loglog_cutoff(1e-2)
        assert cut.eta(1e-2) == pytest.approx(1.0, abs=1e-12)
        assert cut.eta(0.5) == 1.0
        assert float(cut.eta_at_log(-1.0 / 1e-2)) == pytest.approx(0.0, abs=1e-12)

    def test_ramp_value_closed_form(self):
        eps = 1e-3
        cut = build_loglog_cutoff(eps)
        d = np.log(1.0 / eps) - np.log(np.log(1.0 / eps))
        for u in (10.0, 100.0, 900.0):  # u = ln(1/r) inside the ramp
            expected = (np.log(1.0 / eps) - np.log(u)) / d
            assert float(cut.eta_at_log(-u)) == pytest.approx(expected, rel=1e-12)

    def test_slope_invariant(self):
        # r eta'(r) ln(1/r) is constant on the ramp
        eps = 1e-2
        cut = build_loglog_cutoff(eps)
        u = np.linspace(np.log(1.0 / eps) + 1.0, 1.0 / eps - 1.0, 50)
        vals = np.exp(cut.ln_eta_prime_at_log(-u) - u) * u
        d = np.log(1.0 / eps) - np.log(np.log(1.0 / eps))
        np.testing.assert_allclose(vals, 1.0 / d, rtol=1e-12)

    def test_energy_scaling(self):
        phi = LogPower(2.0, -2.0)
        products = []
        for eps in (np.exp(-5), np.exp(-10), np.exp(-20), np.exp(-40)):
            cut = build_loglog_cutoff(eps)
            products.append(cutoff_energy(cut, phi) * np.log(1.0 / eps))
        assert max(products) < 10.0
        assert min(products) > 0.0


class TestEnergy:
    def test_double_phase_cone_split(self):
        cut = build_psi_harmonic_cutoff(PurePower(2.0), 1e-3, 0.5)
        phi = LogPower(2.0, -2.0)
        psi = LogPower(2.0, 2.0)
        total = cutoff_energy(cut, DoublePhase(phi, psi))
        assert total == pytest.approx(
            cutoff_energy(cut, phi) + 0.5 * cutoff_energy(cut, psi), rel=1e-12)

    def test_quadratic_oracle(self):
        cut = build_psi_harmonic_cutoff(PurePower(2.0), 1e-2, 0.5)
        assert cutoff_energy(cut, PurePower(2.0)) == pytest.approx(
            2.0 * np.pi / np.log(50.0), rel=1e-6)
