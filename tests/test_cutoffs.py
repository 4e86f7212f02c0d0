"""Singularity-removing radial cutoffs and their energy certificates."""

import numpy as np
import pytest

from dpgap import classifier, cutoffs, orlicz
from dpgap.cutoffs import (build_loglog_cutoff, build_psi_harmonic_cutoff,
                           cutoff_energy, euler_lagrange_residual,
                           find_inner_radius, solve_normalization_constant)
from dpgap.errors import (DomainError, NoRemovableSingularityError,
                          NormalizationError, RangeError)
from dpgap.orlicz import DoublePhase, LogPower, PurePower, log_deriv_inverse


class TestNormalization:
    def test_quadratic_closed_form(self):
        # psi = t^2: eta' = c/(2r), so int eta' dr = 1 gives c = 2/ln(r2/r1)
        rng = np.random.default_rng(42)
        for _ in range(10):
            r2 = rng.uniform(0.05, 0.5)
            r1 = r2 * rng.uniform(1e-6, 0.5)
            c = solve_normalization_constant(PurePower(2.0), r1, r2)
            assert c == pytest.approx(2.0 / np.log(r2 / r1), rel=1e-8)

    def test_bad_radii_rejected(self):
        with pytest.raises(RangeError):
            solve_normalization_constant(PurePower(2.0), 0.5, 0.01)
        with pytest.raises(RangeError):
            solve_normalization_constant(PurePower(2.0), 0.1, 0.9)


class TestDerivInverse:
    def test_quadratic(self):
        s = np.array([1.0, 10.0, 1e6])
        t = np.exp(log_deriv_inverse(PurePower(2.0), np.log(s)))
        np.testing.assert_allclose(t, s / 2.0, rtol=1e-12)

    def test_inverts_log_power_derivative(self):
        psi = LogPower(2.0, 1.0)
        t = np.logspace(-3.0, 6.0, 40)
        ln_s = np.log(np.asarray(psi.deriv(t)))
        np.testing.assert_allclose(np.exp(log_deriv_inverse(psi, ln_s)), t,
                                   rtol=1e-9)


def _bracket_reference(psi, ln_s):
    """The bracket search, evaluating both ends of every entry each round."""
    lo = np.minimum(ln_s, 4.0 * ln_s) - 100.0
    hi = np.maximum(ln_s, 4.0 * ln_s) + 100.0
    for _ in range(12):
        bad_lo = psi.log_deriv_with_slope(lo)[0] > ln_s
        bad_hi = psi.log_deriv_with_slope(hi)[0] < ln_s
        if not (np.any(bad_lo) or np.any(bad_hi)):
            break
        span = hi - lo
        lo = np.where(bad_lo, lo - span, lo)
        hi = np.where(bad_hi, hi + span, hi)
    return lo, hi


def _inverse_reference(psi, ln_s):
    """The bracket search followed by all 110 bisection steps."""
    ln_s = np.atleast_1d(np.asarray(ln_s, dtype=np.float64))
    lo, hi = _bracket_reference(psi, ln_s)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        below = psi.log_deriv_with_slope(mid)[0] < ln_s
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class TestLogDerivInverse:
    PSIS = [PurePower(2.0)] + [LogPower(2.0, g) for g in (0.0, 0.5, 1.0, -2.0)]
    # the knotted integrands of test_orlicz.KNOTTED, whose ln psi' flattens to
    # ln a1 below the knot (and has no root below it)
    KNOTTED = [LogPower(p, g) for p, g in [(2.0, -3.0), (2.0, -5.0), (1.5, -3.0),
                                           (1.2, -5.0)]]
    LN_S = np.linspace(-700.0, 700.0, 281)  # roots out to |ln t| ~ 700

    @pytest.mark.parametrize("psi", PSIS + KNOTTED,
                             ids=["t2", "L0", "L0.5", "L1", "L-2",
                                  "L2,-3", "L2,-5", "L1.5,-3", "L1.2,-5"])
    def test_matches_full_bisection(self, psi):
        # as accurate as bisecting to adjacent doubles: a residual at most 2 ulp
        # of max(1, |ln s|) above the bisection's, and the same root
        got = log_deriv_inverse(psi, self.LN_S)
        ref = _inverse_reference(psi, self.LN_S)
        ulp = np.spacing(np.maximum(1.0, np.abs(self.LN_S)))
        excess = (np.abs(psi.log_deriv_with_slope(got)[0] - self.LN_S)
                  - np.abs(psi.log_deriv_with_slope(ref)[0] - self.LN_S))
        assert np.all(excess <= 2.0 * ulp)
        assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("psi", PSIS[1:], ids=["L0", "L0.5", "L1", "L-2"])
    def test_few_newton_steps(self, psi, monkeypatch):
        # the bracket search and each Newton iterate call log_deriv_with_slope;
        # the calls made once _newton_in_log has started are the iterates'
        calls = {"bracket": 0, "newton": 0}
        phase = ["bracket"]
        evaluate, newton = LogPower.log_deriv_with_slope, orlicz._newton_in_log

        def counted(psi, ln_t):
            calls[phase[0]] += 1
            return evaluate(psi, ln_t)

        def newton_phase(*args):
            phase[0] = "newton"
            return newton(*args)

        monkeypatch.setattr(LogPower, "log_deriv_with_slope", counted)
        monkeypatch.setattr(orlicz, "_newton_in_log", newton_phase)
        log_deriv_inverse(psi, self.LN_S)
        # the bracket holds every root at once: 2 evaluations, then Newton
        assert calls["bracket"] == 2
        assert calls["newton"] <= 12

    @pytest.mark.parametrize("psi", [PSIS[3], KNOTTED[2]], ids=["L1", "L1.5,-3"])
    def test_one_evaluation_per_newton_iterate(self, psi, monkeypatch):
        # each iterate evaluates ln psi' and its slope once, on the entries
        # still going: the k-th call holds every entry that takes more than
        # k iterates when it runs alone
        ln_s = self.LN_S
        lo, hi = _bracket_reference(psi, ln_s)
        g_lo = psi.log_deriv_with_slope(lo)[0] - ln_s
        g_hi = psi.log_deriv_with_slope(hi)[0] - ln_s
        evaluate = LogPower.log_deriv_with_slope
        sizes = []

        def counted(psi, ln_t):
            sizes.append(np.size(ln_t))
            return evaluate(psi, ln_t)

        monkeypatch.setattr(LogPower, "log_deriv_with_slope", counted)
        alone = []
        for i in range(ln_s.size):
            sizes.clear()
            one = orlicz._newton_in_log(psi, *(v[i:i + 1] for v in (ln_s, lo, hi, g_lo, g_hi)))
            alone.append((len(sizes), one[0]))
        sizes.clear()
        before = [v.copy() for v in (ln_s, lo, hi, g_lo, g_hi)]
        got = orlicz._newton_in_log(psi, ln_s, lo, hi, g_lo, g_hi)
        steps = np.array([n for n, _ in alone])
        assert sizes == [int(np.count_nonzero(steps > k)) for k in range(steps.max())]
        assert got.tobytes() == np.array([x for _, x in alone]).tobytes()
        # and it writes to none of its arguments
        for a, b in zip(before, (ln_s, lo, hi, g_lo, g_hi)):
            assert a.tobytes() == b.tobytes()

    def test_bracket_evaluates_only_missed_ends(self, monkeypatch):
        # ln s below ln psi'(0+) has no root: only those entries keep
        # doubling (11 evaluations of their low end after the first 2 calls),
        # and every entry ends with the bracket of the all-entry search
        psi = LogPower(1.5, -3.0)
        rootless = int(np.count_nonzero(self.LN_S < psi.log_deriv_with_slope(-1e4)[0]))
        assert 0 < rootless < self.LN_S.size
        lo_ref, hi_ref = _bracket_reference(psi, self.LN_S)
        points = []
        evaluate = LogPower.log_deriv_with_slope

        def counted(psi, ln_t):
            points.append(np.size(ln_t))
            return evaluate(psi, ln_t)

        brackets = []

        def bracket_only(f, ln_s, lo, hi, g_lo, g_hi):
            brackets.append((lo, hi))
            return lo

        monkeypatch.setattr(orlicz, "_newton_in_log", bracket_only)
        monkeypatch.setattr(LogPower, "log_deriv_with_slope", counted)
        log_deriv_inverse(psi, self.LN_S)
        assert sum(points) == 2 * self.LN_S.size + 11 * rootless
        [(lo, hi)] = brackets
        assert lo.tobytes() == lo_ref.tobytes() and hi.tobytes() == hi_ref.tobytes()

    def test_shape_follows_input(self):
        psi = LogPower(2.0, 1.0)
        ln_s = self.LN_S[:12].reshape(3, 4)
        got = log_deriv_inverse(psi, ln_s)
        assert got.shape == (3, 4)
        assert got.ravel().tobytes() == log_deriv_inverse(psi, ln_s.ravel()).tobytes()
        assert log_deriv_inverse(psi, float(ln_s[1, 2])) == got[1, 2]

    def test_every_root_is_reached(self):
        # knotted and plain (p, gamma) alike: each ln s above ln psi'(0+) has
        # a root, and the inverse ends at it to a few roundings of the terms
        # of ln psi', which grow with |ln t|.  Plain Newton steps 2-cycle
        # strictly inside the bracket at some p < 1.5 with a large gamma,
        # e.g. (1.44, 6.5).
        ln_s = np.linspace(-40.0, 40.0, 801)
        for p in np.linspace(1.06, 6.0, 40)[::3]:
            for gamma in np.linspace(-8.0, 8.0, 33):
                try:
                    psi = LogPower(float(p), float(gamma))
                except DomainError:  # no knot in the double range
                    continue
                has_root = ln_s > psi.log_deriv_with_slope(-np.inf)[0]
                x = log_deriv_inverse(psi, ln_s)
                g = psi.log_deriv_with_slope(x)[0] - ln_s
                scale = np.maximum(1.0, np.maximum(np.abs(ln_s), np.abs(x)))
                bad = has_root & (np.abs(g) > 16.0 * np.spacing(scale))
                assert not bad.any(), (p, gamma, ln_s[bad], g[bad])

    def test_flat_below_knot_without_warning(self):
        # far below the knot the slope of ln psi' underflows to 0 and no root
        # exists; the step is guarded, not divided by 0 (RuntimeWarning is an
        # error here), and the result is the bracket's far end
        psi = LogPower(1.2, -5.0)
        assert psi.log_deriv_with_slope(np.array([-700.0]))[1, 0] == 0.0
        got = log_deriv_inverse(psi, np.array([-700.0]))
        ref = _inverse_reference(psi, np.array([-700.0]))
        assert got[0] == pytest.approx(ref[0], rel=1e-15)
        assert got[0] < -1e6


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

    def test_euler_lagrange_residual_near_p_one(self):
        # plain Newton steps 2-cycle on three of the 4096 inversions here,
        # which puts ln eta' off by up to 0.28 and the residual at 239
        cut = build_psi_harmonic_cutoff(LogPower(1.02, 0.5), 0.0625, 0.5)
        assert euler_lagrange_residual(cut) < 1e-9

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

    def test_non_finite_budget_rejected(self):
        for delta in (np.nan, np.inf):
            with pytest.raises(RangeError):
                find_inner_radius(PurePower(2.0), 0.5, delta)

    def test_gap_regime_rejected(self):
        with pytest.raises(NoRemovableSingularityError):
            find_inner_radius(LogPower(2.0, 2.0), 0.5, 0.25)

    def test_dual_tail_from_the_closed_form(self, monkeypatch):
        # the dual tail's status alone decides; no block sums are computed,
        # so psi* = t^101 (p = 1.01) is no obstacle
        def no_blocks(f):
            raise AssertionError("find_inner_radius computed dyadic block sums")

        monkeypatch.setattr(classifier, "_dyadic_blocks", no_blocks)
        r1 = find_inner_radius(PurePower(1.01), 0.5, 0.25)
        assert 0.0 < r1 < 0.5
        assert find_inner_radius(LogPower(2.0, 0.5), 0.5, 0.25) > 0.0
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
        # r eta'(r) ln(1/r) is constant at the table's nodes inside the ramp,
        # and ln eta' is -inf at those outside it
        eps = 1e-2
        cut = build_loglog_cutoff(eps)
        inside = (cut.ln_r > cut.ln_r1) & (cut.ln_r < cut.ln_r2)
        assert np.count_nonzero(inside) >= cutoffs.N_NODES - 2
        assert np.all(cut.ln_eta_prime_table[~inside] == -np.inf)
        u = -cut.ln_r[inside]
        vals = np.exp(cut.ln_eta_prime_table[inside] - u) * u
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


@pytest.mark.parametrize("build", [lambda: build_loglog_cutoff(1e-2),
                                   lambda: build_psi_harmonic_cutoff(PurePower(2.0), 1e-3, 0.5)],
                         ids=["loglog", "psi"])
def test_eta_propagates_nan(build):
    # a NaN radius gives NaN, as eta_at_log does, not the 0 of r <= 0
    cut = build()
    assert np.isnan(cut.eta(np.nan)) and np.isnan(cut.eta_at_log(np.nan))
    got = cut.eta(np.array([np.nan, 0.0, -1.0, 1.0]))
    assert np.isnan(got[0]) and got[1:].tolist() == [0.0, 0.0, 1.0]


class TestEnergy:
    def test_double_phase_cone_split(self):
        cut = build_psi_harmonic_cutoff(PurePower(2.0), 1e-3, 0.5)
        phi = LogPower(2.0, -2.0)
        psi = LogPower(2.0, 2.0)
        total = cutoff_energy(cut, DoublePhase(phi, psi))
        assert total == pytest.approx(
            cutoff_energy(cut, phi) + 0.5 * cutoff_energy(cut, psi), rel=1e-12)

    @pytest.mark.parametrize("f", [LogPower(1.5, -3.0), LogPower(2.0, -5.0)],
                             ids=["L1.5,-3", "L2,-5"])
    def test_knotted_integrand_matches_own_values(self, f):
        # eta' crosses the knot (765 and 175) on both profiles; the energy is
        # the trapezoid of f's own values on the nodes of each quadrature
        assert f.knot > 100.0
        cut = build_psi_harmonic_cutoff(PurePower(2.0), 1e-6, 0.5)
        vals = f(np.exp(cut.ln_eta_prime_table)) * np.exp(2.0 * cut.ln_r)
        assert cutoff_energy(cut, f) == pytest.approx(
            2.0 * np.pi * np.trapezoid(vals, cut.ln_r), rel=1e-12)
        eps = 1e-2
        x = np.linspace(np.log(np.log(1.0 / eps)), np.log(1.0 / eps), cutoffs._ENERGY_NODES)
        u = np.exp(x)  # ln(1/r), where eta' = e^u / (u d)
        eta_prime = np.exp(u) / (u * cutoffs._loglog_denominator(eps))
        vals = f(eta_prime) * np.exp(-2.0 * u) * u
        assert cutoff_energy(build_loglog_cutoff(eps), f) == pytest.approx(
            2.0 * np.pi * np.trapezoid(vals, x), rel=1e-12)

    @pytest.mark.parametrize("f", [lambda t: t * t, "t^2", None], ids=["lambda", "str", "None"])
    def test_other_integrand_raises(self, f):
        # the type check's refusal, not an AttributeError from inside
        cut = build_psi_harmonic_cutoff(PurePower(2.0), 1e-2, 0.5)
        for call in (lambda: solve_normalization_constant(f, 0.01, 0.5),
                     lambda: build_psi_harmonic_cutoff(f, 0.01, 0.5),
                     lambda: find_inner_radius(f, 0.5, 0.25),
                     lambda: cutoff_energy(cut, f),
                     lambda: cutoff_energy(cut, DoublePhase(PurePower(2.0), f)),
                     lambda: cutoff_energy(build_loglog_cutoff(1e-2), f)):
            with pytest.raises(DomainError, match="LogPower or a PurePower"):
                call()

    @pytest.mark.parametrize("cutoff", [None, "x", PurePower(2.0)], ids=["None", "str", "integrand"])
    def test_other_cutoff_raises(self, cutoff):
        # a DomainError like the integrand's, not an AttributeError on .kind
        for call in (lambda: cutoff_energy(cutoff, PurePower(2.0)),
                     lambda: cutoff_energy(cutoff, DoublePhase(PurePower(2.0), LogPower(2.0, 1.0)))):
            with pytest.raises(DomainError, match="takes a RadialCutoff"):
                call()
        with pytest.raises(DomainError, match="psi-harmonic cutoffs"):
            euler_lagrange_residual(cutoff)

    def test_quadratic_oracle(self):
        cut = build_psi_harmonic_cutoff(PurePower(2.0), 1e-2, 0.5)
        assert cutoff_energy(cut, PurePower(2.0)) == pytest.approx(
            2.0 * np.pi / np.log(50.0), rel=1e-6)
