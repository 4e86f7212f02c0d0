"""Gap/NoGap classification by tail-integral criteria."""

import numpy as np
import pytest

from dpgap import classifier
from dpgap.classifier import (CONVERGES, DIVERGES, GAP, NO_GAP,
                              classify, classify_alpha_beta, phase_diagram,
                              regularity_modulus_check, tail_integral_verdict)
from dpgap.errors import NumericalError, PreconditionError
from dpgap.orlicz import LogPower, PurePower, TabulatedConjugate, conjugate

GRID = [0.25, 0.5, 1.0, 1.25, 2.0, 3.0]


class TestTailVerdict:
    def test_closed_form_subquadratic(self):
        v = tail_integral_verdict(LogPower(1.5, 3.0))
        assert v.status == CONVERGES

    def test_closed_form_superquadratic(self):
        v = tail_integral_verdict(LogPower(2.5, -3.0))
        assert v.status == DIVERGES

    def test_borderline_log_exponent(self):
        assert tail_integral_verdict(LogPower(2.0, -1.5)).status == CONVERGES
        assert tail_integral_verdict(LogPower(2.0, -1.0)).status == DIVERGES
        assert tail_integral_verdict(LogPower(2.0, -0.5)).status == DIVERGES
        assert tail_integral_verdict(LogPower(2.0, 2.0)).status == DIVERGES

    def test_dyadic_fit_matches_closed_form(self):
        # for t^2 L^gamma the block sums decay like k^gamma
        v = tail_integral_verdict(LogPower(2.0, -2.0))
        assert v.fitted_exponent == pytest.approx(-2.0, abs=0.1)

    def test_generic_path_pure_power(self):
        assert tail_integral_verdict(PurePower(1.5)).status == CONVERGES
        assert tail_integral_verdict(PurePower(2.5)).status == DIVERGES

    def test_sublinear_precondition(self):
        with pytest.raises(PreconditionError):
            tail_integral_verdict(lambda t: np.sqrt(t))


def _dyadic_blocks_reference(f):
    """One block [2^k, 2^{k+1}] at a time."""
    sums = []
    for k in range(classifier._K_MAX + 1):
        a = 2.0 ** k
        t = a * (1.0 + classifier._GL_X)
        with np.errstate(over="ignore"):
            if hasattr(f, "log_eval"):
                vals = np.exp(np.asarray(f.log_eval(np.log(t))) - 3.0 * np.log(t))
            else:
                vals = np.asarray(f(t)) / t**3
        sums.append(float(np.sum(classifier._GL_W * vals) * a))
    return sums


class TestDyadicBlocks:
    def test_matches_blockwise_reference(self):
        cases = [PurePower(2.5), TabulatedConjugate(PurePower(3.0)),
                 lambda t: t**2 * np.log(np.e + t)]
        for gamma in np.linspace(0.0, 3.0, 13):
            for g in {gamma, -gamma}:
                f = LogPower(2.0, float(g))
                cases += [f, conjugate(f)]
        for f in cases:
            assert classifier._dyadic_blocks(f) == _dyadic_blocks_reference(f), f

    def test_non_finite_sum_raises(self):
        with pytest.raises(NumericalError):
            classifier._dyadic_blocks(lambda t: np.where(t > 1e6, np.inf, t**2))


class TestClassify:
    def test_gap_cell(self):
        rep = classify_alpha_beta(2.0, 2.0)
        assert rep.verdict == GAP
        assert rep.phi_tail.status == CONVERGES
        assert rep.psi_star_tail.status == CONVERGES

    def test_no_gap_alpha_small(self):
        assert classify_alpha_beta(0.5, 2.0).verdict == NO_GAP

    def test_no_gap_beta_small(self):
        assert classify_alpha_beta(2.0, 0.5).verdict == NO_GAP

    def test_borderline_cells(self):
        assert classify_alpha_beta(1.0, 2.0).verdict == NO_GAP
        assert classify_alpha_beta(2.0, 1.0).verdict == NO_GAP
        assert classify_alpha_beta(1.25, 1.25).verdict == GAP

    def test_single_phase_rejected(self):
        with pytest.raises(PreconditionError):
            classify_alpha_beta(0.5, -1.0)

    def test_scale_invariance(self):
        for s in (0.1, 1.0, 7.0):
            assert classify_alpha_beta(2.0, 2.0, scale=s).verdict == GAP
            assert classify_alpha_beta(2.0, 0.5, scale=s).verdict == NO_GAP

    def test_dominance_precondition(self):
        with pytest.raises(PreconditionError):
            classify(LogPower(2.0, 1.0), LogPower(2.0, -1.0))

    @pytest.mark.parametrize("p,status", [(2.0, DIVERGES), (2.5, CONVERGES),
                                          (3.0, CONVERGES), (4.0, CONVERGES)])
    def test_pure_power_psi_uses_exact_conjugate(self, monkeypatch, p, status):
        tables = []
        init = TabulatedConjugate.__init__

        def counted(self, base):
            tables.append(base)
            init(self, base)

        monkeypatch.setattr(TabulatedConjugate, "__init__", counted)
        rep = classify(LogPower(p, -1.0), PurePower(p))
        assert rep.psi_star_tail.status == status
        assert tables == []

    def test_pure_power_psi_below_two(self):
        # psi'(1e12) = 1.5e6 is below the 1e9 top of a conjugate table, so no
        # numeric table can be built; the exact conjugate, c s^3, needs none
        rep = classify(LogPower(1.5, -1.0), PurePower(1.5))
        assert rep.psi_star_tail.status == DIVERGES

    @pytest.mark.parametrize("alpha, beta, dual", [(2.0, 0.5, True), (1.0, 1.0, True),
                                                   (0.5, 2.0, False), (2.0, 2.0, False)])
    def test_dual_rule_follows_phi_tail(self, alpha, beta, dual):
        # the dual pair's psi*-tail is phi's own tail: a diverging phi tail
        # decides both pairs, a converging one neither
        rep = classify_alpha_beta(alpha, beta)
        assert (rep.dual_rule is not None) == dual
        assert (rep.phi_tail.status == DIVERGES) == dual

    def test_report_round_trip(self):
        d = classify_alpha_beta(2.0, 2.0).to_dict()
        assert d["verdict"] == GAP
        assert d["phi_tail"]["status"] == CONVERGES
        assert len(d["phi_tail"]["block_sums"]) == 61


class TestPhaseDiagram:
    def test_full_grid_exact(self):
        rows = phase_diagram(GRID, GRID)
        assert len(rows) == 36
        for a, b, verdict in rows:
            expected = GAP if min(a, b) > 1.0 else NO_GAP
            assert verdict == expected, (a, b)

    def test_ordering(self):
        rows = phase_diagram(GRID, GRID)
        keys = [(a, b) for a, b, _ in rows]
        assert keys == sorted(keys)

    def test_unsorted_axes_and_single_phase_cell(self):
        rows = phase_diagram([2.0, 0.25], [-0.5])
        assert rows == [(0.25, -0.5, "SinglePhase"), (2.0, -0.5, NO_GAP)]


class TestRegularityModulus:
    def test_bounded_modulus_is_regular(self):
        phi = LogPower(2.0, -1.0)
        psi = LogPower(2.0, 1.0)
        # omega comparable to the phase-ratio decay: regular
        omega = lambda e: 1.0 / np.log(1.0 / e) ** 2
        v = regularity_modulus_check(omega, phi, psi, k0=1.0, d=2)
        assert bool(v)
        assert v.witness is None

    def test_constant_modulus_fails(self):
        phi = LogPower(2.0, -1.0)
        psi = LogPower(2.0, 1.0)
        omega = lambda e: 1.0
        v = regularity_modulus_check(omega, phi, psi, k0=1.0, d=2)
        assert not bool(v)
        eps_w, t_w = v.witness
        assert 0.0 < eps_w <= 0.25
        assert t_w >= 1.0

    def test_decreasing_modulus_rejected(self):
        phi = LogPower(2.0, -1.0)
        psi = LogPower(2.0, 1.0)
        with pytest.raises(PreconditionError):
            regularity_modulus_check(lambda e: -np.log(e), phi, psi,
                                     k0=1.0, d=2)
