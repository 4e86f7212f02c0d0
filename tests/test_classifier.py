"""Gap/NoGap classification by tail-integral criteria."""

import numpy as np
import pytest

from dpgap import classifier
from dpgap.classifier import (CONVERGES, DIVERGES, GAP, NO_GAP,
                              classify, classify_alpha_beta, phase_diagram,
                              tail_integral_verdict, tail_status)
from dpgap.cutoffs import find_inner_radius
from dpgap.errors import DomainError, PreconditionError
from dpgap.orlicz import LogPower, PurePower, conjugate_exponents, conjugate_log_power

GRID = [0.25, 0.5, 1.0, 1.25, 2.0, 3.0]


class TestTailVerdict:
    def test_closed_form_subquadratic(self):
        v = tail_integral_verdict(1.5, 3.0)
        assert v.status == CONVERGES

    def test_closed_form_superquadratic(self):
        v = tail_integral_verdict(2.5, -3.0)
        assert v.status == DIVERGES

    def test_borderline_log_exponent(self):
        assert tail_integral_verdict(2.0, -1.5).status == CONVERGES
        assert tail_integral_verdict(2.0, -1.0).status == DIVERGES
        assert tail_integral_verdict(2.0, -0.5).status == DIVERGES
        assert tail_integral_verdict(2.0, 2.0).status == DIVERGES

    def test_dyadic_fit_matches_closed_form(self):
        # for t^2 L^gamma the block sums decay like k^gamma
        v = tail_integral_verdict(2.0, -2.0)
        assert v.fitted_exponent == pytest.approx(-2.0, abs=0.1)

    def test_generic_path_pure_power(self):
        assert tail_integral_verdict(1.5, 0.0).status == CONVERGES
        assert tail_integral_verdict(2.5, 0.0).status == DIVERGES

    # f is the integrand's (p, gamma)
    @pytest.mark.parametrize("f, status, rule", [
        ((1.5, 3.0), CONVERGES, "closed_form p<2"),
        ((2.5, 0.0), DIVERGES, "closed_form p>2"),
        ((2.0, -1.5), CONVERGES, "closed_form p=2, gamma < -1"),
        ((2.0, -1.0), DIVERGES, "closed_form p=2, gamma >= -1")])
    def test_report_reads_the_one_closed_form_rule(self, f, status, rule):
        assert tail_status(*f) == (status, rule)
        v = tail_integral_verdict(*f)
        assert (v.status, v.rule) == (status, rule)

    @pytest.mark.parametrize("p, status", [(1.5, CONVERGES), (1.95, CONVERGES),
                                           (1.99, CONVERGES), (1.999, CONVERGES),
                                           (2.0, DIVERGES), (2.001, DIVERGES),
                                           (2.5, DIVERGES)])
    def test_pure_power_closed_form(self, p, status):
        # int_2^inf t^(p-3) dt is finite iff p < 2; the block sums decay like
        # 2^(k(p-2)), which a power fit in k reads as -0.26 for p = 1.99
        v = tail_integral_verdict(p, 0.0)
        assert v.status == status
        assert v.rule.startswith("closed_form")

    # the tails take exponents; classify and find_inner_radius read them from
    # their integrands, and refuse one of another type

    def test_sublinear_precondition(self):
        with pytest.raises(PreconditionError):
            classify(lambda t: np.sqrt(t), LogPower(2.0, 1.0))

    @pytest.mark.parametrize("f", [lambda t: t**3, np.square, "t^3", None],
                             ids=["lambda", "ufunc", "str", "None"])
    def test_other_integrand_raises(self, f):
        # either argument of classify is checked before the pair check calls it
        for call in (lambda: classify(f, LogPower(2.0, 1.0)),
                     lambda: classify(LogPower(2.0, -1.0), f),
                     lambda: find_inner_radius(f, 0.5, 0.25)):
            with pytest.raises(DomainError, match="LogPower or a PurePower"):
                call()


def _dyadic_blocks_reference(f):
    """One block [2^k, 2^{k+1}] at a time."""
    sums = []
    for k in range(classifier._K_MAX + 1):
        a = 2.0 ** k
        t = a * (1.0 + classifier._GL_X)
        with np.errstate(over="ignore"):
            vals = np.exp(np.asarray(f.log_eval(np.log(t))) - 3.0 * np.log(t))
        sums.append(float(np.sum(classifier._GL_W * vals) * a))
    return sums


class TestDyadicBlocks:
    def test_matches_blockwise_reference(self):
        cases = [PurePower(2.5), conjugate_log_power(3.0, 0.0)]
        for gamma in np.linspace(0.0, 3.0, 13):
            for g in {gamma, -gamma}:
                f = LogPower(2.0, float(g))
                cases += [f, conjugate_log_power(f.p, f.gamma)]
        for f in cases:
            assert classifier._dyadic_blocks(f) == _dyadic_blocks_reference(f), f

    def test_non_finite_sum_reads_none(self):
        # t^400 / t^3 overflows past t ~ 2^2.6
        assert classifier._dyadic_blocks(PurePower(400.0)) is None


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

    def test_dominance_precondition(self):
        with pytest.raises(PreconditionError):
            classify(LogPower(2.0, 1.0), LogPower(2.0, -1.0))

    # psi* stands for s^(p/(p-1)); for p = 2.01 the exponent is below 2, so
    # its tail converges though the fitted block-decay exponent is nowhere
    # near -1
    @pytest.mark.parametrize("p,status", [(2.0, DIVERGES), (2.5, CONVERGES),
                                          (3.0, CONVERGES), (4.0, CONVERGES),
                                          (2.01, CONVERGES)])
    def test_pure_power_psi_uses_exact_conjugate(self, p, status):
        rep = classify(LogPower(p, -1.0), PurePower(p))
        assert rep.psi_star_tail.status == status

    def test_pure_power_psi_below_two(self):
        # psi* stands for s^3, whose tail diverges
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

    @pytest.mark.parametrize("alpha, beta, p, error", [
        (1e308, 1.0, 2.0, PreconditionError),  # psi overflows on the pair grid
        (2.0, 2.0, 1e6, PreconditionError),  # and phi'' on the knot grid
        (2.0, 2.0, 1.0000001, DomainError),  # phi's knot lies past t ~ 1e154
    ])
    def test_extreme_inputs_raise_without_warning(self, alpha, beta, p, error):
        # RuntimeWarning is an error here; the cell's check decides instead
        with pytest.raises(error):
            classify_alpha_beta(alpha, beta, p)
        with pytest.raises(error):
            phase_diagram([alpha], [beta], p)

    # which diagnostics of (phi, psi*) read None: none, the fit, or both
    FINE, NO_FIT, NEITHER = (False, False), (False, True), (True, True)

    @pytest.mark.parametrize("alpha, beta, p, missing", [
        # the block sums of psi* = LogPower(~1e7, ~-2e7) overflow
        (2.0, -1.0, 1.0000001, (FINE, NEITHER)),
        (2.0, 2.0, 19.035, (NEITHER, FINE)),  # phi's sums overflow
        (1.0, 0.01, 1.04, (FINE, NEITHER)),  # psi* = LogPower(26, -25)'s overflow
        # phi's sums overflow, and psi* = LogPower(1.05, -0.151) has no knot
        (3.0, 2.0, 20.84, (NEITHER, NEITHER)),
        # psi* = LogPower(11, -500): too few positive sums to fit
        (50.0, 2.0, 1.1, (FINE, NO_FIT)),
    ])
    def test_verdict_where_diagnostics_fail(self, alpha, beta, p, missing):
        # RuntimeWarning is an error here; the closed form gives the verdict,
        # the phase diagram's
        rep = classify_alpha_beta(alpha, beta, p)
        assert rep.verdict == NO_GAP
        assert phase_diagram([alpha], [beta], p) == [(alpha, beta, NO_GAP)]
        assert tuple((t.block_sums is None, t.fitted_exponent is None)
                     for t in (rep.phi_tail, rep.psi_star_tail)) == missing

    @pytest.mark.parametrize("alpha, beta, p", [(1.0, 1.0, 1.06), (2.0, 2.0, 1.09)])
    def test_superlinear_integrand_near_p_one_is_classified(self, alpha, beta, p):
        # t^p log^-beta(e + t) / t -> inf for every p > 1, though across
        # t = 1e2, 1e4, 1e6 it still falls here; psi* has p / (p - 1) > 2
        rep = classify_alpha_beta(alpha, beta, p)
        assert rep.verdict == NO_GAP
        assert rep.phi_tail.status == CONVERGES
        assert rep.psi_star_tail.status == DIVERGES

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

    # borderline values, a duplicate, unsorted, and single-phase cells
    AXIS = [3.0, 1.0 + 1e-9, 0.25, 1.0, -0.5, 1.0 - 1e-9, 2.0, 1.0, 0.0]

    # from p = 20.84 psi* of alpha = 3 has no knot; its exponents decide
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 20.84, 25.0])
    def test_rows_match_classify_alpha_beta(self, p):
        rows = phase_diagram(self.AXIS, self.AXIS[::-1], p)
        expected = [(a, b, "SinglePhase" if -b >= a else classify_alpha_beta(a, b, p).verdict)
                    for a in sorted(self.AXIS) for b in sorted(self.AXIS)]
        assert rows == expected
        assert {v for _, _, v in rows} >= {"SinglePhase", NO_GAP}

    @pytest.mark.parametrize("alphas, betas, p", [
        # two SinglePhase cells and a valid one, then a ratio that barely decays
        ([2.0, -1.0], [0.5, 3.0, -2.0 + 1e-10], 2.0),
        # (2, -1) is NoGap, then phi's knot at (2, 2) lies past t ~ 1e154
        ([2.0], [-1.0, 2.0], 1.0000001),
        # phi's knot lies past t ~ 1e154
        ([2.0], [2.0, 3.0], 1.0000001),
        ([0.5, 1.0], [2.0, np.nan], 2.0),
    ])
    def test_first_failing_cell_raises_as_classify(self, alphas, betas, p):
        cells = [(a, b) for a in sorted(alphas) for b in sorted(betas) if not -b >= a]
        for a, b in cells:
            try:
                classify_alpha_beta(a, b, p)
            except PreconditionError as exc:
                expected = exc
                break
        else:
            pytest.fail("no failing cell")
        with pytest.raises(PreconditionError) as got:
            phase_diagram(alphas, betas, p)
        assert type(got.value) is type(expected)
        assert str(got.value) == str(expected)

    def test_single_phase_grid_builds_nothing(self):
        # p = 1 is outside the log-power domain, but no cell needs an integrand
        rows = phase_diagram([0.5, -1.0], [-2.0, -0.5], p=1.0)
        assert [v for _, _, v in rows] == ["SinglePhase"] * 4

    def test_work_is_per_axis_value(self, monkeypatch):
        built, maps = [], []
        post_init = LogPower.__post_init__

        def counted_init(self):
            built.append((self.p, self.gamma))
            post_init(self)

        def counted_map(p, gamma):
            maps.append(gamma)
            return conjugate_exponents(p, gamma)

        def no_blocks(f):
            raise AssertionError("phase_diagram computed dyadic block sums")

        monkeypatch.setattr(LogPower, "__post_init__", counted_init)
        monkeypatch.setattr(classifier, "conjugate_exponents", counted_map)
        monkeypatch.setattr(classifier, "_dyadic_blocks", no_blocks)
        rows = phase_diagram(GRID, GRID)
        assert len(rows) == 36
        # 6 phi and 6 psi integrands, and no psi*
        assert len(built) <= 12
        # the Fraction arithmetic of the exponent map runs once per alpha
        assert len(maps) == len(set(maps))

    def test_rows_past_the_block_sum_range(self):
        # the block sums leave the double range from p ~ 19; the verdicts need
        # only the closed form: p > 2, so every phi tail diverges
        assert phase_diagram([1.0, 2.0], [1.0, 2.0], p=25.0) == [
            (1.0, 1.0, NO_GAP), (1.0, 2.0, NO_GAP), (2.0, 1.0, NO_GAP), (2.0, 2.0, NO_GAP)]
        rep = classify_alpha_beta(2.0, 2.0, 25.0)
        assert rep.verdict == NO_GAP
        assert rep.phi_tail.block_sums is None
