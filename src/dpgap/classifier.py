"""Gap / NoGap decision for a double-phase pair by tail-integral criteria.

The gap criterion for the checkerboard pair (phi, psi) is: both
``int_0 phi(1/r) r dr`` and ``int_0 psi*(1/r) r dr`` finite.  After the
substitution t = 1/r these become ``int_2^inf f(t) t^-3 dt``, finite iff
p < 2, or p = 2 and gamma < -1, for f = t^p log^gamma(e + t) (a ``LogPower``,
of which the pure power t^p is the gamma = 0 member).  ``tail_status`` is
this closed form, so the borderline cells are decided exactly; the dyadic
block sums and fitted decay exponent of ``tail_integral_verdict`` are only
reported.  psi* is ``orlicz.conjugate(psi)``, in closed form.

A verdict has three parts, shared by ``classify`` and ``phase_diagram``: the
pair check on phi and psi values at a fixed 60-point grid, one tail status
each for phi and psi*, and the status-to-verdict rule.  For the family
phi = t^p log^-beta, psi = t^p log^alpha the phi tail depends on beta alone
and the psi* tail on alpha alone, so a phase diagram costs one integrand and
one closed-form status per distinct axis value plus one pair check per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, PreconditionError, RangeError
from .orlicz import LogPower, _check_integrand, conjugate

CONVERGES = "Converges"
DIVERGES = "Diverges"

GAP = "Gap"
NO_GAP = "NoGap"

_K_MAX = 60
_FIT_RANGE = (20, _K_MAX)

# 8-point Gauss-Legendre on [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


@dataclass
class TailVerdict:
    status: str
    fitted_exponent: float
    block_sums: list = field(repr=False)
    rule: str

    def to_dict(self):
        return {
            "status": self.status,
            "fitted_exponent": self.fitted_exponent,
            "rule": self.rule,
            "block_sums": list(self.block_sums),
        }


@dataclass
class RegimeReport:
    phi_tail: TailVerdict
    psi_star_tail: TailVerdict
    verdict: str
    rule: str
    dual_rule: str | None = None

    def to_dict(self):
        return {
            "phi_tail": self.phi_tail.to_dict(),
            "psi_star_tail": self.psi_star_tail.to_dict(),
            "verdict": self.verdict,
            "rule": self.rule,
            "dual_rule": self.dual_rule,
        }


def _dyadic_blocks(f):
    a = 2.0 ** np.arange(_K_MAX + 1)
    t = a[:, None] * (1.0 + _GL_X)  # row k: block [2^k, 2^{k+1}]
    # f(t)/t^3 = exp(log f - 3 ln t); past p ~ 19 the sums leave the
    # double range, which the check below reports
    with np.errstate(over="ignore"):
        vals = np.exp(np.asarray(f.log_eval(np.log(t))) - 3.0 * np.log(t))
        sums = np.sum(_GL_W * vals, axis=1) * a
    if not np.all(np.isfinite(sums)):
        raise NumericalError("non-finite dyadic block sum")
    return sums.tolist()


def _fit_exponent(sums):
    k0, k1 = _FIT_RANGE
    ks = np.arange(k0, k1 + 1)
    vals = np.array(sums[k0:k1 + 1])
    pos = vals > 0.0
    if pos.sum() < 5:
        return -np.inf
    coef = np.polyfit(np.log(ks[pos].astype(float)), np.log(vals[pos]), 1)
    return float(coef[0])


def tail_status(f):
    """(status, rule) of int_2^inf f(t) t^-3 dt (= int_0^{1/2} f(1/r) r dr)
    for a ``LogPower`` f, in closed form from its (p, gamma)."""
    _check_integrand(f, "tail_status")
    if f.p < 2.0:
        return CONVERGES, "closed_form p<2"
    if f.p > 2.0:
        return DIVERGES, "closed_form p>2"
    if f.gamma < -1.0:
        return CONVERGES, "closed_form p=2, gamma < -1"
    return DIVERGES, "closed_form p=2, gamma >= -1"


def tail_integral_verdict(f):
    """``tail_status`` of a ``LogPower`` f, with its dyadic block sums and
    their fitted decay exponent as diagnostics, for ``classify``'s report."""
    status, rule = tail_status(f)
    sums = _dyadic_blocks(f)
    return TailVerdict(status, _fit_exponent(sums), sums, rule)


_PAIR_GRID = np.logspace(0.0, 8.0, 60)


def _pair_values(f):
    """f on the pair-check grid; overflow and NaN are left to ``_check_pair``."""
    with np.errstate(all="ignore"):
        return np.asarray(f(_PAIR_GRID))


def _check_pair(phi_vals, psi_vals):
    """Preconditions of the pair from its ``_pair_values``: phi/psi finite,
    tending to 0, and bounded."""
    with np.errstate(all="ignore"):
        ratio = phi_vals / psi_vals
    if not np.all(np.isfinite(ratio)):
        raise PreconditionError("phi/psi not finite on the sampled grid")
    # phi/psi -> 0 shows up as a strictly decreasing ratio on the log grid;
    # slowly decaying log factors never get near 0 in double precision
    if not (np.all(np.diff(ratio) < 0.0) and ratio[-1] < 0.95 * ratio[0]):
        raise PreconditionError("phi(t)/psi(t) does not tend to 0")
    if np.max(ratio) > 1e6:
        raise PreconditionError("phi is not dominated by psi on the sampled grid")


def _verdict(phi_status, psi_star_status):
    """(verdict, rule) from the two tail statuses: Gap iff both converge."""
    if phi_status == DIVERGES:
        return NO_GAP, "phi tail integral infinite"
    if psi_star_status == DIVERGES:
        return NO_GAP, "psi* tail integral infinite"
    return GAP, "both tail integrals finite"


def classify(phi, psi):
    """RegimeReport for the double-phase pair: Gap iff both tails converge."""
    _check_pair(_pair_values(phi), _pair_values(psi))

    phi_tail = tail_integral_verdict(phi)
    psi_star_tail = tail_integral_verdict(conjugate(psi))
    verdict, rule = _verdict(phi_tail.status, psi_star_tail.status)

    # duality: for the conjugate pair (psi*, phi*) the roles swap and its
    # psi*-tail is that of phi** = phi, so a diverging phi tail decides it too
    dual_rule = ("dual pair (psi*, phi*) is NoGap by its psi*-tail"
                 if phi_tail.status == DIVERGES else None)

    return RegimeReport(phi_tail, psi_star_tail, verdict, rule, dual_rule)


def _single_phase(alpha, beta):
    return -beta >= alpha


def classify_alpha_beta(alpha, beta, p=2.0):
    """Closed-form family Phi_{p,alpha,beta}: phi = t^p log^-beta, psi = t^p log^alpha."""
    if _single_phase(alpha, beta):
        raise PreconditionError("alpha + beta <= 0: single-phase regime, "
                                "phi/psi does not tend to 0")
    return classify(LogPower(p, -beta), LogPower(p, alpha))


def phase_diagram(alphas, betas, p=2.0):
    """Verdict table over the (alpha, beta) grid, ordered by (alpha, beta).

    Each row's verdict is ``classify_alpha_beta(alpha, beta, p).verdict``,
    read from ``tail_status`` without block sums.  Each distinct beta (phi)
    and alpha (psi) builds its integrand and pair-check values at its first
    use, walking the cells in row order, and its tail status (of phi, or of
    psi*) at its first passing pair check; each cell runs only the pair
    check.  A cell outside the double-phase regime (alpha + beta <= 0) reads
    ``"SinglePhase"`` and builds nothing; the first other failing cell
    raises what ``classify_alpha_beta`` raises for it, and an empty axis
    raises RangeError.
    """
    if len(alphas) == 0 or len(betas) == 0:
        raise RangeError("phase diagram needs at least one alpha and one beta")

    # axis value -> [integrand, its pair-check values, tail status]: phi's
    # own status per beta, that of conjugate(psi) per alpha
    phis, psis = {}, {}

    def axis(memo, key, gamma):
        if key not in memo:
            f = LogPower(p, gamma)
            memo[key] = [f, _pair_values(f), None]
        return memo[key]

    def cell(a, b):
        if _single_phase(a, b):
            return "SinglePhase"
        phi, psi = axis(phis, b, -b), axis(psis, a, a)
        _check_pair(phi[1], psi[1])
        # after the pair check, as in classify: conjugate(psi) can raise
        phi[2] = phi[2] or tail_status(phi[0])[0]
        psi[2] = psi[2] or tail_status(conjugate(psi[0]))[0]
        return _verdict(phi[2], psi[2])[0]

    return [(float(a), float(b), cell(a, b))
            for a in sorted(alphas) for b in sorted(betas)]
