"""Gap / NoGap decision for a double-phase pair by tail-integral criteria.

The gap criterion for the checkerboard pair (phi, psi) is: both
``int_0 phi(1/r) r dr`` and ``int_0 psi*(1/r) r dr`` finite.  After the
substitution t = 1/r these become ``int_2^inf f(t) t^-3 dt``, finite iff
p < 2, or p = 2 and gamma < -1, for f = t^p log^gamma(e + t) (a ``LogPower``,
of which the pure power t^p is the gamma = 0 member).  ``tail_status`` is
this closed form in (p, gamma), and psi*'s are ``orlicz.conjugate_exponents``
of psi's, so the borderline cells are decided exactly; the dyadic block sums
and fitted decay exponent of ``tail_integral_verdict`` are only reported.

A verdict has three parts, shared by ``classify`` and ``phase_diagram``: the
pair check on phi and psi values at a fixed 60-point grid, one tail status
each for phi and psi*, and the status-to-verdict rule.  For the family
phi = t^p log^-beta, psi = t^p log^alpha a phase diagram costs one integrand
per distinct log exponent, one conjugate exponent map per distinct alpha,
and one pair check per cell.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError, RangeError
from .orlicz import LogPower, _check_integrand, conjugate_exponents

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
    fitted_exponent: float | None
    rule: str
    block_sums: list | None = field(repr=False)


@dataclass
class RegimeReport:
    phi_tail: TailVerdict
    psi_star_tail: TailVerdict
    verdict: str
    rule: str
    dual_rule: str | None = None

    def to_dict(self):
        return asdict(self)


def _dyadic_blocks(f):
    a = 2.0 ** np.arange(_K_MAX + 1)
    t = a[:, None] * (1.0 + _GL_X)  # row k: block [2^k, 2^{k+1}]
    # f(t)/t^3 = exp(log f - 3 ln t); past p ~ 19 the sums overflow: None
    with np.errstate(over="ignore"):
        vals = np.exp(np.asarray(f.log_eval(np.log(t))) - 3.0 * np.log(t))
        sums = np.sum(_GL_W * vals, axis=1) * a
    return sums.tolist() if np.all(np.isfinite(sums)) else None


def _fit_exponent(sums):
    k0, k1 = _FIT_RANGE
    ks = np.arange(k0, k1 + 1)
    vals = np.array(sums[k0:k1 + 1])
    pos = vals > 0.0
    if pos.sum() < 5:
        return None
    coef = np.polyfit(np.log(ks[pos].astype(float)), np.log(vals[pos]), 1)
    return float(coef[0])


def tail_status(p, gamma):
    """(status, rule) of int_2^inf f(t) t^-3 dt (= int_0^{1/2} f(1/r) r dr)
    for f = t^p log^gamma(e + t), in closed form."""
    if p < 2.0:
        return CONVERGES, "closed_form p<2"
    if p > 2.0:
        return DIVERGES, "closed_form p>2"
    if gamma < -1.0:
        return CONVERGES, "closed_form p=2, gamma < -1"
    return DIVERGES, "closed_form p=2, gamma >= -1"


def tail_integral_verdict(p, gamma):
    """``tail_status(p, gamma)``, with the dyadic block sums of
    ``LogPower(p, gamma)`` and their fitted decay exponent as diagnostics, for
    ``classify``'s report; each is None where its knot search fails, a sum
    overflows, or fewer than 5 sums are positive to fit."""
    status, rule = tail_status(p, gamma)
    try:
        sums = _dyadic_blocks(LogPower(p, gamma))
    except DomainError:
        sums = None
    return TailVerdict(status, None if sums is None else _fit_exponent(sums), rule, sums)


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
    _check_integrand(phi, "classify")
    _check_integrand(psi, "classify")
    _check_pair(_pair_values(phi), _pair_values(psi))

    phi_tail = tail_integral_verdict(phi.p, phi.gamma)
    psi_star_tail = tail_integral_verdict(*conjugate_exponents(psi.p, psi.gamma))
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
    read from ``tail_status`` without block sums.  Walking the cells in row
    order, each distinct log exponent (-beta of phi, alpha of psi) builds its
    integrand and pair-check values at its first use, and each distinct alpha
    maps psi's exponents to psi*'s at its first passing pair check.  A cell
    outside the double-phase regime (alpha + beta <= 0) reads
    ``"SinglePhase"`` and builds nothing; the first other failing cell
    raises what ``classify_alpha_beta`` raises for it, and an empty axis
    raises RangeError.
    """
    if len(alphas) == 0 or len(betas) == 0:
        raise RangeError("phase diagram needs at least one alpha and one beta")

    @functools.cache
    def pair_values(gamma):
        return _pair_values(LogPower(p, gamma))

    @functools.cache
    def psi_star_status(alpha):
        return tail_status(*conjugate_exponents(p, alpha))[0]

    def cell(a, b):
        if _single_phase(a, b):
            return "SinglePhase"
        _check_pair(pair_values(-b), pair_values(a))
        return _verdict(tail_status(p, -b)[0], psi_star_status(a))[0]

    return [(float(a), float(b), cell(a, b))
            for a in sorted(alphas) for b in sorted(betas)]
