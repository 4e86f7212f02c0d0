"""Gap / NoGap decision for a double-phase pair by tail-integral criteria.

The gap criterion for the checkerboard pair (phi, psi) is: both
``int_0 phi(1/r) r dr`` and ``int_0 psi*(1/r) r dr`` finite.  After the
substitution t = 1/r these become ``int_2^inf f(t) t^-3 dt``, tested by
dyadic block sums with a fitted decay exponent; log-power descriptors take
an exact closed-form path, so the borderline cells are decided exactly.

psi* is ``orlicz.conjugate(psi)``, the one conjugate rule: the closed-form
log-power conjugate for a ``LogPower``, the exact conjugate for a
``PurePower``, and a numeric ``TabulatedConjugate`` for anything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError, PreconditionError, RangeError
from .orlicz import LogPower, TabulatedConjugate, conjugate

CONVERGES = "Converges"
DIVERGES = "Diverges"
INCONCLUSIVE = "Inconclusive"

GAP = "Gap"
NO_GAP = "NoGap"

# |fitted block-decay exponent + 1| below the margin is numerically
# undecidable; tabulated conjugates inherit a growth-class bracket and use
# the wider margin
DYADIC_MARGIN = 0.05
DYADIC_MARGIN_TABULATED = 0.15

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
    block_sums: list = field(default_factory=list, repr=False)
    rule: str = "dyadic"

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


def _check_superlinear(f):
    # p_- > 1 growth check on a grid: f(t)/t should grow
    t = np.array([1e2, 1e4, 1e6])
    v = np.asarray(f(t)) / t
    if not (v[1] > v[0] and v[2] > v[1]):
        raise PreconditionError("integrand lacks superlinear growth")


def _dyadic_blocks(f):
    a = 2.0 ** np.arange(_K_MAX + 1)
    t = a[:, None] * (1.0 + _GL_X)  # row k: block [2^k, 2^{k+1}]
    with np.errstate(over="ignore"):
        if hasattr(f, "log_eval"):
            # overflow-free: f(t)/t^3 = exp(log f - 3 ln t)
            vals = np.exp(np.asarray(f.log_eval(np.log(t))) - 3.0 * np.log(t))
        else:
            vals = np.asarray(f(t)) / t**3
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


def tail_integral_verdict(f):
    """Convergence of int_2^inf f(t) t^-3 dt (= int_0^{1/2} f(1/r) r dr)."""
    _check_superlinear(f)

    if isinstance(f, LogPower):
        sums = _dyadic_blocks(f)
        fitted = _fit_exponent(sums)
        if f.p < 2.0:
            return TailVerdict(CONVERGES, fitted, sums, rule="closed_form p<2")
        if f.p > 2.0:
            return TailVerdict(DIVERGES, fitted, sums, rule="closed_form p>2")
        status = CONVERGES if f.gamma < -1.0 else DIVERGES
        return TailVerdict(status, fitted, sums,
                           rule=f"closed_form p=2, gamma {'<' if f.gamma < -1 else '>='} -1")

    margin = (DYADIC_MARGIN_TABULATED if isinstance(f, TabulatedConjugate)
              else DYADIC_MARGIN)
    sums = _dyadic_blocks(f)
    fitted = _fit_exponent(sums)
    if abs(fitted + 1.0) < margin:
        return TailVerdict(INCONCLUSIVE, fitted, sums)
    status = CONVERGES if fitted < -1.0 else DIVERGES
    return TailVerdict(status, fitted, sums)


def _check_pair_preconditions(phi, psi):
    t = np.logspace(0.0, 8.0, 60)
    ratio = np.asarray(phi(t)) / np.asarray(psi(t))
    if not np.all(np.isfinite(ratio)):
        raise PreconditionError("phi/psi not finite on the sampled grid")
    # phi/psi -> 0 shows up as a strictly decreasing ratio on the log grid;
    # slowly decaying log factors never get near 0 in double precision
    if not (np.all(np.diff(ratio) < 0.0) and ratio[-1] < 0.95 * ratio[0]):
        raise PreconditionError("phi(t)/psi(t) does not tend to 0")
    if np.max(ratio) > 1e6:
        raise PreconditionError("phi is not dominated by psi on the sampled grid")


def classify(phi, psi):
    """RegimeReport for the double-phase pair: Gap iff both tails converge."""
    _check_pair_preconditions(phi, psi)

    phi_tail = tail_integral_verdict(phi)
    psi_star_tail = tail_integral_verdict(conjugate(psi))

    statuses = (phi_tail.status, psi_star_tail.status)
    if statuses == (CONVERGES, CONVERGES):
        verdict, rule = GAP, "both tail integrals finite"
    elif DIVERGES in statuses:
        which = "phi" if phi_tail.status == DIVERGES else "psi*"
        verdict, rule = NO_GAP, f"{which} tail integral infinite"
    else:
        verdict, rule = INCONCLUSIVE, "borderline dyadic fit"

    dual_rule = None
    if verdict == NO_GAP and phi_tail.status == DIVERGES:
        # duality: for the conjugate pair (psi*, phi*) the roles swap and its
        # psi*-tail is the double conjugate of phi, i.e. the phi tail again
        if isinstance(phi, LogPower):
            dual_tail = tail_integral_verdict(conjugate(conjugate(phi)))
        else:
            dual_tail = phi_tail
        if dual_tail.status == DIVERGES:
            dual_rule = "dual pair (psi*, phi*) is NoGap by its psi*-tail"

    return RegimeReport(phi_tail, psi_star_tail, verdict, rule, dual_rule)


def classify_alpha_beta(alpha, beta, p=2.0, scale=1.0):
    """Closed-form family Phi_{p,alpha,beta}: phi = t^p log^-beta, psi = t^p log^alpha."""
    if -beta >= alpha:
        raise PreconditionError("alpha + beta <= 0: single-phase regime, "
                                "phi/psi does not tend to 0")
    return classify(LogPower(p, -beta, scale), LogPower(p, alpha, scale))


def phase_diagram(alphas, betas, p=2.0):
    """Verdict table over the (alpha, beta) grid, ordered by (alpha, beta).

    A cell outside the double-phase regime (alpha + beta <= 0) reads
    ``"SinglePhase"``; an empty axis raises RangeError.
    """
    if len(alphas) == 0 or len(betas) == 0:
        raise RangeError("phase diagram needs at least one alpha and one beta")

    def cell(a, b):
        try:
            return classify_alpha_beta(a, b, p).verdict
        except PreconditionError:
            return "SinglePhase"

    return [(float(a), float(b), cell(a, b))
            for a in sorted(alphas) for b in sorted(betas)]


@dataclass
class RegularityVerdict:
    regular: bool
    witness: tuple | None = None  # (eps, t) where the inequality fails worst
    growth_slope: float = 0.0
    sup_ratio: float = 0.0

    def __bool__(self):
        return self.regular


# cap on the bounded-factor allowance of the modulus comparison; the paper's
# condition is a growth-class statement, so a fixed factor is immaterial
MODULUS_BOUND_FACTOR = 256.0
MODULUS_GROWTH_SLOPE_MAX = 0.25


def regularity_modulus_check(omega, phi, psi, k0, d, eps_grid=None):
    """Does the weight modulus omega(eps) stay below k0 * min phi/psi?

    The minimum runs over 1 <= t <= eps^{-d}; for decreasing phi/psi (checked)
    it sits at the endpoint t = eps^{-d}.  Regular means the ratio
    omega / (k0 * min) stays bounded as eps -> 0; a diverging ratio fails
    with the worst (eps, t) as witness.
    """
    if d < 1:
        raise DomainError("dimension d >= 1 required")
    if eps_grid is None:
        eps_grid = np.logspace(-8.0, np.log10(0.25), 40)
    eps_grid = np.asarray(eps_grid, dtype=np.float64)
    if not (np.all(eps_grid > 0.0) and np.all(eps_grid <= 0.25)):
        raise DomainError("eps grid must lie in (0, 1/4]")
    om = np.asarray([float(omega(e)) for e in eps_grid])
    if np.any(np.diff(om[np.argsort(eps_grid)]) < -1e-12 * np.max(om)):
        raise PreconditionError("omega must be nondecreasing")

    ratios = np.empty_like(eps_grid)
    t_at_min = np.empty_like(eps_grid)
    for i, e in enumerate(eps_grid):
        t_hi = min(e ** (-float(d)), 1e280)
        ts = np.logspace(0.0, np.log10(t_hi), 200)
        q = np.asarray(phi(ts)) / np.asarray(psi(ts))
        j = int(np.argmin(q))
        t_at_min[i] = ts[j]
        ratios[i] = om[i] / (k0 * q[j])

    sup_ratio = float(np.max(ratios))

    i_worst = int(np.argmax(ratios))
    grows = _ratio_grows(eps_grid, ratios)
    if grows or sup_ratio > MODULUS_BOUND_FACTOR:
        return RegularityVerdict(False, (float(eps_grid[i_worst]), float(t_at_min[i_worst])),
                                 growth_slope=grows, sup_ratio=sup_ratio)
    return RegularityVerdict(True, None, growth_slope=grows, sup_ratio=sup_ratio)


def _ratio_grows(eps_grid, ratios):
    order = np.argsort(eps_grid)[::-1]  # from coarse eps down to 0
    x = np.log(np.log(1.0 / eps_grid[order]))
    y = np.log(np.maximum(ratios[order], 1e-300))
    slope = float(np.polyfit(x, y, 1)[0])
    return slope if slope > MODULUS_GROWTH_SLOPE_MAX else 0.0
