"""Checkerboard weight and the saddle-point fields on (-1,1)^2.

All fields are built from one transition profile theta: 0 below 1/4, 1 above
1/2, realized as a cubic smoothstep whose maximal slope is exactly 6.  The
jump function is u2 = sgn(x2)/2 * theta(|x2|/|x1|); the solenoidal vector
field is b2 = curl of v = sgn(x1)/2 * theta(|x1|/|x2|), with the component
convention b2 = (d2 A_12, d1 A_21) of the row-wise matrix divergence.

Everything is vectorized; scalar inputs give scalar outputs.  The fields are
smooth away from the origin; at the origin every evaluation returns 0 (the
degenerate point, see ``ORIGIN_FLAG``).
"""

from __future__ import annotations

import numpy as np

from .errors import RangeError

THETA_LO = 0.25
THETA_HI = 0.5
THETA_MAX_SLOPE = 6.0  # exact for the cubic smoothstep on [1/4, 1/2]

ORIGIN_FLAG = "fields return 0 at the origin by convention"


def theta(s):
    """Transition profile: 0 on (-inf, 1/4], 1 on [1/2, inf), C^1 cubic."""
    s = np.asarray(s, dtype=np.float64)
    u = np.clip((s - THETA_LO) / (THETA_HI - THETA_LO), 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def theta_prime(s):
    s = np.asarray(s, dtype=np.float64)
    u = (s - THETA_LO) / (THETA_HI - THETA_LO)
    inside = (u > 0.0) & (u < 1.0)
    out = np.zeros_like(s)
    ui = u[inside]
    out[inside] = 6.0 * ui * (1.0 - ui) / (THETA_HI - THETA_LO)
    return out


def eval_weight(x1, x2):
    """Checkerboard weight: 1 on |x1| < |x2| (vertical cones), else 0.

    Ties |x1| = |x2| belong to the cheap phase (a = 0) so that elementwise
    constant weights on the criss-cross mesh are well defined.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    return (np.abs(x1) < np.abs(x2)).astype(np.float64)


def _safe_ratio(num, den):
    # num/den with den==0 mapped to +inf (theta saturates there anyway)
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.full(den.shape, np.inf)
    nz = den != 0.0
    out[nz] = num[nz] / den[nz]
    return out


def eval_u2(x1, x2):
    """u2 = sgn(x2)/2 * theta(|x2|/|x1|); +-1/2 on the vertical cones."""
    x1 = np.atleast_1d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_1d(np.asarray(x2, dtype=np.float64))
    ratio = _safe_ratio(np.abs(x2), np.abs(x1))
    val = 0.5 * np.sign(x2) * theta(ratio)
    val[(x1 == 0.0) & (x2 == 0.0)] = 0.0
    return val if val.size > 1 else float(val[0])


def eval_grad_u2(x1, x2):
    """Analytic gradient of u2; zero outside 2|x2| <= |x1| <= 4|x2|."""
    x1 = np.atleast_1d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_1d(np.asarray(x2, dtype=np.float64))
    g = np.zeros((2,) + x1.shape)
    nz = x1 != 0.0
    a1 = np.abs(x1[nz])
    ratio = np.abs(x2[nz]) / a1
    tp = theta_prime(ratio)
    # d/dx1 (|x2|/|x1|) = -|x2| sgn(x1) / x1^2 ; d/dx2 = sgn(x2)/|x1|
    g[0][nz] = 0.5 * np.sign(x2[nz]) * tp * (-np.abs(x2[nz]) * np.sign(x1[nz]) / x1[nz] ** 2)
    g[1][nz] = 0.5 * tp / a1
    return g if x1.size > 1 else g[:, 0]


def eval_v(x1, x2):
    """Stream function v = sgn(x1)/2 * theta(|x1|/|x2|)."""
    x1 = np.atleast_1d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_1d(np.asarray(x2, dtype=np.float64))
    ratio = _safe_ratio(np.abs(x1), np.abs(x2))
    val = 0.5 * np.sign(x1) * theta(ratio)
    val[(x1 == 0.0) & (x2 == 0.0)] = 0.0
    return val if val.size > 1 else float(val[0])


def eval_b2(x1, x2):
    """Solenoidal field b2; supported on the cones 2|x1| <= |x2| <= 4|x1|.

    Components: b2 = (sgn(x1) sgn(x2) |x1| theta'(s) / (2 x2^2),
    theta'(s) / (2 |x2|)) with s = |x1|/|x2|; equal to the row-wise
    divergence of the rotation-matrix potential, cross-checked against the
    perpendicular gradient of v by finite differences in the tests.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_1d(np.asarray(x2, dtype=np.float64))
    b = np.zeros((2,) + x1.shape)
    nz = x2 != 0.0
    a2 = np.abs(x2[nz])
    ratio = np.abs(x1[nz]) / a2
    tp = theta_prime(ratio)
    b[0][nz] = np.sign(x1[nz]) * np.sign(x2[nz]) * np.abs(x1[nz]) * tp / (2.0 * x2[nz] ** 2)
    b[1][nz] = tp / (2.0 * a2)
    return b if x1.size > 1 else b[:, 0]


def _simpson_rule(n_quad):
    """Composite Simpson nodes and weights on [-1, 1], n_quad rounded up to even."""
    n = int(n_quad)
    if n % 2:
        n += 1
    xs = np.linspace(-1.0, 1.0, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (2.0 / n) / 3.0
    return xs, w


def boundary_flux(n_quad):
    """Quadrature of (b2 . nu) u2 over the four sides of (-1,1)^2.

    Composite Simpson with n_quad subintervals per side; converges to 1.
    """
    if n_quad < 64:
        raise RangeError("n_quad >= 64 required")
    total = 0.0
    # a plain loop keeps the summation order fixed; sum() compensates on
    # Python >= 3.12 and would change the last bits
    for value in boundary_flux_segments(n_quad).values():
        total += value
    return total


def boundary_flux_segments(n_quad):
    """Per-side contributions, for the support audit of the flux integrand."""
    xs, w = _simpson_rule(n_quad)
    sides = {}
    # top / bottom: nu = (0, +-1)
    for side, x2s, sgn in (("top", 1.0, 1.0), ("bottom", -1.0, -1.0)):
        x2 = np.full_like(xs, x2s)
        integrand = sgn * eval_b2(xs, x2)[1] * eval_u2(xs, x2)
        sides[side] = float(np.sum(w * integrand))
    # right / left: nu = (+-1, 0)
    for side, x1s, sgn in (("right", 1.0, 1.0), ("left", -1.0, -1.0)):
        x1 = np.full_like(xs, x1s)
        integrand = sgn * eval_b2(x1, xs)[0] * eval_u2(x1, xs)
        sides[side] = float(np.sum(w * integrand))
    return sides


def disjoint_support_audit(n_samples, seed):
    """max over uniform random points of |grad u2| * |b2|; contract: 0."""
    if n_samples < 1:
        raise RangeError("n_samples >= 1 required")
    rng = np.random.default_rng(seed)
    worst = 0.0
    remaining = int(n_samples)
    while remaining > 0:
        m = min(remaining, 1_000_000)
        pts = rng.uniform(-1.0, 1.0, size=(2, m))
        gu = eval_grad_u2(pts[0], pts[1])
        b = eval_b2(pts[0], pts[1])
        prod = np.hypot(gu[0], gu[1]) * np.hypot(b[0], b[1])
        worst = max(worst, float(prod.max()))
        remaining -= m
    return worst


def sample_fields_grid(resolution):
    """Rows (x1, x2, a, u2, |grad_u2|, |b2|) on a uniform cell-center grid."""
    n = int(resolution)
    if n < 1:
        raise RangeError("resolution >= 1 required")
    xs = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    X1, X2 = np.meshgrid(xs, xs, indexing="ij")
    x1 = X1.ravel()
    x2 = X2.ravel()
    gu = eval_grad_u2(x1, x2)
    b = eval_b2(x1, x2)
    return np.column_stack([
        x1, x2,
        eval_weight(x1, x2),
        eval_u2(x1, x2),
        np.hypot(gu[0], gu[1]),
        np.hypot(b[0], b[1]),
    ])
