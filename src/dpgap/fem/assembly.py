"""Energy, gradient, Hessian and linear-term assembly on the criss-cross mesh.

Energy, gradient and Hessian share one path over integration points. For a
conforming field the points are the elements themselves: its gradient is
constant per element, so each element is one point weighted by its area. For
an enriched field the points are the split rule of ``enrichment_quad_rule``:
the full quadrature points where the analytic enrichment gradient is nonzero
somewhere in the element, and one point weighted by the area in every other
element, where the integrand is constant. Per-point terms are summed into
their owning elements over contiguous segments, since the points are sorted
by element. The only branch is the work that the jump amplitude s adds.
Gradient and Hessian return their nodal part and their s part separately:
(nodal gradient, d/ds) and (nodal block K, node-s border, s-s entry), with
None for the s part of a conforming field. How the s dof is laid out next to
the nodal ones is left to ``solve``.
The b2 pairing of ``linear_term_vector`` keeps the full rule
(mesh.qpts/qw/qel): b2 is nonzero where the enrichment gradient vanishes.
Summation orders are fixed (element order, then quadrature order) so repeated
runs are bit-identical.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import EnergyOverflowError
from ..geometry import eval_b2
from .fields import (EnrichedField, element_starts, enrichment_quad_gradient,
                     enrichment_quad_rule)

_GRAD_FLOOR = 1e-12


def _split_pair(pair):
    """Accept a DoublePhase or a single phase-independent integrand."""
    if hasattr(pair, "phi") and hasattr(pair, "psi"):
        return pair.phi, pair.psi
    return pair, None


def _integrand(pair, t, a, order):
    """Phi(t), Phi'(t)/t or Phi''(t) for order 0, 1 or 2, Phi = phi + a psi.

    Phi'/t takes its small-t analytic limit below the gradient floor.
    """
    def term(f):
        if order == 0:
            return np.asarray(f(t))
        if order == 1:
            return np.asarray(f.deriv_ratio(t, floor=_GRAD_FLOOR))
        return np.asarray(f.second_deriv(t))

    phi, psi = _split_pair(pair)
    vals = term(phi)
    if psi is not None:
        vals = vals + a * term(psi)
    return vals


def _points(u, mesh):
    """(g, |g|, weight, phase, starts, ge) at the integration points of u.

    A conforming field is evaluated once per element, weighted by the area;
    starts and ge are then None. An enriched field is evaluated at the points
    of the split rule, sorted by element with starts[e] the first point of
    element e, and ge is the enrichment gradient there.
    """
    if isinstance(u, EnrichedField):
        qw, qel, ge, starts = enrichment_quad_rule(mesh)
        g = u.base.element_gradients()[qel] + u.s * ge
        return g, np.linalg.norm(g, axis=1), qw, mesh.phase[qel], starts, ge
    g = u.element_gradients()
    return g, np.linalg.norm(g, axis=1), mesh.area, mesh.phase, None, None


def _per_element(values, starts):
    """Sum per-point values into their elements (conforming points are elements)."""
    if starts is None:
        return values
    return np.add.reduceat(values, starts, axis=0)


def _to_nodes(contrib, mesh):
    """Sum (Ne, 3) per-element vertex terms into the vertices."""
    return np.bincount(mesh.tris.ravel(), contrib.ravel(), minlength=mesh.n_vertices)


def modular_energy(u, pair, mesh=None):
    """Quadrature of phi(|grad u|) + a psi(|grad u|) over the mesh."""
    mesh = mesh or u.mesh
    _, t, w, a, _, _ = _points(u, mesh)
    total = float(np.sum(w * _integrand(pair, t, a, 0)))
    if not np.isfinite(total):
        raise EnergyOverflowError("non-finite modular energy")
    return total


def modular_gradient(u, pair, mesh=None):
    """(nodal gradient (Nv,), d/ds or None) of the modular energy."""
    mesh = mesh or u.mesh
    g, t, w, a, starts, ge = _points(u, mesh)
    m = (w * _integrand(pair, t, a, 1))[:, None] * g  # (points, 2)
    contrib = np.einsum("ejk,ek->ej", mesh.grad_basis, _per_element(m, starts))
    nodal = _to_nodes(contrib, mesh)
    if ge is None:
        return nodal, None
    return nodal, float(np.sum(m * ge))


def modular_hessian(u, pair, mesh=None):
    """(nodal block K, node-s border or None, s-s entry or None) of the Hessian.

    K is the sparse (Nv, Nv) Hessian over the nodal dofs. An enriched field
    adds the (Nv,) cross terms between the nodes and s and the float s-s
    entry; a conforming field returns None for both.
    """
    mesh = mesh or u.mesh
    g, t, w, a, starts, ge = _points(u, mesh)
    H = _pointwise_hessian(g, t, _integrand(pair, t, a, 2), _integrand(pair, t, a, 1))
    B = mesh.grad_basis
    # node-node block, weighted and summed per element in 2x2 form first
    M = _per_element(H * w[:, None, None], starts)
    Ke = np.einsum("ejk,ekl,eml->ejm", B, M, B)
    nv = mesh.n_vertices
    K = sp.coo_matrix((Ke.ravel(), (np.repeat(mesh.tris, 3, axis=1).ravel(),
                                   np.tile(mesh.tris, (1, 3)).ravel())),
                      shape=(nv, nv)).tocsr()
    if ge is None:
        return K, None, None
    Hge = np.einsum("qkl,ql->qk", H, ge)
    border = _to_nodes(np.einsum("ejk,ek->ej", B, _per_element(w[:, None] * Hge, starts)),
                       mesh)
    h_ss = float(np.sum(w * np.einsum("qk,qk->q", ge, Hge)))
    return K, border, h_ss


def _pointwise_hessian(g, t, k1, k2):
    """kappa2 I + (kappa1 - kappa2) ghat ghat^T, with ghat = 0 below the floor."""
    n = len(t)
    H = np.zeros((n, 2, 2))
    H[:, 0, 0] = k2
    H[:, 1, 1] = k2
    big = t > _GRAD_FLOOR
    ghat = np.zeros_like(g)
    ghat[big] = g[big] / t[big, None]
    d = (k1 - k2)
    H[:, 0, 0] += d * ghat[:, 0] ** 2
    H[:, 0, 1] += d * ghat[:, 0] * ghat[:, 1]
    H[:, 1, 0] = H[:, 0, 1]
    H[:, 1, 1] += d * ghat[:, 1] ** 2
    return H


def linear_term_vector(mesh):
    """(L, L_s) with int b2 . grad u = L . values + L_s s for every field.

    b2 is evaluated once per mesh, at the full-rule quadrature points, and
    the result is cached on the mesh. ``separating_functional`` uses both
    parts. The G objective uses only L_s: int b2 . grad u = 0 for every
    continuous piecewise-linear u with zero boundary values (b2 is the
    perpendicular gradient of a bounded W^{1,1} stream function, hence
    distributionally divergence free, and such u are Lipschitz), so L . values
    is quadrature error on a conforming field and is left out there.
    """
    cached = getattr(mesh, "_linear_term", None)
    if cached is not None:
        return cached
    ge = enrichment_quad_gradient(mesh)
    b = eval_b2(mesh.qpts[:, 0], mesh.qpts[:, 1]).T  # (Nq, 2)
    L_s = float(np.sum(mesh.qw * np.einsum("qk,qk->q", b, ge)))
    per_elem = _per_element(mesh.qw[:, None] * b, element_starts(mesh.qel, mesh.n_elements))
    L = _to_nodes(np.einsum("ejk,ek->ej", mesh.grad_basis, per_elem), mesh)
    object.__setattr__(mesh, "_linear_term", (L, L_s))
    return L, L_s


def separating_functional(u, mesh=None):
    """u -> int b2 . grad u; vanishes on conforming fields under refinement."""
    L, L_s = linear_term_vector(mesh or u.mesh)
    if isinstance(u, EnrichedField):
        return float(L @ u.base.values) + float(u.s) * L_s
    return float(L @ u.values)


def functional_G(u, pair, mesh=None):
    """G(u) = modular energy + int b2 . grad u."""
    mesh = mesh or u.mesh
    return modular_energy(u, pair, mesh) + separating_functional(u, mesh)
