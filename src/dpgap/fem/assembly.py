"""Energy, gradient, Hessian and the b2 pairing on the criss-cross mesh.

Nodal terms go through one operator, the mesh's discrete gradient G: element
gradients are G u, a per-element (Ne, 2) vector m (the gradient, the node-s
border, the b2 pairing) reaches the nodes as G^T m, and the nodal Hessian
block is K = (D G)^T G, with D block-diagonal in the per-element 2x2 Hessian
sums and D G formed on G's own pattern.

Energy, gradient and Hessian share one path over integration points. For a
conforming field the points are the elements, weighted by area, as its
gradient is constant per element. For an enriched field they are the split
rule of ``enrichment_rule``: the full quadrature points of every element
where the analytic enrichment gradient is nonzero somewhere, one point
weighted by the area in every other element. Points are sorted by element, so
per-point terms are summed into their elements over contiguous segments. The
only branch is the work that the jump amplitude s adds: gradient and Hessian
return (nodal gradient, d/ds) and (nodal block K, node-s border, s-s entry),
None for the s part of a conforming field; ``solve`` lays out the s dof.
``enrichment_rule`` also holds the b2 pairing, integrated at the full rule
(b2 is nonzero where the enrichment gradient vanishes); that record is the
only thing assembly writes to a mesh. Summation orders are fixed (element
order, then quadrature order) so repeated runs are bit-identical.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
import scipy.sparse as sp

from ..errors import EnergyOverflowError
from ..geometry import eval_b2
from .fields import EnrichedField, enrichment_gradient
from .mesh import _full_rule_block

_GRAD_FLOOR = 1e-12


def _integrand(pair, t, a, order):
    """Phi(t), Phi'(t)/t or Phi''(t) for order 0, 1 or 2, Phi = phi + a psi of
    a DoublePhase pair.

    Phi'/t takes its small-t analytic limit below the gradient floor.
    """
    def term(f):
        if order == 0:
            return np.asarray(f(t))
        if order == 1:
            return np.asarray(f.deriv_ratio(t, floor=_GRAD_FLOOR))
        return np.asarray(f.second_deriv(t))

    return term(pair.phi) + a * term(pair.psi)


def _points(u):
    """(g, |g|, weight, phase, starts, ge) at the integration points of u.

    A conforming field is evaluated once per element, weighted by the area;
    starts and ge are then None. An enriched field is evaluated at the points
    of the split rule, sorted by element with starts[e] the first point of
    element e, and ge is the enrichment gradient there.
    """
    mesh = u.mesh
    if isinstance(u, EnrichedField):
        qw, qel, ge, starts, _, _ = enrichment_rule(mesh)
        g = u.base.element_gradients()[qel] + u.s * ge
        return g, np.linalg.norm(g, axis=1), qw, mesh.phase[qel], starts, ge
    g = u.element_gradients()
    return g, np.linalg.norm(g, axis=1), mesh.area, mesh.phase, None, None


def _per_element(values, starts):
    """Sum per-point values into their elements (conforming points are elements)."""
    if starts is None:
        return values
    return np.add.reduceat(values, starts, axis=0)


def modular_energy(u, pair):
    """Quadrature of phi(|grad u|) + a psi(|grad u|) over u's mesh."""
    _, t, w, a, _, _ = _points(u)
    total = float(np.sum(w * _integrand(pair, t, a, 0)))
    if not np.isfinite(total):
        raise EnergyOverflowError("non-finite modular energy")
    return total


def modular_gradient(u, pair):
    """(nodal gradient (Nv,), d/ds or None) of the modular energy."""
    g, t, w, a, starts, ge = _points(u)
    m = (w * _integrand(pair, t, a, 1))[:, None] * g  # (points, 2)
    nodal = u.mesh.grad.T @ _per_element(m, starts).ravel()
    if ge is None:
        return nodal, None
    return nodal, float(np.sum(m * ge))


def modular_hessian(u, pair):
    """(nodal block K, node-s border or None, s-s entry or None) of the Hessian.

    K is the sparse (Nv, Nv) Hessian (D G)^T G over the nodal dofs. An
    enriched field adds the (Nv,) cross terms between the nodes and s and the
    float s-s entry; a conforming field returns None for both.
    """
    G = u.mesh.grad
    m, border, h_ss = _element_hessian(u, pair)
    # rows 2e and 2e+1 of G hold element e's vertices, and so does row 2e+b of D G:
    # M[0,b] G[2e] + M[1,b] G[2e+1], M = [[m0, m1], [m1, m2]]. Vertices go in reverse
    # and exact zeros are dropped, as in SciPy's G^T D, so K sums and stores alike.
    Ge = G.data.reshape(-1, 2, 1, 3)[..., ::-1]
    DG = sp.csr_matrix(((m[:, [0, 1], None] * Ge[:, 0] + m[:, [1, 2], None] * Ge[:, 1]).ravel(),
                        G.indices.reshape(-1, 3)[:, ::-1].ravel(), G.indptr.copy()), shape=G.shape)
    del m  # before the product, which sets the peak
    DG.eliminate_zeros()
    return DG.T @ G, border, h_ss


def _element_hessian(u, pair):
    """(element sums (Ne, 3) of w (H00, H01, H11), border or None, s-s entry or None)."""
    g, t, w, a, starts, ge = _points(u)
    h00, h01, h11 = _pointwise_hessian(g, t, _integrand(pair, t, a, 2), _integrand(pair, t, a, 1))
    del g, t, a  # before the element sums and the border
    m = _per_element(np.column_stack([h00, h01, h11]) * w[:, None], starts)
    if ge is None:
        return m, None, None
    Hge = np.column_stack([h00 * ge[:, 0] + h01 * ge[:, 1], h01 * ge[:, 0] + h11 * ge[:, 1]])
    border = u.mesh.grad.T @ _per_element(w[:, None] * Hge, starts).ravel()
    return m, border, float(np.sum(w * np.einsum("qk,qk->q", ge, Hge)))


def _pointwise_hessian(g, t, k1, k2):
    """(H00, H01, H11) of kappa2 I + (kappa1 - kappa2) ghat ghat^T; ghat = 0 below the floor."""
    ghat = np.divide(g, t[:, None], out=np.zeros_like(g), where=(t > _GRAD_FLOOR)[:, None])
    d = k1 - k2  # H01 = 0.0 + ... is never -0.0
    return k2 + d * ghat[:, 0] ** 2, 0.0 + d * ghat[:, 0] * ghat[:, 1], k2 + d * ghat[:, 1] ** 2


EnrichmentRule = namedtuple("EnrichmentRule", "qw qel ge starts L L_s")

# elements per block of the full rule that enrichment_rule holds at once
_CHUNK_ELEMENTS = 1024


def _b2_pairing(qpts, qw, ge, starts):
    """Per-element sums (Nb, 2) of qw b2 and (Nb,) of qw b2 . grad E over a
    block of the full rule, given grad E (ge) at its points qpts and the first
    point of each of its Nb elements (starts).

    The G objective uses only their total L_s: int b2 . grad u = 0 for every
    continuous piecewise-linear u with zero boundary values (b2 is the
    perpendicular gradient of a bounded W^{1,1} stream function, hence
    distributionally divergence free, and such u are Lipschitz), so L . values
    is quadrature error on a conforming field and is left out there.
    """
    b = eval_b2(qpts[:, 0], qpts[:, 1]).T  # (Nq, 2)
    return (_per_element(qw[:, None] * b, starts),
            _per_element(qw * np.einsum("qk,qk->q", b, ge), starts))


def _split_block(mesh, lo, hi):
    """(qw, qel, ge, per-element counts, b2 sums, b2 . grad E sums) of the
    split rule on elements [lo, hi), from their block of the full rule."""
    qpts, qw, qel = _full_rule_block(mesh, lo, hi)
    # every element owns points in both rules, so reduceat over starts is exact
    counts = np.bincount(qel - lo, minlength=hi - lo)
    starts = np.cumsum(counts) - counts
    ge = enrichment_gradient(qpts)
    b_sums, bge_sums = _b2_pairing(qpts, qw, ge, starts)
    active = np.logical_or.reduceat(np.any(ge != 0.0, axis=1), starts)
    keep = active[qel - lo]
    keep[starts] = True
    qel = qel[keep]
    lone = ~active[qel - lo]
    ge = ge[keep]
    ge[lone] = 0.0
    return (np.where(lone, mesh.area[qel], qw[keep]), qel, ge,
            np.where(active, counts, 1), b_sums, bge_sums)


def enrichment_rule(mesh):
    """(qw, qel, ge, starts, L, L_s): the mesh's split rule and b2 pairing.

    Built once per mesh and stored on it, read-only. grad E and b2 are
    evaluated once at each point of the full rule, taken ``_CHUNK_ELEMENTS``
    elements at a time. The split: an element where grad E is exactly 0 at
    every full-rule point keeps a single point with weight area and ge = 0
    (an enriched field's gradient, and so its integrand, is constant there);
    every other element keeps all its full-rule points. qel stays sorted,
    and starts[e] is the first point of element e. L and L_s give
    int b2 . grad u = L . values + L_s s; L_s sums per-element sums, so
    neither depends on the chunk size.
    """
    rule = getattr(mesh, "_enrichment_rule", None)
    if rule is not None:
        return rule
    ne = mesh.n_elements
    parts = [[] for _ in range(6)]
    for lo in range(0, ne, _CHUNK_ELEMENTS):
        for field_parts, part in zip(parts, _split_block(mesh, lo, min(lo + _CHUNK_ELEMENTS, ne))):
            field_parts.append(part)
    # join one field at a time and drop its parts, so none is held twice
    qw, qel, ge, n_split, b_sums, bge_sums = (np.concatenate(parts.pop(0)) for _ in range(6))
    L = mesh.grad.T @ b_sums.ravel()
    rule = EnrichmentRule(qw, qel, ge, np.cumsum(n_split) - n_split, L, float(np.sum(bge_sums)))
    for arr in rule[:-1]:
        arr.setflags(write=False)
    object.__setattr__(mesh, "_enrichment_rule", rule)
    return rule


def separating_functional(u):
    """u -> int b2 . grad u; vanishes on conforming fields under refinement."""
    rule = enrichment_rule(u.mesh)
    if isinstance(u, EnrichedField):
        return float(np.sum(rule.L * u.base.values)) + float(u.s) * rule.L_s
    return float(np.sum(rule.L * u.values))
