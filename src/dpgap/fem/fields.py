"""Discrete fields: conforming nodal functions and their jump enrichment.

The enrichment direction is E = eta(r) * u2(x) with eta a radial cubic
smoothstep equal to 1 on r <= 1/4 and 0 on r >= 1/2.  E carries the cone
jump (+1/2 / -1/2 across the saddle) while vanishing on the outer boundary,
so adding the single scalar amplitude s turns the conforming space into the
codimension-one-larger jump space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from ..geometry import eval_grad_u2, eval_u2, theta, theta_prime


def enrichment_window(r):
    """eta(r): 1 on r <= 1/4, 0 on r >= 1/2 (reversed smoothstep)."""
    return 1.0 - theta(r)


def enrichment_window_prime(r):
    return -theta_prime(r)


def enrichment_value(points):
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    r = np.hypot(pts[:, 0], pts[:, 1])
    return enrichment_window(r) * eval_u2(pts[:, 0], pts[:, 1])


def enrichment_gradient(points):
    """Analytic grad E = eta'(r) rhat u2 + eta grad u2; (N, 2)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    x1, x2 = pts[:, 0], pts[:, 1]
    r = np.hypot(x1, x2)
    u2 = np.atleast_1d(eval_u2(x1, x2))
    gu = eval_grad_u2(x1, x2)
    if gu.ndim == 1:
        gu = gu[:, None]
    eta = enrichment_window(r)
    etap = enrichment_window_prime(r)
    out = np.zeros_like(pts)
    pos = r > 0.0
    out[pos, 0] = etap[pos] * (x1[pos] / r[pos]) * u2[pos] + eta[pos] * gu[0][pos]
    out[pos, 1] = etap[pos] * (x2[pos] / r[pos]) * u2[pos] + eta[pos] * gu[1][pos]
    return out


def enrichment_quad_gradient(mesh):
    """grad E at the mesh quadrature points, cached on the mesh."""
    ge = getattr(mesh, "_enrichment_quad_grad", None)
    if ge is None:
        ge = enrichment_gradient(mesh.qpts)
        ge.setflags(write=False)
        object.__setattr__(mesh, "_enrichment_quad_grad", ge)
    return ge


def element_starts(qel, n_elements):
    """Index of the first point of each element in the sorted owner array qel.

    Every element must own at least one point: np.add.reduceat over these
    starts then sums exactly the points of each element.
    """
    starts = np.searchsorted(qel, np.arange(n_elements))
    assert np.all(np.diff(starts, append=len(qel)) > 0), "element without points"
    return starts


def enrichment_quad_rule(mesh):
    """(qw, qel, ge, starts): the quadrature rule of enriched fields, cached.

    The split rule of the full one (mesh.qpts/qw/qel). An element where grad E
    is exactly 0 at every full-rule point keeps a single point with weight
    area and ge = 0: an enriched field's gradient, and so its integrand, is
    constant there. Every other element keeps all its full-rule points. qel
    stays sorted, and starts[e] is the first point of element e.
    """
    rule = getattr(mesh, "_enrichment_quad_rule", None)
    if rule is None:
        ge = enrichment_quad_gradient(mesh)
        qel = mesh.qel
        active = np.zeros(mesh.n_elements, dtype=bool)
        active[qel[np.any(ge != 0.0, axis=1)]] = True
        keep = active[qel]
        keep[element_starts(qel, mesh.n_elements)] = True
        qel_split = qel[keep]
        lone = ~active[qel_split]
        qw = np.where(lone, mesh.area[qel_split], mesh.qw[keep])
        ge_split = ge[keep]
        ge_split[lone] = 0.0
        rule = (qw, qel_split, ge_split, element_starts(qel_split, mesh.n_elements))
        for arr in rule:
            arr.setflags(write=False)
        object.__setattr__(mesh, "_enrichment_quad_rule", rule)
    return rule


@dataclass
class DofField:
    """Continuous piecewise-linear field given by vertex values."""

    mesh: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.mesh.n_vertices,):
            raise DomainError("nodal vector length does not match the mesh")

    @classmethod
    def zeros(cls, mesh):
        return cls(mesh, np.zeros(mesh.n_vertices))

    @classmethod
    def interpolate(cls, mesh, func):
        """Nodal interpolant of func(x1, x2)."""
        return cls(mesh, np.asarray(func(mesh.nodes[:, 0], mesh.nodes[:, 1]),
                                    dtype=np.float64))

    def element_gradients(self):
        return self.mesh.element_gradients(self.values)

    def evaluate(self, points):
        return self.mesh.evaluate(self.values, points)


@dataclass
class EnrichedField:
    """Conforming base plus s times the jump direction E = eta * u2."""

    base: DofField
    s: float = 0.0

    @property
    def mesh(self):
        return self.base.mesh

    def evaluate(self, points):
        vals = self.base.evaluate(points)
        if self.s != 0.0:
            vals = vals + self.s * enrichment_value(points)
        return vals
