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
    """E = eta(r) u2 at points of shape (..., 2); shape (...)."""
    pts = np.asarray(points, dtype=np.float64)
    x1, x2 = pts[..., 0], pts[..., 1]
    return enrichment_window(np.hypot(x1, x2)) * eval_u2(x1, x2)


def enrichment_gradient(points):
    """Analytic grad E = eta'(r) rhat u2 + eta grad u2; the shape of points."""
    pts = np.asarray(points, dtype=np.float64)
    x1, x2 = pts.reshape(-1, 2).T
    r = np.hypot(x1, x2)
    u2 = eval_u2(x1, x2)
    gu = eval_grad_u2(x1, x2)
    eta = enrichment_window(r)
    etap = enrichment_window_prime(r)
    out = np.zeros((len(r), 2))
    pos = r > 0.0
    out[pos, 0] = etap[pos] * (x1[pos] / r[pos]) * u2[pos] + eta[pos] * gu[0][pos]
    out[pos, 1] = etap[pos] * (x2[pos] / r[pos]) * u2[pos] + eta[pos] * gu[1][pos]
    return out.reshape(pts.shape)


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
