"""Graded criss-cross triangulation of (-1,1)^2, or of its quadrant [0,1]^2,
aligned with the checkerboard.

Grid lines sit at +-(k/n)^grading and 0; every cell is split into four
triangles through its center.  The coordinate grid is symmetric, so the cone
interfaces |x1| = |x2| run along cell diagonals and each triangle lies in a
single phase, which makes the elementwise-constant weight exact.

The quadrant mesh is built by the same code from the nonnegative half of the
grid, so its elements, quadrature points and weights are exactly those of the
full mesh in x1, x2 >= 0. Its Dirichlet boundary is x1 = 1, x2 = 0 and
x2 = 1; the edge x1 = 0 is left free (a natural boundary).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import MeshError
from ..geometry import eval_weight

# 6-point degree-4 symmetric triangle rule (barycentric orbits)
_QA1, _QW1 = 0.816847572980459, 0.109951743655322
_QB1 = 0.091576213509771
_QA2, _QW2 = 0.108103018168070, 0.223381589678011
_QB2 = 0.445948490915965
_QBARY = np.array([
    [_QA1, _QB1, _QB1], [_QB1, _QA1, _QB1], [_QB1, _QB1, _QA1],
    [_QA2, _QB2, _QB2], [_QB2, _QA2, _QB2], [_QB2, _QB2, _QA2],
])
_QWEIGHTS = np.array([_QW1, _QW1, _QW1, _QW2, _QW2, _QW2])

ORIGIN_SUBDIV_LEVELS = 3


@dataclass(frozen=True)
class MeshSpace:
    n: int
    grading: float
    xs: np.ndarray = field(repr=False)          # shared 1D grid, 2n+1 or n+1 lines
    nodes: np.ndarray = field(repr=False)       # (Nv, 2)
    tris: np.ndarray = field(repr=False)        # (Ne, 3) vertex ids, CCW
    area: np.ndarray = field(repr=False)        # (Ne,)
    phase: np.ndarray = field(repr=False)       # (Ne,) weight a in {0,1}
    grad_basis: np.ndarray = field(repr=False)  # (Ne, 3, 2) nabla lambda_j
    # the full quadrature rule; enriched assembly integrates with its split,
    # the b2 pairing with the rule itself (both in assembly.enrichment_rule)
    qpts: np.ndarray = field(repr=False)        # (Nq, 2)
    qw: np.ndarray = field(repr=False)          # (Nq,)
    qel: np.ndarray = field(repr=False)         # (Nq,) owning element, sorted
    boundary_mask: np.ndarray = field(repr=False)
    origin_vertex: int = 0

    @property
    def n_vertices(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.tris.shape[0]

    @property
    def h_min(self):
        """Smallest positive grid coordinate, (1/n)^grading."""
        return float((1.0 / self.n) ** self.grading)

    @property
    def interior(self):
        return np.where(~self.boundary_mask)[0]

    def element_gradients(self, values):
        """Constant per-element gradient of the nodal field (Ne, 2)."""
        v = np.asarray(values, dtype=np.float64)[self.tris]  # (Ne, 3)
        return np.einsum("ej,ejk->ek", v, self.grad_basis)

    def locate(self, points):
        """(element id, barycentric coords) for each query point.

        A point takes the first of the 4 triangles of its grid cell, in
        element order, whose barycentric coordinates are all >= -1e-12, so a
        point on a shared edge or vertex goes to the lowest such element id.
        A point that no triangle of its cell holds (one outside the mesh)
        raises MeshError naming the first such point in input order.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        m = len(self.xs) - 1
        ix = np.clip(np.searchsorted(self.xs, pts[:, 0], side="right") - 1, 0, m - 1)
        iy = np.clip(np.searchsorted(self.xs, pts[:, 1], side="right") - 1, 0, m - 1)
        cell = ix * m + iy
        elems = np.empty(len(pts), dtype=np.int64)
        barys = np.empty((len(pts), 3))
        todo = np.arange(len(pts))
        # one batched solve per candidate slot, over the points still unlocated
        for j in range(4):
            t = 4 * cell[todo] + j
            verts = self.nodes[self.tris[t]]  # (k, 3, 2)
            T = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=-1)
            lam12 = np.linalg.solve(T, (pts[todo] - verts[:, 0])[:, :, None])[:, :, 0]
            lam = np.column_stack([1.0 - (lam12[:, 0] + lam12[:, 1]), lam12])
            hit = np.all(lam >= -1e-12, axis=1)
            elems[todo[hit]] = t[hit]
            barys[todo[hit]] = lam[hit]
            todo = todo[~hit]
        if todo.size:
            raise MeshError(f"point {pts[todo[0]]} not located in its cell")
        return elems, barys

    def evaluate(self, values, points):
        """Point values of the conforming nodal field at points (..., 2).

        The result has shape (...): a scalar for a single point (2,).
        """
        pts = np.asarray(points, dtype=np.float64)
        elems, barys = self.locate(pts.reshape(-1, 2))
        v = np.asarray(values, dtype=np.float64)
        return np.einsum("pj,pj->p", v[self.tris[elems]], barys).reshape(pts.shape[:-1])[()]


def _graded_axis(n, grading):
    pos = ((np.arange(1, n + 1) / n) ** grading)
    return np.concatenate([-pos[::-1], [0.0], pos])


def _subdivide(tri_coords, levels):
    """Uniform 4-way midpoint refinement; accepts one triangle or a batch."""
    tris = np.asarray(tri_coords, dtype=np.float64)
    if tris.ndim == 2:
        tris = tris[None]
    for _ in range(levels):
        p0, p1, p2 = tris[:, 0], tris[:, 1], tris[:, 2]
        m01, m12, m20 = 0.5 * (p0 + p1), 0.5 * (p1 + p2), 0.5 * (p2 + p0)
        tris = np.concatenate([
            np.stack([p0, m01, m20], axis=1),
            np.stack([m01, p1, m12], axis=1),
            np.stack([m20, m12, p2], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ])
    return tris


def build_mesh(n, grading=1.0, quadrant=False):
    """Criss-cross mesh with 16 n^2 phase-conforming triangles on (-1,1)^2,
    or with 4 n^2 on the quadrant [0,1]^2 when ``quadrant`` is set.

    Triangles touching the origin get subdivided quadrature (the enrichment
    gradient scales like 1/r there).
    """
    n = int(n)
    if n < 8:
        raise MeshError("resolution n >= 8 required")
    if grading < 1.0:
        raise MeshError("grading exponent >= 1 required")
    xs = _graded_axis(n, float(grading))
    # grid index of the line through 0
    zero = 0 if quadrant else n
    xs = xs[n - zero:]
    m = len(xs) - 1
    ng = m + 1
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    grid_nodes = np.column_stack([gx.ravel(), gy.ravel()])

    cx = 0.5 * (xs[:-1] + xs[1:])
    ccx, ccy = np.meshgrid(cx, cx, indexing="ij")
    center_nodes = np.column_stack([ccx.ravel(), ccy.ravel()])
    nodes = np.vstack([grid_nodes, center_nodes])

    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    v00 = ii * ng + jj
    v10 = (ii + 1) * ng + jj
    v01 = ii * ng + (jj + 1)
    v11 = (ii + 1) * ng + (jj + 1)
    vc = ng * ng + ii * m + jj
    # 4 triangles per cell, CCW, in a fixed deterministic order
    tris = np.empty((4 * m * m, 3), dtype=np.int64)
    tris[0::4] = np.column_stack([v00, v10, vc])
    tris[1::4] = np.column_stack([v10, v11, vc])
    tris[2::4] = np.column_stack([v11, v01, vc])
    tris[3::4] = np.column_stack([v01, v00, vc])

    p = nodes[tris]  # (Ne, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    if np.any(area < 1e-14):
        raise MeshError("degenerate triangle in mesh construction")

    # gradients of the barycentric basis: inverse transpose of the edge matrix
    det = 2.0 * area
    grad_basis = np.empty((len(tris), 3, 2))
    grad_basis[:, 1, 0] = e2[:, 1] / det
    grad_basis[:, 1, 1] = -e2[:, 0] / det
    grad_basis[:, 2, 0] = -e1[:, 1] / det
    grad_basis[:, 2, 1] = e1[:, 0] / det
    grad_basis[:, 0] = -grad_basis[:, 1] - grad_basis[:, 2]

    centroid = p.mean(axis=1)
    phase = eval_weight(centroid[:, 0], centroid[:, 1])

    boundary_mask = np.zeros(len(nodes), dtype=bool)
    gx_idx, gy_idx = np.divmod(np.arange(ng * ng), ng)
    # the quadrant's edge x1 = 0 is a natural boundary
    boundary_mask[:ng * ng] = (gx_idx == m) | (gy_idx == 0) | (gy_idx == m)
    if not quadrant:
        boundary_mask[:ng * ng] |= gx_idx == 0

    origin_vertex = int(zero * ng + zero)

    # subdivision depth per element: enrichment gradients scale like 1/r, so
    # keep the sub-triangle diameter below about a quarter of the centroid
    # radius; origin-touching elements get the full depth
    touches_origin = np.any(np.all(p == 0.0, axis=2), axis=1)
    edge = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    diam = np.max(np.linalg.norm(edge, axis=2), axis=0)
    r_c = np.linalg.norm(centroid, axis=1)
    with np.errstate(divide="ignore"):
        depth = np.ceil(np.log2(np.maximum(diam / (0.25 * r_c), 1e-9)))
    depth = np.clip(depth, 0, ORIGIN_SUBDIV_LEVELS).astype(np.int64)
    depth[touches_origin] = ORIGIN_SUBDIV_LEVELS

    qpts_list, qw_list, qel_list = [], [], []
    for lvl in range(ORIGIN_SUBDIV_LEVELS + 1):
        els = np.where(depth == lvl)[0]
        if els.size == 0:
            continue
        sub = _subdivide(p[els], lvl)  # (4^lvl * Nl, 3, 2)
        qp = np.einsum("qj,sjk->sqk", _QBARY, sub).reshape(-1, 2)
        sub_area = np.tile(area[els], 4 ** lvl) / 4.0 ** lvl
        qw_lvl = (sub_area[:, None] * _QWEIGHTS[None, :]).reshape(-1)
        qpts_list.append(qp)
        qw_list.append(qw_lvl)
        qel_list.append(np.repeat(np.tile(els, 4 ** lvl), len(_QWEIGHTS)))

    qpts = np.vstack(qpts_list)
    qw = np.concatenate(qw_list)
    qel = np.concatenate(qel_list)

    # deterministic quadrature order: sort by (element, appearance)
    order = np.argsort(qel, kind="stable")
    qpts, qw, qel = qpts[order], qw[order], qel[order]

    if abs(float(np.sum(area)) - (1.0 if quadrant else 4.0)) > 1e-10:
        raise MeshError("element areas do not partition the domain")

    return MeshSpace(n=n, grading=float(grading), xs=xs, nodes=nodes,
                     tris=tris, area=area, phase=phase, grad_basis=grad_basis,
                     qpts=qpts, qw=qw, qel=qel, boundary_mask=boundary_mask,
                     origin_vertex=origin_vertex)
