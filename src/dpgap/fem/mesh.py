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

``build_mesh`` builds the geometry and its gradient G. ``_full_rule_block``
gives the full quadrature rule of a range of elements; enriched assembly reads
it a block at a time (``assembly.enrichment_rule``), and qpts, qw and qel hold
it over every element for tests and the benchmark's checks.

Transients stay bounded by ``_BLOCK``: ``build_mesh`` computes each element's
edges, area, basis gradients and centroid phase ``_BLOCK`` elements at a
time, into the arrays it keeps, and ``locate`` and ``evaluate`` take their
points ``_BLOCK`` at a time. Every element and every point gets the same
arithmetic in any block, so no array or output depends on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

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
# checked before anything is allocated: the full mesh at n = 1024 has 16.8M
# triangles, and a quadrant gap level at n = 512 already peaks near 1 GiB
MAX_MESH_RESOLUTION = 1024

# elements or query points per block of transients in build_mesh, locate and
# evaluate: the (block, 3, 2) vertex gathers stay near 1.5 MiB
_BLOCK = 1 << 15


@dataclass(frozen=True)
class MeshSpace:
    """Mesh geometry. The record of assembly.enrichment_rule is the only
    thing the solver writes to it."""

    n: int
    grading: float
    xs: np.ndarray = field(repr=False)          # shared 1D grid, 2n+1 or n+1 lines
    nodes: np.ndarray = field(repr=False)       # (Nv, 2)
    tris: np.ndarray = field(repr=False)        # (Ne, 3) int32 vertex ids, CCW
    area: np.ndarray = field(repr=False)        # (Ne,)
    phase: np.ndarray = field(repr=False)       # (Ne,) weight a in {0,1}
    # discrete gradient G, CSR (2 Ne, Nv): rows 2e and 2e+1 hold d/dx1 and
    # d/dx2 of element e's three basis functions, in tris order, read-only;
    # its int32 indices are tris with each row repeated
    grad: sp.csr_matrix = field(repr=False)
    boundary_mask: np.ndarray = field(repr=False)

    # the full quadrature rule over every element, for tests and checks
    qpts = property(lambda self: self._full_rule[0])  # (Nq, 2)
    qw = property(lambda self: self._full_rule[1])    # (Nq,)
    qel = property(lambda self: self._full_rule[2])   # (Nq,) owning element, sorted

    @cached_property
    def _full_rule(self):
        rule = _full_rule_block(self, 0, self.n_elements)
        for arr in rule:
            arr.setflags(write=False)
        return rule

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
        return (self.grad @ np.asarray(values, dtype=np.float64)).reshape(-1, 2)

    def locate(self, points):
        """(element id, barycentric coords) for each query point.

        A point takes the first of the 4 triangles of its grid cell, in
        element order, whose barycentric coordinates are all >= -1e-12, so a
        point on a shared edge or vertex goes to the lowest such element id.
        A point that no triangle of its cell holds (one outside the mesh, or
        with a non-finite coordinate) raises MeshError naming the first such
        point in input order. Points are taken ``_BLOCK`` at a time, so only
        the int64 ids and (N, 3) coordinates grow with their number.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        elems = np.empty(len(pts), dtype=np.int64)
        barys = np.empty((len(pts), 3))
        for lo in range(0, len(pts), _BLOCK):
            block = slice(lo, lo + _BLOCK)
            self._locate_block(pts[block], elems[block], barys[block])
        return elems, barys

    def _locate_block(self, pts, elems, barys):
        """``locate`` of one block of points, written into elems and barys."""
        m = len(self.xs) - 1
        ix = np.clip(np.searchsorted(self.xs, pts[:, 0], side="right") - 1, 0, m - 1)
        iy = np.clip(np.searchsorted(self.xs, pts[:, 1], side="right") - 1, 0, m - 1)
        cell = ix * m + iy
        todo = np.arange(len(pts))
        # one batched solve per candidate slot, over the points still unlocated
        for j in range(4):
            t = 4 * cell[todo] + j
            verts = self.nodes[self.tris[t]]  # (k, 3, 2)
            T = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=-1)
            # a NaN, infinite or huge coordinate gives NaN or infinite
            # coordinates, which no triangle holds
            with np.errstate(invalid="ignore", over="ignore"):
                lam12 = np.linalg.solve(T, (pts[todo] - verts[:, 0])[:, :, None])[:, :, 0]
                lam = np.column_stack([1.0 - (lam12[:, 0] + lam12[:, 1]), lam12])
            hit = np.all(lam >= -1e-12, axis=1)
            elems[todo[hit]] = t[hit]
            barys[todo[hit]] = lam[hit]
            todo = todo[~hit]
        if todo.size:
            raise MeshError(f"point {pts[todo[0]]} not located in its cell")

    def evaluate(self, values, points):
        """Point values of the conforming nodal field at points (..., 2).

        The result has shape (...): a scalar for a single point (2,). Points
        are located and summed ``_BLOCK`` at a time, each block through
        ``locate``, into the one output array.
        """
        pts = np.asarray(points, dtype=np.float64)
        flat = pts.reshape(-1, 2)
        v = np.asarray(values, dtype=np.float64)
        out = np.empty(len(flat))
        for lo in range(0, len(flat), _BLOCK):
            block = slice(lo, lo + _BLOCK)
            elems, barys = self.locate(flat[block])
            out[block] = np.einsum("pj,pj->p", v[self.tris[elems]], barys)
        return out.reshape(pts.shape[:-1])[()]


def _graded_axis(n, grading):
    pos = ((np.arange(1, n + 1) / n) ** grading)
    return np.concatenate([-pos[::-1], [0.0], pos])


def _subdivide(tris, levels):
    """Uniform 4-way midpoint refinement (N, 3, 2) -> (N, 4^levels, 3, 2); each
    triangle's children stay together, the newest split outermost."""
    sub = tris[:, None]
    for _ in range(levels):
        p0, p1, p2 = sub[:, :, 0], sub[:, :, 1], sub[:, :, 2]
        m01, m12, m20 = 0.5 * (p0 + p1), 0.5 * (p1 + p2), 0.5 * (p2 + p0)
        sub = np.concatenate([
            np.stack([p0, m01, m20], axis=2),
            np.stack([m01, p1, m12], axis=2),
            np.stack([m20, m12, p2], axis=2),
            np.stack([m01, m12, m20], axis=2),
        ], axis=1)
    return sub


def _rule_depth(p):
    """Subdivision depth of each element (N, 3, 2) -> (N,): deep enough to keep
    sub-triangle diameters below about a quarter of the centroid radius
    (enrichment gradients scale like 1/r); origin-touching elements get the
    full depth. It reads only the element's own vertices."""
    touches_origin = np.any(np.all(p == 0.0, axis=2), axis=1)
    edge = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    diam = np.max(np.linalg.norm(edge, axis=2), axis=0)
    r_c = np.linalg.norm(p.mean(axis=1), axis=1)
    with np.errstate(divide="ignore"):
        depth = np.ceil(np.log2(np.maximum(diam / (0.25 * r_c), 1e-9)))
    depth = np.clip(depth, 0, ORIGIN_SUBDIV_LEVELS).astype(np.int64)
    depth[touches_origin] = ORIGIN_SUBDIV_LEVELS
    return depth


def _full_rule_block(mesh, lo, hi):
    """(qpts, qw, qel) of the full rule on elements [lo, hi): the 6-point rule
    on each element's uniform subdivision to its ``_rule_depth``. Each
    element's 6 * 4^depth points fill one contiguous block, so qel is sorted,
    and every element's points do not depend on lo and hi."""
    p = mesh.nodes[mesh.tris[lo:hi]]  # (hi - lo, 3, 2)
    depth = _rule_depth(p)
    counts = len(_QWEIGHTS) * 4 ** depth
    qel = np.repeat(np.arange(lo, hi), counts)
    first = np.cumsum(counts) - counts
    qpts, qw = np.empty((len(qel), 2)), np.empty(len(qel))
    area = mesh.area[lo:hi]
    for lvl in range(ORIGIN_SUBDIV_LEVELS + 1):
        els = np.flatnonzero(depth == lvl)
        block = (first[els, None] + np.arange(len(_QWEIGHTS) * 4 ** lvl)).ravel()
        sub = _subdivide(p[els], lvl).reshape(-1, 3, 2)
        qpts[block] = np.einsum("qj,sjk->sqk", _QBARY, sub).reshape(-1, 2)
        qw[block] = np.tile((area[els] / 4.0 ** lvl)[:, None] * _QWEIGHTS, 4 ** lvl).ravel()
    return qpts, qw, qel


def build_mesh(n, grading=1.0, quadrant=False):
    """Criss-cross mesh with 16 n^2 phase-conforming triangles on (-1,1)^2,
    or with 4 n^2 on the quadrant [0,1]^2 when ``quadrant`` is set.

    Only the geometry: the full quadrature rule is built where it is read.
    """
    # NaN fails the comparison, where int() would raise a bare ValueError
    if not (8 <= n <= MAX_MESH_RESOLUTION):
        raise MeshError(f"resolution n >= 8 and at most {MAX_MESH_RESOLUTION} required")
    if n != int(n):
        raise MeshError(f"resolution n must be a whole number, not {n}")
    n = int(n)
    if not (1.0 <= grading < np.inf):
        raise MeshError("finite grading exponent >= 1 required")
    xs = _graded_axis(n, float(grading))
    if quadrant:
        xs = xs[n:]
    m = len(xs) - 1
    ng = m + 1
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    grid_nodes = np.column_stack([gx.ravel(), gy.ravel()])

    cx = 0.5 * (xs[:-1] + xs[1:])
    ccx, ccy = np.meshgrid(cx, cx, indexing="ij")
    center_nodes = np.column_stack([ccx.ravel(), ccy.ravel()])
    nodes = np.vstack([grid_nodes, center_nodes])

    # int32 ids: the full mesh at n = 1024 has 8.4M vertices, and
    # G.indices is tris with each row repeated, so it is not copied
    ii, jj = np.meshgrid(np.arange(m, dtype=np.int32), np.arange(m, dtype=np.int32),
                         indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    v00 = ii * ng + jj
    v10 = (ii + 1) * ng + jj
    v01 = ii * ng + (jj + 1)
    v11 = (ii + 1) * ng + (jj + 1)
    vc = ng * ng + ii * m + jj
    # 4 triangles per cell, CCW, in a fixed deterministic order
    ne = 4 * m * m
    tris = np.empty((ne, 3), dtype=np.int32)
    tris[0::4] = np.column_stack([v00, v10, vc])
    tris[1::4] = np.column_stack([v10, v11, vc])
    tris[2::4] = np.column_stack([v11, v01, vc])
    tris[3::4] = np.column_stack([v01, v00, vc])
    del ii, jj, v00, v10, v01, v11, vc

    # gradients of the barycentric basis: inverse transpose of the edge matrix;
    # G is built from its CSR arrays, 3 entries per row in tris order
    area = np.empty(ne)
    gb = np.empty((ne, 2, 3))
    phase = np.empty(ne)
    for lo in range(0, ne, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        p = nodes[tris[block]]  # (block, 3, 2)
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        a = area[block]
        a[:] = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        # before the block divides by its determinants
        if np.any(a < 1e-14):
            raise MeshError("degenerate triangle in mesh construction")
        det = 2.0 * a
        g = gb[block]
        g[:, 0, 1:] = np.column_stack([e2[:, 1], -e1[:, 1]]) / det[:, None]
        g[:, 1, 1:] = np.column_stack([-e2[:, 0], e1[:, 0]]) / det[:, None]
        g[:, :, 0] = -g[:, :, 1] - g[:, :, 2]
        phase[block] = eval_weight(*p.mean(axis=1).T)
    grad = sp.csr_matrix((gb.ravel(), np.repeat(tris, 2, axis=0).ravel(),
                          np.arange(0, 6 * ne + 1, 3, dtype=np.int32)),
                         shape=(2 * ne, len(nodes)))
    for arr in (grad.data, grad.indices, grad.indptr):
        arr.setflags(write=False)

    boundary_mask = np.zeros(len(nodes), dtype=bool)
    gx_idx, gy_idx = np.divmod(np.arange(ng * ng), ng)
    # the quadrant's edge x1 = 0 is a natural boundary
    boundary_mask[:ng * ng] = (gx_idx == m) | (gy_idx == 0) | (gy_idx == m)
    if not quadrant:
        boundary_mask[:ng * ng] |= gx_idx == 0

    if abs(float(np.sum(area)) - (1.0 if quadrant else 4.0)) > 1e-10:
        raise MeshError("element areas do not partition the domain")

    return MeshSpace(n=n, grading=float(grading), xs=xs, nodes=nodes,
                     tris=tris, area=area, phase=phase, grad=grad,
                     boundary_mask=boundary_mask)
