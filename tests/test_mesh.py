"""Graded criss-cross mesh invariants."""

import numpy as np
import pytest

from dpgap.errors import MeshError
from dpgap.fem.mesh import MeshSpace, build_mesh
from dpgap.geometry import eval_weight


@pytest.fixture(scope="module")
def mesh8():
    return build_mesh(8, grading=2.0)


class TestConstruction:
    def test_element_count(self, mesh8):
        assert mesh8.n_elements == 16 * 8 * 8

    def test_vertex_count(self, mesh8):
        m = 2 * 8
        assert mesh8.n_vertices == (m + 1) ** 2 + m * m

    def test_areas_partition_square(self, mesh8):
        assert float(np.sum(mesh8.area)) == pytest.approx(4.0, abs=1e-12)
        assert np.all(mesh8.area > 0.0)

    def test_h_min(self, mesh8):
        assert mesh8.h_min == (1.0 / 8.0) ** 2.0
        assert np.min(np.abs(mesh8.xs[mesh8.xs != 0.0])) == mesh8.h_min

    def test_origin_is_vertex(self, mesh8):
        assert np.all(mesh8.nodes[mesh8.origin_vertex] == 0.0)

    def test_axis_symmetric(self, mesh8):
        np.testing.assert_allclose(mesh8.xs, -mesh8.xs[::-1], atol=0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(MeshError):
            build_mesh(4)
        with pytest.raises(MeshError):
            build_mesh(8, grading=0.5)


class TestPhase:
    def test_elements_are_single_phase(self, mesh8):
        # every quadrature point of an element sees the element's weight
        a_q = eval_weight(mesh8.qpts[:, 0], mesh8.qpts[:, 1])
        assert np.all(a_q == mesh8.phase[mesh8.qel])

    def test_phase_balance(self, mesh8):
        # cones |x2| > |x1| cover half the area
        covered = float(np.sum(mesh8.area[mesh8.phase == 1.0]))
        assert covered == pytest.approx(2.0, abs=1e-12)


class TestQuadrature:
    def test_weights_sum_to_areas(self, mesh8):
        per = np.zeros(mesh8.n_elements)
        np.add.at(per, mesh8.qel, mesh8.qw)
        np.testing.assert_allclose(per, mesh8.area, rtol=1e-13)

    def test_points_inside_elements(self, mesh8):
        p = mesh8.nodes[mesh8.tris[mesh8.qel]]
        T = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
        rhs = mesh8.qpts - p[:, 0]
        lam = np.linalg.solve(T, rhs[..., None])[..., 0]
        assert np.all(lam > -1e-12)
        assert np.all(lam.sum(axis=1) < 1.0 + 1e-12)

    def test_degree_two_exactness(self, mesh8):
        # the 6-point rule integrates x1^2 + x2^2 exactly: 8/3 on (-1,1)^2
        val = float(np.sum(mesh8.qw * (mesh8.qpts[:, 0] ** 2
                                       + mesh8.qpts[:, 1] ** 2)))
        assert val == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_near_origin_refinement(self, mesh8):
        # elements close to the origin carry more quadrature points
        counts = np.bincount(mesh8.qel, minlength=mesh8.n_elements)
        p = mesh8.nodes[mesh8.tris]
        touches = np.any(np.all(p == 0.0, axis=2), axis=1)
        assert np.all(counts[touches] == 6 * 4 ** 3)
        far = np.linalg.norm(p.mean(axis=1), axis=1) > 1.0
        assert np.all(counts[far] == 6)


class TestGradientsAndEvaluation:
    def test_linear_reproduction(self, mesh8):
        vals = 2.0 * mesh8.nodes[:, 0] - 3.0 * mesh8.nodes[:, 1] + 1.0
        g = mesh8.element_gradients(vals)
        np.testing.assert_allclose(g[:, 0], 2.0, atol=1e-11)
        np.testing.assert_allclose(g[:, 1], -3.0, atol=1e-11)

    def test_locate_and_evaluate(self, mesh8):
        vals = mesh8.nodes[:, 0] + 0.5 * mesh8.nodes[:, 1]
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.99, 0.99, size=(50, 2))
        out = mesh8.evaluate(vals, pts)
        np.testing.assert_allclose(out, pts[:, 0] + 0.5 * pts[:, 1], atol=1e-12)

    def test_boundary_mask(self, mesh8):
        on_edge = np.any(np.abs(mesh8.nodes) == 1.0, axis=1)
        assert np.array_equal(mesh8.boundary_mask, on_edge)


def _locate_reference(mesh, pts):
    """Point by point, candidate by candidate: the first triangle of the cell
    with every barycentric >= -1e-12 wins; also counts the triangles that
    hold each point."""
    m = len(mesh.xs) - 1
    elems = np.empty(len(pts), dtype=np.int64)
    barys = np.empty((len(pts), 3))
    holders = np.zeros(len(pts), dtype=np.int64)
    for k, p in enumerate(pts):
        ix = min(max(np.searchsorted(mesh.xs, p[0], side="right") - 1, 0), m - 1)
        iy = min(max(np.searchsorted(mesh.xs, p[1], side="right") - 1, 0), m - 1)
        for t in range(4 * (ix * m + iy), 4 * (ix * m + iy) + 4):
            verts = mesh.nodes[mesh.tris[t]]
            T = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
            lam12 = np.linalg.solve(T, p - verts[0])
            lam = np.array([1.0 - lam12.sum(), lam12[0], lam12[1]])
            if np.all(lam >= -1e-12):
                if holders[k] == 0:
                    elems[k], barys[k] = t, lam
                holders[k] += 1
        assert holders[k] > 0
    return elems, barys, holders


def _tie_points(mesh):
    """Points on cell edges and on both cell diagonals."""
    xs = mesh.xs
    lo, hi = xs[:-1], xs[1:]
    a, b = np.meshgrid(np.arange(len(lo)), np.arange(len(lo)), indexing="ij")
    x0, x1, y0, y1 = lo[a.ravel()], hi[a.ravel()], lo[b.ravel()], hi[b.ravel()]
    pts = []
    for s in (0.25, 0.5, 0.8):
        pts += [np.column_stack([x0, y0 + s * (y1 - y0)]),            # vertical edge
                np.column_stack([x0 + s * (x1 - x0), y0]),            # horizontal edge
                np.column_stack([x0 + s * (x1 - x0), y0 + s * (y1 - y0)]),  # diagonal
                np.column_stack([x0 + s * (x1 - x0), y1 - s * (y1 - y0)])]  # anti-diagonal
    return np.vstack(pts)


class TestLocate:
    @pytest.mark.parametrize("n, grading, quadrant",
                             [(8, 1.0, False), (16, 2.0, False), (8, 1.0, True), (16, 2.0, True)],
                             ids=["8-1.0", "16-2.0", "quadrant-8-1.0", "quadrant-16-2.0"])
    def test_matches_pointwise_first_candidate(self, n, grading, quadrant):
        mesh = build_mesh(n, grading, quadrant=quadrant)
        lo = 0.0 if quadrant else -1.0
        corners = np.array([[lo, lo], [1.0, lo], [1.0, 1.0], [lo, 1.0]])
        pts = np.vstack([mesh.nodes, mesh.qpts, corners, _tie_points(mesh)])
        ref_el, ref_bary, holders = _locate_reference(mesh, pts)
        # the tie-break is exercised: many points lie in several triangles
        assert np.count_nonzero(holders > 1) > len(mesh.nodes)
        el, bary = mesh.locate(pts)
        assert np.array_equal(el, ref_el)
        assert bary.tobytes() == ref_bary.tobytes()

    def test_outside_point_raises_first_in_input_order(self, mesh8):
        pts = np.array([[0.1, 0.2], [1.5, 0.25], [-0.3, 0.4], [0.5, -2.0]])
        with pytest.raises(MeshError, match=r"point \[1\.5 +0\.25\] not located"):
            mesh8.locate(pts)


class TestQuadrant:
    """The quadrant mesh is the full mesh's part in x1, x2 >= 0, bit for bit."""

    @pytest.fixture(scope="class", params=[(8, 1.0), (16, 2.0)], ids=str)
    def meshes(self, request):
        n, grading = request.param
        return build_mesh(n, grading), build_mesh(n, grading, quadrant=True)

    def test_areas_partition_quadrant(self, meshes):
        _, quad = meshes
        assert quad.n_elements == 4 * quad.n ** 2
        assert float(np.sum(quad.area)) == pytest.approx(1.0, abs=1e-12)

    def test_is_the_full_mesh_restricted(self, meshes):
        full, quad = meshes
        assert np.array_equal(quad.nodes, full.nodes[np.all(full.nodes >= 0.0, axis=1)])
        els = np.where(np.all(full.nodes[full.tris].mean(axis=1) > 0.0, axis=1))[0]
        assert np.array_equal(quad.nodes[quad.tris], full.nodes[full.tris[els]])
        for attr in ("area", "phase", "grad_basis"):
            assert np.array_equal(getattr(quad, attr), getattr(full, attr)[els]), attr
        in_quad = np.isin(full.qel, els)
        assert np.array_equal(quad.qpts, full.qpts[in_quad])
        assert np.array_equal(quad.qw, full.qw[in_quad])
        assert np.array_equal(els[quad.qel], full.qel[in_quad])

    def test_boundary_mask(self, meshes):
        _, quad = meshes
        x1, x2 = quad.nodes.T
        assert np.array_equal(quad.boundary_mask, (x1 == 1.0) | (x2 == 0.0) | (x2 == 1.0))
        # the edge x1 = 0 between the corners is a natural boundary
        left = (x1 == 0.0) & (x2 > 0.0) & (x2 < 1.0)
        assert np.count_nonzero(left) == quad.n - 1
        assert not np.any(quad.boundary_mask[left])

    def test_origin_vertex(self, meshes):
        _, quad = meshes
        assert np.all(quad.nodes[quad.origin_vertex] == 0.0)

    def test_locate_rejects_negative_x1(self, meshes):
        _, quad = meshes
        pts = np.array([[0.1, 0.2], [-1e-3, 0.5], [0.3, 0.4]])
        with pytest.raises(MeshError, match=r"point \[-0\.001 +0\.5 *\] not located"):
            quad.locate(pts)


class TestDeterminism:
    def test_identical_rebuild(self):
        a = build_mesh(8, grading=2.0)
        b = build_mesh(8, grading=2.0)
        for attr in ("nodes", "tris", "area", "phase", "qpts", "qw", "qel"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
