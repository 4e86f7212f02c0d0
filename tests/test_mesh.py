"""Graded criss-cross mesh invariants."""

import tracemalloc

import numpy as np
import pytest

from dpgap.errors import MeshError
from dpgap.fem import mesh as fem_mesh
from dpgap.fem.mesh import (_QBARY, _QWEIGHTS, MAX_MESH_RESOLUTION, ORIGIN_SUBDIV_LEVELS,
                            MeshSpace, build_mesh)
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
        assert np.all(mesh8.nodes == 0.0, axis=1).any()

    def test_axis_symmetric(self, mesh8):
        np.testing.assert_allclose(mesh8.xs, -mesh8.xs[::-1], atol=0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(MeshError):
            build_mesh(4)
        with pytest.raises(MeshError):
            build_mesh(8, grading=0.5)
        for grading in (np.nan, np.inf):
            with pytest.raises(MeshError):
                build_mesh(8, grading=grading)

    # above the bound, 2^62, 1e300 and 10^7 raised a bare ValueError or
    # MemoryError from NumPy
    @pytest.mark.parametrize("n", [np.nan, np.inf, -np.inf, 7.9, -8, 2**62, 1e300, 10**7,
                                   MAX_MESH_RESOLUTION + 1], ids=str)
    def test_rejects_bad_resolution(self, n):
        with pytest.raises(MeshError, match="resolution n >= 8"):
            build_mesh(n)

    # int() truncated these to a coarser mesh (16.5 built n = 16)
    @pytest.mark.parametrize("n", [16.5, 8.000001, np.float64(1023.5)], ids=str)
    def test_rejects_fractional_resolution(self, n):
        with pytest.raises(MeshError, match="whole number"):
            build_mesh(n)

    @pytest.mark.parametrize("n", [16.0, np.int64(16), np.float64(16.0)], ids=repr)
    def test_integral_resolution_of_any_type(self, n):
        assert build_mesh(n).n == 16

    def test_int32_vertex_ids(self, mesh8):
        assert mesh8.tris.dtype == np.int32
        assert mesh8.grad.indices.dtype == np.int32


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


def _subdivide_reference(tris, levels):
    """Uniform 4-way midpoint refinement of a batch, children level by level."""
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


def _full_rule_reference(mesh):
    """The full rule level by level, then stably sorted by owning element."""
    p = mesh.nodes[mesh.tris]
    touches_origin = np.any(np.all(p == 0.0, axis=2), axis=1)
    edge = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    diam = np.max(np.linalg.norm(edge, axis=2), axis=0)
    r_c = np.linalg.norm(p.mean(axis=1), axis=1)
    with np.errstate(divide="ignore"):
        depth = np.ceil(np.log2(np.maximum(diam / (0.25 * r_c), 1e-9)))
    depth = np.clip(depth, 0, ORIGIN_SUBDIV_LEVELS).astype(np.int64)
    depth[touches_origin] = ORIGIN_SUBDIV_LEVELS
    qpts, qw, qel = [], [], []
    for lvl in range(ORIGIN_SUBDIV_LEVELS + 1):
        els = np.where(depth == lvl)[0]
        if els.size == 0:
            continue
        sub = _subdivide_reference(p[els], lvl)
        qpts.append(np.einsum("qj,sjk->sqk", _QBARY, sub).reshape(-1, 2))
        sub_area = np.tile(mesh.area[els], 4 ** lvl) / 4.0 ** lvl
        qw.append((sub_area[:, None] * _QWEIGHTS[None, :]).reshape(-1))
        qel.append(np.repeat(np.tile(els, 4 ** lvl), len(_QWEIGHTS)))
    qpts, qw, qel = np.vstack(qpts), np.concatenate(qw), np.concatenate(qel)
    order = np.argsort(qel, kind="stable")
    return qpts[order], qw[order], qel[order]


class TestFullRule:
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("grading", [1.0, 2.0])
    @pytest.mark.parametrize("quadrant", [False, True], ids=["full", "quadrant"])
    def test_matches_sorted_reference(self, n, grading, quadrant):
        mesh = build_mesh(n, grading, quadrant=quadrant)
        for got, ref in zip((mesh.qpts, mesh.qw, mesh.qel), _full_rule_reference(mesh)):
            assert got.dtype == ref.dtype
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_built_on_first_read_and_cached(self):
        mesh = build_mesh(8)
        assert "_full_rule" not in vars(mesh)
        qpts = mesh.qpts
        assert mesh.qw is mesh.qw and mesh.qpts is qpts
        for arr in (mesh.qpts, mesh.qw, mesh.qel):
            assert not arr.flags.writeable


class TestGradientsAndEvaluation:
    def test_linear_reproduction(self, mesh8):
        vals = 2.0 * mesh8.nodes[:, 0] - 3.0 * mesh8.nodes[:, 1] + 1.0
        g = mesh8.element_gradients(vals)
        np.testing.assert_allclose(g[:, 0], 2.0, atol=1e-11)
        np.testing.assert_allclose(g[:, 1], -3.0, atol=1e-11)

    @pytest.mark.parametrize("quadrant", [False, True], ids=["full", "quadrant"])
    def test_discrete_gradient(self, quadrant):
        mesh = build_mesh(8, grading=2.0, quadrant=quadrant)
        G = mesh.grad
        assert G.format == "csr"
        assert not any(a.flags.writeable for a in (G.data, G.indices, G.indptr))
        assert G.shape == (2 * mesh.n_elements, mesh.n_vertices)
        assert np.array_equal(np.diff(G.indptr), np.full(G.shape[0], 3))
        assert np.array_equal(G.indices.reshape(-1, 3), np.repeat(mesh.tris, 2, axis=0))
        # the basis sums to 1, so every row sums to 0
        scale = np.max(np.abs(G.data))
        np.testing.assert_allclose(G @ np.ones(mesh.n_vertices), 0.0, atol=1e-14 * scale)
        x1, x2 = mesh.nodes.T
        np.testing.assert_allclose(mesh.element_gradients(2.0 * x1 - 3.0 * x2 + 1.0),
                                   np.tile([2.0, -3.0], (mesh.n_elements, 1)),
                                   rtol=0.0, atol=1e-13 * scale)

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


_ONE_BLOCK = 1 << 62


def _mesh_arrays(mesh):
    G = mesh.grad
    return {"xs": mesh.xs, "nodes": mesh.nodes, "tris": mesh.tris, "area": mesh.area,
            "phase": mesh.phase, "boundary_mask": mesh.boundary_mask,
            "G.data": G.data, "G.indices": G.indices, "G.indptr": G.indptr}


class TestBlocks:
    """Blocks of 7 elements or points give the bits of a single block."""

    @pytest.mark.parametrize("n, grading, quadrant",
                             [(8, 1.0, False), (16, 2.0, False), (8, 2.0, True), (16, 1.0, True)],
                             ids=["8-1.0", "16-2.0", "quadrant-8-2.0", "quadrant-16-1.0"])
    def test_build(self, monkeypatch, n, grading, quadrant):
        monkeypatch.setattr(fem_mesh, "_BLOCK", _ONE_BLOCK)
        ref = _mesh_arrays(build_mesh(n, grading, quadrant=quadrant))
        monkeypatch.setattr(fem_mesh, "_BLOCK", 7)
        got = _mesh_arrays(build_mesh(n, grading, quadrant=quadrant))
        for name, arr in ref.items():
            assert got[name].dtype == arr.dtype, name
            assert got[name].shape == arr.shape, name
            assert got[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("quadrant", [False, True], ids=["full", "quadrant"])
    def test_locate_and_evaluate(self, monkeypatch, quadrant):
        mesh = build_mesh(16, 2.0, quadrant=quadrant)
        rng = np.random.default_rng(3)
        lo = 0.0 if quadrant else -1.0
        pts = np.vstack([_tie_points(mesh), rng.uniform(lo, 1.0, size=(500, 2))])
        values = rng.standard_normal(mesh.n_vertices)
        monkeypatch.setattr(fem_mesh, "_BLOCK", _ONE_BLOCK)
        ref_el, ref_bary = mesh.locate(pts)
        ref_val = mesh.evaluate(values, pts)
        monkeypatch.setattr(fem_mesh, "_BLOCK", 7)
        el, bary = mesh.locate(pts)
        assert el.tobytes() == ref_el.tobytes()
        assert bary.tobytes() == ref_bary.tobytes()
        # evaluate goes through locate once per block, where the benchmark's
        # tracer counts the located points
        sizes = []
        locate = MeshSpace.locate

        def counted(self, points):
            sizes.append(len(points))
            return locate(self, points)

        monkeypatch.setattr(MeshSpace, "locate", counted)
        val = mesh.evaluate(values, pts)
        assert val.tobytes() == ref_val.tobytes()
        assert sum(sizes) == len(pts) and max(sizes) == 7
        shaped = mesh.evaluate(values, pts[:12].reshape(2, 3, 2, 2))
        assert shaped.shape == (2, 3, 2)
        assert shaped.tobytes() == ref_val[:12].tobytes()
        assert mesh.evaluate(values, pts[5]) == ref_val[5]

    @pytest.mark.parametrize("method", ["locate", "evaluate"])
    def test_first_unlocatable_point_across_blocks(self, monkeypatch, mesh8, method):
        monkeypatch.setattr(fem_mesh, "_BLOCK", 7)
        pts = np.random.default_rng(4).uniform(-0.9, 0.9, size=(30, 2))
        pts[9] = [1.5, 0.25]    # block 1
        pts[20] = [-3.0, 0.0]   # block 2
        with pytest.raises(MeshError, match=r"point \[1\.5 +0\.25\] not located"):
            if method == "locate":
                mesh8.locate(pts)
            else:
                mesh8.evaluate(np.zeros(mesh8.n_vertices), pts)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestPeakMemory:
    def test_evaluate_below_a_few_outputs(self):
        # 200k points: gathering every point's (3, 2) vertices and 2 x 2
        # system at once peaked at 30 outputs, blocks of 32768 points at 6.5
        mesh = build_mesh(16, grading=2.0)
        pts = np.random.default_rng(6).uniform(-1.0, 1.0, size=(200_000, 2))
        values = np.ones(mesh.n_vertices)
        out, peak = _traced_peak(lambda: mesh.evaluate(values, pts))
        assert peak < 8 * out.nbytes

    def test_build_below_the_kept_bytes(self):
        # the (Ne, 3, 2) vertex gather, the edges and the int64 tris with its
        # repeated copy for G took 2.35 times the kept bytes at n = 128; blocks
        # of 32768 elements and int32 ids take 1.28
        mesh, peak = _traced_peak(lambda: build_mesh(128, grading=2.0))
        kept = sum(arr.nbytes for arr in _mesh_arrays(mesh).values())
        assert peak < 1.5 * kept


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
        quad_nodes = np.all(full.nodes >= 0.0, axis=1)
        assert np.array_equal(quad.nodes, full.nodes[quad_nodes])
        els = np.where(np.all(full.nodes[full.tris].mean(axis=1) > 0.0, axis=1))[0]
        assert np.array_equal(quad.nodes[quad.tris], full.nodes[full.tris[els]])
        for attr in ("area", "phase"):
            assert np.array_equal(getattr(quad, attr), getattr(full, attr)[els]), attr
        # each element's 2 x 3 block of basis gradients
        assert np.array_equal(quad.grad.data.reshape(-1, 6),
                              full.grad.data.reshape(-1, 6)[els])
        values = np.random.default_rng(5).standard_normal(full.n_vertices)
        assert np.array_equal(quad.element_gradients(values[quad_nodes]),
                              full.element_gradients(values)[els])
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
        assert np.all(quad.nodes == 0.0, axis=1).any()

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
