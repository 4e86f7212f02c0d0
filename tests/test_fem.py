"""Assembly, enrichment and minimization on the checkerboard mesh."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import dpgap
from dpgap.errors import DomainError, GapPreconditionError, RangeError
from dpgap.fem import (DofField, EnrichedField, build_mesh, cone_trace_diagnostic,
                       gap_experiment, minimize, modular_energy, separating_functional)
from dpgap.fem import assembly, solve
from dpgap.fem.assembly import enrichment_rule, modular_gradient, modular_hessian
from dpgap.fem.fields import enrichment_gradient, enrichment_value
from dpgap.fem.solve import OBJECTIVE_DIRICHLET, OBJECTIVE_G
from dpgap.geometry import eval_b2, eval_u2
from dpgap.orlicz import DoublePhase, LogPower, PurePower, double_phase_log


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(8, grading=2.0)


@pytest.fixture(scope="module")
def mesh16():
    return build_mesh(16, grading=2.0)


def _grad_basis(mesh):
    """(Ne, 3, 2) gradients of each element's basis functions, read off G."""
    return mesh.grad.data.reshape(-1, 2, 3).transpose(0, 2, 1)


def _zero_field(mesh):
    return DofField(mesh, np.zeros(mesh.n_vertices))


def _random_interior_field(mesh, rng, amp=1.0):
    vals = np.zeros(mesh.n_vertices)
    vals[mesh.interior] = amp * rng.standard_normal(len(mesh.interior))
    return DofField(mesh, vals)


def _bordered(K, border, h_ss):
    """The Hessian as one matrix: K, or K bordered by the s row, column and corner."""
    if border is None:
        return sp.csr_matrix(K)
    col = sp.csr_matrix(np.asarray(border)[:, None])
    return sp.bmat([[K, col], [col.T, sp.csr_matrix([[h_ss]])]], format="csr")


class TestModularEnergy:
    def test_quadratic_dirichlet_energy(self, mesh):
        # u = x1 under t^2 + a t^2: integrand 1 over area 4, plus 1 on the
        # vertical cones (a = 1), area 2
        u = DofField(mesh, mesh.nodes[:, 0].copy())
        pair = DoublePhase(PurePower(2.0), PurePower(2.0))
        assert modular_energy(u, pair) == pytest.approx(6.0)

    def test_double_phase_weighting(self, mesh):
        # phi + a psi with |grad u| = 1: phi(1) everywhere, psi(1) on half
        u = DofField(mesh, mesh.nodes[:, 1].copy())
        phi = LogPower(2.0, -2.0)
        psi = LogPower(2.0, 2.0)
        val = modular_energy(u, DoublePhase(phi, psi))
        assert val == pytest.approx(4.0 * float(phi(1.0)) + 2.0 * float(psi(1.0)))

    def test_enriched_reduces_to_base_at_zero_amplitude(self, mesh):
        rng = np.random.default_rng(1)
        u = _random_interior_field(mesh, rng)
        pair = double_phase_log(2.0, 2.0)
        e0 = modular_energy(EnrichedField(u, 0.0), pair)
        # the enriched path integrates at quadrature points instead of
        # per-element, so agreement is up to quadrature error only for
        # piecewise-constant integrands; here gradients are elementwise
        # constant and the values match exactly
        assert e0 == pytest.approx(modular_energy(u, pair), rel=1e-12)
        nodal0, _ = modular_gradient(EnrichedField(u, 0.0), pair)
        nodal, s_grad = modular_gradient(u, pair)
        assert s_grad is None
        np.testing.assert_allclose(nodal0, nodal, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(nodal)))


class TestGradient:
    @pytest.mark.parametrize("pair_args", [(2.0, 2.0), (0.5, 3.0)])
    def test_matches_finite_difference(self, mesh, pair_args):
        alpha, beta = pair_args
        pair = double_phase_log(alpha, beta)
        rng = np.random.default_rng(7)
        for trial in range(10):
            u = _random_interior_field(mesh, rng, amp=0.5)
            s = float(rng.uniform(-0.5, 0.5))
            eu = EnrichedField(u, s)
            nodal, s_grad = modular_gradient(eu, pair)
            d = rng.standard_normal(mesh.n_vertices)
            d[mesh.boundary_mask] = 0.0
            ds = float(rng.standard_normal())
            h = 1e-6
            up = EnrichedField(DofField(mesh, u.values + h * d), s + h * ds)
            um = EnrichedField(DofField(mesh, u.values - h * d), s - h * ds)
            fd = (modular_energy(up, pair)
                  - modular_energy(um, pair)) / (2.0 * h)
            an = float(nodal @ d) + s_grad * ds
            assert an == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("enriched", [False, True], ids=["conforming", "enriched"])
    def test_hessian_matches_gradient_difference(self, mesh, enriched):
        pair = double_phase_log(2.0, 2.0)
        rng = np.random.default_rng(3)
        u = _random_interior_field(mesh, rng, amp=0.3)
        K, border, h_ss = modular_hessian(EnrichedField(u, 0.2) if enriched else u,
                                          pair)
        assert K.shape == (mesh.n_vertices, mesh.n_vertices)
        assert (border is None) == (h_ss is None) == (not enriched)
        H = _bordered(K, border, h_ss)
        d = rng.standard_normal(mesh.n_vertices + 1)
        d[np.where(mesh.boundary_mask)[0]] = 0.0
        h = 1e-6
        up = DofField(mesh, u.values + h * d[:-1])
        um = DofField(mesh, u.values - h * d[:-1])
        if enriched:
            up = EnrichedField(up, 0.2 + h * d[-1])
            um = EnrichedField(um, 0.2 - h * d[-1])
        else:
            d = d[:-1]
        gp, sp = modular_gradient(up, pair)
        gm, sm = modular_gradient(um, pair)
        fd = (gp - gm) / (2.0 * h)
        if enriched:
            fd = np.append(fd, (sp - sm) / (2.0 * h))
        assert H.shape == (len(d), len(d))
        hv = H @ d
        mask = np.abs(fd) > 1e-6
        np.testing.assert_allclose(hv[mask], fd[mask], rtol=2e-4)

    @pytest.mark.parametrize("enriched", [False, True], ids=["conforming", "enriched"])
    def test_stiffness_matches_element_matrices(self, mesh, enriched):
        """K = (D G)^T G against element matrices B M B^T summed by COO."""
        rng = np.random.default_rng(4)
        u = _random_interior_field(mesh, rng, amp=0.3)
        if enriched:
            u = EnrichedField(u, 0.2)
        pair = double_phase_log(2.0, 2.0)
        g, t, w, a, starts, _ = assembly._points(u)
        h00, h01, h11 = assembly._pointwise_hessian(g, t, assembly._integrand(pair, t, a, 2),
                                                    assembly._integrand(pair, t, a, 1))
        H = np.stack([h00, h01, h01, h11], axis=1).reshape(-1, 2, 2)
        M = assembly._per_element(H * w[:, None, None], starts)
        B = _grad_basis(mesh)
        Ke = np.einsum("ejk,ekl,eml->ejm", B, M, B)
        nv, tris = mesh.n_vertices, mesh.tris
        ref = sp.coo_matrix((Ke.ravel(), (np.repeat(tris, 3, axis=1).ravel(),
                                         np.tile(tris, (1, 3)).ravel())),
                            shape=(nv, nv)).toarray()
        K = modular_hessian(u, pair)[0]
        assert K.shape == (nv, nv)
        np.testing.assert_allclose(K.toarray(), ref, rtol=0.0,
                                   atol=1e-14 * np.max(np.abs(ref)))


def _tensor_hessian(u, pair):
    """(K, border, h_ss) by G^T D G with D a BSR matrix of per-element 2x2
    blocks, from a (points, 2, 2) tensor H: the formula that modular_hessian
    replaces, kept as the reference for its bits."""
    G = u.mesh.grad
    g, t, w, a, starts, ge = assembly._points(u)
    k1, k2 = assembly._integrand(pair, t, a, 2), assembly._integrand(pair, t, a, 1)
    H = np.zeros((len(t), 2, 2))
    H[:, 0, 0] = k2
    H[:, 1, 1] = k2
    big = t > assembly._GRAD_FLOOR
    ghat = np.zeros_like(g)
    ghat[big] = g[big] / t[big, None]
    d = k1 - k2
    H[:, 0, 0] += d * ghat[:, 0] ** 2
    H[:, 0, 1] += d * ghat[:, 0] * ghat[:, 1]
    H[:, 1, 0] = H[:, 0, 1]
    H[:, 1, 1] += d * ghat[:, 1] ** 2
    M = assembly._per_element(H * w[:, None, None], starts)
    D = sp.bsr_matrix((M, np.arange(len(M)), np.arange(len(M) + 1)))
    K = G.T @ D @ G
    if ge is None:
        return K, None, None
    Hge = np.einsum("qkl,ql->qk", H, ge)
    border = G.T @ assembly._per_element(w[:, None] * Hge, starts).ravel()
    return K, border, float(np.sum(w * np.einsum("qk,qk->q", ge, Hge)))


class TestHessianBits:
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("pair_args", [(2.0, 2.0), (2.0, 0.5)])
    @pytest.mark.parametrize("enriched", [False, True], ids=["conforming", "enriched"])
    def test_equals_tensor_formula(self, n, pair_args, enriched):
        # every bit of K (its storage order too), the border and h_ss
        mesh = build_mesh(n, grading=2.0, quadrant=True)
        pair = double_phase_log(*pair_args)
        rng = np.random.default_rng(n)
        u2 = np.where(mesh.boundary_mask, 0.0, eval_u2(mesh.nodes[:, 0], mesh.nodes[:, 1]))
        for u in (_random_interior_field(mesh, rng, amp=0.3), DofField(mesh, u2),
                  DofField(mesh, np.zeros(mesh.n_vertices))):
            if enriched:
                u = EnrichedField(u, 0.2)
            K, border, h_ss = modular_hessian(u, pair)
            K_ref, border_ref, h_ss_ref = _tensor_hessian(u, pair)
            assert K.format == K_ref.format
            for got, ref in ((K.indptr, K_ref.indptr), (K.indices, K_ref.indices),
                             (K.data, K_ref.data)):
                np.testing.assert_array_equal(got, ref)
                assert got.tobytes() == ref.tobytes()
            if not enriched:
                assert border is None and h_ss is None
            else:
                assert border.tobytes() == border_ref.tobytes()
                assert np.float64(h_ss).tobytes() == np.float64(h_ss_ref).tobytes()

    def test_pointwise_components(self):
        # kappa2 I + (kappa1 - kappa2) ghat ghat^T, ghat = 0 at and below the floor
        rng = np.random.default_rng(5)
        g = np.vstack([rng.standard_normal((50, 2)), [[0.0, 0.0], [1e-13, -1e-13],
                                                      [-7e-13, 0.0], [0.0, -2.0], [3.0, 0.0]]])
        t = np.linalg.norm(g, axis=1)
        k1, k2 = rng.uniform(0.5, 2.0, len(t)), rng.uniform(0.5, 2.0, len(t))
        h00, h01, h11 = assembly._pointwise_hessian(g, t, k1, k2)
        big = t > assembly._GRAD_FLOOR
        ghat = np.where(big[:, None], g / np.maximum(t, 1e-300)[:, None], 0.0)
        ref = (k2[:, None, None] * np.eye(2)
               + (k1 - k2)[:, None, None] * np.einsum("qi,qj->qij", ghat, ghat))
        for got, (i, j) in ((h00, (0, 0)), (h01, (0, 1)), (h11, (1, 1))):
            np.testing.assert_allclose(got, ref[:, i, j], rtol=1e-15, atol=1e-15)
        small = ~big
        assert small.sum() == 3
        np.testing.assert_array_equal(h00[small], k2[small])
        np.testing.assert_array_equal(h11[small], k2[small])
        # ghat0 ghat1 is -0.0 at g = (0, -2), or below the floor: H01 is +0.0
        zero = h01 == 0.0
        assert zero.sum() == 5 and not np.any(np.signbit(h01[zero]))

    @pytest.mark.parametrize("enriched, bound", [(False, 5.5), (True, 7.0)],
                             ids=["conforming-5.5", "enriched-7.0"])
    def test_peak_memory_per_matrix(self, enriched, bound):
        # tracemalloc peak of one Hessian over the bytes of the K it returns,
        # on the n = 64 quadrant: the (points, 2, 2) tensor, its weighted copy,
        # the BSR D and G^T D read 6.7 (conforming) and 8.5 (enriched); D G on
        # G's own pattern reads 4.5 and 4.8
        mesh = build_mesh(64, grading=2.0, quadrant=True)
        enrichment_rule(mesh)
        u = _random_interior_field(mesh, np.random.default_rng(0), amp=0.3)
        if enriched:
            u = EnrichedField(u, 0.2)
        pair = double_phase_log(2.0, 2.0)
        tracemalloc.start()
        try:
            K = modular_hessian(u, pair)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes) < bound


class TestEnrichment:
    def test_value_plateau(self):
        pts = np.array([[0.05, 0.2], [0.0, 0.1]])
        # inside r <= 1/4 the window is 1, so E = u2
        np.testing.assert_allclose(enrichment_value(pts),
                                   np.asarray(eval_u2(pts[:, 0], pts[:, 1])))

    def test_vanishes_outside_half_ball(self):
        pts = np.array([[0.5, 0.4], [0.0, 0.9]])
        np.testing.assert_allclose(enrichment_value(pts), 0.0)
        np.testing.assert_allclose(enrichment_gradient(pts), 0.0)

    def test_gradient_vs_finite_difference(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.05, 0.6, size=(100, 2)) * rng.choice(
            [-1.0, 1.0], size=(100, 2))
        g = enrichment_gradient(pts)
        h = 1e-7
        for k in range(2):
            dp = pts.copy()
            dm = pts.copy()
            dp[:, k] += h
            dm[:, k] -= h
            fd = (enrichment_value(dp) - enrichment_value(dm)) / (2 * h)
            np.testing.assert_allclose(g[:, k], fd, atol=1e-5)


def _full_rule_assembly(u, pair, mesh):
    """(energy, nodal gradient, d/ds, dense Hessian) of an enriched field, one
    term per point of the full quadrature rule mesh.qpts/qw/qel."""
    ge = enrichment_gradient(mesh.qpts)
    g = u.base.element_gradients()[mesh.qel] + u.s * ge
    t = np.linalg.norm(g, axis=1)
    a = mesh.phase[mesh.qel]
    w = mesh.qw
    energy = float(np.sum(w * (pair.phi(t) + a * pair.psi(t))))
    ratio = pair.phi.deriv_ratio(t, floor=1e-12) + a * pair.psi.deriv_ratio(t, floor=1e-12)
    second = pair.phi.second_deriv(t) + a * pair.psi.second_deriv(t)
    ghat = np.where(t[:, None] > 1e-12, g / np.maximum(t, 1e-300)[:, None], 0.0)
    Hq = (ratio[:, None, None] * np.eye(2)
          + (second - ratio)[:, None, None] * np.einsum("qk,ql->qkl", ghat, ghat))
    B = _grad_basis(mesh)[mesh.qel]  # (Nq, 3, 2)
    tris = mesh.tris[mesh.qel]
    nv = mesh.n_vertices
    m = (w * ratio)[:, None] * g
    nodal = np.zeros(nv)
    np.add.at(nodal, tris, np.einsum("qjk,qk->qj", B, m))
    ds = float(np.sum(m * ge))
    Hge = np.einsum("qkl,ql->qk", Hq, ge)
    H = np.zeros((nv + 1, nv + 1))
    np.add.at(H, (tris[:, :, None], tris[:, None, :]),
              w[:, None, None] * np.einsum("qjk,qkl,qml->qjm", B, Hq, B))
    cross = np.zeros(nv)
    np.add.at(cross, tris, w[:, None] * np.einsum("qjk,qk->qj", B, Hge))
    H[:nv, nv] = cross
    H[nv, :nv] = cross
    H[nv, nv] = float(np.sum(w * np.einsum("qk,qk->q", ge, Hge)))
    return energy, nodal, ds, H


def _one_shot_rule(mesh):
    """The enrichment record built from the whole full rule mesh.qpts/qw/qel
    at once: the reference for the chunked build."""
    qel = mesh.qel
    counts = np.bincount(qel, minlength=mesh.n_elements)
    starts = np.cumsum(counts) - counts
    ge = enrichment_gradient(mesh.qpts)
    b = eval_b2(mesh.qpts[:, 0], mesh.qpts[:, 1]).T
    L_s = float(np.sum(mesh.qw * np.einsum("qk,qk->q", b, ge)))
    L = mesh.grad.T @ np.add.reduceat(mesh.qw[:, None] * b, starts, axis=0).ravel()
    active = np.logical_or.reduceat(np.any(ge != 0.0, axis=1), starts)
    keep = active[qel]
    keep[starts] = True
    qel_split = qel[keep]
    lone = ~active[qel_split]
    qw = np.where(lone, mesh.area[qel_split], mesh.qw[keep])
    ge_split = ge[keep]
    ge_split[lone] = 0.0
    n_split = np.where(active, counts, 1)
    return assembly.EnrichmentRule(qw, qel_split, ge_split, np.cumsum(n_split) - n_split,
                                   L, L_s)


class TestSplitRule:
    def test_rule(self, mesh16):
        qw, qel, ge, starts, _, _ = enrichment_rule(mesh16)
        full_ge = enrichment_gradient(mesh16.qpts)
        ne = mesh16.n_elements
        assert np.all(np.diff(qel) >= 0)
        np.testing.assert_array_equal(qel[starts], np.arange(ne))
        np.testing.assert_array_equal(starts, np.searchsorted(qel, np.arange(ne)))
        np.testing.assert_allclose(np.bincount(qel, qw, minlength=ne), mesh16.area,
                                   rtol=1e-14)
        # active: grad E nonzero at some full-rule point of the element
        active = np.bincount(mesh16.qel, np.any(full_ge != 0.0, axis=1),
                             minlength=ne) > 0
        assert 0 < active.sum() < ne
        full_count = np.bincount(mesh16.qel, minlength=ne)
        np.testing.assert_array_equal(np.bincount(qel, minlength=ne),
                                      np.where(active, full_count, 1))
        kept, full_kept = active[qel], active[mesh16.qel]
        np.testing.assert_array_equal(qw[kept], mesh16.qw[full_kept])
        np.testing.assert_array_equal(ge[kept], full_ge[full_kept])
        # each inactive element: one point, weight area, ge = 0, where every
        # dropped full-rule point has ge exactly 0
        np.testing.assert_array_equal(qw[~kept], mesh16.area[~active])
        assert np.all(ge[~kept] == 0.0)
        assert np.all(full_ge[~full_kept] == 0.0)

    def test_assembly_matches_full_rule(self, mesh16):
        pair = double_phase_log(2.0, 2.0)
        rng = np.random.default_rng(13)
        u = EnrichedField(_random_interior_field(mesh16, rng, amp=0.3), 0.3)
        energy, nodal, ds, H = _full_rule_assembly(u, pair, mesh16)
        assert modular_energy(u, pair) == pytest.approx(energy, rel=1e-12)
        got_nodal, got_ds = modular_gradient(u, pair)
        np.testing.assert_allclose(got_nodal, nodal, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(nodal)))
        assert got_ds == pytest.approx(ds, rel=1e-12)
        got_H = _bordered(*modular_hessian(u, pair)).toarray()
        np.testing.assert_allclose(got_H, H, rtol=1e-12, atol=1e-12 * np.max(np.abs(H)))

    def test_conforming_minimize_never_builds_it(self, monkeypatch):
        calls = []
        original = assembly.enrichment_rule

        def counting(mesh):
            calls.append(mesh)
            return original(mesh)

        monkeypatch.setattr(assembly, "enrichment_rule", counting)
        monkeypatch.setattr(solve, "enrichment_rule", counting)
        fresh = build_mesh(8, grading=2.0)
        pair = double_phase_log(2.0, 2.0)
        minimize(OBJECTIVE_G, pair, _zero_field(fresh))
        minimize(OBJECTIVE_DIRICHLET, pair, DofField.interpolate(fresh, eval_u2))
        assert calls == []
        minimize(OBJECTIVE_G, pair, EnrichedField(_zero_field(fresh)))
        assert calls and all(m is fresh for m in calls)

    def test_full_rule_never_built_by_the_solver(self):
        # enriched use evaluates the full rule chunk by chunk inside
        # enrichment_rule; the mesh's own qpts/qw/qel stay unbuilt
        pair = double_phase_log(2.0, 2.0)
        full, quad = build_mesh(8, grading=2.0), build_mesh(8, grading=2.0, quadrant=True)
        for m in (full, quad):
            base = DofField.interpolate(m, eval_u2)
            minimize(OBJECTIVE_G, pair, _zero_field(m))
            minimize(OBJECTIVE_DIRICHLET, pair, base)
            m.locate(m.nodes)
            m.evaluate(base.values, [0.1, 0.2])
            if m is full:  # the cone trace reads arcs on both sides of the origin
                for u in (base, EnrichedField(base, 0.7)):
                    cone_trace_diagnostic(u, m, radii=[0.05, 0.1, 0.2])
            res = minimize(OBJECTIVE_G, pair, EnrichedField(_zero_field(m)))
            separating_functional(res.field)
            assert "_enrichment_rule" in vars(m)
            assert "_full_rule" not in vars(m)

    @pytest.mark.parametrize("quadrant", [False, True])
    @pytest.mark.parametrize("grading", [1.0, 2.0])
    @pytest.mark.parametrize("chunk", [97, assembly._CHUNK_ELEMENTS])
    def test_chunked_record_matches_one_shot(self, monkeypatch, quadrant, grading, chunk):
        # 97 elements per chunk splits a mesh of 1024 or 4096 elements into
        # 11 or 43 chunks, the last one partial; every array but L_s is
        # element-local and so bit-identical, and L_s sums in another order
        monkeypatch.setattr(assembly, "_CHUNK_ELEMENTS", chunk)
        mesh = build_mesh(16, grading=grading, quadrant=quadrant)
        got = enrichment_rule(mesh)
        ref = _one_shot_rule(mesh)
        for name in ("qw", "qel", "ge", "starts", "L"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), err_msg=name)
        assert got.L_s == pytest.approx(ref.L_s, rel=1e-14, abs=0.0)

    def test_peak_memory_below_full_rule(self):
        # the record is built without ever holding the whole full rule
        mesh = build_mesh(64, grading=2.0, quadrant=True)
        tracemalloc.start()
        try:
            enrichment_rule(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        full_rule = mesh.qpts.nbytes + mesh.qw.nbytes + mesh.qel.nbytes
        assert peak < full_rule


class TestLinearTerm:
    def test_quadrature_mode_decays_under_refinement(self, mesh, mesh16):
        # int b2 . grad w = 0 for smooth compactly-supported w; the assembled
        # functional must shrink as the mesh resolves b2's cone layers
        def w(x1, x2):
            return np.sin(np.pi * x1) * np.sin(np.pi * x2) * (x1 + 0.3) ** 2

        vals = []
        for m in (mesh, mesh16):
            u = DofField.interpolate(m, w)
            u.values[m.boundary_mask] = 0.0
            L = enrichment_rule(m).L
            vals.append(abs(float(L @ u.values)))
        assert vals[1] < 0.5 * vals[0]

    def test_pairing_with_enrichment_tends_to_minus_one(self, mesh16):
        L_s = enrichment_rule(mesh16).L_s
        assert L_s == pytest.approx(-1.0, abs=0.02)

    def test_separating_functional_scales_with_s(self, mesh):
        zero = DofField(mesh, np.zeros(mesh.n_vertices))
        v1 = separating_functional(EnrichedField(zero, 1.0))
        v2 = separating_functional(EnrichedField(zero, 2.0))
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    @pytest.mark.parametrize("alpha, beta", [(2.0, 2.0), (2.0, 0.5)])
    def test_b2_evaluated_once_per_mesh(self, monkeypatch, alpha, beta):
        # G mode pairs s with b2 in the objective and again in the
        # separating functional; Dirichlet mode only in the latter. Both read
        # the mesh's enrichment rule, which evaluates b2 and grad E at every
        # full-rule point exactly once, over however many calls
        meshes, b2_points, grad_points = [], [], []
        original_build = solve.build_mesh
        original_b2 = assembly.eval_b2
        original_grad = assembly.enrichment_gradient

        def recording_build(*args, **kwargs):
            meshes.append(original_build(*args, **kwargs))
            return meshes[-1]

        def recording_b2(x1, x2):
            b2_points.append(np.column_stack([x1, x2]))
            return original_b2(x1, x2)

        def recording_grad(points):
            grad_points.append(np.array(points))
            return original_grad(points)

        monkeypatch.setattr(solve, "build_mesh", recording_build)
        monkeypatch.setattr(assembly, "eval_b2", recording_b2)
        monkeypatch.setattr(assembly, "enrichment_gradient", recording_grad)
        gap_experiment(alpha, beta, [8, 16])
        assert len(meshes) == 2
        full_rules = np.vstack([m.qpts for m in meshes])
        np.testing.assert_array_equal(np.vstack(b2_points), full_rules)
        np.testing.assert_array_equal(np.vstack(grad_points), full_rules)


class _ZeroPsi:
    """psi = 0, so Phi = phi in each phase."""

    def __call__(self, t):
        return np.zeros_like(np.asarray(t, dtype=np.float64))

    def deriv_ratio(self, t, floor):
        return self(t)

    def second_deriv(self, t):
        return self(t)


class TestMinimize:
    def test_dirichlet_linear_data_reproduced(self, mesh):
        # boundary trace of an affine function: the minimizer of a
        # phase-independent integrand is that function
        start = DofField(mesh, np.where(mesh.boundary_mask, mesh.nodes[:, 0], 0.0))
        pair = DoublePhase(PurePower(2.0), _ZeroPsi())
        res = minimize(OBJECTIVE_DIRICHLET, pair, start)
        assert res.converged
        np.testing.assert_allclose(res.field.values, mesh.nodes[:, 0], atol=1e-8)
        assert res.value == pytest.approx(4.0, rel=1e-10)

    def test_conforming_g_minimum_is_zero(self, mesh):
        pair = double_phase_log(2.0, 2.0)
        res = minimize(OBJECTIVE_G, pair, _zero_field(mesh))
        assert res.converged
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_enriched_g_descends_below_zero(self, mesh):
        pair = double_phase_log(2.0, 2.0)
        res = minimize(OBJECTIVE_G, pair, EnrichedField(_zero_field(mesh)))
        assert res.converged
        assert res.value < -1e-3
        assert res.field.s > 0.0

    def test_convexity_along_segment(self, mesh):
        # the objective the solver minimizes, over its reduced unknowns
        pair = double_phase_log(2.0, 2.0)
        rng = np.random.default_rng(5)
        a, b = (solve._Objective(OBJECTIVE_G, pair,
                                 EnrichedField(_random_interior_field(mesh, rng), s)).x0
                for s in (0.1, -0.2))
        objective = solve._Objective(OBJECTIVE_G, pair, EnrichedField(_zero_field(mesh)))
        fm = objective.value(0.5 * (a + b))
        assert fm <= 0.5 * (objective.value(a) + objective.value(b)) + 1e-10

    def test_start_must_be_a_field(self, mesh):
        pair = double_phase_log(2.0, 2.0)
        for start in (np.zeros(mesh.n_vertices), np.zeros(len(mesh.interior)), None,
                      EnrichedField(np.zeros(mesh.n_vertices))):
            with pytest.raises(DomainError):
                minimize(OBJECTIVE_DIRICHLET, pair, start)
        # a wrong-length start cannot be built
        with pytest.raises(DomainError):
            DofField(mesh, np.zeros(3))

    @pytest.mark.parametrize("enriched", [False, True])
    def test_g_mode_needs_zero_boundary_values(self, mesh, enriched):
        # G drops L . values, which is 0 for zero boundary values only
        values = np.zeros(mesh.n_vertices)
        values[np.flatnonzero(mesh.boundary_mask)[3]] = 1.0
        start = DofField(mesh, values)
        with pytest.raises(RangeError, match="zero boundary values"):
            minimize(OBJECTIVE_G, double_phase_log(2.0, 2.0),
                     EnrichedField(start) if enriched else start)

    @pytest.mark.parametrize("objective", [OBJECTIVE_G, OBJECTIVE_DIRICHLET])
    def test_start_left_unchanged(self, mesh, objective):
        pair = double_phase_log(2.0, 2.0)
        u2 = DofField.interpolate(mesh, eval_u2)
        if objective == OBJECTIVE_G:
            u2.values[mesh.boundary_mask] = 0.0
        for start in (u2, EnrichedField(u2, 0.4)):
            before = u2.values.copy()
            res = minimize(objective, pair, start)
            np.testing.assert_array_equal(u2.values, before)
            assert res.field is not start
            values = getattr(res.field, "base", res.field).values
            np.testing.assert_array_equal(values[mesh.boundary_mask], before[mesh.boundary_mask])
        assert start.s == 0.4


class _SingularBorderObjective:
    """f = |x|^2 / 2 with a stand-in Hessian whose Schur complement is 0."""

    def __init__(self):
        a = 1.0 + 1e-14  # the diagonal after the solver's 1e-14 shift
        self.H = (sp.identity(2, format="csc"), np.array([a, 0.0]), 1.0)

    def value(self, x):
        return 0.5 * float(x @ x)

    def grad(self, x):
        return x.copy()

    def hess(self, x):
        return self.H


class _RayObjective:
    """f = |x|^2 / 2 on the ray through (1, 2), inf elsewhere, with Hessian
    diag(1, 2): its Newton direction -(1, 1) descends but leaves the ray."""

    def __init__(self):
        self.hessians = 0

    def value(self, x):
        return 0.5 * float(x @ x) if x[1] == 2.0 * x[0] else np.inf

    def grad(self, x):
        return x.copy()

    def hess(self, x):
        self.hessians += 1
        return sp.diags([1.0, 2.0], format="csc"), None, 0.0


class TestNewtonDirection:
    @pytest.mark.parametrize("enriched, objective",
                             [(True, OBJECTIVE_G), (False, OBJECTIVE_DIRICHLET)],
                             ids=["enriched-G", "conforming-dirichlet"])
    def test_matches_full_solve(self, mesh16, enriched, objective):
        pair = double_phase_log(2.0, 2.0)
        u = _random_interior_field(mesh16, np.random.default_rng(11), amp=0.3)
        if objective == OBJECTIVE_DIRICHLET:
            boundary = mesh16.boundary_mask
            u.values[boundary] = eval_u2(mesh16.nodes[boundary, 0], mesh16.nodes[boundary, 1])
        obj = solve._Objective(objective, pair, EnrichedField(u, 0.3) if enriched else u)
        x = obj.x0
        K, c, h_ss = obj.hess(x)
        assert (c is None) == (not enriched)
        g = obj.grad(x)
        d = solve._newton_direction(K, c, h_ss, g)
        H = _bordered(K, c, h_ss)
        ref = spla.spsolve((H + 1e-14 * sp.eye(H.shape[0])).tocsc(), -g)
        assert np.linalg.norm(d - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_stationary_start_factors_nothing(self, mesh, monkeypatch):
        calls = {"spsolve": 0, "hessian": 0}

        def counting(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(solve.spla, "spsolve", "spsolve")
        counting(solve, "modular_hessian", "hessian")
        pair = double_phase_log(2.0, 2.0)
        res = minimize(OBJECTIVE_G, pair, _zero_field(mesh))
        assert calls == {"spsolve": 0, "hessian": 0}
        assert res.converged and res.iterations == 1
        assert res.value == 0.0
        minimize(OBJECTIVE_G, pair, EnrichedField(res.field))
        assert calls["spsolve"] >= 1 and calls["hessian"] >= 1

    def test_singular_border_falls_back_to_gradient(self, monkeypatch):
        directions = []
        original = solve._newton_direction

        def recording(K, c, h_ss, g):
            directions.append(original(K, c, h_ss, g))
            return directions[-1]

        monkeypatch.setattr(solve, "_newton_direction", recording)
        x, f, _, converged = solve._newton(_SingularBorderObjective(),
                                           np.array([1.0, 2.0, 3.0]))
        assert not np.all(np.isfinite(directions[0]))
        # the gradient step -x lands on the minimizer of |x|^2 / 2
        assert converged
        np.testing.assert_array_equal(x, 0.0)
        assert f == 0.0


    def test_failed_newton_step_falls_to_gradient_at_once(self, monkeypatch):
        solves = []
        original = solve.spla.spsolve

        def counting(*args, **kwargs):
            solves.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(solve.spla, "spsolve", counting)
        obj = _RayObjective()
        x, f, iterations, converged = solve._newton(obj, np.array([1.0, 2.0]))
        # no Armijo step on the Newton direction: one Hessian and one solve,
        # then the gradient step to the minimizer and a zero step confirming it
        assert (obj.hessians, len(solves)) == (1, 1)
        np.testing.assert_array_equal(x, 0.0)
        assert (f, iterations, converged) == (0.0, 2, True)
        # the gradient step is taken in the same iteration as the failed one
        monkeypatch.setattr(solve, "MAX_ITERATIONS", 1)
        x, _, iterations, _ = solve._newton(_RayObjective(), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(x, 0.0)
        assert iterations == 1


class TestGapExperiment:
    def test_nesting_and_modes(self):
        report = gap_experiment(2.0, 2.0, [8, 16], grading=2.0)
        assert report.mode == OBJECTIVE_G
        assert report.verdict == "Gap"
        for lv in report.levels:
            assert lv["E1"] <= lv["E2"] + 1e-10
            assert "nesting_violation" not in lv

    def test_g_mode_guard(self):
        with pytest.raises(GapPreconditionError) as err:
            gap_experiment(2.0, 0.5, [8], mode=OBJECTIVE_G)
        assert err.value.code == "GAP_PRECONDITION_B_NOT_DUAL_INTEGRABLE"

    def test_auto_fallback_to_dirichlet(self):
        report = gap_experiment(2.0, 0.5, [8])
        assert report.mode == OBJECTIVE_DIRICHLET
        assert report.mode_note is not None

    def test_levels_must_ascend(self):
        with pytest.raises(RangeError):
            gap_experiment(2.0, 2.0, [16, 8])

    def test_levels_must_be_whole(self):
        # int() made [8, 8.9] two n = 8 levels, and solved both
        with pytest.raises(RangeError, match="whole numbers"):
            gap_experiment(2.0, 0.5, [8, 8.9])
        assert gap_experiment(2.0, 2.0, [np.float64(8.0)]).to_dict()["levels"][0]["n"] == 8

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="OpenBLAS runs one thread on one CPU, so the runs cannot differ")
    def test_report_bytes_independent_of_blas_threads(self):
        # OpenBLAS splits a long ddot over its threads and sums the parts in
        # another order: with c @ y and d @ g, s_opt and sep_value of this
        # level moved in the last bit between one thread and two
        code = ("from dpgap.cli import main; "
                "main(['gap', '--alpha', '2', '--beta', '2', '--levels', '128'])")
        src = os.path.dirname(os.path.dirname(dpgap.__file__))
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 timeout=600, check=True)
            reports.append(run.stdout)
        assert b'"s_opt"' in reports[0]
        assert reports[0] == reports[1]

    def test_report_round_trip(self):
        report = gap_experiment(2.0, 2.0, [8])
        d = report.to_dict()
        assert {"alpha", "beta", "mode", "verdict", "levels"} <= set(d)
        assert d["levels"][0]["n"] == 8


def _full_domain_level(alpha, beta, mode, n):
    """(conforming, enriched) minimizers of one gap level on (-1,1)^2, from
    the starts gap_experiment takes."""
    mesh = build_mesh(n, 2.0)
    pair = double_phase_log(alpha, beta)
    start = (_zero_field(mesh) if mode == OBJECTIVE_G
             else DofField.interpolate(mesh, eval_u2))
    conf = minimize(mode, pair, start)
    return conf, minimize(mode, pair, EnrichedField(conf.field, 0.0))


class TestQuadrantSolve:
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("alpha, beta, mode", [(2.0, 2.0, OBJECTIVE_G),
                                                   (2.0, 0.5, OBJECTIVE_DIRICHLET)])
    def test_reproduces_full_domain(self, monkeypatch, alpha, beta, mode, n):
        quad = []

        def recording(*args, **kwargs):
            quad.append(real(*args, **kwargs))
            return quad[-1]

        real = solve.minimize
        monkeypatch.setattr(solve, "minimize", recording)
        level = gap_experiment(alpha, beta, [n], grading=2.0, mode=mode).levels[0]
        conf, enr = _full_domain_level(alpha, beta, mode, n)
        mesh = enr.field.mesh
        full = {"E1": enr.value, "E2": conf.value, "s_opt": enr.field.s,
                "sep_value": separating_functional(enr.field)}
        for key, value in full.items():
            assert level[key] == pytest.approx(value, rel=1e-13, abs=0.0), key
        assert level["iters_conforming"] == conf.iterations
        assert level["iters_enriched"] == enr.iterations
        # the full minimizers are the reflections u(x1, x2) = sign(x2) u(|x1|, |x2|)
        sign = np.sign(mesh.nodes[:, 1])
        conf_q, enr_q = quad
        for q, f in ((conf_q.field, conf.field), (enr_q.field.base, enr.field.base)):
            np.testing.assert_allclose(sign * q.evaluate(np.abs(mesh.nodes)), f.values,
                                       rtol=0.0, atol=1e-12)

    def test_mesh_build_per_level(self, monkeypatch):
        # the benchmark's tracer wraps solve.build_mesh and keys each level's
        # time by the first positional argument
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        real = solve.build_mesh
        monkeypatch.setattr(solve, "build_mesh", recording)
        gap_experiment(2, 2, [8, 16])
        assert [args[0] for args, _ in calls] == [8, 16]
        assert all(kwargs.get("quadrant") is True for _, kwargs in calls)


class TestConeTrace:
    def test_enrichment_recovers_jump(self, mesh16):
        u = EnrichedField(DofField(mesh16, np.zeros(mesh16.n_vertices)), 1.0)
        table, _ = cone_trace_diagnostic(u, mesh16,
                                         radii=[0.01, 0.02, 0.05, 0.1])
        # top arcs sit in the +1/2 cone, bottom arcs in the -1/2 cone
        np.testing.assert_allclose(table[:, 1], 0.5, atol=1e-9)
        np.testing.assert_allclose(table[:, 2], -0.5, atol=1e-9)

    def test_evaluate_at_origin_is_the_origin_value(self):
        # the trace reads u(0) by evaluating u at the origin
        rng = np.random.default_rng(3)
        for n in (8, 16, 32):
            m = build_mesh(n, grading=2.0)
            base = DofField(m, rng.standard_normal(m.n_vertices))
            origin = np.flatnonzero(np.all(m.nodes == 0.0, axis=1))
            assert len(origin) == 1
            for u in (base, EnrichedField(base, 0.7)):
                assert u.evaluate([0.0, 0.0]) == base.values[origin[0]]

    def test_radius_below_mesh_rejected(self, mesh16):
        u = DofField(mesh16, np.zeros(mesh16.n_vertices))
        with pytest.raises(RangeError):
            cone_trace_diagnostic(u, mesh16, radii=[1e-9])

    def test_radius_one_rejected(self, mesh16):
        # the fit takes log(log(1/r)), which is -inf at r = 1
        u = EnrichedField(DofField(mesh16, np.zeros(mesh16.n_vertices)), 1.0)
        radii = np.geomspace(mesh16.h_min, 1.0, 12)
        with pytest.raises(RangeError, match="r < 1"):
            cone_trace_diagnostic(u, mesh16, radii=radii)
        table, _ = cone_trace_diagnostic(u, mesh16, radii=radii[:-1])
        assert len(table) == 11

    def test_one_locate_per_trace(self, mesh16, monkeypatch):
        # the origin and all arcs of every radius go through one evaluate call
        calls = []
        real = type(mesh16).locate

        def counting(self, points):
            calls.append(len(np.atleast_2d(points)))
            return real(self, points)

        monkeypatch.setattr(type(mesh16), "locate", counting)
        base = DofField.interpolate(mesh16, eval_u2)
        for u in (base, EnrichedField(base, 0.7)):
            calls.clear()
            table, _ = cone_trace_diagnostic(u, mesh16, radii=[0.05, 0.1, 0.2, 0.4])
            assert calls == [1 + 4 * 82]
            assert table.shape == (4, 3)
