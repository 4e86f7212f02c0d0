"""Assembly, enrichment and minimization on the checkerboard mesh."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dpgap.errors import GapPreconditionError, RangeError
from dpgap.fem import (DofField, EnrichedField, build_mesh, cone_trace_diagnostic,
                       functional_G, gap_experiment, minimize, modular_energy,
                       separating_functional)
from dpgap.fem import assembly, solve
from dpgap.fem.assembly import enrichment_rule, modular_gradient, modular_hessian
from dpgap.fem.fields import enrichment_gradient, enrichment_value
from dpgap.fem.solve import CONFORMING, ENRICHED, OBJECTIVE_DIRICHLET, OBJECTIVE_G
from dpgap.geometry import eval_u2
from dpgap.orlicz import LogPower, PurePower, double_phase_log


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(8, grading=2.0)


@pytest.fixture(scope="module")
def mesh16():
    return build_mesh(16, grading=2.0)


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
        # u = x1: integrand |grad u|^2 = 1 over area 4
        u = DofField(mesh, mesh.nodes[:, 0].copy())
        assert modular_energy(u, PurePower(2.0), mesh) == pytest.approx(4.0)

    def test_double_phase_weighting(self, mesh):
        # phi + a psi with |grad u| = 1: phi(1) everywhere, psi(1) on half
        u = DofField(mesh, mesh.nodes[:, 1].copy())
        phi = LogPower(2.0, -2.0)
        psi = LogPower(2.0, 2.0)
        from dpgap.orlicz import DoublePhase
        val = modular_energy(u, DoublePhase(phi, psi), mesh)
        assert val == pytest.approx(4.0 * float(phi(1.0)) + 2.0 * float(psi(1.0)))

    def test_enriched_reduces_to_base_at_zero_amplitude(self, mesh):
        rng = np.random.default_rng(1)
        u = _random_interior_field(mesh, rng)
        pair = double_phase_log(2.0, 2.0)
        e0 = modular_energy(EnrichedField(u, 0.0), pair, mesh)
        # the enriched path integrates at quadrature points instead of
        # per-element, so agreement is up to quadrature error only for
        # piecewise-constant integrands; here gradients are elementwise
        # constant and the values match exactly
        assert e0 == pytest.approx(modular_energy(u, pair, mesh), rel=1e-12)
        nodal0, _ = modular_gradient(EnrichedField(u, 0.0), pair, mesh)
        nodal, s_grad = modular_gradient(u, pair, mesh)
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
            nodal, s_grad = modular_gradient(eu, pair, mesh)
            d = rng.standard_normal(mesh.n_vertices)
            d[mesh.boundary_mask] = 0.0
            ds = float(rng.standard_normal())
            h = 1e-6
            up = EnrichedField(DofField(mesh, u.values + h * d), s + h * ds)
            um = EnrichedField(DofField(mesh, u.values - h * d), s - h * ds)
            fd = (modular_energy(up, pair, mesh)
                  - modular_energy(um, pair, mesh)) / (2.0 * h)
            an = float(nodal @ d) + s_grad * ds
            assert an == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("space", [CONFORMING, ENRICHED])
    def test_hessian_matches_gradient_difference(self, mesh, space):
        enriched = space == ENRICHED
        pair = double_phase_log(2.0, 2.0)
        rng = np.random.default_rng(3)
        u = _random_interior_field(mesh, rng, amp=0.3)
        K, border, h_ss = modular_hessian(EnrichedField(u, 0.2) if enriched else u,
                                          pair, mesh)
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
        gp, sp = modular_gradient(up, pair, mesh)
        gm, sm = modular_gradient(um, pair, mesh)
        fd = (gp - gm) / (2.0 * h)
        if enriched:
            fd = np.append(fd, (sp - sm) / (2.0 * h))
        assert H.shape == (len(d), len(d))
        hv = H @ d
        mask = np.abs(fd) > 1e-6
        np.testing.assert_allclose(hv[mask], fd[mask], rtol=2e-4)


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
    B = mesh.grad_basis[mesh.qel]  # (Nq, 3, 2)
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


class TestSplitRule:
    def test_rule(self, mesh16):
        qw, qel, ge, starts, _, _ = enrichment_rule(mesh16)
        full_ge = enrichment_gradient(mesh16.qpts)
        ne = mesh16.n_elements
        assert np.all(np.diff(qel) >= 0)
        np.testing.assert_array_equal(qel[starts], np.arange(ne))
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
        assert modular_energy(u, pair, mesh16) == pytest.approx(energy, rel=1e-12)
        got_nodal, got_ds = modular_gradient(u, pair, mesh16)
        np.testing.assert_allclose(got_nodal, nodal, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(nodal)))
        assert got_ds == pytest.approx(ds, rel=1e-12)
        got_H = _bordered(*modular_hessian(u, pair, mesh16)).toarray()
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
        bdata = np.asarray(eval_u2(fresh.nodes[fresh.boundary_mask, 0],
                                   fresh.nodes[fresh.boundary_mask, 1]))
        minimize(CONFORMING, OBJECTIVE_G, pair, fresh)
        minimize(CONFORMING, OBJECTIVE_DIRICHLET, pair, fresh, boundary_data=bdata)
        assert calls == []
        minimize(ENRICHED, OBJECTIVE_G, pair, fresh)
        assert calls and all(m is fresh for m in calls)


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
        zero = DofField.zeros(mesh)
        v1 = separating_functional(EnrichedField(zero, 1.0), mesh)
        v2 = separating_functional(EnrichedField(zero, 2.0), mesh)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    @pytest.mark.parametrize("alpha, beta", [(2.0, 2.0), (2.0, 0.5)])
    def test_b2_evaluated_once_per_mesh(self, monkeypatch, alpha, beta):
        # G mode pairs s with b2 in the objective and again in the
        # separating functional; Dirichlet mode only in the latter. Both read
        # the mesh's enrichment rule, which evaluates b2 and grad E once, at
        # the full rule
        b2_calls, grad_calls = [], []
        original_b2 = assembly.eval_b2
        original_grad = assembly.enrichment_gradient

        def counting_b2(x1, x2):
            b2_calls.append(len(x1))
            return original_b2(x1, x2)

        def counting_grad(points):
            grad_calls.append(len(points))
            return original_grad(points)

        monkeypatch.setattr(assembly, "eval_b2", counting_b2)
        monkeypatch.setattr(assembly, "enrichment_gradient", counting_grad)
        gap_experiment(alpha, beta, [8, 16])
        assert len(b2_calls) == 2
        assert grad_calls == b2_calls


class TestMinimize:
    def test_dirichlet_linear_data_reproduced(self, mesh):
        # boundary trace of an affine function: the minimizer is that function
        bdata = mesh.nodes[mesh.boundary_mask, 0]
        res = minimize(CONFORMING, OBJECTIVE_DIRICHLET, PurePower(2.0), mesh,
                       boundary_data=bdata)
        assert res.converged
        np.testing.assert_allclose(res.field.values, mesh.nodes[:, 0], atol=1e-8)
        assert res.value == pytest.approx(4.0, rel=1e-10)

    def test_conforming_g_minimum_is_zero(self, mesh):
        pair = double_phase_log(2.0, 2.0)
        res = minimize(CONFORMING, OBJECTIVE_G, pair, mesh)
        assert res.converged
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_enriched_g_descends_below_zero(self, mesh):
        pair = double_phase_log(2.0, 2.0)
        res = minimize(ENRICHED, OBJECTIVE_G, pair, mesh)
        assert res.converged
        assert res.value < -1e-3
        assert res.field.s > 0.0

    def test_convexity_along_segment(self, mesh):
        pair = double_phase_log(2.0, 2.0)
        rng = np.random.default_rng(5)
        a = _random_interior_field(mesh, rng)
        b = _random_interior_field(mesh, rng)
        fa = functional_G(EnrichedField(a, 0.1), pair, mesh)
        fb = functional_G(EnrichedField(b, -0.2), pair, mesh)
        midf = DofField(mesh, 0.5 * (a.values + b.values))
        fm = functional_G(EnrichedField(midf, -0.05), pair, mesh)
        assert fm <= 0.5 * (fa + fb) + 1e-10


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
    @pytest.mark.parametrize("space, objective", [(ENRICHED, OBJECTIVE_G),
                                                  (CONFORMING, OBJECTIVE_DIRICHLET)])
    def test_matches_full_solve(self, mesh16, space, objective):
        pair = double_phase_log(2.0, 2.0)
        bdata = np.asarray(eval_u2(mesh16.nodes[mesh16.boundary_mask, 0],
                                   mesh16.nodes[mesh16.boundary_mask, 1]))
        obj = solve._Objective(space, objective, pair, mesh16, boundary_data=bdata)
        rng = np.random.default_rng(11)
        x = 0.3 * rng.standard_normal(len(mesh16.interior))
        if obj.enriched:
            x = np.append(x, 0.3)
        K, c, h_ss = obj.hess(x)
        assert (c is None) == (not obj.enriched)
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
        res = minimize(CONFORMING, OBJECTIVE_G, pair, mesh)
        assert calls == {"spsolve": 0, "hessian": 0}
        assert res.converged and res.iterations == 1
        assert res.value == 0.0
        minimize(ENRICHED, OBJECTIVE_G, pair, mesh)
        assert calls["spsolve"] >= 1 and calls["hessian"] >= 1

    def test_singular_border_falls_back_to_gradient(self, monkeypatch):
        directions = []
        original = solve._newton_direction

        def recording(K, c, h_ss, g):
            directions.append(original(K, c, h_ss, g))
            return directions[-1]

        monkeypatch.setattr(solve, "_newton_direction", recording)
        x, f, _, converged, _ = solve._newton(_SingularBorderObjective(),
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
        x, f, iterations, converged, _ = solve._newton(obj, np.array([1.0, 2.0]))
        # no Armijo step on the Newton direction: one Hessian and one solve,
        # then the gradient step to the minimizer and a zero step confirming it
        assert (obj.hessians, len(solves)) == (1, 1)
        np.testing.assert_array_equal(x, 0.0)
        assert (f, iterations, converged) == (0.0, 2, True)
        # the gradient step is taken in the same iteration as the failed one
        x, _, iterations, _, _ = solve._newton(_RayObjective(), np.array([1.0, 2.0]),
                                               max_iterations=1)
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

    def test_report_round_trip(self):
        report = gap_experiment(2.0, 2.0, [8])
        d = report.to_dict()
        assert {"alpha", "beta", "mode", "verdict", "levels"} <= set(d)
        assert d["levels"][0]["n"] == 8


class TestConeTrace:
    def test_enrichment_recovers_jump(self, mesh16):
        u = EnrichedField(DofField.zeros(mesh16), 1.0)
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
            for u in (base, EnrichedField(base, 0.7)):
                assert u.evaluate([[0.0, 0.0]])[0] == base.values[m.origin_vertex]

    def test_radius_below_mesh_rejected(self, mesh16):
        u = DofField.zeros(mesh16)
        with pytest.raises(RangeError):
            cone_trace_diagnostic(u, mesh16, radii=[1e-9])

    def test_radius_one_rejected(self, mesh16):
        # the fit takes log(log(1/r)), which is -inf at r = 1
        u = EnrichedField(DofField.zeros(mesh16), 1.0)
        radii = np.geomspace(mesh16.h_min, 1.0, 12)
        with pytest.raises(RangeError, match="r < 1"):
            cone_trace_diagnostic(u, mesh16, radii=radii)
        table, _ = cone_trace_diagnostic(u, mesh16, radii=radii[:-1])
        assert len(table) == 11
