"""Checkerboard weight, saddle fields, flux and support audits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgap import geometry
from dpgap.cutoffs import build_loglog_cutoff, build_psi_harmonic_cutoff
from dpgap.errors import RangeError
from dpgap.fem import DofField, EnrichedField, build_mesh
from dpgap.fem.fields import enrichment_gradient, enrichment_value
from dpgap.orlicz import LogPower, PurePower


class TestTheta:
    def test_plateau_values(self):
        assert float(geometry.theta(0.2)) == 0.0
        assert float(geometry.theta(0.25)) == 0.0
        assert float(geometry.theta(0.5)) == 1.0
        assert float(geometry.theta(3.0)) == 1.0
        assert float(geometry.theta(0.375)) == pytest.approx(0.5)

    def test_max_slope_is_six(self):
        s = np.linspace(0.2, 0.55, 20001)
        assert float(np.max(geometry.theta_prime(s))) == pytest.approx(
            geometry.THETA_MAX_SLOPE, rel=1e-6)

    @given(st.floats(-2.0, 2.0))
    @settings(max_examples=80, deadline=None)
    def test_range_and_monotone(self, s):
        v = float(geometry.theta(s))
        assert 0.0 <= v <= 1.0
        assert float(geometry.theta(s + 0.01)) >= v

    def test_prime_matches_finite_difference(self):
        s = np.linspace(0.26, 0.49, 50)
        fd = (geometry.theta(s + 1e-7) - geometry.theta(s - 1e-7)) / 2e-7
        np.testing.assert_allclose(geometry.theta_prime(s), fd, rtol=1e-5)


class TestWeight:
    def test_checkerboard_pattern(self):
        assert float(geometry.eval_weight(0.1, 0.9)) == 1.0   # vertical cone
        assert float(geometry.eval_weight(0.9, 0.1)) == 0.0
        assert float(geometry.eval_weight(-0.1, -0.9)) == 1.0
        assert float(geometry.eval_weight(0.5, 0.5)) == 0.0   # tie -> cheap phase

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, x1, x2):
        w = geometry.eval_weight
        assert float(w(x1, x2)) == float(w(-x1, x2)) == float(w(x1, -x2))


class TestU2:
    def test_plateau_values(self):
        assert float(geometry.eval_u2(0.1, 0.9)) == 0.5
        assert float(geometry.eval_u2(0.1, -0.9)) == -0.5
        assert float(geometry.eval_u2(0.9, 0.1)) == 0.0
        assert float(geometry.eval_u2(0.0, 0.0)) == 0.0

    def test_on_vertical_axis(self):
        # x1 = 0: ratio infinite, theta saturates
        assert float(geometry.eval_u2(0.0, 0.5)) == 0.5
        assert float(geometry.eval_u2(0.0, -0.5)) == -0.5

    def test_gradient_vs_finite_difference(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.05, 1.0, size=(200, 2))
        pts[:, 1] *= np.sign(rng.uniform(-1, 1, 200))
        g = geometry.eval_grad_u2(pts[:, 0], pts[:, 1])
        h = 1e-7
        fd1 = (geometry.eval_u2(pts[:, 0] + h, pts[:, 1])
               - geometry.eval_u2(pts[:, 0] - h, pts[:, 1])) / (2 * h)
        fd2 = (geometry.eval_u2(pts[:, 0], pts[:, 1] + h)
               - geometry.eval_u2(pts[:, 0], pts[:, 1] - h)) / (2 * h)
        np.testing.assert_allclose(g[0], fd1, atol=1e-5)
        np.testing.assert_allclose(g[1], fd2, atol=1e-5)

    def test_gradient_support_in_cheap_phase(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1.0, 1.0, size=(2, 50_000))
        g = geometry.eval_grad_u2(pts[0], pts[1])
        active = np.hypot(g[0], g[1]) > 0.0
        a = geometry.eval_weight(pts[0][active], pts[1][active])
        assert np.all(a == 0.0)


class TestB2:
    def test_is_perp_gradient_of_stream_function(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.05, 1.0, size=(200, 2))
        b = geometry.eval_b2(pts[:, 0], pts[:, 1])
        h = 1e-7
        dv_dx2 = (geometry.eval_v(pts[:, 0], pts[:, 1] + h)
                  - geometry.eval_v(pts[:, 0], pts[:, 1] - h)) / (2 * h)
        dv_dx1 = (geometry.eval_v(pts[:, 0] + h, pts[:, 1])
                  - geometry.eval_v(pts[:, 0] - h, pts[:, 1])) / (2 * h)
        np.testing.assert_allclose(b[0], -dv_dx2, atol=1e-5)
        np.testing.assert_allclose(b[1], dv_dx1, atol=1e-5)

    def test_components_match_closed_form(self):
        # b2 is read off grad u2 at the swapped point; its documented
        # components hold to rounding
        rng = np.random.default_rng(7)
        x1, x2 = rng.uniform(-1.0, 1.0, size=(2, 20_000))
        b = geometry.eval_b2(x1, x2)
        s = np.abs(x1) / np.abs(x2)
        tp = geometry.theta_prime(s)
        expected = (np.sign(x1) * np.sign(x2) * np.abs(x1) * tp / (2.0 * x2**2),
                    tp / (2.0 * np.abs(x2)))
        np.testing.assert_allclose(b[0], expected[0], rtol=1e-15, atol=0.0)
        assert b[1].tobytes() == expected[1].tobytes()
        assert geometry.eval_v(x1, x2).tobytes() == geometry.eval_u2(x2, x1).tobytes()

    def test_support_in_expensive_phase(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1.0, 1.0, size=(2, 50_000))
        b = geometry.eval_b2(pts[0], pts[1])
        active = np.hypot(b[0], b[1]) > 0.0
        a = geometry.eval_weight(pts[0][active], pts[1][active])
        assert np.all(a == 1.0)

    def test_divergence_free_away_from_origin(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.05, 1.0, size=(300, 2))
        h = 1e-6
        db1 = (geometry.eval_b2(pts[:, 0] + h, pts[:, 1])[0]
               - geometry.eval_b2(pts[:, 0] - h, pts[:, 1])[0]) / (2 * h)
        db2 = (geometry.eval_b2(pts[:, 0], pts[:, 1] + h)[1]
               - geometry.eval_b2(pts[:, 0], pts[:, 1] - h)[1]) / (2 * h)
        np.testing.assert_allclose(db1 + db2, 0.0, atol=2e-4)

    def test_decay_bound(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1.0, 1.0, size=(2, 20_000))
        nz = np.abs(pts[1]) > 1e-3
        b = geometry.eval_b2(pts[0][nz], pts[1][nz])
        mag = np.hypot(b[0], b[1])
        assert np.all(mag <= 13.0 / np.abs(pts[1][nz]))


class TestFluxAndAudit:
    def test_boundary_flux_converges_to_one(self):
        assert abs(geometry.boundary_flux(1024) - 1.0) < 1e-6
        assert abs(geometry.boundary_flux(8192) - 1.0) < 1e-9

    def test_flux_segments_sum(self):
        sides = geometry.boundary_flux_segments(2048)
        assert sum(sides.values()) == pytest.approx(
            geometry.boundary_flux(2048), abs=1e-12)
        # b2 is supported on the vertical cones, so the top and bottom sides
        # carry the whole flux
        assert abs(sides["left"]) < 1e-12
        assert abs(sides["right"]) < 1e-12

    @pytest.mark.parametrize("n_quad", [geometry.MAX_FLUX_NQUAD + 2, 10**9, np.nan, 63],
                             ids=str)
    def test_flux_rule_bounded(self, n_quad):
        for flux in (geometry.boundary_flux, geometry.boundary_flux_segments):
            with pytest.raises(RangeError, match="n_quad must lie in"):
                flux(n_quad)

    # int() truncated these to 100 Simpson subintervals and a 2 x 2 grid
    @pytest.mark.parametrize("call", [lambda: geometry.boundary_flux(100.5),
                                      lambda: geometry.boundary_flux_segments(100.5),
                                      lambda: geometry.sample_fields_grid(2.5)],
                             ids=["flux", "segments", "grid"])
    def test_fractional_size_rejected(self, call):
        with pytest.raises(RangeError, match="whole number"):
            call()

    def test_integral_size_of_any_type(self):
        assert geometry.boundary_flux(100.0) == geometry.boundary_flux(np.int64(100))
        assert geometry.disjoint_support_audit(np.float64(1000.0), seed=0) == 0.0
        grid = geometry.sample_fields_grid(2)
        for res in (2.0, np.int64(2)):
            assert geometry.sample_fields_grid(res).tobytes() == grid.tobytes()

    def test_disjoint_supports_audit(self):
        assert geometry.disjoint_support_audit(100_000, seed=0) == 0.0

    def test_audit_needs_a_sample(self):
        # NaN would reach int() as a bare ValueError, inf as an OverflowError,
        # and int() drew 1 sample for 1.5
        for n_samples in (0, np.nan, np.inf, 1.5):
            with pytest.raises(RangeError):
                geometry.disjoint_support_audit(n_samples, seed=0)

    @pytest.mark.parametrize("res", [0, geometry.MAX_FIELDS_RESOLUTION + 1, np.nan, np.inf],
                             ids=str)
    def test_fields_grid_bounded(self, res):
        with pytest.raises(RangeError, match="resolution must lie in"):
            geometry.sample_fields_grid(res)

    def test_fields_grid_shape(self):
        table = geometry.sample_fields_grid(16)
        assert table.shape == (256, 6)
        assert set(np.unique(table[:, 2])) <= {0.0, 1.0}

    def test_fields_grid_blocks_keep_the_bits(self, monkeypatch):
        # 37^2 = 1369 rows in blocks of 50: the last block is partial and
        # blocks start inside grid rows; each row is the meshgrid point
        xs = (np.arange(37) + 0.5) / 37 * 2.0 - 1.0
        X1, X2 = np.meshgrid(xs, xs, indexing="ij")
        monkeypatch.setattr(geometry, "_FIELDS_BLOCK", 1 << 62)
        ref = geometry.sample_fields_grid(37)
        assert ref[:, 0].tobytes() == X1.ravel().tobytes()
        assert ref[:, 1].tobytes() == X2.ravel().tobytes()
        monkeypatch.setattr(geometry, "_FIELDS_BLOCK", 50)
        assert geometry.sample_fields_grid(37).tobytes() == ref.tobytes()


class TestShapeConvention:
    """Array input gives an array of its shape, scalar input a scalar.

    Vector fields of (x1, x2) put their component axis first, the enrichment
    gradient of points (..., 2) last. Every entry equals the one computed in
    the batch of all three points.
    """

    X1 = np.array([0.3, 0.1, -0.2])
    X2 = np.array([0.1, 0.3, 0.07])
    R = np.array([1e-3, 5e-3, 0.2])

    @pytest.fixture(scope="class")
    def cases(self):
        def points(x1, x2):
            return np.stack([x1, x2], axis=-1)

        cases = [
            ("value", lambda x1, x2, r: geometry.eval_u2(x1, x2)),
            ("value", lambda x1, x2, r: geometry.eval_v(x1, x2)),
            ("first", lambda x1, x2, r: geometry.eval_grad_u2(x1, x2)),
            ("first", lambda x1, x2, r: geometry.eval_b2(x1, x2)),
            ("value", lambda x1, x2, r: enrichment_value(points(x1, x2))),
            ("last", lambda x1, x2, r: enrichment_gradient(points(x1, x2))),
        ]
        mesh = build_mesh(8, grading=2.0)
        base = DofField(mesh, np.sin(3.0 * mesh.nodes[:, 0]) + mesh.nodes[:, 1])
        for u in (base, EnrichedField(base, 0.7)):
            cases.append(("value", lambda x1, x2, r, u=u: u.evaluate(points(x1, x2))))
        for cut in (build_loglog_cutoff(1e-2),
                    build_psi_harmonic_cutoff(LogPower(2.0, 1.0), 1e-6, 0.5)):
            cases += [
                ("value", lambda x1, x2, r, c=cut: c.eta(r)),
                ("value", lambda x1, x2, r, c=cut: c.eta_at_log(np.log(r))),
            ]
        # LogPower(1.5, -3) has its knot near t = 765 (ln t = 6.64), which
        # ln t = -1.3 ln r straddles
        for f in (LogPower(2.0, 1.0), LogPower(1.5, -3.0), PurePower(2.0)):
            cases += [
                ("value", lambda x1, x2, r, f=f: f.log_eval(np.log(r))),
                ("value", lambda x1, x2, r, f=f: f.log_eval(-1.3 * np.log(r), 2.0)),
                ("first", lambda x1, x2, r, f=f: f.log_deriv_with_slope(np.log(r))),
                ("first", lambda x1, x2, r, f=f: f.log_deriv_with_slope(-1.3 * np.log(r))),
            ]
        return cases

    @pytest.mark.parametrize("shape", [(), (0,), (1,), (3,)], ids=str)
    def test_shape(self, cases, shape):
        n = int(np.prod(shape))
        x1, x2, r = (a[:n].reshape(shape) for a in (self.X1, self.X2, self.R))
        for kind, f in cases:
            got, batch = f(x1, x2, r), f(self.X1, self.X2, self.R)
            if kind == "value":
                assert np.shape(got) == shape
                assert isinstance(got, np.ndarray) == (shape != ())
                np.testing.assert_array_equal(np.reshape(got, n), batch[:n])
            elif kind == "first":
                assert np.shape(got) == (2,) + shape
                np.testing.assert_array_equal(got.reshape(2, n), batch[:, :n])
            else:
                assert np.shape(got) == shape + (2,)
                np.testing.assert_array_equal(got.reshape(n, 2), batch[:n])
