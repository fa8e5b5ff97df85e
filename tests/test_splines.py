"""B-spline spaces: dimensions, basis values/derivatives, geometry maps."""

import numpy as np
import pytest
from scipy.interpolate import BSpline

from msp import splines as sp


class TestSpace1D:
    def test_dimension_formula(self):
        for p in (1, 2, 3, 4):
            for level in (0, 1, 2, 3):
                for k in range(-1, p):
                    s = sp.SplineSpace1D(p, level, smoothness=k)
                    nspans = 2**level
                    assert s.dim == p + 1 + (nspans - 1) * (p - k)

    def test_maximal_smoothness_default(self):
        s = sp.SplineSpace1D(3, 4)
        assert s.smoothness == 2
        assert s.dim == 2**4 + 3

    def test_invalid_smoothness(self):
        with pytest.raises(ValueError):
            sp.SplineSpace1D(2, 1, smoothness=2)

    def test_bernstein_values(self):
        # level 0, p = 2: Bernstein basis on [0, 1]
        s = sp.SplineSpace1D(2, 0)
        _, d = s.eval_basis(0.5, 0)
        assert np.allclose(d[0], [0.25, 0.5, 0.25])
        _, d = s.eval_basis(0.0, 0)
        assert np.allclose(d[0], [1.0, 0.0, 0.0])

    def test_hat_functions(self):
        # p = 1 gives the standard hat basis
        s = sp.SplineSpace1D(1, 2)
        first, d = s.eval_basis(0.375, 0)
        assert np.allclose(sorted(d[0]), [0.5, 0.5])
        assert first == 1

    def test_partition_of_unity(self):
        for p in (1, 2, 3):
            for level in (0, 1, 3):
                s = sp.SplineSpace1D(p, level)
                for x in np.linspace(0.0, 1.0, 23):
                    _, d = s.eval_basis(float(x), min(p, 1))
                    assert abs(d[0].sum() - 1.0) < 1e-13
                    if p >= 1:
                        assert abs(d[min(p, 1)].sum()) < 1e-10 or min(p, 1) == 0

    def test_derivatives_against_scipy(self):
        rng = np.random.default_rng(1)
        for p in (2, 3, 4):
            s = sp.SplineSpace1D(p, 2)
            for x in rng.uniform(0.0, 1.0, 6):
                first, d = s.eval_basis(float(x), 2)
                for order in range(3):
                    ref = []
                    for i in range(first, first + p + 1):
                        c = np.zeros(s.dim)
                        c[i] = 1.0
                        b = BSpline(s.knots, c, p)
                        ref.append(b.derivative(order)(x) if order else b(x))
                    assert np.allclose(d[order], ref, atol=1e-9)

    def test_tabulate_matches_pointwise(self):
        s = sp.SplineSpace1D(2, 2)
        pts = np.array([0.26, 0.30, 0.42])
        first, tab = s.tabulate(1, pts, 1)
        for a, x in enumerate(pts):
            f2, d = s.eval_basis(float(x), 1)
            assert f2 == first
            assert np.allclose(tab[a], d)

    def test_eval_outside_domain_rejected(self):
        s = sp.SplineSpace1D(2, 1)
        with pytest.raises(ValueError):
            s.eval_basis(1.5, 0)


class TestTensorSpace:
    def test_dims_and_interior(self):
        t = sp.tensor_space(2, 2, 3)
        assert t.dims == (10, 10)
        assert t.dim == 100
        interior = t.interior_indices()
        assert len(interior) == 64

    def test_interior_means_zero_trace(self):
        t = sp.tensor_space(2, 2, 2)
        interior = set(t.interior_indices())
        n1 = t.dims[1]
        for flat in range(t.dim):
            i, j = divmod(flat, n1)
            on_boundary = i in (0, t.dims[0] - 1) or j in (0, n1 - 1)
            assert (flat in interior) == (not on_boundary)


class TestQuadrature:
    def test_gauss_rule_weights(self):
        x, w = sp.gauss_rule(4)
        assert abs(w.sum() - 1.0) < 1e-14
        # integrates x^7 exactly on [0, 1]
        assert abs(np.sum(w * x**7) - 0.125) < 1e-14

    def test_per_element_rule(self):
        s = sp.SplineSpace1D(2, 2)
        rule = sp.QuadratureRule1D.for_space(s, 3)
        total = sum(w.sum() for w in rule.weights)
        assert abs(total - 1.0) < 1e-13
        for e in range(s.num_elements):
            lo, hi = s.breakpoints[e], s.breakpoints[e + 1]
            assert np.all((rule.points[e] >= lo) & (rule.points[e] <= hi))


class TestGeometry:
    def test_identity(self):
        for d in (1, 2, 3):
            geo = sp.identity_geometry(d)
            assert geo.is_identity()
            pts = np.random.default_rng(0).uniform(0, 1, (5, d))
            assert np.allclose(geo.value(pts), pts)
            jac = geo.jacobian(pts)
            assert np.allclose(jac, np.eye(d)[None, :, :])
            assert np.allclose(geo.hessians(pts), 0.0)

    def test_jacobian_against_finite_differences(self):
        for geo, d in ((sp.annulus_2d(), 2), (sp.twisted_3d(), 3)):
            rng = np.random.default_rng(7)
            pts = rng.uniform(0.1, 0.9, (4, d))
            jac = geo.jacobian(pts)
            eps = 1e-6
            for j in range(d):
                shift = np.zeros(d)
                shift[j] = eps
                fd = (geo.value(pts + shift) - geo.value(pts - shift)) / (2 * eps)
                assert np.allclose(jac[:, :, j], fd, atol=1e-8)

    def test_hessian_against_finite_differences(self):
        geo = sp.annulus_2d()
        pts = np.array([[0.3, 0.6]])
        hess = geo.hessians(pts)[0]
        eps = 1e-5
        for i in range(2):
            for j in range(2):
                ei = np.zeros(2)
                ej = np.zeros(2)
                ei[i] = eps
                ej[j] = eps
                fd = (
                    geo.value(pts + ei + ej)
                    - geo.value(pts + ei - ej)
                    - geo.value(pts - ei + ej)
                    + geo.value(pts - ei - ej)
                ) / (4 * eps * eps)
                assert np.allclose(hess[:, :, i, j].ravel() if hess.ndim == 4 else hess[:, i, j], fd.ravel(), atol=1e-5)

    def test_annulus_corners(self):
        geo = sp.annulus_2d()
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        vals = geo.value(corners)
        assert np.allclose(vals[0], [1.0, 0.0])
        assert np.allclose(vals[1], [2.0, 0.0])
        assert np.allclose(vals[2], [0.0, 1.0])
        assert np.allclose(vals[3], [0.0, 2.0])

    def test_twisted_extrusion_base(self):
        geo = sp.twisted_3d()
        # the xi2 = 0 face is a straight extrusion of the segment x in [1, 2]
        pts = np.array([[0.25, 0.0, 0.7], [0.9, 0.0, 0.1]])
        vals = geo.value(pts)
        assert np.allclose(vals[:, 0], 1.0 + pts[:, 0])
        assert np.allclose(vals[:, 1], 0.0)
        assert np.allclose(vals[:, 2], pts[:, 2])

    def test_geometry_registry(self):
        assert set(sp.GEOMETRIES) >= {"identity", "annulus_2d", "twisted_3d"}
        geo = sp.GEOMETRIES["identity"](2)
        assert geo.is_identity()

    def test_mapped_geometries_are_not_identity(self):
        assert not sp.annulus_2d().is_identity()
        assert not sp.twisted_3d().is_identity()
