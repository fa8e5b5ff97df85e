"""B-spline spaces: dimensions, basis values/derivatives, geometry maps."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.interpolate import BSpline

from msp import splines as sp


def is_identity(geo):
    """Whether every component of the map is its own coordinate, coefficient for coefficient."""
    for i, c in enumerate(geo.components):
        want = np.zeros(tuple(2 if j == i else 1 for j in range(geo.d)))
        want[tuple(1 if j == i else 0 for j in range(geo.d))] = 1.0
        if c.shape != want.shape or not np.array_equal(c, want):
            return False
    return True


def scalar_ders_basis_funs(span, x, p, nders, knots):
    """Reference: the Cox-de Boor recurrence at one point with Python loops (The NURBS Book, A2.3)."""
    ndu = np.empty((p + 1, p + 1))
    ndu[0, 0] = 1.0
    left = np.empty(p + 1)
    right = np.empty(p + 1)
    for j in range(1, p + 1):
        left[j] = x - knots[span + 1 - j]
        right[j] = knots[span + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved
    ders = np.zeros((nders + 1, p + 1))
    ders[0, :] = ndu[:, p]
    a = np.empty((2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nders + 1):
            d = 0.0
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1
    r = p
    for k in range(1, nders + 1):
        ders[k, :] *= r
        r *= p - k
    return ders


def reference_polyval(c, pts):
    """Reference: one monomial coefficient tensor at the points (npts, d), contracted axis by axis."""
    c = np.atleast_1d(c)
    t = None
    for j in range(pts.shape[1]):
        m = c.shape[j] if j < c.ndim else 1
        v = pts[:, j : j + 1] ** np.arange(m)  # (npts, m)
        if t is None:
            t = np.tensordot(v, c, axes=(1, 0)) if c.ndim > 0 else v[:, 0] * c
        else:
            t = np.einsum("ab,ab...->a...", v, t)
    return t


def reference_geometry(geo, pts):
    """Reference: value, Jacobian and Hessians with one `reference_polyval` per polynomial."""
    d = geo.d
    grad = [[npoly.polyder(c, axis=j) for j in range(d)] for c in geo.components]
    value = np.stack([reference_polyval(c, pts) for c in geo.components], axis=1)
    jac = np.empty((len(pts), d, d))
    hess = np.empty((len(pts), d, d, d))
    for k in range(d):
        for j in range(d):
            jac[:, k, j] = reference_polyval(grad[k][j], pts)
            for i in range(d):
                hess[:, k, i, j] = reference_polyval(npoly.polyder(grad[k][j], axis=i), pts)
    return value, jac, hess


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
        first, tab = s.tabulate([1], pts[None, :], 1)
        for a, x in enumerate(pts):
            f2, d = s.eval_basis(float(x), 1)
            assert f2 == first[0]
            assert np.allclose(tab[0, a], d)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_batched_tabulate_bitwise_equal_to_pointwise(self, p, level):
        # every element at once, Gauss points plus the domain ends 0 and 1
        # (an interior breakpoint belongs to the next span in eval_basis, so
        # each element gets its own interior points only)
        s = sp.SplineSpace1D(p, level)
        mid = 0.5 * (s.breakpoints[:-1] + s.breakpoints[1:])
        lo, hi = mid.copy(), mid.copy()
        lo[0], hi[-1] = 0.0, 1.0
        pts = np.column_stack([sp.QuadratureRule1D.for_space(s, p + 1).points, lo, hi])
        for max_deriv in range(min(p, 2) + 1):
            first, tab = s.tabulate(np.arange(s.num_elements), pts, max_deriv)
            assert tab.shape == (s.num_elements, p + 3, max_deriv + 1, p + 1)
            for e in range(s.num_elements):
                for a, x in enumerate(pts[e]):
                    f, d = s.eval_basis(float(x), max_deriv)
                    assert f == first[e]
                    assert np.array_equal(tab[e, a], d)

    @pytest.mark.parametrize("p", range(1, 8))
    def test_batched_recurrence_bitwise_equal_to_scalar_loop(self, p):
        # the batched kernel runs the same floating-point operations per
        # point as the loop version, derivative orders beyond p included
        # (Laplacian tables of p = 1 ask for order 2)
        for level in range(5):
            s = sp.SplineSpace1D(p, level)
            pts = sp.QuadratureRule1D.for_space(s, p + 2).points
            for max_deriv in range(3):
                first, tab = s.tabulate(np.arange(s.num_elements), pts, max_deriv)
                for e, span in enumerate(s.element_spans(np.arange(s.num_elements))):
                    assert first[e] == span - p
                    for a, x in enumerate(pts[e]):
                        want = scalar_ders_basis_funs(span, float(x), p, max_deriv, s.knots)
                        assert np.array_equal(tab[e, a], want)

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
            assert is_identity(geo)
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
        assert is_identity(geo)

    def test_mapped_geometries_are_not_identity(self):
        assert not is_identity(sp.annulus_2d())
        assert not is_identity(sp.twisted_3d())


class TestGeometryOracle:
    # the one-matmul evaluation against one polynomial contraction per entry,
    # on random points and on the Gauss points of p = 1..4 element grids
    @pytest.mark.parametrize(
        "d,geo_name",
        [(1, "identity"), (2, "identity"), (2, "annulus_2d"), (3, "identity"), (3, "twisted_3d")],
    )
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_per_polynomial_evaluation(self, d, geo_name, p):
        geo = sp.GEOMETRIES[geo_name](d)
        rule = sp.QuadratureRule1D.for_space(sp.SplineSpace1D(p, 2), p + 1)
        grid = np.meshgrid(*[rule.points.ravel()] * d, indexing="ij")
        pts = np.concatenate(
            [np.stack([g.ravel() for g in grid], axis=1), np.random.default_rng(p).uniform(0, 1, (50, d))]
        )
        got = (geo.value(pts), geo.jacobian(pts), geo.hessians(pts))
        for g, want in zip(got, reference_geometry(geo, pts)):
            assert g.shape == want.shape
            if d == 1:
                assert np.array_equal(g, want)
            else:
                assert np.max(np.abs(g - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)

    def test_components_of_different_shapes(self):
        # x = xi1 - 2 xi1^2, y = xi2: each tensor is padded to the common exponents
        geo = sp.GeometryMap([np.array([[0.0], [1.0], [-2.0]]), np.array([[0.0, 1.0]])])
        pts = np.random.default_rng(3).uniform(0, 1, (20, 2))
        for g, want in zip((geo.value(pts), geo.jacobian(pts), geo.hessians(pts)), reference_geometry(geo, pts)):
            assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))
