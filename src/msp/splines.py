"""Tensor-product B-spline spaces, polynomial geometry maps, and quadrature.

Spaces live on the parameter domain (0,1)^d with open knot vectors on a
uniform mesh of 2^level spans per direction; interior knots are repeated
(degree - smoothness) times.  Geometry maps are stored as monomial
coefficient tensors with analytic Jacobians and Hessians.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly


def _ders_basis_funs(spans: np.ndarray, x: np.ndarray, p: int, nders: int, knots: np.ndarray) -> np.ndarray:
    """Nonzero basis functions and derivatives at the points x (Cox-de Boor, banded form).

    Point a lies in knot span spans[a].  Returns (npts, nders+1, p+1): row
    r of point a holds the r-th derivatives of the p+1 basis functions
    active on its span.  The recurrence (Piegl and Tiller, The NURBS Book,
    A2.3) runs once with a trailing point axis on every array, so each
    point goes through the same floating-point operations as it would
    alone.
    """
    npts = len(x)
    ndu = np.empty((p + 1, p + 1, npts))
    ndu[0, 0] = 1.0
    left = np.empty((p + 1, npts))
    right = np.empty((p + 1, npts))
    for j in range(1, p + 1):
        left[j] = x - knots[spans + 1 - j]
        right[j] = knots[spans + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((nders + 1, p + 1, npts))
    ders[0] = ndu[:, p]
    a = np.empty((2, p + 1, npts))
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
                d = d + a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d = d + a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1
    r = p
    for k in range(1, nders + 1):
        ders[k] *= r
        r *= p - k
    return np.ascontiguousarray(np.moveaxis(ders, -1, 0))


class SplineSpace1D:
    """Univariate spline space of given degree, smoothness, and level.

    Open knot vector on [0, 1] with 2^level uniform spans; each interior
    knot is repeated (degree - smoothness) times.  smoothness = -1 gives
    discontinuous piecewise polynomials.
    """

    def __init__(self, degree: int, level: int, smoothness: int | None = None):
        if smoothness is None:
            smoothness = degree - 1
        if not -1 <= smoothness <= degree - 1:
            raise ValueError("smoothness must lie in [-1, degree-1]")
        self.degree = degree
        self.smoothness = smoothness
        self.level = level
        nspans = 2**level
        mult = degree - smoothness
        interior = np.repeat(np.arange(1, nspans) / nspans, mult)
        self.knots = np.concatenate(
            [np.zeros(degree + 1), interior, np.ones(degree + 1)]
        )
        self.dim = degree + 1 + (nspans - 1) * mult
        self.breakpoints = np.arange(nspans + 1) / nspans

    @property
    def num_elements(self) -> int:
        return len(self.breakpoints) - 1

    def find_span(self, x: float) -> int:
        if not 0.0 <= x <= 1.0:
            raise ValueError("x must lie in [0, 1]")
        if x >= self.knots[self.dim]:
            return self.dim - 1
        return int(np.searchsorted(self.knots, x, side="right")) - 1

    def eval_basis(self, x: float, max_deriv: int = 0) -> tuple[int, np.ndarray]:
        """Values (and derivatives) of the <= degree+1 nonzero basis functions.

        Returns (first_index, ders) where ders has shape
        (max_deriv+1, degree+1) and first_index is the global index of the
        first active function.
        """
        if max_deriv > self.degree:
            raise ValueError("requested derivative order exceeds the degree")
        span = self.find_span(x)
        ders = _ders_basis_funs(np.array([span]), np.array([float(x)]), self.degree, max_deriv, self.knots)
        return span - self.degree, ders[0]

    def element_spans(self, elements: np.ndarray) -> np.ndarray:
        """Knot span of each element, found at the element midpoints."""
        e = np.asarray(elements, dtype=np.int64)
        mid = 0.5 * (self.breakpoints[e] + self.breakpoints[e + 1])
        return np.searchsorted(self.knots, mid, side="right") - 1

    def tabulate(self, elements, points: np.ndarray, max_deriv: int) -> tuple[np.ndarray, np.ndarray]:
        """Basis tables on several elements at once.

        `points` is (n_el, q): row e holds points inside element
        `elements[e]` (its end points included).  Returns (firsts, tab):
        the global index of the first active function per element, (n_el,),
        and tab of shape (n_el, q, max_deriv+1, degree+1).
        """
        points = np.asarray(points, dtype=np.float64)
        spans = self.element_spans(elements)
        n_el, q = points.shape
        tab = _ders_basis_funs(np.repeat(spans, q), points.ravel(), self.degree, max_deriv, self.knots)
        return spans - self.degree, tab.reshape(n_el, q, max_deriv + 1, self.degree + 1)


@lru_cache(maxsize=32)
def gauss_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class QuadratureRule1D:
    """Per-element Gauss points/weights for one direction."""

    points: np.ndarray  # (n_elements, q)
    weights: np.ndarray  # (n_elements, q)

    @classmethod
    def for_space(cls, space: SplineSpace1D, q: int) -> "QuadratureRule1D":
        xg, wg = gauss_rule(q)
        lo = space.breakpoints[:-1][:, None]
        hi = space.breakpoints[1:][:, None]
        return cls(points=lo + (hi - lo) * xg, weights=(hi - lo) * wg)


class TensorSpace:
    """Tensor product of univariate spline spaces on (0,1)^d.

    Global indices are flattened in C order (last factor fastest).
    """

    def __init__(self, factors: list[SplineSpace1D]):
        self.factors = factors
        self.d = len(factors)
        self.dims = tuple(f.dim for f in factors)
        self.dim = int(np.prod(self.dims))

    def interior_indices(self) -> np.ndarray:
        """Indices of basis functions vanishing on the boundary.

        For open knot vectors, dropping the first and last function per
        direction realizes the zero-trace constraint exactly.
        """
        grids = np.meshgrid(
            *[np.arange(1, m - 1) for m in self.dims], indexing="ij"
        )
        multi = np.stack([g.ravel() for g in grids])
        return np.ravel_multi_index(multi, self.dims)


def tensor_space(d: int, degree: int, level: int, smoothness: int | None = None) -> TensorSpace:
    return TensorSpace([SplineSpace1D(degree, level, smoothness) for _ in range(d)])


class GeometryMap:
    """Polynomial map from (0,1)^d to the physical domain.

    Components are monomial coefficient tensors; the Jacobian and component
    Hessians are differentiated analytically.  All of them are stored as
    columns of coefficient matrices over one set of monomials, so each
    evaluation is one monomial table times one matrix.
    """

    def __init__(self, components: list[np.ndarray]):
        d = self.d = len(components)
        self.components = [np.asarray(c, dtype=np.float64) for c in components]
        grad = [[npoly.polyder(c, axis=j) for j in range(d)] for c in self.components]
        # exponents 0..shape[j]-1 on axis j cover every component and derivative
        self._shape = tuple(max(c.shape[j] for c in self.components) for j in range(d))

        def columns(polys: list[np.ndarray]) -> np.ndarray:
            pad = [np.pad(c, [(0, m - k) for m, k in zip(self._shape, c.shape)]) for c in polys]
            return np.stack([c.ravel() for c in pad], axis=1)

        self._value = columns(self.components)
        self._jacobian = columns([g for grad_k in grad for g in grad_k])
        # column (k, i, j) holds d/dxi_i of d/dxi_j of F_k
        self._hessians = columns(
            [npoly.polyder(grad_k[j], axis=i) for grad_k in grad for i in range(d) for j in range(d)]
        )

    def _monomials(self, pts: np.ndarray) -> np.ndarray:
        """Every monomial prod_j xi_j^k_j, exponents in C order, at the points (npts, d): (nmono, npts)."""
        t = np.ones((1, len(pts)))
        for j, m in enumerate(self._shape):
            t = (t[:, None, :] * pts[:, j] ** np.arange(m)[:, None]).reshape(-1, len(pts))
        return t

    def value(self, pts: np.ndarray) -> np.ndarray:
        """Map points (npts, d) to physical coordinates (npts, d)."""
        return self._monomials(pts).T @ self._value

    def jacobian(self, pts: np.ndarray) -> np.ndarray:
        """J[a, i, j] = d F_i / d xi_j at each point."""
        return (self._monomials(pts).T @ self._jacobian).reshape(-1, self.d, self.d)

    def hessians(self, pts: np.ndarray) -> np.ndarray:
        """H[a, k, i, j] = d^2 F_k / (d xi_i d xi_j) at each point."""
        return (self._monomials(pts).T @ self._hessians).reshape(-1, self.d, self.d, self.d)


def identity_geometry(d: int) -> GeometryMap:
    comps = []
    for i in range(d):
        c = np.zeros(tuple(2 if j == i else 1 for j in range(d)))
        c[tuple(1 if j == i else 0 for j in range(d))] = 1.0
        comps.append(c)
    return GeometryMap(comps)


def annulus_2d() -> GeometryMap:
    """Degree-(1,2) polynomial map onto an approximate quarter annulus."""
    f1 = np.zeros((2, 3))
    f1[0, 0] = 1.0  # 1
    f1[1, 0] = 1.0  # x1
    f1[1, 1] = -1.0  # -x1 x2
    f1[0, 2] = -1.0  # -x2^2
    f2 = np.zeros((2, 3))
    f2[1, 1] = 2.0  # 2 x1 x2
    f2[1, 2] = -1.0  # -x1 x2^2
    f2[0, 1] = 2.0  # 2 x2
    f2[0, 2] = -1.0  # -x2^2
    return GeometryMap([f1, f2])


def twisted_3d() -> GeometryMap:
    """Polynomial map onto a twisted cylindrical extension of the 2D domain."""
    f1 = np.zeros((2, 4, 2))
    f1[1, 3, 1] = 1.5  # 3/2 x1 x2^3 x3
    f1[1, 3, 0] = -1.0  # -x1 x2^3
    f1[1, 2, 1] = -1.5  # -3/2 x1 x2^2 x3
    f1[1, 0, 0] = 1.0  # x1
    f1[0, 3, 1] = 0.5  # 1/2 x2^3 x3
    f1[0, 3, 0] = 0.5  # 1/2 x2^3
    f1[0, 2, 1] = 1.5  # 3/2 x2^2 x3
    f1[0, 2, 0] = -1.5  # -3/2 x2^2
    f1[0, 0, 0] = 1.0  # 1
    f2 = np.zeros((2, 4, 1))
    # x2 * (x1 x2^2 - 3 x1 x2 + 3 x1 - 1/2 x2^2 + 3/2)
    f2[1, 3, 0] = 1.0  # x1 x2^3
    f2[1, 2, 0] = -3.0  # -3 x1 x2^2
    f2[1, 1, 0] = 3.0  # 3 x1 x2
    f2[0, 3, 0] = -0.5  # -1/2 x2^3
    f2[0, 1, 0] = 1.5  # 3/2 x2
    f3 = np.zeros((1, 4, 2))
    f3[0, 3, 1] = -1.0  # -x2^3 x3
    f3[0, 3, 0] = 0.5  # 1/2 x2^3
    f3[0, 2, 0] = 1.5  # 3/2 x2^2
    f3[0, 0, 1] = 1.0  # x3
    return GeometryMap([f1, f2, f3])


GEOMETRIES = {
    "unit_square": lambda d=2: identity_geometry(d),
    "identity": identity_geometry,
    "annulus_2d": lambda d=2: annulus_2d(),
    "twisted_3d": lambda d=3: twisted_3d(),
}
