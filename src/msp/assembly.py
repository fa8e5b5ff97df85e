"""Galerkin assembly of all bilinear forms on mapped tensor-product domains.

Volume forms (mass, strong-form Laplacian coupling, biharmonic) integrate on
(0,1)^d with tensorized Gauss quadrature of q = degree+1 points per
direction per element; boundary forms (boundary mass, normal-derivative
Gram and couplings, normal-data right-hand sides) integrate face-wise with
the surface Jacobian from Nanson's formula.  Second derivatives are pulled
back through the geometry map with the full Hessian correction.

Every form runs one batched kernel over chunks of elements.  A face of
(0,1)^d is the element grid whose fixed axis has a single element with one
point of weight 1, so volume and face elements share one tabulation.  Per
chunk it evaluates the geometry Jacobian (and the Hessian when a form needs
it) with one `GeometryMap` call over all the chunk's points, builds the
tensor-product basis tables from per-element 1D tables, and computes the
global active indices.  The element blocks of all chunks are summed by one
COO scatter.  The number of elements in a chunk follows from a byte budget
on one (elements x points x basis functions) table, so the working memory of
the kernel stays flat as the mesh grows.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse

from .sparselin import SparseSymMatrix
from .splines import GeometryMap, QuadratureRule1D, SplineSpace1D, TensorSpace

# Bytes of one chunk-sized basis table; a chunk holds a few such arrays.
_CHUNK_BYTES = 16 * 2**20


class DegenerateGeometry(Exception):
    """Non-positive Jacobian determinant or degenerate surface element."""


def _check_compatible(row_space: TensorSpace, col_space: TensorSpace) -> None:
    if row_space.d != col_space.d:
        raise ValueError("spaces have different dimensions")
    for fr, fc in zip(row_space.factors, col_space.factors):
        if not np.array_equal(fr.breakpoints, fc.breakpoints):
            raise ValueError("spaces must share the same element partition")


def _default_q(space: TensorSpace) -> int:
    return max(f.degree for f in space.factors) + 1


def _combine(tabs: list[np.ndarray], orders: tuple[int, ...]) -> np.ndarray:
    """Tensor-product combination of batched 1D tables; returns (n, nq, nb)."""
    t = tabs[0][:, :, orders[0], :]
    for ax in range(1, len(tabs)):
        u = tabs[ax][:, :, orders[ax], :]
        n, q0, m0 = t.shape
        _, q1, m1 = u.shape
        t = (t[:, :, None, :, None] * u[:, None, :, None, :]).reshape(n, q0 * q1, m0 * m1)
    return t


def _axis_tables(f: SplineSpace1D, elements, points: np.ndarray, max_deriv: int):
    """First active indices (n_el,) and basis tables (n_el, q, max_deriv+1, p+1)."""
    firsts, tabs = zip(*(f.tabulate(e, x, max_deriv) for e, x in zip(elements, points)))
    return np.array(firsts), np.stack(tabs)


class _Tabulation:
    """Quadrature rules and 1D basis tables on a tensor grid of elements.

    `rules[j]` holds the per-element points and weights of axis j.  For each
    space s, `tables[s][j]` is the pair (first active index, basis table) of
    axis j and `dims[s]` flattens its multi-indices.  `face` is the
    (axis, side) of a boundary face, or None for the volume.
    """

    def __init__(self, rules, tables, dims, face=None):
        self.rules = rules
        self.tables = tables
        self.dims = dims
        self.face = face

    @classmethod
    def volume(cls, spaces: list[TensorSpace], q: int, max_deriv: int) -> "_Tabulation":
        rules = [QuadratureRule1D.for_space(f, q) for f in spaces[0].factors]
        tables = [
            [_axis_tables(f, range(f.num_elements), r.points, max_deriv) for f, r in zip(sp.factors, rules)]
            for sp in spaces
        ]
        return cls(rules, tables, [sp.dims for sp in spaces])

    @classmethod
    def face_of(cls, space: TensorSpace, axis: int, side: int, q: int, max_deriv: int) -> "_Tabulation":
        """Face `side` of `axis`: space 0 is `space`, space 1 its trace space on the face."""
        rules, vol, trace = [], [], []
        for j, f in enumerate(space.factors):
            if j == axis:
                rule = QuadratureRule1D(points=np.array([[float(side)]]), weights=np.ones((1, 1)))
                elements = [side * (f.num_elements - 1)]
            else:
                rule = QuadratureRule1D.for_space(f, q)
                elements = range(f.num_elements)
            tab = _axis_tables(f, elements, rule.points, max_deriv)
            rules.append(rule)
            vol.append(tab)
            trace.append((np.zeros(1, dtype=np.int64), np.ones((1, 1, 1, 1))) if j == axis else tab)
        trace_dims = tuple(1 if j == axis else m for j, m in enumerate(space.dims))
        return cls(rules, [vol, trace], [space.dims, trace_dims], face=(axis, side))

    def chunks(self, geo: GeometryMap):
        """Yield `_Chunk`s covering the element grid in C order."""
        shape = [len(r.points) for r in self.rules]
        nq = math.prod(r.points.shape[1] for r in self.rules)
        nb = max(math.prod(t.shape[-1] for _, t in tabs) for tabs in self.tables)
        step = max(1, _CHUNK_BYTES // (8 * nq * nb))
        total = math.prod(shape)
        for start in range(0, total, step):
            el = np.unravel_index(np.arange(start, min(start + step, total)), shape)
            yield _Chunk(self, el, geo)


class _Chunk:
    """Quadrature, geometry and basis data on a chunk of n elements.

    `points` is (n * nq, d), element-major; per-point arrays are (n, nq, ...).
    `dx` is the quadrature weight times |det J| in the volume and times the
    surface Jacobian on a face, where `normal` is the outward unit normal.
    """

    def __init__(self, tab: _Tabulation, el: tuple[np.ndarray, ...], geo: GeometryMap):
        n, d = len(el[0]), len(el)
        self.geo, self.d, self.dims = geo, d, tab.dims
        # per space, per axis: (first active index (n,), basis table (n, q, nd, m))
        self.tables = [[(first[e], t[e]) for (first, t), e in zip(tables, el)] for tables in tab.tables]
        grid = (n,) + tuple(r.points.shape[1] for r in tab.rules)

        def spread(j: int, a: np.ndarray) -> np.ndarray:
            return a.reshape((n,) + tuple(grid[1 + j] if i == j else 1 for i in range(d)))

        w = spread(0, tab.rules[0].weights[el[0]])
        for j in range(1, d):
            w = w * spread(j, tab.rules[j].weights[el[j]])
        w = w.reshape(n, -1)
        self.points = np.stack(
            [np.broadcast_to(spread(j, r.points[e]), grid) for j, (r, e) in enumerate(zip(tab.rules, el))],
            axis=-1,
        ).reshape(-1, d)

        jac = geo.jacobian(self.points).reshape(n, -1, d, d)
        det = np.linalg.det(jac)
        if np.any(det <= 0):
            raise DegenerateGeometry("non-positive Jacobian determinant")
        self.jinv = np.linalg.inv(jac)
        if tab.face is None:
            self.dx = w * det
        else:
            # Nanson: a = J^{-T} e_axis;  ds = |det J| ||a||;  n = sign a / ||a||
            axis, side = tab.face
            a = self.jinv[:, :, axis, :]
            anorm = np.linalg.norm(a, axis=-1)
            if np.any(anorm <= 0):
                raise DegenerateGeometry("degenerate surface normal")
            self.dx = w * (det * anorm)
            self.normal = (1.0 if side else -1.0) * a / anorm[..., None]

    @cached_property
    def hess(self) -> np.ndarray:
        """Component Hessians of the geometry map, (n, nq, d, d, d)."""
        d = self.d
        return self.geo.hessians(self.points).reshape(*self.dx.shape, d, d, d)

    def _orders(self, *axes: int) -> tuple[int, ...]:
        """Derivative orders of the reference derivative along `axes`."""
        return tuple(axes.count(a) for a in range(self.d))

    def basis(self, s: int, orders: tuple[int, ...] | None = None) -> np.ndarray:
        """Basis values (or reference derivatives of `orders`) of space s, (n, nq, nb)."""
        return _combine([t for _, t in self.tables[s]], orders or self._orders())

    def active(self, s: int) -> np.ndarray:
        """Global indices of the active basis functions of space s, (n, nb)."""
        n = len(self.dx)
        idx = np.zeros((n, 1), dtype=np.int64)
        for (first, t), dim in zip(self.tables[s], self.dims[s]):
            axis_idx = first[:, None] + np.arange(t.shape[-1])
            idx = (idx[:, :, None] * dim + axis_idx[:, None, :]).reshape(n, -1)
        return idx

    def gradient(self, s: int) -> np.ndarray:
        """Physical gradients J^{-T} grad_ref of space s, (n, nq, nb, d)."""
        gref = np.stack([self.basis(s, self._orders(j)) for j in range(self.d)], axis=-1)
        return gref @ self.jinv

    def laplacian(self, s: int) -> np.ndarray:
        """Physical Laplacian of each basis function of space s, (n, nq, nb).

        Lap phi = sum_rs G_rs (H_ref - sum_k (grad phi)_k H_k)_rs with the
        metric G = J^{-1} J^{-T} and the map's component Hessians H_k.  The
        correction is folded into the vector v = J^{-1} (G : H_k)_k, which
        multiplies the reference gradient, so only (n, nq, nb) tables form.
        """
        g = self.jinv @ np.swapaxes(self.jinv, -1, -2)
        v = np.einsum("nqjk,nqk->nqj", self.jinv, np.einsum("nqkrs,nqrs->nqk", self.hess, g))
        lap = 0.0
        for i in range(self.d):
            for j in range(i, self.d):
                c = g[..., i, j] if i == j else 2.0 * g[..., i, j]
                lap = lap + c[..., None] * self.basis(s, self._orders(i, j))
            lap = lap - v[..., i, None] * self.basis(s, self._orders(i))
        return lap

    def normal_derivative(self, s: int) -> np.ndarray:
        """Outward normal derivative of each basis function of space s on a face."""
        v = np.einsum("nqji,nqi->nqj", self.jinv, self.normal)
        return sum(v[..., j, None] * self.basis(s, self._orders(j)) for j in range(self.d))

    def integrate(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Element blocks sum_q dx_q r_qa c_qb of (n, nq, a) and (n, nq, b) tables."""
        return np.swapaxes(r * self.dx[..., None], 1, 2) @ c

    def gram(self, vals: np.ndarray, s: int, offset: int = 0):
        """Scatter block of the Gram matrix of `vals` over the active set of space s."""
        idx = offset + self.active(s)
        return idx, idx, self.integrate(vals, vals)


def _face_chunks(space: TensorSpace, geo: GeometryMap, q: int, max_deriv: int):
    """Yield (face index, chunk) over the faces of `space`, in `TraceSpace` order."""
    for fi, (axis, side) in enumerate(TraceSpace(space).faces):
        for ch in _Tabulation.face_of(space, axis, side, q, max_deriv).chunks(geo):
            yield fi, ch


def _scatter(shape: tuple[int, int], blocks) -> scipy.sparse.csr_matrix:
    """Sum element blocks into a CSR matrix of `shape`.

    Each block is (row indices (n, a), column indices (n, b), values
    (n, a, b)); entries that land on the same position are added.
    """
    rows, cols, vals = [], [], []
    for r, c, v in blocks:
        rows.append(np.broadcast_to(r[:, :, None], v.shape).ravel())
        cols.append(np.broadcast_to(c[:, None, :], v.shape).ravel())
        vals.append(v.ravel())
    mat = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    )
    return mat.tocsr()


def _scatter_vector(dim: int, blocks) -> np.ndarray:
    """`_scatter` of (indices (n, a), values (n, a, 1)) blocks into a vector."""
    return _scatter((dim, 1), ((idx, np.zeros_like(idx[:, :1]), v) for idx, v in blocks)).toarray().ravel()


def _symmetric(m: scipy.sparse.csr_matrix) -> SparseSymMatrix:
    return SparseSymMatrix((m + m.T) * 0.5)


_KINDS = ("value", "laplacian", "neg_laplacian")


def _integrand(ch: _Chunk, s: int, kind: str) -> np.ndarray:
    if kind == "value":
        return ch.basis(s)
    lap = ch.laplacian(s)
    return -lap if kind == "neg_laplacian" else lap


def assemble_volume(
    row_space: TensorSpace,
    col_space: TensorSpace,
    geo: GeometryMap,
    row_kind: str = "value",
    col_kind: str = "value",
    q: int | None = None,
) -> scipy.sparse.csr_matrix:
    """Assemble A[j, i] = int_(0,1)^d r_j(row basis) c_i(col basis) |det J| dxi.

    `row_kind`/`col_kind` select the integrand factor: the basis value, its
    physical Laplacian, or its negated physical Laplacian.
    """
    for kind in (row_kind, col_kind):
        if kind not in _KINDS:
            raise ValueError(f"unknown integrand kind {kind!r}")
    _check_compatible(row_space, col_space)
    need_lap = row_kind != "value" or col_kind != "value"
    if q is None:
        q = max(_default_q(row_space), _default_q(col_space))
    spaces = [row_space] if row_space is col_space else [row_space, col_space]
    ci = len(spaces) - 1
    tab = _Tabulation.volume(spaces, q, 2 if need_lap else 0)

    def blocks():
        for ch in tab.chunks(geo):
            r = _integrand(ch, 0, row_kind)
            c = r if ci == 0 and row_kind == col_kind else _integrand(ch, ci, col_kind)
            yield ch.active(0), ch.active(ci), ch.integrate(r, c)

    return _scatter((row_space.dim, col_space.dim), blocks())


def assemble_mass(space: TensorSpace, geo: GeometryMap, q: int | None = None) -> SparseSymMatrix:
    """L2 mass matrix on the full space."""
    return _symmetric(assemble_volume(space, space, geo, "value", "value", q))


def assemble_laplacian_strong(
    space_u: TensorSpace, space_w: TensorSpace, geo: GeometryMap, q: int | None = None
) -> scipy.sparse.csr_matrix:
    """K[j, i] = int (-Lap phi_i) psi_j |det J| dxi, shape (dim W, dim U)."""
    return assemble_volume(space_w, space_u, geo, "value", "neg_laplacian", q)


def assemble_biharmonic(space_u: TensorSpace, geo: GeometryMap, q: int | None = None) -> SparseSymMatrix:
    """B[i, j] = int Lap phi_i Lap phi_j |det J| dxi on the full space."""
    return _symmetric(assemble_volume(space_u, space_u, geo, "laplacian", "laplacian", q))


def assemble_stiffness(space: TensorSpace, geo: GeometryMap, q: int | None = None) -> SparseSymMatrix:
    """Gradient-gradient Gram matrix (test oracle for integration by parts)."""
    tab = _Tabulation.volume([space], q or _default_q(space), 1)

    def blocks():
        for ch in tab.chunks(geo):
            g = ch.gradient(0)
            idx = ch.active(0)
            yield idx, idx, sum(ch.integrate(g[..., i], g[..., i]) for i in range(space.d))

    return _symmetric(_scatter((space.dim, space.dim), blocks()))


# ---------------------------------------------------------------------------
# Boundary forms


class TraceSpace:
    """Per-face trace spaces of a volume tensor space, concatenated.

    Each face of (0,1)^d carries the tensor product of the free-axis factor
    spaces; faces are independent (no continuity across edges), which is the
    right discretization of L2 on the boundary.  In 1D each face is a point
    carrying one trace function.
    """

    def __init__(self, space: TensorSpace):
        self.volume_space = space
        self.faces = [(axis, side) for axis in range(space.d) for side in (0, 1)]
        self.face_dims = []
        for axis, _ in self.faces:
            free = [space.dims[j] for j in range(space.d) if j != axis]
            self.face_dims.append(int(np.prod(free)))
        self.offsets = np.concatenate([[0], np.cumsum(self.face_dims)])
        self.dim = int(self.offsets[-1])


def assemble_boundary_mass(space: TensorSpace, geo: GeometryMap, q: int | None = None) -> SparseSymMatrix:
    """Boundary mass M_d[i, j] = surface integral of phi_i phi_j over the boundary."""
    dim = space.dim
    chunks = _face_chunks(space, geo, q or _default_q(space), 0)
    return _symmetric(_scatter((dim, dim), (ch.gram(ch.basis(0), 0) for _, ch in chunks)))


def assemble_normal_gram(space: TensorSpace, geo: GeometryMap, q: int | None = None) -> SparseSymMatrix:
    """K_d[i, j] = surface integral of dn(phi_i) dn(phi_j) over the boundary."""
    dim = space.dim
    chunks = _face_chunks(space, geo, q or _default_q(space), 1)
    return _symmetric(_scatter((dim, dim), (ch.gram(ch.normal_derivative(0), 0) for _, ch in chunks)))


def assemble_trace_mass(trace: TraceSpace, geo: GeometryMap, q: int | None = None) -> SparseSymMatrix:
    """L2 Gram matrix of the per-face trace space on the mapped boundary."""
    chunks = _face_chunks(trace.volume_space, geo, q or _default_q(trace.volume_space), 0)
    blocks = (ch.gram(ch.basis(1), 1, trace.offsets[fi]) for fi, ch in chunks)
    return _symmetric(_scatter((trace.dim, trace.dim), blocks))


def assemble_normal_coupling(
    trace: TraceSpace, space: TensorSpace, geo: GeometryMap, q: int | None = None
) -> scipy.sparse.csr_matrix:
    """N[f, i] = surface integral of dn(phi_i) times a trace basis function."""
    if space is not trace.volume_space:
        _check_compatible(space, trace.volume_space)
    chunks = _face_chunks(space, geo, q or _default_q(space), 1)
    blocks = (
        (trace.offsets[fi] + ch.active(1), ch.active(0), ch.integrate(ch.basis(1), ch.normal_derivative(0)))
        for fi, ch in chunks
    )
    return _scatter((trace.dim, space.dim), blocks)


def assemble_rhs_normal_data(
    space: TensorSpace,
    geo: GeometryMap,
    data_gradient: Callable[[np.ndarray], np.ndarray],
    q: int | None = None,
) -> np.ndarray:
    """rhs[i] = surface integral of dn(phi_i) d, with d = grad(g)(x) . n.

    `data_gradient` maps physical points (npts, d) to gradients (npts, d) of
    the underlying scalar field whose normal derivative is the data.
    """

    def blocks():
        for _, ch in _face_chunks(space, geo, q or _default_q(space), 1):
            grad = data_gradient(geo.value(ch.points)).reshape(ch.normal.shape)
            dvals = np.einsum("nqi,nqi->nq", grad, ch.normal)
            yield ch.active(0), ch.integrate(ch.normal_derivative(0), dvals[..., None])

    return _scatter_vector(space.dim, blocks())


def assemble_rhs_l2(
    space: TensorSpace,
    geo: GeometryMap,
    fn: Callable[[np.ndarray], np.ndarray],
    q: int | None = None,
) -> np.ndarray:
    """rhs[i] = volume integral of phi_i f(x) |det J|."""

    def blocks():
        for ch in _Tabulation.volume([space], q or _default_q(space), 0).chunks(geo):
            fvals = fn(geo.value(ch.points)).reshape(ch.dx.shape)
            yield ch.active(0), ch.integrate(ch.basis(0), fvals[..., None])

    return _scatter_vector(space.dim, blocks())


def boundary_measure(space: TensorSpace, geo: GeometryMap, q: int = 8) -> float:
    """Total surface measure of the mapped boundary (quadrature oracle)."""
    return float(sum(np.sum(ch.dx) for _, ch in _face_chunks(space, geo, q, 0)))


def domain_measure(space: TensorSpace, geo: GeometryMap, q: int = 8) -> float:
    """Volume of the mapped domain (quadrature oracle)."""
    return float(sum(np.sum(ch.dx) for ch in _Tabulation.volume([space], q, 0).chunks(geo)))
