"""Galerkin assembly of all bilinear forms on mapped tensor-product domains.

Volume forms (mass, strong-form Laplacian coupling, biharmonic) integrate on
(0,1)^d with tensorized Gauss quadrature of q = degree+1 points per
direction per element; boundary forms (boundary mass, normal-derivative
Gram and couplings, normal-data right-hand sides) integrate face-wise with
the surface Jacobian from Nanson's formula.  Second derivatives are pulled
back through the geometry map with the full Hessian correction.

Every form runs one batched kernel over chunks of elements.  A face of
(0,1)^d is the element grid whose fixed axis has a single element with one
point of weight 1, so volume and face elements share one tabulation: one
batched 1D table per axis and space.  Per chunk the kernel evaluates the
geometry map's monomial table once over all the chunk's points; the
Jacobian, the Hessians when a form needs them, and the physical points a
right-hand side samples its data at are that table times the map's
coefficient matrices.  It also builds the tensor-product basis tables.  An
assembler hands the kernel a generator of element blocks: per chunk it
yields the blocks of each of its forms in turn, so the mass, Laplacian and
biharmonic forms of `assemble_volume_forms` share the value and Laplacian
tables that the generator holds as local variables.  The face forms come
the same way from one pass over the faces, `assemble_face_forms`: each face
is tabulated once and each chunk forms its normal-derivative and trace
tables once, for the normal Gram, trace mass, normal coupling and
normal-data right-hand side alike; the single-form assemblers are views of
that pass.  The sparsity pattern of a form on a
tensor grid of elements is the Kronecker product of per-axis 1D patterns,
so it is built first, in CSR order; each chunk's element blocks are then
summed at their precomputed places into a zeroed buffer and added into the
CSR data array, as one `np.bincount` would, with no (row, column, value)
triples and no sort.  The
number of elements in a chunk follows from a byte budget on one (elements
x points x basis functions) table, so the working memory of the kernel is
the pattern plus one chunk, flat as the mesh grows.  A pass forms each of
its chunk-sized tables, blocks, places and sums in scratch buffers that it
reuses for every chunk and drops at its end, so the chunks do not hand
their pages back to the system and fault them in again.

Derivative integrands are sum-factorized (Antolin, Buffa, Calabro,
Martinelli and Sangalli, CMAME 285, 2015).  A physical Laplacian or normal
derivative is a sum of coefficient fields times reference derivatives,
sum_k c_k(x) D^{o_k} phi.  The fields meet the per-axis 1D derivative tables
one axis at a time, last axis first, and terms that share their leading
orders are summed before the next axis, so a full table forms only once per
derivative order of the first axis, not once per term.  The value tables,
and so every 1D form, are built as before, bitwise.  Geometry Jacobians are
inverted in closed form.  The budget is 1 MiB a table, so that the few
tables a chunk holds stay in a 2 MiB L2 cache: in a sweep from 256 KiB to
4 MiB it was the fastest, or within noise of it, at 2D p=2 level 6 and 3D
p=3 level 3 and p=5 level 2, with a volume pass 12-30% faster than at
4 MiB (not at 3D p=3 level 4, where each chunk's scatter spans p+1 layers
of rows whatever its size, and larger chunks win); a sweep with the reused
scratch found 1 and 2 MiB level at 3D p=3 level 3 and 512 KiB to 1 MiB at
2D p=2 level 6.  Symmetric forms are averaged with their transpose on their
own CSR arrays, so the working memory ends at one copy of each form.
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
_CHUNK_BYTES = 2**20


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


# A broadcast product whose contiguous runs are shorter than this many
# entries is formed over operands tiled to whole rows: numpy's cost per run
# dominates short runs (3D p=3: 2.6x faster at runs of 4, 1.3x slower at 16).
_SHORT_RUN = 8


def _combine(tabs: list[np.ndarray], orders: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """Tensor-product combination of batched 1D tables; returns (n, nq, nb).

    Each step multiplies every entry of the table so far by every entry of
    the next axis, over rows of m0 * m1 entries made by `np.repeat` and
    `np.tile`: the same products as a broadcast, with longer runs.  The last
    product is written into `out` when given; in 1D the result is a view of
    the table.
    """
    t = tabs[0][:, :, orders[0], :]
    for ax in range(1, len(tabs)):
        u = tabs[ax][:, :, orders[ax], :]
        n, q0, m0 = t.shape
        _, q1, m1 = u.shape
        dest = out.reshape(n, q0, q1, m0 * m1) if out is not None and ax == len(tabs) - 1 else None
        t = np.multiply(np.repeat(t, m1, axis=-1)[:, :, None, :], np.tile(u, m0)[:, None, :, :], out=dest)
        t = t.reshape(n, q0 * q1, m0 * m1)
    return t


def _det_adjugate(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det(J) and adj(J) of a stack of d x d matrices, in closed form for d <= 3.

    J adj(J) = det(J) I, so J^{-1} = adj(J) / det(J); the determinant is the
    expansion along the first row of J.  Larger d goes through LAPACK.
    """
    d = jac.shape[-1]
    if d > 3:
        det = np.linalg.det(jac)
        return det, np.linalg.inv(jac) * det[..., None, None]
    if d == 1:
        adj = np.ones_like(jac)
    elif d == 2:
        adj = np.stack([jac[..., 1, 1], -jac[..., 0, 1], -jac[..., 1, 0], jac[..., 0, 0]], axis=-1)
        adj = adj.reshape(jac.shape)
    else:
        # column k is row k+1 x row k+2, each component in np.cross's own products and order
        j = [[jac[..., i, k] for k in range(3)] for i in range(3)]
        cols = [
            [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
            for a, b in ((j[1], j[2]), (j[2], j[0]), (j[0], j[1]))
        ]
        adj = np.stack([cols[k][i] for i in range(3) for k in range(3)], axis=-1).reshape(jac.shape)
    return np.einsum("...j,...j->...", jac[..., 0, :], adj[..., :, 0]), adj


def _axis_pattern(first_r, m_r: int, dim_r: int, first_c, m_c: int, dim_c: int):
    """1D pattern of the function pairs active on a common element of one axis.

    `first_r`/`first_c` are the first active row/column functions per
    element and `m_r`/`m_c` the numbers of active ones.  Returns the CSR
    (indptr, indices) and, per element, the place of each pair in its row,
    (n_el, m_r, m_c), and the length of each active row, (n_el, m_r).
    """
    rows = first_r[:, None] + np.arange(m_r)
    codes = rows[:, :, None] * dim_c + (first_c[:, None] + np.arange(m_c))[:, None, :]
    pattern = np.unique(codes)
    indptr = np.searchsorted(pattern // dim_c, np.arange(dim_r + 1))
    rank = np.searchsorted(pattern, codes) - indptr[rows][:, :, None]
    return indptr, pattern % dim_c, rank, np.diff(indptr)[rows]


def _kron(a, b):
    """Kronecker product of CSR patterns a and b, (indptr, indices, ncols), in a's index dtype.

    Row (i, l) holds the columns ia[u] * nb + ib[v] for the entries u of row
    i of a and v of row l of b, u-major: sorted, as CSR wants.  The product
    is built one row of a at a time, so its temporaries stay small.
    """
    (pa, ia, na), (pb, ib, nb) = a, b
    lb = np.diff(pb)
    indptr = np.concatenate([[0], np.cumsum(np.outer(np.diff(pa), lb))]).astype(ia.dtype)
    indices = np.empty(indptr[-1], dtype=ia.dtype)
    start = np.repeat(pb[:-1], lb)  # start of the row of each entry of b
    width = np.repeat(lb, lb)  # length of that row
    rank = np.arange(len(ib)) - start
    for i in range(len(pa) - 1):
        cols = ia[pa[i] : pa[i + 1]]
        k = len(cols)
        dest = indptr[i * len(lb)] + k * start + rank + np.arange(k)[:, None] * width
        indices[dest] = cols[:, None] * nb + ib
    return indptr, indices, na * nb


class _Scratch:
    """Work arrays of one assembly pass, reused by each of its chunks.

    `get(key, shape)` is a view of the buffer kept under `key`, grown to the
    largest size asked for, so each chunk forms its tables in memory that an
    earlier chunk of the pass has already touched: the allocator does not
    hand the pages back to the system and fault them in again between
    chunks.  The buffers go with the pass.
    """

    def __init__(self) -> None:
        self._buffers: dict = {}

    def get(self, key, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A (shape) view of buffer `key`; "temp" is for a table that dies within the call that makes it."""
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


class _Pattern:
    """CSR pattern of the forms between spaces r and c of a `_Tabulation`.

    On a tensor grid of elements the pattern is the Kronecker product of
    the per-axis 1D patterns: row (i_0, ..., i_{d-1}) holds the columns
    (j_0, ..., j_{d-1}) with each pair (i_k, j_k) active on a common element
    of axis k, last axis fastest.  `places` maps the entries of a chunk's
    element blocks to their indices in the CSR data array.
    """

    def __init__(self, tab: "_Tabulation", r: int, c: int):
        self.r = r
        self.axes = []  # per axis: (place in row, row length) per element
        patterns = []
        for (fr, tr), (fc, tc), dim_r, dim_c in zip(tab.tables[r], tab.tables[c], tab.dims[r], tab.dims[c]):
            indptr, indices, rank, length = _axis_pattern(fr, tr.shape[-1], dim_r, fc, tc.shape[-1], dim_c)
            self.axes.append((rank, length))
            patterns.append((indptr, indices, dim_c))
        self.shape = (math.prod(tab.dims[r]), math.prod(tab.dims[c]))
        # built in scipy's own index dtype, so that `csr` converts nothing
        idx = scipy.sparse.get_index_dtype(maxval=max(math.prod(len(i) for _, i, _ in patterns), *self.shape))
        patterns = [(indptr.astype(idx), indices.astype(idx), dim_c) for indptr, indices, dim_c in patterns]
        # fold from the last axis, so that each step loops over the rows of a 1D pattern
        acc = patterns[-1]
        for pat in reversed(patterns[:-1]):
            acc = _kron(pat, acc)
        self.indptr, self.indices, _ = acc

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def places(self, ch: "_Chunk") -> tuple[int, int, np.ndarray]:
        """(lo, hi, places): the chunk's block entries go to data[lo:hi][places], (n, a, b).

        Row I's columns are ordered by the place in the row of the leading
        axes and then by that of axis k, so the place of a pair is
        sum_k place_k * (product of the row lengths of the axes after k).
        It splits into a head, axis 0's term plus the start of the row, and
        a tail, the terms of the other axes, so that the full-size sum is
        formed once, in the pass's scratch, over runs as long as the tail's.
        """
        n = len(ch.el[0])
        tail, scale = np.zeros((n, 1, 1), dtype=np.int64), np.ones((n, 1), dtype=np.int64)
        for (rank, length), e in zip(self.axes[1:], ch.el[1:]):
            o, ln = rank[e], length[e]
            a, b = tail.shape[1:]
            tail = tail[:, :, None, :, None] * ln[:, None, :, None, None] + o[:, None, :, None, :]
            tail = tail.reshape(n, a * o.shape[1], b * o.shape[2])
            scale = (scale[:, :, None] * ln[:, None, :]).reshape(n, -1)
        rows = ch.active(self.r)
        starts = self.indptr[rows]
        lo, hi = int(starts.min()), int(self.indptr[rows.max() + 1])
        (rank, _), e = self.axes[0], ch.el[0]
        o = rank[e]
        head = o[:, :, None, :] * scale[:, None, :, None] + (starts - lo).reshape(n, o.shape[1], -1, 1)
        out = ch.scratch.get("places", head.shape + (tail.shape[2],), np.int64)
        np.add(head[..., None], tail[:, None, :, None, :], out=out)
        return lo, hi, out.reshape(n, rows.shape[1], -1)

    def csr(self, data: np.ndarray) -> scipy.sparse.csr_matrix:
        """The form with values `data`; it owns copies of the index arrays, which `eliminate_zeros` compacts."""
        return scipy.sparse.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=self.shape)


class _Tabulation:
    """Quadrature rules and 1D basis tables on a tensor grid of elements.

    `rules[j]` holds the per-element points and weights of axis j.  For each
    space s, `tables[s][j]` is the pair (first active index, basis table) of
    axis j and `dims[s]` flattens its multi-indices.  `face` is the
    (axis, side) of a boundary face, or None for the volume; `kept` are the
    columns of a face's space-0 tables that belong to its space 2.
    """

    def __init__(self, rules, tables, dims, face=None, kept=None):
        self.rules = rules
        self.tables = tables
        self.dims = dims
        self.face = face
        self.kept = kept

    @classmethod
    def volume(cls, spaces: list[TensorSpace], q: int, max_deriv: int) -> "_Tabulation":
        rules = [QuadratureRule1D.for_space(f, q) for f in spaces[0].factors]
        tables = [
            [f.tabulate(np.arange(f.num_elements), r.points, max_deriv) for f, r in zip(sp.factors, rules)]
            for sp in spaces
        ]
        return cls(rules, tables, [sp.dims for sp in spaces])

    @classmethod
    def face_of(cls, space: TensorSpace, axis: int, side: int, q: int, max_deriv: int) -> "_Tabulation":
        """Face `side` of `axis`: space 0 is `space`, space 1 its trace space on the face.

        Space 2 is `space` trimmed on the fixed axis to the max_deriv + 1
        functions nearest the face, the `kept` columns of space 0's tables.
        With an open knot vector the others and their derivatives up to
        order max_deriv are exactly +0.0 there, so a Gram form of values or
        normal derivatives on space 2 is its form on space 0 without the
        explicit zeros.
        """
        rules, vol, trace, trimmed = [], [], [], []
        cut = side * (space.factors[axis].degree - max_deriv)  # first kept function of the fixed axis
        for j, f in enumerate(space.factors):
            if j == axis:
                rule = QuadratureRule1D(points=np.array([[float(side)]]), weights=np.ones((1, 1)))
                elements = [side * (f.num_elements - 1)]
            else:
                rule = QuadratureRule1D.for_space(f, q)
                elements = np.arange(f.num_elements)
            tab = f.tabulate(elements, rule.points, max_deriv)
            rules.append(rule)
            vol.append(tab)
            if j == axis:
                first, t = tab
                trimmed.append((first + cut, t[..., cut : cut + max_deriv + 1]))
                trace.append((np.zeros(1, dtype=np.int64), np.ones((1, 1, 1, 1))))
            else:
                trimmed.append(tab)
                trace.append(tab)
        trace_dims = tuple(1 if j == axis else m for j, m in enumerate(space.dims))
        sizes = [t.shape[-1] for _, t in vol]
        kept = np.arange(math.prod(sizes)).reshape(sizes)[(slice(None),) * axis + (slice(cut, cut + max_deriv + 1),)]
        return cls(rules, [vol, trace, trimmed], [space.dims, trace_dims, space.dims], (axis, side), kept.ravel())

    def chunks(self, geo: GeometryMap, scratch: _Scratch | None = None):
        """Yield `_Chunk`s covering the element grid in C order, forming their tables in `scratch`."""
        scratch = scratch or _Scratch()
        shape = [len(r.points) for r in self.rules]
        nq = math.prod(r.points.shape[1] for r in self.rules)
        nb = max(math.prod(t.shape[-1] for _, t in tabs) for tabs in self.tables)
        step = max(1, _CHUNK_BYTES // (8 * nq * nb))
        total = math.prod(shape)
        for start in range(0, total, step):
            el = np.unravel_index(np.arange(start, min(start + step, total)), shape)
            yield _Chunk(self, el, geo, scratch)


class _Chunk:
    """Quadrature, geometry and basis data on a chunk of n elements.

    `el` holds the per-axis element indices, (n,) each.  `points` is
    (n * nq, d), element-major; per-point arrays are (n, nq, ...).
    `dx` is the quadrature weight times |det J| in the volume and times the
    surface Jacobian on a face, where `normal` is the outward unit normal.
    The basis and derivative tables and the element blocks are views of the
    pass's `scratch`: each lives until a later chunk forms the same table.
    """

    def __init__(self, tab: _Tabulation, el: tuple[np.ndarray, ...], geo: GeometryMap, scratch: _Scratch):
        n, d = len(el[0]), len(el)
        self.geo, self.d, self.dims, self.el, self.scratch = geo, d, tab.dims, el, scratch
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

        # one monomial table serves the Jacobian here and the Hessians in `hess`
        self._monomials = geo._monomials(self.points).T
        jac = (self._monomials @ geo._jacobian).reshape(n, -1, d, d)
        det, adj = _det_adjugate(jac)
        if np.any(det <= 0):
            raise DegenerateGeometry("non-positive Jacobian determinant")
        self.jinv = adj / det[..., None, None]
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
        return (self._monomials @ self.geo._hessians).reshape(*self.dx.shape, d, d, d)

    def _orders(self, *axes: int) -> tuple[int, ...]:
        """Derivative orders of the reference derivative along `axes`."""
        return tuple(axes.count(a) for a in range(self.d))

    def mapped_points(self) -> np.ndarray:
        """The physical points F(points), (n * nq, d), off the chunk's monomial table."""
        return self._monomials @ self.geo._value

    def _table(self, key, s: int) -> np.ndarray:
        """The scratch buffer `key` shaped as a table of space s, (n, nq, nb)."""
        return self.scratch.get(key, self.dx.shape + (math.prod(t.shape[-1] for _, t in self.tables[s]),))

    def basis(self, s: int, orders: tuple[int, ...] | None = None) -> np.ndarray:
        """Basis values (or reference derivatives of `orders`) of space s, (n, nq, nb)."""
        orders = orders or self._orders()
        return _combine([t for _, t in self.tables[s]], orders, self._table(("basis", s, orders), s))

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

    def derivatives(self, s: int, terms: list[tuple[np.ndarray, tuple[int, ...]]], key) -> np.ndarray:
        """sum_k c_k D^{o_k} phi of space s for fields c_k (n, nq) and orders o_k, (n, nq, nb).

        Sum factorization: the fields meet the 1D tables one axis at a time,
        last axis first, and the terms that share their leading orders are
        summed before the next axis.  Only one full table forms per distinct
        order on axis 0, not one per term: the first into the scratch table
        `key`, which the others are added into.
        """
        tabs = [t for _, t in self.tables[s]]
        n, grid = len(self.dx), tuple(t.shape[1] for t in tabs)
        # per group of leading orders: (n, *grid, product of the basis sizes done)
        fields = [(orders, c.reshape((n,) + grid + (1,))) for c, orders in terms]
        for ax in reversed(range(self.d)):
            spread = (n,) + tuple(q if j == ax else 1 for j, q in enumerate(grid)) + (-1,)
            summed: dict[tuple[int, ...], np.ndarray] = {}
            for orders, f in fields:
                t, run = tabs[ax][:, :, orders[ax], :], f.shape[-1]
                shape = f.shape[:-1] + (t.shape[-1] * run,)
                lead = orders[:ax]
                if lead in summed:
                    dest = self.scratch.get("temp", shape)
                elif ax:
                    dest = self.scratch.get((key, ax, len(summed)), shape)
                else:
                    dest = self._table(key, s).reshape(shape)
                if 1 < run < _SHORT_RUN:  # the same products over whole rows, as in `_combine`
                    x = np.multiply(np.tile(f, t.shape[-1]), np.repeat(t, run, axis=-1).reshape(spread), out=dest)
                else:
                    x = np.multiply(f[..., None, :], t.reshape(spread + (1,)), out=dest.reshape(shape[:-1] + (-1, run)))
                x = x.reshape(shape)
                if lead in summed:
                    summed[lead] += x
                else:
                    summed[lead] = x
            fields = list(summed.items())
        return fields[0][1].reshape(n, math.prod(grid), -1)

    def laplacian(self, s: int) -> np.ndarray:
        """Physical Laplacian of each basis function of space s, (n, nq, nb).

        Lap phi = sum_rs G_rs (H_ref - sum_k (grad phi)_k H_k)_rs with the
        metric G = J^{-1} J^{-T} and the map's component Hessians H_k.  The
        correction is folded into the vector v = J^{-1} (G : H_k)_k, which
        multiplies the reference gradient, so every term is a field times a
        reference derivative.
        """
        g = self.jinv @ np.swapaxes(self.jinv, -1, -2)
        v = np.einsum("nqjk,nqk->nqj", self.jinv, np.einsum("nqkrs,nqrs->nqk", self.hess, g))
        terms = []
        for i in range(self.d):
            for j in range(i, self.d):
                terms.append((g[..., i, j] if i == j else 2.0 * g[..., i, j], self._orders(i, j)))
            terms.append((-v[..., i], self._orders(i)))
        return self.derivatives(s, terms, ("laplacian", s))

    def normal_derivative(self, s: int) -> np.ndarray:
        """Outward normal derivative of each basis function of space s on a face."""
        v = np.einsum("nqji,nqi->nqj", self.jinv, self.normal)
        return self.derivatives(s, [(v[..., j], self._orders(j)) for j in range(self.d)], ("normal_derivative", s))

    def integrate(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Element blocks sum_q dx_q r_qa c_qb of (n, nq, a) and (n, nq, b) tables, (n, a, b).

        The blocks are the pass's block buffer, valid until the next call.
        """
        w = np.multiply(r, self.dx[..., None], out=self.scratch.get("temp", r.shape))
        return np.matmul(np.swapaxes(w, 1, 2), c, out=self.scratch.get("block", (len(r), r.shape[2], c.shape[2])))


def _scatter(data: np.ndarray, lo: int, hi: int, places: np.ndarray, block: np.ndarray, scratch: _Scratch) -> None:
    """data[lo:hi] += the sum of the block entries at each place.

    The entries are summed into zero in their order and the sums then added
    to the data, as `np.bincount(places, block, hi - lo)` would, in a buffer
    of the pass.
    """
    acc = scratch.get("sums", (hi - lo,))
    acc.fill(0.0)
    np.add.at(acc, places.ravel(), block.ravel())
    data[lo:hi] += acc


def _assemble(
    tab: _Tabulation, geo: GeometryMap, r: int, c: int, blocks, forms: int = 1
) -> list[scipy.sparse.csr_matrix]:
    """One CSR matrix per form from one pass over the chunks of `tab`.

    `blocks(chunk)` yields the chunk's element blocks of each of the `forms`
    forms between spaces r and c in turn, (n, a, b); a Gram form is the
    one-block generator `(ch.integrate(v, v) for v in [values])`.  A block
    lives only as the argument of its scatter, so it is freed before the
    next one is made; no loop variable holds it.
    """
    pattern = _Pattern(tab, r, c)
    datas = [np.zeros(pattern.nnz) for _ in range(forms)]
    scratch = _Scratch()
    for ch in tab.chunks(geo, scratch):
        lo, hi, places = pattern.places(ch)
        made = blocks(ch)
        for data in datas:
            _scatter(data, lo, hi, places, next(made), scratch)
    return [pattern.csr(data) for data in datas]


def _transpose_map(m: scipy.sparse.csr_matrix) -> np.ndarray | None:
    """t with m.data[t] the entries of m' in m's CSR order (m' of m's entry numbers); None if the pattern is not symmetric."""
    numbers = np.arange(m.nnz, dtype=m.indices.dtype)
    mt = scipy.sparse.csr_matrix((numbers, m.indices, m.indptr), shape=m.shape).T.tocsr()
    if np.array_equal(mt.indptr, m.indptr) and np.array_equal(mt.indices, m.indices):
        return mt.data
    return None


def _symmetric(m: scipy.sparse.csr_matrix, t: np.ndarray | None = None) -> SparseSymMatrix:
    """(m + m') * 0.5 on m's own arrays, bitwise, wrapped without re-validation; m is taken over.

    `t` is `_transpose_map(m)`, which forms on one pattern share.  IEEE
    addition commutes, so m_ij + m_ji is exactly symmetric, and the wrap
    drops the entries that cancel exactly, as m + m' does.  A pattern that
    is not symmetric (a sum of face forms can drop an entry on one side
    only) takes the sum m + m'.
    """
    if t is None:
        t = _transpose_map(m)
    if t is None:
        m = m + m.T
    else:
        m.data += m.data[t]
    m.data *= 0.5
    return SparseSymMatrix._trusted(m)


def assemble_mass(space: TensorSpace, geo: GeometryMap, q: int | None = None) -> SparseSymMatrix:
    """L2 mass matrix on the full space."""
    tab = _Tabulation.volume([space], q or _default_q(space), 0)
    return _symmetric(_assemble(tab, geo, 0, 0, lambda ch: (ch.integrate(v, v) for v in [ch.basis(0)]))[0])


def assemble_laplacian_strong(
    space_u: TensorSpace, space_w: TensorSpace, geo: GeometryMap, q: int | None = None
) -> scipy.sparse.csr_matrix:
    """K[j, i] = int (-Lap phi_i) psi_j |det J| dxi, shape (dim W, dim U)."""
    _check_compatible(space_w, space_u)
    spaces = [space_w] if space_w is space_u else [space_w, space_u]
    ci = len(spaces) - 1
    tab = _Tabulation.volume(spaces, q or max(_default_q(space_w), _default_q(space_u)), 2)

    def blocks(ch: _Chunk):
        k = ch.integrate(ch.basis(0), ch.laplacian(ci))
        yield np.negative(k, out=k)

    return _assemble(tab, geo, 0, ci, blocks)[0]


def assemble_biharmonic(space_u: TensorSpace, geo: GeometryMap, q: int | None = None) -> SparseSymMatrix:
    """B[i, j] = int Lap phi_i Lap phi_j |det J| dxi on the full space."""
    tab = _Tabulation.volume([space_u], q or _default_q(space_u), 2)
    return _symmetric(_assemble(tab, geo, 0, 0, lambda ch: (ch.integrate(v, v) for v in [ch.laplacian(0)]))[0])


def assemble_volume_forms(
    space: TensorSpace, geo: GeometryMap
) -> tuple[SparseSymMatrix, scipy.sparse.csr_matrix, SparseSymMatrix]:
    """The mass, strong Laplacian and biharmonic forms on one space from one pass.

    Each is bitwise equal to `assemble_mass`, `assemble_laplacian_strong(space,
    space)` and `assemble_biharmonic`: the same element blocks, summed in the
    same order.  Per chunk the value and Laplacian tables are made once.
    """

    def blocks(ch: _Chunk):
        v = ch.basis(0)
        yield ch.integrate(v, v)
        lap = ch.laplacian(0)
        k = ch.integrate(v, lap)
        yield np.negative(k, out=k)
        yield ch.integrate(lap, lap)

    m, k, b = _assemble(_Tabulation.volume([space], _default_q(space), 2), geo, 0, 0, blocks, 3)
    t = _transpose_map(m)  # M and B share their pattern
    return _symmetric(m, t), k, _symmetric(b, t)


def assemble_stiffness(space: TensorSpace, geo: GeometryMap, q: int | None = None) -> SparseSymMatrix:
    """Gradient-gradient Gram matrix (test oracle for integration by parts)."""

    def blocks(ch: _Chunk):
        g = ch.gradient(0)
        yield sum(ch.integrate(g[..., i], g[..., i]) for i in range(space.d))

    return _symmetric(_assemble(_Tabulation.volume([space], q or _default_q(space), 1), geo, 0, 0, blocks)[0])


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


# per matrix face form: (row space, column space) of the face tabulation
_FACE_MATRICES = {"normal_gram": (2, 2), "trace_mass": (1, 1), "normal_coupling": (1, 0)}

FACE_FORMS = (*_FACE_MATRICES, "rhs_normal_data")


def assemble_face_forms(
    space: TensorSpace,
    geo: GeometryMap,
    forms,
    data_gradient: Callable[[np.ndarray], np.ndarray] | None = None,
    q: int | None = None,
) -> dict:
    """The face forms named in `forms` (a subset of `FACE_FORMS`) from one pass over the faces of `space`.

    Each face is tabulated once, and each chunk forms its normal-derivative
    and trace-value tables once, for every form that reads them:
    `normal_gram` K_d[i, j] = surface integral of dn(phi_i) dn(phi_j);
    `trace_mass`, the L2 Gram matrix of the per-face trace space;
    `normal_coupling` N[f, i] = surface integral of dn(phi_i) times a trace
    basis function; `rhs_normal_data` rhs[i] = surface integral of dn(phi_i)
    d with d = grad(g)(x) . n, where `data_gradient` maps physical points
    (npts, d) to gradients (npts, d) of g.  A form's element blocks and
    their sums are the same whichever forms share the pass.  The normal
    Gram integrates over the columns of the normal-derivative table whose
    functions need not vanish on the face (`_Tabulation.face_of`'s space 2),
    a quarter of the block entries in 3D; the coupling keeps the explicit
    zeros it has always stored, and the rhs is summed over the whole table.
    """
    if not set(forms) <= set(FACE_FORMS):
        raise ValueError(f"unknown face forms {sorted(set(forms) - set(FACE_FORMS))}")
    q = q or _default_q(space)
    matrices = [name for name in _FACE_MATRICES if name in forms]
    rhs = np.zeros(space.dim) if "rhs_normal_data" in forms else None
    derivative = rhs is not None or "normal_gram" in forms or "normal_coupling" in forms
    faces = {name: [] for name in matrices}
    scratch = _Scratch()
    for axis, side in TraceSpace(space).faces:
        tab = _Tabulation.face_of(space, axis, side, q, int(derivative))
        patterns = {name: _Pattern(tab, *_FACE_MATRICES[name]) for name in matrices}
        datas = {name: np.zeros(pattern.nnz) for name, pattern in patterns.items()}
        for ch in tab.chunks(geo, scratch):
            nd = ch.normal_derivative(0) if derivative else None
            kept = nd[..., tab.kept] if "normal_gram" in forms else None
            tv = ch.basis(1) if "trace_mass" in forms or "normal_coupling" in forms else None
            tables = {"normal_gram": (kept, kept), "trace_mass": (tv, tv), "normal_coupling": (tv, nd)}
            for name, pattern in patterns.items():
                lo, hi, places = pattern.places(ch)
                _scatter(datas[name], lo, hi, places, ch.integrate(*tables[name]), scratch)
            if rhs is not None:
                grad = data_gradient(ch.mapped_points()).reshape(ch.normal.shape)
                dvals = np.einsum("nqi,nqi->nq", grad, ch.normal)
                _scatter(rhs, 0, len(rhs), ch.active(0), ch.integrate(nd, dvals[..., None]), scratch)
        for name, pattern in patterns.items():
            faces[name].append(pattern.csr(datas[name]))
    out = {}
    if "normal_gram" in faces:
        grams = faces["normal_gram"]
        out["normal_gram"] = _symmetric(sum(grams[1:], grams[0]))
    if "trace_mass" in faces:
        out["trace_mass"] = _symmetric(scipy.sparse.block_diag(faces["trace_mass"], format="csr"))
    if "normal_coupling" in faces:
        out["normal_coupling"] = scipy.sparse.vstack(faces["normal_coupling"], format="csr")
    if rhs is not None:
        out["rhs_normal_data"] = rhs
    return out


def assemble_normal_gram(space: TensorSpace, geo: GeometryMap, q: int | None = None) -> SparseSymMatrix:
    """K_d[i, j] = surface integral of dn(phi_i) dn(phi_j) over the boundary."""
    return assemble_face_forms(space, geo, ["normal_gram"], q=q)["normal_gram"]


def assemble_trace_mass(trace: TraceSpace, geo: GeometryMap, q: int | None = None) -> SparseSymMatrix:
    """L2 Gram matrix of the per-face trace space on the mapped boundary."""
    return assemble_face_forms(trace.volume_space, geo, ["trace_mass"], q=q)["trace_mass"]


def assemble_normal_coupling(
    trace: TraceSpace, space: TensorSpace, geo: GeometryMap, q: int | None = None
) -> scipy.sparse.csr_matrix:
    """N[f, i] = surface integral of dn(phi_i) times a trace basis function."""
    if space is not trace.volume_space:
        _check_compatible(space, trace.volume_space)
    return assemble_face_forms(space, geo, ["normal_coupling"], q=q)["normal_coupling"]


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
    return assemble_face_forms(space, geo, ["rhs_normal_data"], data_gradient, q)["rhs_normal_data"]


def assemble_rhs_l2(
    space: TensorSpace,
    geo: GeometryMap,
    fn: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """rhs[i] = volume integral of phi_i f(x) |det J|."""
    rhs = np.zeros(space.dim)
    for ch in _Tabulation.volume([space], _default_q(space), 0).chunks(geo):
        fvals = fn(ch.mapped_points()).reshape(ch.dx.shape)
        _scatter(rhs, 0, len(rhs), ch.active(0), ch.integrate(ch.basis(0), fvals[..., None]), ch.scratch)
    return rhs
