"""Symmetric sparse and dense storage, Cholesky solves, and a symmetric eigensolver.

Thin, contract-carrying layer over LAPACK, called directly through
`scipy.linalg.lapack` with the routines and arguments of scipy's wrappers
(dpotrf/dpotrs of `cho_factor`/`cho_solve`, dpbtrf/dpbtrs of
`cholesky_banded`/`cho_solve_banded`, dsyevr with the workspace of
`eigh(eigvals_only=True)`): every factor, solve and eigenvalue is bitwise the
wrappers', without their per-call argument handling.  Factorizations and
eigenvalues keep the wrappers' finite-input check; the solves skip it, as a
factor is finite by construction.  The vector solve that MINRES makes on
two threads at once (`solve_chol_nogil`) calls the same LAPACK routine
through scipy's `cython_lapack` by ctypes instead, as the wrappers hold the
GIL.

A sparse symmetric matrix is stored as its full CSR in canonical form
(duplicates summed, column indices sorted, no explicit zeros); a small dense
one (a densified Schur stage, a random test block) as its full array.
Producers hand over the full matrix and the public constructors check that it
is exactly symmetric; a matrix symmetric by construction (a sum, a computed
Schur stage, a mirrored triangle) is wrapped unchecked.  A block is factored
in its stored order (the spline blocks are stored banded): a sparse block
gets a banded Cholesky when its band is narrow, a dense one otherwise, and a
dense block always a dense one.

Scaling and summing are views.  c times a matrix shares the stored CSR and
keeps the scale c: its product is c (M x); A + beta B holds its terms.  The
matrix itself is built only for a caller that asks for it (an export, a
dense spectrum): a banded factor is summed from the terms' stored CSRs.  The
factor of c M is M's own factor with the scale c: a solve runs on the stored
factor and divides by c.  So the blocks alpha M, M / alpha and M of the
optimal-control preconditioners hold one copy of M and one of its factor.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg import cython_lapack, lapack


class NotPositiveDefinite(Exception):
    """A Cholesky pivot failed; the matrix is indefinite or semidefinite."""


class SparseSymMatrix:
    """Sparse symmetric matrix: `scale` times the full canonical CSR `base`, or a sum view of `_sum`."""

    scale = 1.0
    _sum = ()

    def __init__(self, a):
        """Store a copy of the full matrix `a`; ValueError unless square and exactly symmetric."""
        full = scipy.sparse.csr_matrix(a, copy=True)
        if full.shape[0] != full.shape[1]:
            raise ValueError("matrix must be square")
        full.sum_duplicates()
        full.eliminate_zeros()
        if (full != full.T).nnz:
            raise ValueError("matrix must be symmetric")
        self.base = full

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseSymMatrix":
        """The symmetric matrix with the upper triangle of the array `a` (its lower one is ignored)."""
        a = np.asarray(a, dtype=np.float64)
        return cls(scipy.sparse.csr_matrix(np.triu(a) + np.triu(a, k=1).T))

    @functools.cached_property
    def base(self) -> scipy.sparse.csr_matrix:
        """A sum view's canonical CSR, built when first read: its (matrix, coefficient) terms summed in order."""
        return sum((beta * t.to_csr() for t, beta in self._sum[1:]), self._sum[0][0].to_csr())

    @property
    def dim(self) -> int:
        return self._sum[0][0].dim if self._sum else self.base.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.base @ x
        y *= self.scale
        return y

    def to_csr(self) -> scipy.sparse.csr_matrix:
        """The full canonical CSR: the stored one (shared, not copied), or built when scaled.

        Scaling an exactly symmetric matrix entry by entry keeps it exactly
        symmetric and keeps its index order; only underflowed zeros go.
        """
        if self.scale == 1.0:
            return self.base
        full = self.base * self.scale
        full.eliminate_zeros()
        return full

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    def add_to(self, out: np.ndarray) -> None:
        """Add this matrix into the array `out` in place: each stored entry once, times the scale.

        The stored CSR is scattered 32 rows at a time, each entry's row taken
        from `indptr`, so no scaled CSR and no COO copy is built; c m_ij is
        the product that `to_csr` would store.
        """
        b, n = self.base, self.dim
        for lo in range(0, n, 32):
            hi = min(lo + 32, n)
            rows = np.repeat(np.arange(lo, hi), np.diff(b.indptr[lo : hi + 1]))
            s = slice(b.indptr[lo], b.indptr[hi])
            out[rows, b.indices[s]] += b.data[s] * self.scale

    @classmethod
    def _trusted(cls, full: scipy.sparse.csr_matrix) -> "SparseSymMatrix":
        """Wrap an exactly symmetric canonical CSR without re-validation; explicit zeros go."""
        full.eliminate_zeros()
        out = cls.__new__(cls)
        out.base = full
        return out

    def scaled(self, c: float) -> "SparseSymMatrix":
        """c times this matrix: a view that shares the stored CSR."""
        out = SparseSymMatrix.__new__(SparseSymMatrix)
        out.base, out.scale = self.base, self.scale * c
        return out

    def add(self, other: "SparseSymMatrix", beta: float = 1.0) -> "SparseSymMatrix":
        """This matrix plus beta `other`: a sum view, exactly symmetric as its terms; ValueError unless of one order."""
        if other.dim != self.dim:
            raise ValueError(f"cannot add a matrix of order {other.dim} to one of order {self.dim}")
        out = SparseSymMatrix.__new__(SparseSymMatrix)
        out._sum = (self._sum or ((self, 1.0),)) + ((other, beta),)
        return out


class DenseSymMatrix:
    """Dense symmetric matrix stored as its full array."""

    def __init__(self, a):
        """Store a copy of the array `a`; ValueError unless square and exactly symmetric.

        Adding 0.0 copies and turns -0.0 into +0.0, so the stored array
        equals the dense form of the same matrix in sparse storage.
        """
        a = np.ascontiguousarray(a, dtype=np.float64) + 0.0
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix must be symmetric")
        self._a = a

    @classmethod
    def _trusted(cls, a: np.ndarray) -> "DenseSymMatrix":
        """Wrap an exactly symmetric float64 array without re-validation; it is taken over.

        Adding 0.0 in place turns -0.0 into +0.0, as the constructor does.
        """
        a += 0.0
        out = cls.__new__(cls)
        out._a = a
        return out

    @classmethod
    def from_upper(cls, a: np.ndarray) -> "DenseSymMatrix":
        """The symmetric matrix with the upper triangle of the array `a` (its lower one is ignored).

        The upper triangle is copied (-0.0 turns into +0.0) and mirrored row by row.
        """
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        return cls._trusted(mirror_upper(np.add(a, 0.0, order="C")))

    @property
    def dim(self) -> int:
        return self._a.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._a @ x

    def to_csr(self) -> scipy.sparse.csr_matrix:
        return scipy.sparse.csr_matrix(self._a)

    def to_dense(self) -> np.ndarray:
        """A copy of the stored array."""
        return self._a.copy()

    def add_to(self, out: np.ndarray) -> None:
        """Add this matrix into the array `out` in place."""
        out += self._a


@dataclass
class CholeskyFactor:
    """Cholesky factorization of an SPD symmetric matrix in its stored order.

    It factors `scale` times the matrix that `data` is the factor of.
    """

    dim: int
    mode: str  # "banded" or "dense"
    data: object  # banded factor array or (dense factor, lower) pair
    scale: float = 1.0

    def scaled(self, c: float) -> "CholeskyFactor":
        """The factor of c times the factored matrix (c > 0): a view that shares `data`."""
        if not c > 0:
            raise ValueError("scale must be positive")
        return CholeskyFactor(self.dim, self.mode, self.data, self.scale * c)

    def lower(self) -> np.ndarray:
        """The dense lower-triangular L with L L' equal to the factored matrix.

        A dense factor is stored lower with a zeroed strict upper triangle
        (`cholesky` asks for both); a banded one (LAPACK's upper band of U,
        with L = U') is expanded after scaling by sqrt(scale).  An unscaled
        dense factor is the stored array itself: read it, do not write it.
        """
        if self.mode == "dense":
            return self.data[0] if self.scale == 1.0 else self.data[0] * np.sqrt(self.scale)
        band, n = self.data * np.sqrt(self.scale), self.dim
        k, j = np.ogrid[: band.shape[0], :n]  # L[j, j - k] = U[j - k, j], row bw - k of the band
        on = j >= k
        out = np.zeros((n, n), order="F")
        out.ravel(order="F")[(j * (n + 1) - k * n)[on]] = band[::-1][on]  # a view: out is Fortran-ordered
        return out

    def triangular_solve(self, v: np.ndarray, trans: int) -> np.ndarray:
        """L^{-1} v (trans 0) or L^{-T} v (trans 1) for the L of `lower`, solved on the stored band of U,
        L = sqrt(scale) U', by dtbtrs, or on the stored dense L / sqrt(scale) by dtrtrs."""
        if self.mode == "banded":
            x, _ = lapack.dtbtrs(self.data, v, trans=("T", "N")[trans])
        else:
            x, _ = lapack.dtrtrs(self.data[0], v, lower=1, trans=trans)
        x /= np.sqrt(self.scale)
        return x

    @functools.cached_property
    def _solve_call(self):
        """`solve_chol_nogil`'s LAPACK call with every argument before b bound, and the reference to ldb = n.

        The stored factor must be a Fortran-ordered float64 array, as its
        pointer goes to LAPACK as it is: ValueError otherwise.
        """
        a = self.data if self.mode == "banded" else self.data[0]
        if a.dtype != np.float64 or not a.flags.f_contiguous:
            raise ValueError("LAPACK needs a Fortran-ordered float64 factor")
        n, one = _int_ref(self.dim), _int_ref(1)
        if self.mode == "banded":
            kd = a.shape[0] - 1
            return functools.partial(_DPBTRS, b"U", n, _int_ref(kd), one, a.ctypes.data, _int_ref(kd + 1)), n
        return functools.partial(_DPOTRS, b"L" if self.data[1] else b"U", n, one, a.ctypes.data, n), n


_PIVOT_RTOL = 1e-14


@functools.cache
def physical_memory_bytes() -> int | None:
    """Physical memory of the host, or None where the OS does not report it; read once."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError, AttributeError):
        return None


def _terms(m: SparseSymMatrix):
    """Per term of m: its CSR's upper-triangle entry numbers, their places in the CSR's band array, its band width
    bw and entries at bw (kept on the CSR when m is a view), and the values times the scale, times the coefficient."""
    for t, coeff in m._sum or ((m, 1.0),):
        full = t.base
        coords = getattr(full, "_msp_upper", None)
        if coords is None:
            row = np.repeat(np.arange(full.shape[0]), np.diff(full.indptr))
            k = np.flatnonzero(row <= full.indices)
            r, c = row[k], full.indices[k].astype(np.intp)
            bw = int((c - r).max(initial=0))
            coords = (k.astype(full.indices.dtype), bw * (c + 1) + r, bw, np.flatnonzero(c - r == bw))
            if m._sum or m.scale != 1.0:
                full._msp_upper = coords
        yield coords, full.data[coords[0]] * t.scale * coeff


def cholesky(m: SparseSymMatrix | DenseSymMatrix | np.ndarray) -> CholeskyFactor:
    """Factor an SPD matrix; raises NotPositiveDefinite on pivot failure.

    Dense storage gets a dense factor.  Sparse storage gets a banded one
    when its band width bw, read off its nonzero entries, has bw + 1 < n // 2,
    and a dense one otherwise.  A pivot l_ii is rejected when l_ii^2 is at
    most 1e-14 a_ii, its own initial diagonal entry, which flags semidefinite
    blocks that LAPACK would let pass with a tiny positive pivot.  Before
    allocating, the factor's entries are estimated, (bw + 1) n banded or
    n^2 dense; a factor whose bytes exceed the host's physical memory raises
    ValueError, and so does an inf or NaN entry.  The band is summed from the
    terms (`_terms`), or from the CSR where their far diagonal cancels or they
    may overflow.  LAPACK factors the band array built here, or the copy that
    `to_dense` makes (in Fortran order, which for a symmetric array is its
    transpose), in place: `m` is left as it is.  A bare array (exactly
    symmetric, C-ordered float64, held by no one else: a computed Schur
    stage) is taken over instead, and a dense factor overwrites it.
    """
    taken = isinstance(m, np.ndarray)
    if taken:
        m = DenseSymMatrix._trusted(m)
    n = m.dim
    if n == 0:
        return CholeskyFactor(0, "dense", (np.zeros((0, 0)), True))
    if isinstance(m, DenseSymMatrix):
        bw = n - 1  # a dense factor is full
        finite = math.isfinite(m._a.min()) and math.isfinite(m._a.max())  # no n x n flags
    else:
        terms = list(_terms(m))
        bw = max(c[2] for c, _ in terms)
        far = sum(np.bincount(pos[e] // (bw + 1), u[e], n) for (_, pos, tbw, e), u in terms if tbw == bw)
        big = np.max([np.abs(u).max(initial=0.0) for _, u in terms])  # NaN if any is
        if (m._sum or m.scale != 1.0) and not (far.any() and big < np.finfo(float).max / (2 * len(terms))):
            return cholesky(SparseSymMatrix._trusted(m.to_csr()))  # the far diagonal cancels, or it may overflow
        finite = bool(big < np.inf)
    banded = bw + 1 < n // 2
    need = 8 * ((bw + 1) * n if banded else n * n)
    have = physical_memory_bytes()
    if have is not None and need > have:
        raise ValueError(
            f"a {'banded' if banded else 'dense'} Cholesky factor of order {n} with band width {bw} "
            f"needs {need} bytes, more than the {have} bytes of physical memory"
        )
    if not finite:
        raise ValueError("array must not contain infs or NaNs")

    if banded:
        ab = np.zeros((bw + 1, n), order="F")
        flat = ab.ravel(order="F")  # a view: ab is Fortran-ordered
        for (_, pos, tbw, _), u in terms:  # a narrower term's places move to this band's columns pos // (tbw + 1)
            flat[pos if tbw == bw else pos + (bw - tbw) * (pos // (tbw + 1) + 1)] += u
        diagonal = ab[bw].copy()  # LAPACK overwrites it
        factor, info = lapack.dpbtrf(ab, overwrite_ab=1)
        if info > 0:
            raise NotPositiveDefinite(f"{info}-th leading minor not positive definite")
        tiny = bool((factor[bw] * factor[bw] <= _PIVOT_RTOL * diagonal).any())
        mode, data = "banded", factor
    else:
        a = m._a if taken else m.to_dense()
        diagonal = a.diagonal().tolist()
        c, info = lapack.dpotrf(a.T, lower=1, clean=1, overwrite_a=1)
        if info > 0:
            raise NotPositiveDefinite(f"{info}-th leading minor of the array is not positive definite")
        tiny = any(u * u <= _PIVOT_RTOL * d for u, d in zip(c.diagonal().tolist(), diagonal))
        mode, data = "dense", (c, True)
    if tiny:
        raise NotPositiveDefinite("pivot below tolerance; matrix is semidefinite")
    return CholeskyFactor(dim=n, mode=mode, data=data)


def solve_chol(f: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """Solve m x = b given a factor of m.  Accepts a vector or a matrix of rhs.

    The stored factor solves, and the result is divided by the factor's
    scale.  The factor is finite by construction (`cholesky` checks its
    input), so the solve does not re-scan it.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != f.dim:
        raise ValueError(f"rhs has dim {b.shape[0]}, factor has dim {f.dim}")
    if b.size == 0:
        return np.empty_like(b)
    if f.mode == "banded":
        x, _ = lapack.dpbtrs(f.data, b)
    else:
        c, lower = f.data
        x, _ = lapack.dpotrs(c, b, lower=lower)
    x /= f.scale
    return x


def solve_chol_nogil(f: CholeskyFactor, x: np.ndarray) -> None:
    """Overwrite the vector `x` with m^-1 x given a factor f of m, with the GIL released while LAPACK solves.

    The routine and the bits are `solve_chol`'s, called through scipy's
    `cython_lapack` by ctypes, so that two threads solve at once
    (`run.run_table`).  The call with the factor's own arguments is built on
    its first solve and kept with the factor.  `x` must be a writeable
    C-contiguous float64 vector of the factor's order: ValueError otherwise.
    """
    if x.dtype != np.float64 or x.shape != (f.dim,) or not (x.flags.c_contiguous and x.flags.writeable):
        raise ValueError(f"expected a writeable contiguous float64 vector of order {f.dim}")
    if f.dim:
        call, ldb = f._solve_call
        call(x.ctypes.data, ldb, ctypes.byref(ctypes.c_int()))
    x /= f.scale


def _cython_lapack(name: str, nargs: int):
    """scipy's `cython_lapack` routine `name` as a ctypes function of a character and nargs - 1 pointers.

    A ctypes call releases the GIL, which scipy's f2py wrappers hold.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    prototype = ctypes.CFUNCTYPE(None, ctypes.c_char_p, *[ctypes.c_void_p] * (nargs - 1))
    return prototype(get_pointer(capsule, get_name(capsule)))


_DPBTRS, _DPOTRS = _cython_lapack("dpbtrs", 9), _cython_lapack("dpotrs", 8)


def _int_ref(v: int):
    """A pointer to a fresh Fortran INTEGER holding v (the pointer keeps it alive)."""
    return ctypes.byref(ctypes.c_int(v))


def inverse_gram(f: CholeskyFactor, b) -> np.ndarray:
    """b' m^-1 b for a factor f of m, as an exactly symmetric C-ordered array.

    b (sparse or an array) is densified once; m^-1 b comes from the factor's
    solve and b' (m^-1 b) from one matrix product, which is averaged with
    its transpose in place.
    """
    b = b.toarray() if scipy.sparse.issparse(b) else np.asarray(b, dtype=np.float64)
    g = b.T @ solve_chol(f, b)
    g += g.T
    g *= 0.5
    return g


def mirror_upper(a: np.ndarray) -> np.ndarray:
    """Copy the upper triangle of the square `a` into its lower one, row by row, in place; returns `a`."""
    for i in range(1, a.shape[0]):
        a[i, :i] = a[:i, i]
    return a


def gen_sym_eig(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric a, ascending, read from its lower triangle.

    `a` is left as it is: LAPACK works on a copy.  A non-square array or an
    inf or NaN entry raises ValueError.
    """
    return sym_eig_overwrite(np.array(a, dtype=np.float64, order="F"))


def sym_eig_overwrite(a: np.ndarray) -> np.ndarray:
    """`gen_sym_eig` in the caller's buffer: a Fortran-ordered float64 `a` is
    LAPACK's workspace and is overwritten (any other is copied).

    `saddle.spectrum` passes the pencil (A, L L') already reduced by the
    preconditioner's own factors L, so only the standard problem is solved.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if a.size == 0:
        return np.zeros(0)
    if not (math.isfinite(a.min()) and math.isfinite(a.max())):  # no n x n flags: min and max propagate a NaN
        raise ValueError("array must not contain infs or NaNs")
    work, iwork, _ = lapack.dsyevr_lwork(a.shape[0], lower=1)
    w, _, _, _, info = lapack.dsyevr(a, compute_v=0, lower=1, lwork=int(work), liwork=iwork, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"dsyevr failed with info {info}")
    return w
