"""Symmetric sparse storage, Cholesky solves, and dense symmetric eigensolvers.

Thin, contract-carrying layer over scipy/LAPACK.  A symmetric matrix is
stored as its full CSR in canonical form (duplicates summed, column indices
sorted, no explicit zeros); producers hand over the full matrix and the
constructor checks that it is exactly symmetric.  Factorization permutes
with reverse Cuthill-McKee and runs a banded Cholesky when the band is
narrow, falling back to a dense factorization otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee


class NotPositiveDefinite(Exception):
    """A Cholesky pivot failed; the matrix is indefinite or semidefinite."""


class SparseSymMatrix:
    """Sparse symmetric matrix stored as its full canonical CSR."""

    def __init__(self, a):
        """Store a copy of the full matrix `a`; ValueError unless square and exactly symmetric."""
        full = scipy.sparse.csr_matrix(a, copy=True)
        if full.shape[0] != full.shape[1]:
            raise ValueError("matrix must be square")
        full.sum_duplicates()
        full.eliminate_zeros()
        if (full != full.T).nnz:
            raise ValueError("matrix must be symmetric")
        self._full = full

    @classmethod
    def from_triplets(cls, dim: int, rows, cols, vals) -> "SparseSymMatrix":
        """Assemble from coordinate triplets; duplicates are summed.

        Entries may be given in either triangle: each off-diagonal entry
        (i, j, v) adds v at both (i, j) and (j, i).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        r = np.minimum(rows, cols)
        c = np.maximum(rows, cols)
        upper = scipy.sparse.coo_matrix((vals, (r, c)), shape=(dim, dim)).tocsr()
        return cls(upper + scipy.sparse.triu(upper, k=1).T)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseSymMatrix":
        """The symmetric matrix with the upper triangle of the array `a` (its lower one is ignored)."""
        a = np.asarray(a, dtype=np.float64)
        return cls(scipy.sparse.csr_matrix(np.triu(a) + np.triu(a, k=1).T))

    @property
    def dim(self) -> int:
        return self._full.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._full @ x

    def to_csr(self) -> scipy.sparse.csr_matrix:
        """The stored full canonical CSR (shared, not copied)."""
        return self._full

    def to_dense(self) -> np.ndarray:
        return self._full.toarray()

    def scaled(self, alpha: float) -> "SparseSymMatrix":
        return SparseSymMatrix(self._full * alpha)

    def add(self, other: "SparseSymMatrix", beta: float = 1.0) -> "SparseSymMatrix":
        return SparseSymMatrix(self._full + beta * other._full)


@dataclass
class CholeskyFactor:
    """Cholesky factorization of an SPD SparseSymMatrix (RCM-permuted)."""

    dim: int
    perm: np.ndarray
    mode: str  # "banded" or "dense"
    data: object  # banded factor array or (dense factor, lower) pair


_PIVOT_RTOL = 1e-14


def cholesky(m: SparseSymMatrix) -> CholeskyFactor:
    """Factor an SPD matrix; raises NotPositiveDefinite on pivot failure.

    A pivot is rejected when it is below 1e-14 times the largest initial
    diagonal entry, which flags semidefinite blocks that LAPACK would
    let pass with a tiny positive pivot.
    """
    full = m.to_csr()
    n = m.dim
    if n == 0:
        return CholeskyFactor(0, np.arange(0), "dense", (np.zeros((0, 0)), True))
    perm = np.asarray(reverse_cuthill_mckee(full, symmetric_mode=True))
    pm = full[perm][:, perm].tocoo()
    bw = int(np.max(np.abs(pm.row - pm.col))) if pm.nnz else 0
    diag_max = float(np.max(np.abs(full.diagonal()))) if n else 0.0
    pivot_floor = _PIVOT_RTOL * diag_max

    try:
        if bw + 1 < n // 2:
            ab = np.zeros((bw + 1, n))
            mask = pm.row <= pm.col
            r, c, v = pm.row[mask], pm.col[mask], pm.data[mask]
            ab[bw + r - c, c] = v
            factor = scipy.linalg.cholesky_banded(ab, lower=False)
            pivots = factor[bw]
            mode, data = "banded", factor
        else:
            dense = pm.toarray()
            c, low = scipy.linalg.cho_factor(dense, lower=True)
            pivots = np.diag(c)
            mode, data = "dense", (c, low)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    if np.min(pivots**2) <= pivot_floor:
        raise NotPositiveDefinite("pivot below tolerance; matrix is semidefinite")
    return CholeskyFactor(dim=n, perm=perm, mode=mode, data=data)


def solve_chol(f: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """Solve m x = b given a factor of m.  Accepts a vector or a matrix of rhs."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != f.dim:
        raise ValueError(f"rhs has dim {b.shape[0]}, factor has dim {f.dim}")
    pb = b[f.perm]
    if f.mode == "banded":
        px = scipy.linalg.cho_solve_banded((f.data, False), pb)
    else:
        px = scipy.linalg.cho_solve(f.data, pb)
    x = np.empty_like(px)
    x[f.perm] = px
    return x


def sym_eig_dense(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a dense symmetric matrix, eigenvalues ascending."""
    m = np.asarray(m, dtype=np.float64)
    scale = np.max(np.abs(m)) if m.size else 0.0
    if scale and np.max(np.abs(m - m.T)) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    return scipy.linalg.eigh(m)


def gen_sym_eig(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Eigenvalues of a x = lambda s x with symmetric a and SPD s, ascending.

    Reduces via the Cholesky factor of s (LAPACK's standard reduction).
    """
    if isinstance(a, SparseSymMatrix):
        a = a.to_dense()
    if isinstance(s, SparseSymMatrix):
        s = s.to_dense()
    a = np.asarray(a, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    try:
        return scipy.linalg.eigh(a, s, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def write_matrix_market(m: SparseSymMatrix, path) -> None:
    """Export as Matrix Market coordinate symmetric (lower-triangle entries)."""
    lower = scipy.sparse.tril(m.to_csr()).tocoo()
    scipy.io.mmwrite(path, lower, symmetry="symmetric")


def read_matrix_market(path) -> SparseSymMatrix:
    """Import a Matrix Market file; raises ValueError unless it is symmetric."""
    return SparseSymMatrix(scipy.io.mmread(path))
