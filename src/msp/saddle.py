"""Block-tridiagonal saddle-point operators and Schur-complement preconditioning.

The operator has unsigned SPSD diagonal blocks A_1..A_n, couplings
B_1..B_{n-1}, and is assembled with alternating signs (+A_1, -A_2, +A_3, ...)
on the diagonal.  The block-diagonal preconditioner consists of the Schur
complements S_1 = A_1, S_{i+1} = A_{i+1} + B_i S_i^{-1} B_i'.  Spectral
analysis of the preconditioned operator certifies the closed-form bounds
from :mod:`msp.chebyshev`, including their sharpness when A_i = 0 for i >= 2.

`spectrum` solves L^{-1} A L^{-T} for the preconditioner's factors L.  Given
one that carries its builder's lead pattern T, it deflates blocks 1..n-1,
which are T ⊗ I_W, once a probe on random vectors upholds that premise
(LeadMismatch otherwise), and splits what is left along the singular values
of its coupling where a Weyl enclosure decides every printed digit and bound
check (`_deflated_eigenvalues`).  Without T (`verify`'s random systems, the
tests' oracle) the whole operator is solved dense.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np
import scipy.sparse
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dsygst, dtbtrs, dtrtrs

from .chebyshev import BoundSet, bounds, smallest_abs_root
from .sparselin import (
    CholeskyFactor,
    DenseSymMatrix,
    NotPositiveDefinite,
    SparseSymMatrix,
    cholesky,
    mirror_upper,
    solve_chol,
    sym_eig_overwrite,
)

# Largest order of a dense matrix: a densified Schur stage or a dense spectrum.
DENSE_MODE_LIMIT = 2000


class BlockTridiagSystem:
    """The n-block operator: diagonal blocks A_i (unsigned), couplings B_i.

    B_i maps block i into the dual of block i+1, i.e. it has shape
    (dim_{i+1}, dim_i).  A coupling given as an array (the small random
    test systems) or as CSR is kept as it is; any other is stored as CSR.
    `Bt`, when given, holds the transposes B_i' (builders pass the ones
    cached with their couplings); otherwise they are built on the first
    apply.
    """

    def __init__(
        self,
        A: list[SparseSymMatrix | DenseSymMatrix],
        B: list[scipy.sparse.spmatrix | np.ndarray],
        Bt: list[scipy.sparse.csr_matrix | np.ndarray] | None = None,
    ):
        if len(B) != len(A) - 1:
            raise ValueError("need n-1 couplings for n diagonal blocks")
        self.A = A
        kept = (np.ndarray, scipy.sparse.csr_matrix)
        self.B = [b if isinstance(b, kept) else scipy.sparse.csr_matrix(b) for b in B]
        self.block_dims = [a.dim for a in A]
        for i, b in enumerate(self.B):
            if b.shape != (self.block_dims[i + 1], self.block_dims[i]):
                raise ValueError(
                    f"B_{i + 1} has shape {b.shape}, expected "
                    f"({self.block_dims[i + 1]}, {self.block_dims[i]})"
                )
        self._slices = _slices(self.block_dims)
        if Bt is not None:
            self._bt = list(Bt)

    @property
    def n(self) -> int:
        return len(self.A)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    def block_slices(self) -> list[slice]:
        return list(self._slices)

    @cached_property
    def _bt(self) -> list[scipy.sparse.csr_matrix | np.ndarray]:
        """B_i', built on the first apply: CSR is faster than a transposed view per call."""
        return [b.T.tocsr() if scipy.sparse.issparse(b) else b.T for b in self.B]

    def apply(self, x: np.ndarray, lead: np.ndarray | None = None) -> np.ndarray:
        """The operator times x, block by block: (-1)^i A_i x_i + B_{i-1} x_{i-1} + B_i' x_{i+1}.

        `lead`, when given, is the product of the lead blocks (rows and
        columns 1..n-1) with x's lead part, formed by the caller: rows
        1..n-1 then only add B_{n-1}' x_n to it, and block n's row alone is
        multiplied in full.  Each block of the result is formed in place in
        the returned array.
        """
        xs = [x[s] for s in self._slices]
        y = np.empty(self.total_dim)
        rows = range(self.n)
        if lead is not None:
            y[: self._slices[-1].start] = lead
            y[self._slices[-2]] += self._bt[-1] @ xs[-1]
            rows = rows[-1:]
        for i in rows:
            yi = y[self._slices[i]]
            yi[:] = self.A[i].matvec(xs[i])
            if i % 2:
                np.negative(yi, out=yi)
            if i > 0:
                yi += self.B[i - 1] @ xs[i - 1]
            if i < self.n - 1:
                yi += self._bt[i] @ xs[i + 1]
        return y


def _slices(dims: list[int]) -> list[slice]:
    edges = [0, *accumulate(dims)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def assemble_full(sys: BlockTridiagSystem) -> SparseSymMatrix:
    """Assemble the full operator with the alternating-sign diagonal.

    Iterative callers use `sys.apply` and `spectrum` builds the dense
    operator directly; this sparse assembly serves the tests.
    """
    n = sys.n
    grid: list[list] = [[None] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = (-1.0) ** i * sys.A[i].to_csr()
    for i, b in enumerate(sys.B):
        grid[i + 1][i] = scipy.sparse.csr_matrix(b)
        grid[i][i + 1] = grid[i + 1][i].T
    return SparseSymMatrix(scipy.sparse.bmat(grid, format="csr"))


class SchurPreconditioner:
    """Block-diagonal SPD preconditioner P = diag(S_i), held as one Cholesky factor per block.

    `factors` (one entry per block) are used as they are; a block whose entry
    is None, or every one when `factors` is None, is factored from `blocks`,
    and an entry that is a function (a factorization started ahead,
    `sparselin.cholesky_ahead`) is called for its factor.
    `blocks` is kept as given: None when factors alone are passed (the exact
    Schur preconditioners).  Block orders come from the factors.

    A builder also passes its `system` and lead pattern `lead` = T: blocks
    1..n-1 of L^{-1} A L^{-T}, L the lead factors, are T ⊗ I_W, which
    `spectrum` deflates.  The lead factors are L_i = sqrt(s_i) L_0 at scales
    s_i, so blocks 1..n-1 of A P^{-1} are E ⊗ I_W, E_ij = T_ij sqrt(s_i / s_j),
    from which the MINRES hooks skip work (under a T of several rows, lead
    factors not sharing one `data` array raise ValueError after the tiling
    check).  `check_system` checks shapes only: `spectrum` probes T, and
    MINRES confirms every convergence.
    """

    def __init__(
        self,
        blocks: list[SparseSymMatrix | DenseSymMatrix] | None = None,
        factors: list[CholeskyFactor | Callable[[], CholeskyFactor] | None] | None = None,
        *,
        system: BlockTridiagSystem | None = None,
        lead: np.ndarray | None = None,
    ):
        if blocks is not None and factors is not None and len(factors) != len(blocks):
            raise ValueError(f"{len(factors)} factors given for {len(blocks)} blocks")
        if lead is not None and system is None:
            raise ValueError("a lead pattern needs its system")
        self.blocks = blocks
        self.factors = list(factors) if factors is not None else [None] * len(blocks)
        for i, f in enumerate(self.factors):
            if not isinstance(f, CholeskyFactor):
                try:
                    self.factors[i] = cholesky(blocks[i]) if f is None else f()
                except NotPositiveDefinite as exc:
                    raise NotPositiveDefinite(f"block {i + 1} is not SPD: {exc}") from exc
        self.block_dims = [f.dim for f in self.factors]
        self._slices = _slices(self.block_dims)
        self.system, self.lead = system, lead
        if system is not None:
            self.check_system(system)
        if lead is not None and len(lead) > 1 and len({id(f.data) for f in self.factors[: len(lead)]}) > 1:
            raise ValueError("the lead factors must be one stored factor at scales, from which E is read")

    def check_system(self, sys: BlockTridiagSystem) -> None:
        """ValueError unless every block of `sys` starts at a block, the last blocks are one,
        and T, when held, has order n-1 over lead system blocks of one order W."""
        slices = sys.block_slices()
        if self._slices[-1] != slices[-1] or not {s.start for s in slices} <= {s.start for s in self._slices}:
            raise ValueError(f"the preconditioner's blocks {self.block_dims} do not tile the system's {sys.block_dims}")
        dims = sys.block_dims[:-1]
        if self.lead is not None and (self.lead.shape != (len(dims),) * 2 or len(set(dims)) != 1):
            raise ValueError(f"blocks of orders {dims} cannot be T ⊗ I_W for T of shape {self.lead.shape}")

    def apply_inverse(self, r: np.ndarray, start: int = 0) -> np.ndarray:
        """P^{-1} r, one factor solve per block slice of r's rows.

        With `start`, only the blocks holding rows start.. are solved; the
        rows of the blocks before are left unset (MINRES given a `head`
        forms them itself).  An r of another order raises ValueError.
        """
        if len(r) != self._slices[-1].stop:
            raise ValueError(f"r has {len(r)} rows, the preconditioner's order is {self._slices[-1].stop}")
        out = np.empty_like(r)
        for f, s in zip(self.factors, self._slices):
            if s.stop > start:
                out[s] = solve_chol(f, r[s])
        return out

    @cached_property
    def _lead_product(self) -> np.ndarray:
        """E, the pattern of blocks 1..n-1 of A P^{-1}; with one lead block E = T whatever its factors."""
        s = np.array([f.scale for f in self.factors[: len(self.lead)]])
        return self.lead * np.sqrt(np.divide.outer(s, s))

    def apply_preconditioned(self, v: np.ndarray, r: np.ndarray, beta: float) -> np.ndarray:
        """A v for v = P^{-1} r / beta, MINRES's `product` hook: the lead rows take (E ⊗ I) r / beta.

        Only the couplings to the last block and its row are multiplied
        (`BlockTridiagSystem.apply` with `lead`), so the products with M
        (three-block) or diag(M, alpha X) (two-block) go.  As the lead solves
        count as exact, it differs from `system.apply(v)` by below 1e-13
        relative at p <= 3, 2e-11 at 3D p=5 L2 and 2e-7 at 3D p=7 L1.
        """
        e = self._lead_product
        lead = (e @ r[: self._slices[-1].start].reshape(len(e), -1)).ravel()
        lead /= beta
        return self.system.apply(v, lead)

    def preconditioned_head(self, v: np.ndarray) -> np.ndarray:
        """Rows of blocks 1..n-2 of P^{-1} A v, MINRES's `head` hook: (E' ⊗ I) v, with no solve.

        No row there couples to block n, and P_lead^{-1} (E ⊗ I) P_lead =
        E' ⊗ I: v_1 + v_2 / alpha for the three-block problems, no rows for
        the two-block ones.
        """
        e = self._lead_product
        return (e.T[: len(e) - 1] @ v[: self._slices[-1].start].reshape(len(e), -1)).ravel()


def _dense_operator(sys: BlockTridiagSystem) -> np.ndarray:
    """The full operator as an array, entry for entry `assemble_full(sys).to_dense()`.

    Each A_i is added in its place from its stored form and each coupling
    written as its dense form, its transpose by copy.  A -A_i block is
    subtracted from 0.0, so no zero turns into -0.0.
    """
    full = np.zeros((sys.total_dim, sys.total_dim))
    slices = sys.block_slices()
    for i, s in enumerate(slices):
        sys.A[i].add_to(full[s, s])
        if i % 2:
            np.subtract(0.0, full[s, s], out=full[s, s])
        if i > 0:
            prev, b = slices[i - 1], sys.B[i - 1]
            full[s, prev] = b.toarray() if scipy.sparse.issparse(b) else b
            full[prev, s] = full[s, prev].T
    return full


def exact_schur(sys: BlockTridiagSystem) -> SchurPreconditioner:
    """Build the exact Schur-complement preconditioner by the dense recursion.

    S_1 = A_1, S_{i+1} = A_{i+1} + B_i S_i^{-1} B_i' (the A_i read, not copied),
    each stage averaged with its transpose and factored in its own buffer.  A
    stage of order above DENSE_MODE_LIMIT raises ValueError before it is
    densified; a stage that is not SPD raises NotPositiveDefinite naming it.
    """
    factors = []
    for i, a in enumerate(sys.A):
        check_stage_order(i + 1, a.dim)
        if i == 0:
            s = a.to_dense()
        else:
            b = sys.B[i - 1]
            b = b.toarray() if scipy.sparse.issparse(b) else b
            s = b @ solve_chol(factors[-1], b.T)
            a.add_to(s)
        s += s.T
        s *= 0.5
        factors.append(factor_stage(i + 1, s))
    return SchurPreconditioner(factors=factors)


def check_stage_order(i: int, dim: int) -> None:
    """Refuse a dense Schur stage S_i of order `dim` above DENSE_MODE_LIMIT (ValueError)."""
    if dim > DENSE_MODE_LIMIT:
        raise ValueError(
            f"Schur complement S_{i} has order {dim}, above the dense "
            f"limit {DENSE_MODE_LIMIT}; use the practical preconditioner"
        )


def factor_stage(i: int, s: np.ndarray | Callable[[], CholeskyFactor]) -> CholeskyFactor:
    """The factor of S_i from its exactly symmetric array `s`, taken over and overwritten, or `s()` where `s` is the
    function that finishes a factorization started ahead (`sparselin.cholesky_ahead`); NotPositiveDefinite names S_i."""
    try:
        return cholesky(s) if isinstance(s, np.ndarray) else s()
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(f"Schur complement S_{i} is not SPD: {exc}") from exc


@dataclass
class SpectrumReport:
    """Spectrum of the pencil (full operator, applied preconditioner) with bound check."""

    eigenvalues: np.ndarray
    norm: float
    inv_norm: float
    cond: float
    bound_set: BoundSet
    radius: float = 0.0  # half-width of the enclosure of a split spectrum; 0.0 where an eigenproblem was solved dense
    method: str = "dense"  # "split", "deflated" (its dense fallback) or "dense" (the whole operator)

    @property
    def within_bounds(self) -> bool:
        """The norm and the inverse norm within their closed-form bounds, up to BOUND_SLACK."""
        return not any(_exceeds(self.bound_set, self.norm, self.inv_norm, self.cond)[:2])

    @property
    def cond_exceeds_bound(self) -> bool:
        """kappa above the closed-form bound beyond BOUND_SLACK: for the exact preconditioner, a violation."""
        return _exceeds(self.bound_set, self.norm, self.inv_norm, self.cond)[2]

    @property
    def lines(self) -> tuple[str, str]:
        """The two lines `cli.cmd_spectrum` prints of this spectrum."""
        ev = self.eigenvalues
        return _lines(self.bound_set, ev.min(), ev.max(), np.min(np.abs(ev)), self.cond)


# Relative slack on the closed-form bounds when a computed spectrum is judged.
BOUND_SLACK = 1e-10

# Decimals of min and max lambda, min |lambda| and kappa in a spectrum's
# printed lines (`_lines`): a split spectrum must keep each of them.
PRINTED_DECIMALS = 6


def _exceeds(bs: BoundSet, norm: float, inv: float, cond: float) -> tuple[bool, bool, bool]:
    """Whether the norm, the inverse norm and kappa each exceed their closed-form bound beyond BOUND_SLACK, as bools."""
    slack = 1 + BOUND_SLACK
    return bool(norm > bs.norm_bound * slack), bool(inv > bs.inv_norm_bound * slack), bool(cond > bs.cond_bound * slack)


def _lines(bs: BoundSet, lo: float, hi: float, bottom: float, cond: float) -> tuple[str, str]:
    """The printed lines of a spectrum: min and max lambda, min |lambda| and kappa against the bound."""
    d = PRINTED_DECIMALS
    return (
        f"lambda in [{lo:.{d}f}, {hi:.{d}f}], min|lambda| = {bottom:.{d}f}",
        f"kappa = {cond:.{d}f}  (bound for n={bs.n}: {bs.cond_bound:.6f})",
    )


def _report(ev: np.ndarray, n: int) -> SpectrumReport:
    """The report on the eigenvalues `ev` of an n-block operator: its extremes judged against the bounds."""
    mag = np.abs(ev)
    nrm, inv = float(mag.max()), float(1.0 / mag.min())
    return SpectrumReport(eigenvalues=ev, norm=nrm, inv_norm=inv, cond=nrm * inv, bound_set=bounds(n))


class LeadMismatch(Exception):
    """The preconditioned operator's lead blocks are not the structure declared for them."""


# Largest relative residual of a lead-structure probe.
LEAD_PROBE_TOL = 1e-12

# Largest radius, relative to max |lambda|, at which a split spectrum stands
# in for the dense one: its eigenvalues then lie this close to the dense ones.
SPLIT_RTOL = 1e-12


def _congruence(a: np.ndarray, li: np.ndarray, lj: np.ndarray | None = None) -> np.ndarray:
    """L_i^{-1} a L_j^{-T}; with lj None, a is symmetric, L_j = L_i and a may serve as LAPACK's workspace.

    A symmetric block comes from dsygst (lower triangle) and is mirrored, so
    it is exactly symmetric; a coupling block from two dtrsm calls.
    """
    if lj is None:
        # a is symmetric: its transpose is the Fortran-ordered operand; x' is
        # C-ordered with x's lower triangle as its upper
        x, _ = dsygst(a.T, li, lower=1, overwrite_a=1)
        return mirror_upper(x.T)
    x = dtrsm(1.0, li, a, lower=1)
    return dtrsm(1.0, lj, x, side=1, lower=1, trans_a=1, overwrite_b=1)


def _reduced_operator(sys: BlockTridiagSystem, precond: SchurPreconditioner) -> np.ndarray:
    """L^{-1} A L^{-T} for the preconditioner's factors L = diag(L_i), exactly symmetric.

    C_ij = L_i^{-1} A_ij L_j^{-T} over the preconditioner's blocks (which may
    split a system block) for j <= i, mirrored into C_ji.  Zero blocks of A
    are skipped: unscanned where their system blocks are two or more apart.
    """
    c = _dense_operator(sys)
    starts = [s.start for s in sys.block_slices()]
    blocks = [(f.lower(), s, bisect_right(starts, s.start)) for f, s in zip(precond.factors, precond._slices)]
    for i, (li, ri, bi) in enumerate(blocks):
        for lj, rj, bj in blocks[: i + 1]:
            if bi - bj > 1 or not np.count_nonzero(a := c[ri, rj]):
                continue
            x = _congruence(a, li, None if ri == rj else lj)
            a[...] = x
            if ri != rj:
                c[rj, ri] = x.T
            del x  # before the next block's solve allocates its own
    return c


def _deflated_eigenvalues(sys: BlockTridiagSystem, precond: SchurPreconditioner) -> tuple[np.ndarray, float]:
    """Eigenvalues of L^{-1} A L^{-T} whose blocks 1..n-1 are T ⊗ I_W, by deflation, and their radius.

    T = `precond.lead` has order n-1, each lead system block the order W, and
    the last preconditioner block is the last system block, of order m.
    Only block n-1 couples to block n, through Y = L_{n-1}^{-1} B_{n-1}'
    L_n^{-T} (W x m, over the preconditioner blocks that tile block n-1).
    With the thin QR Y = QR (R is k x m, k = min(W, m)), the operator splits
    into the eigenvalues of T, each W - k times, and those of the symmetric
    H = [[T ⊗ I_k, e_{n-1} ⊗ R], [., C]] of order (n-1)k + m, with
    C = (-1)^{n-1} L_n^{-1} A_n L_n^{-T}.  Nothing is assumed of L_n: H's
    eigenvalues are taken from the split of H_0, H with C replaced by C_0
    (`_split_eigenvalues`, which needs only Y), when its enclosure decides
    every printed digit and verdict (`_enclosure_decides`), and from H
    itself, solved dense, otherwise; R is formed for that H alone.  The
    radius is the enclosure's half-width, 0.0 when H was solved.  The
    premise is probed: LeadMismatch when it fails.
    """
    n, t = sys.n, precond.lead
    w, m = sys.block_dims[0], sys.block_dims[-1]
    start = (n - 2) * w  # the first row of block n-1
    lead = list(zip(precond.factors[:-1], precond._slices[:-1]))
    _probe_lead(sys, lead, t)
    ln = precond.factors[-1].lower()
    b = sys.B[-1]
    b = b.toarray() if scipy.sparse.issparse(b) else b
    # Y' per lead factor of block n-1 (only these are expanded), formed as `_reduced_operator` does: it rounds alike
    yt = np.empty((m, w))
    for f, s in lead:
        if s.start >= start:
            cols = slice(s.start - start, s.stop - start)
            yt[:, cols] = _congruence(b[:, cols], ln, f.lower())
    del b  # before the last block's arrays are allocated
    c = np.zeros((m, m))
    sys.A[-1].add_to(c)
    if (n - 1) % 2:
        np.subtract(0.0, c, out=c)
    if c.any():
        c = _congruence(c, ln)
    k = min(w, m)
    lead_ev = np.repeat(np.linalg.eigvalsh(t), w - k)
    ev, radius = _split_eigenvalues(t, yt, c)
    if ev is not None:
        ev = np.sort(np.concatenate([ev, lead_ev]))
        if _enclosure_decides(ev, radius, n):
            return ev, radius
    r = np.linalg.qr(yt.T, mode="r")
    del yt
    h = np.zeros(((n - 1) * k + m,) * 2)
    diag = np.arange(k)
    for (i, j), tij in np.ndenumerate(t):
        h[i * k + diag, j * k + diag] = tij
    h[(n - 2) * k : (n - 1) * k, (n - 1) * k :] = r
    h[(n - 1) * k :, (n - 2) * k : (n - 1) * k] = r.T
    h[(n - 1) * k :, (n - 1) * k :] = c
    del r, c
    # h is exactly symmetric: its transpose is a Fortran view of the same buffer
    ev = np.concatenate([sym_eig_overwrite(h.T), lead_ev])
    ev.sort()
    return ev, 0.0


def _split_eigenvalues(t: np.ndarray, yt: np.ndarray, c: np.ndarray) -> tuple[np.ndarray | None, float]:
    """The eigenvalues of H_0 = [[T ⊗ I_k, e_{n-1} ⊗ R], [., C_0]] and the radius of their enclosure of H's.

    `yt` is Y' (m x W), k = min(W, m) and Y = QR.  R is not formed: H_0's
    blocks need only G = Y'Y, which is R'R in exact arithmetic, and
    ||R||_F = ||Y||_F.  None in place of the eigenvalues, and ||E||_F
    alone, when ||E||_F exceeds SPLIT_RTOL times a bound on max|λ|: then no
    split can stand (`_enclosure_decides`), and its eigensolves are skipped.

    C_0 is 0 when C is zero, that is, when A_n stores no entry; otherwise
    it is s(I - G), s = (-1)^{n-1}, which is C at an exact last stage,
    where S_n = A_n + B_{n-1} S_{n-1}^{-1} B_{n-1}' gives C + s R'R = s I.
    Along R's singular vectors H_0 splits into one block
    [[T, σ e_{n-1}], [σ e_{n-1}', c_0(σ^2)]] of order n per singular value
    σ of R, with c_0(g) = 0 or s(1 - g), and c_0(0) once for each of the
    m - k directions R maps to zero.  The σ^2 are the k largest eigenvalues
    of G.  A block's characteristic polynomial, (c_0 - λ) det(T - λ)
    - σ^2 det(T' - λ) with T' the leading n-2 rows and columns of T,
    depends on σ^2 alone, so G's rounding moves the eigenvalues by no more
    than it moves σ^2.

    By Weyl's theorem each eigenvalue of H lies within ||E||_2 <= ||E||_F
    of the same-ranked one of H_0, E = C - C_0.  The radius is ||E||_F
    plus a rounding allowance of 4 N eps max|λ|, N = (n-1)k + m the order
    of H.  It covers the backward errors of both eigensolvers, this
    split's and the dense one of H (LAPACK's p(N) eps ||H||), so that the
    dense eigenvalues lie in the enclosure too, and the rounding of G and
    E as formed from Y and C: G's entries sum W products each (about
    sqrt(W) u |G_ij| with random-walk error growth, as far from the R'R
    of H's backward-stable QR), and at 2D p=2 level 4 sqrt(W) <= 26
    against 4 N >= 2048.
    """
    n, m, k = len(t) + 1, len(yt), min(yt.shape)
    s = (-1.0) ** (n - 1)
    g = yt @ yt.T  # one syrk: exactly symmetric
    stage, deviation = c.any(), 0.0
    if stage:
        e = s * g + c  # E = C - s(I - G)
        e[np.diag_indices(m)] -= s
        deviation = np.linalg.norm(e)
        del e
    # max|λ| <= ||H_0||_2 <= ||T||_F + ||R||_F + ||C||_F + ||E||_F, ||R||_F = ||Y||_F
    if deviation > SPLIT_RTOL * (np.linalg.norm(t) + np.linalg.norm(yt) + np.linalg.norm(c) + deviation):
        return None, deviation
    sq = np.maximum(np.linalg.eigvalsh(g)[m - k :], 0.0)  # the other m - k are R's null space
    blocks = np.zeros((k, n, n))
    blocks[:, : n - 1, : n - 1] = t
    blocks[:, n - 2, n - 1] = blocks[:, n - 1, n - 2] = np.sqrt(sq)
    blocks[:, n - 1, n - 1] = s * (1.0 - sq) if stage else 0.0
    ev = np.concatenate([np.linalg.eigvalsh(blocks).ravel(), np.full(m - k, s if stage else 0.0)])
    return ev, deviation + 4 * ((n - 1) * k + m) * np.finfo(np.float64).eps * np.max(np.abs(ev))


def _enclosure_decides(ev: np.ndarray, radius: float, n: int) -> bool:
    """Whether every eigenvalue within `radius` of the sorted `ev` prints and judges as `ev` does.

    The radius must be at most SPLIT_RTOL max|λ| and below min|λ|.  The
    printed lines (`_lines`) and the three bound checks (`_exceeds`) must be
    the same at the low and the high end of each value's enclosure: each
    printed value and each checked one is monotone in the ends, so equal
    outcomes at both ends decide it.  κ's enclosure and the inverse norm's
    are widened by 4 ulps for the rounding of their quotients and product.
    """
    lo, hi = ev[0], ev[-1]
    top, bottom = max(-lo, hi), float(np.min(np.abs(ev)))
    if not (bottom > radius and radius <= SPLIT_RTOL * top):
        return False
    w, bs = 1.0 + 4 * np.finfo(np.float64).eps, bounds(n)

    def end(r: float, widen) -> tuple:
        """The printed lines and the bound checks at the end r (-radius or radius) of each enclosure."""
        kappa, inv = widen((top + r) / (bottom - r)), widen(1.0 / (bottom - r))
        return _lines(bs, lo + r, hi + r, bottom + r, kappa), _exceeds(bs, top + r, inv, kappa)

    return end(-radius, lambda x: x / w) == end(radius, lambda x: x * w)


def _triangular_solve(f: CholeskyFactor, v: np.ndarray, trans: int) -> np.ndarray:
    """L^{-1} v (trans 0) or L^{-T} v (trans 1) for the factor L of `f`, solved on the stored band of U,
    L = sqrt(scale) U', by dtbtrs, or on the stored dense L / sqrt(scale) by dtrtrs."""
    banded = f.mode == "banded"
    x, _ = dtbtrs(f.data, v, trans=("T", "N")[trans]) if banded else dtrtrs(f.data[0], v, lower=1, trans=trans)
    x /= np.sqrt(f.scale)
    return x


def _probe_lead(sys: BlockTridiagSystem, lead: list[tuple[CholeskyFactor, slice]], t: np.ndarray) -> float:
    """Check ||C_lead z - (T ⊗ I) z|| <= LEAD_PROBE_TOL ||z|| on two random z; LeadMismatch otherwise,
    else the larger relative residual.

    C_lead z = L^{-1} A_lead L^{-T} z is formed by the lead factors'
    triangular solves around `sys.apply` (the last block's input zero), on
    the factors as stored.  By Weyl's theorem, taking C_lead as T ⊗ I then
    moves no eigenvalue by more than ||C_lead - T ⊗ I||_2.
    """
    size = lead[-1][1].stop
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(2):
        z = rng.standard_normal(size)
        x = np.zeros(sys.total_dim)
        for f, s in lead:
            x[s] = _triangular_solve(f, z[s], 1)
        y = sys.apply(x)
        for f, s in lead:
            y[s] = _triangular_solve(f, y[s], 0)
        res = np.linalg.norm(y[:size] - (t @ z.reshape(len(t), -1)).ravel())
        if not res <= LEAD_PROBE_TOL * np.linalg.norm(z):
            raise LeadMismatch(
                f"the preconditioned lead blocks are not T ⊗ I: a random probe leaves "
                f"a relative residual {res / np.linalg.norm(z):.1e}, above {LEAD_PROBE_TOL:.0e}"
            )
        worst = max(worst, res / np.linalg.norm(z))
    return worst


def spectrum(sys: BlockTridiagSystem, precond: SchurPreconditioner, dense_limit: int = DENSE_MODE_LIMIT) -> SpectrumReport:
    """Eigenvalues of the pencil (A, L L'), checked against the bounds.

    L = diag(L_i) holds the preconditioner's own factors, the ones MINRES
    applies (a scaled factor included).  The pencil is reduced with them to
    the standard eigenproblem of L^{-1} A L^{-T}: no dense P is formed and
    no generalized eigensolver is called.  `precond` must tile `sys`
    (`SchurPreconditioner.check_system`).  Without a lead pattern on
    `precond`, that operator is formed whole and solved dense.  With
    `precond.lead` = T, its blocks 1..n-1 are declared to be T ⊗ I_W: this
    is probed, and only the order-(n-1)k + m part H left by deflating them
    is solved (`_deflated_eigenvalues`): by one block of order n per
    singular value of its coupling where the enclosure of H's spectrum
    around theirs decides every printed value and bound check, dense
    otherwise.  The report's `method` names the path ("split", "deflated"
    or "dense") and `radius` the enclosure's half-width (0.0 on a dense
    path).  A system with an empty block is refused before any eigensolve.
    """
    if sys.total_dim > dense_limit:
        raise ValueError(f"total dim {sys.total_dim} exceeds dense-mode limit {dense_limit}")
    if 0 in sys.block_dims:
        raise ValueError(f"block {sys.block_dims.index(0) + 1} of the system is empty: it has no spectrum to bound")
    precond.check_system(sys)
    if precond.lead is not None:
        ev, radius = _deflated_eigenvalues(sys, precond)
        rep = _report(ev, sys.n)
        rep.radius, rep.method = radius, "split" if radius else "deflated"
        return rep
    # The reduced operator is exactly symmetric, so its transpose, a Fortran
    # view of the same buffer, has the same lower triangle in LAPACK's order;
    # the eigensolver works in that buffer, not in a copy.
    return _report(sym_eig_overwrite(_reduced_operator(sys, precond).T), sys.n)


def random_sharp_system(n: int, rng: np.random.Generator, block_dim: int | None = None) -> BlockTridiagSystem:
    """Random system with A_i = 0 for i >= 2 and square invertible couplings.

    This is the configuration for which the spectrum of the preconditioned
    operator is exactly the union of the root sets of Pbar_1..Pbar_n, so that
    all bounds are attained.
    """
    m = int(block_dim) if block_dim else int(rng.integers(2, 7))
    # Well-conditioned random data (orthogonal couplings, eigenvalues of A_1
    # in [1/2, 2]) so attained extremal eigenvalues match the closed forms to
    # near machine precision even for larger n.
    # Draw A_1's matrix, its eigenvalues, then the couplings; one stacked QR
    # runs each matrix's own LAPACK factorization, so every bit is as from n QRs.
    g = rng.standard_normal((m, m))
    lam = rng.uniform(0.5, 2.0, m)
    q, r = np.linalg.qr(np.concatenate((g[None], rng.standard_normal((n - 1, m, m)))))
    a1 = DenseSymMatrix.from_upper(q[0] @ np.diag(lam) @ q[0].T)
    zeros = [DenseSymMatrix._trusted(np.zeros((m, m))) for _ in range(n - 1)]
    B = list(q[1:] * np.sign(np.diagonal(r[1:], axis1=1, axis2=2))[:, None, :])
    return BlockTridiagSystem([a1] + zeros, B)


def random_spsd_system(n: int, rng: np.random.Generator) -> BlockTridiagSystem:
    """Random system with SPD A_1, rank-deficiency-allowed SPSD A_i, rectangular B_i."""
    dims = sorted((int(rng.integers(2, 7)) for _ in range(n)), reverse=True)
    g = rng.standard_normal((dims[0], dims[0]))
    A = [DenseSymMatrix.from_upper(g.T @ g + 0.1 * np.eye(dims[0]))]
    for i in range(1, n):
        rank = int(rng.integers(0, dims[i] + 1))
        h = rng.standard_normal((rank, dims[i]))
        A.append(DenseSymMatrix.from_upper(h.T @ h))
    # Non-increasing dims and full-row-rank couplings (`matrix_rank`'s test: its singular values, its tolerance)
    # keep every Schur complement in the recursion positive definite even when A_i is singular.
    B = []
    for i in range(n - 1):
        b = rng.standard_normal((dims[i + 1], dims[i]))
        while (s := np.linalg.svd(b, compute_uv=False))[-1] <= s[0] * (dims[i] * np.finfo(np.float64).eps):
            b = rng.standard_normal((dims[i + 1], dims[i]))
        B.append(b)
    return BlockTridiagSystem(A, B)


@dataclass
class SharpnessReport:
    """Outcome of the randomized sharpness and bound certification suites."""

    n: int
    trials: int
    seed: int
    max_norm_deviation: float = 0.0
    max_inv_norm_deviation: float = 0.0
    max_cond_excess: float = 0.0  # max over trials of cond - cond_bound (general SPSD suite)
    failing_seeds: list[int] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failing_seeds


SHARPNESS_TOL = 1e-8


def verify_sharpness(n: int, trials: int, seed: int) -> SharpnessReport:
    """Randomized certification of the sharp spectral bounds for block count n.

    Runs two suites: systems with A_i = 0 (i >= 2) whose extreme eigenvalue
    moduli must attain the closed-form bounds to 1e-8, and general SPSD
    systems whose condition number must stay below the closed-form bound.
    """
    if not 2 <= n <= 6:
        raise ValueError("n must be in [2, 6]")
    report = SharpnessReport(n=n, trials=trials, seed=seed)
    bs = bounds(n)
    min_modulus = smallest_abs_root(n)
    for t in range(trials):
        trial_seed = seed + t
        rng = np.random.default_rng(trial_seed)
        sys_sharp = random_sharp_system(n, rng)
        rep = spectrum(sys_sharp, exact_schur(sys_sharp))
        dev_norm = abs(rep.norm - bs.norm_bound)
        dev_inv = abs(1.0 / rep.inv_norm - min_modulus)
        report.max_norm_deviation = max(report.max_norm_deviation, dev_norm)
        report.max_inv_norm_deviation = max(report.max_inv_norm_deviation, dev_inv)
        ok = dev_norm <= SHARPNESS_TOL and dev_inv <= SHARPNESS_TOL

        sys_gen = random_spsd_system(n, rng)
        rep_gen = spectrum(sys_gen, exact_schur(sys_gen))
        report.max_cond_excess = max(report.max_cond_excess, rep_gen.cond - bs.cond_bound)
        ok = ok and rep_gen.within_bounds

        if not ok:
            report.failing_seeds.append(trial_seed)
    return report
