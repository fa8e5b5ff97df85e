"""Builders for the discretized optimal-control optimality systems.

Each builder produces a block-tridiagonal system, its right-hand side, and
the sparse ("practical") block-diagonal preconditioner; the exact
Schur-complement preconditioner densifies only the last block.  All
problems use equal-order tensor-product spline spaces of maximal smoothness
k = p-1, with the zero-trace state space realized by dropping boundary
basis functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, cached_property

import numpy as np
import scipy.sparse

from . import assembly
from .saddle import BlockTridiagSystem, SchurPreconditioner, exact_schur
from .sparselin import CholeskyFactor, SparseSymMatrix, cholesky
from .splines import GEOMETRIES, GeometryMap, TensorSpace, tensor_space

PROBLEM_IDS = (
    "distributed_very_weak",
    "distributed_strong",
    "boundary_control",
    "boundary_observation",
)

DEFAULT_ALPHAS = (1.0, 0.1, 0.01, 1e-3, 1e-5, 1e-7)

# geometry used when a configuration names none, per dimension
DEFAULT_GEOMETRY = {1: "identity", 2: "annulus_2d", 3: "twisted_3d"}

_FREQS = (2.0 * np.pi, 4.0 * np.pi, 6.0 * np.pi)


def sine_data_value(d: int):
    """x -> sin(2 pi x1) sin(4 pi x2) [sin(6 pi x3)] on physical points."""

    def fn(x: np.ndarray) -> np.ndarray:
        out = np.ones(x.shape[0])
        for j in range(d):
            out *= np.sin(_FREQS[j] * x[:, j])
        return out

    return fn


def sine_data_gradient(d: int):
    """Gradient of the sine-product data field at physical points."""

    def fn(x: np.ndarray) -> np.ndarray:
        s = [np.sin(_FREQS[j] * x[:, j]) for j in range(d)]
        c = [np.cos(_FREQS[j] * x[:, j]) for j in range(d)]
        out = np.empty_like(x)
        for j in range(d):
            g = _FREQS[j] * c[j]
            for i in range(d):
                if i != j:
                    g = g * s[i]
            out[:, j] = g
        return out

    return fn


@dataclass(frozen=True)
class ProblemConfig:
    problem: str
    d: int = 2
    p: int = 2
    level: int = 3
    alpha: float = 1.0
    geometry: str | None = None  # None: DEFAULT_GEOMETRY[d]

    def __post_init__(self):
        if self.problem not in PROBLEM_IDS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.d not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2, or 3")
        if self.geometry is None:
            object.__setattr__(self, "geometry", DEFAULT_GEOMETRY[self.d])
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.problem == "boundary_control" and self.d != 2:
            raise ValueError("boundary_control is only set up for d = 2")


class DiscreteOperators:
    """All geometry-dependent matrices for one (d, p, level, geometry).

    Assembled lazily and shared between alpha values and preconditioner
    variants; everything here is alpha-independent.
    """

    def __init__(self, d: int, p: int, level: int, geometry: str):
        self.d = d
        self.p = p
        self.level = level
        self.space = tensor_space(d, p, level)
        if geometry not in GEOMETRIES:
            raise ValueError(
                f"unknown geometry {geometry!r}; available: {sorted(GEOMETRIES)}"
            )
        self.geo: GeometryMap = GEOMETRIES[geometry](d)
        if self.geo.d != d:
            raise ValueError(
                f"geometry {geometry!r} maps a {self.geo.d}-dimensional domain, "
                f"but the problem is {d}-dimensional"
            )
        self.interior = self.space.interior_indices()

    @cached_property
    def mass(self) -> SparseSymMatrix:
        return assembly.assemble_mass(self.space, self.geo)

    @cached_property
    def mass_factor(self) -> CholeskyFactor:
        """Factor of M; the blocks alpha M and M / alpha use it scaled."""
        return cholesky(self.mass)

    @cached_property
    def laplacian(self) -> scipy.sparse.csr_matrix:
        """K[j, i] = int psi_j (-Lap phi_i), full space in both slots."""
        return assembly.assemble_laplacian_strong(self.space, self.space, self.geo)

    @cached_property
    def biharmonic(self) -> SparseSymMatrix:
        return assembly.assemble_biharmonic(self.space, self.geo)

    @cached_property
    def normal_gram(self) -> SparseSymMatrix:
        return assembly.assemble_normal_gram(self.space, self.geo)

    @cached_property
    def trace_space(self) -> assembly.TraceSpace:
        return assembly.TraceSpace(self.space)

    @cached_property
    def trace_mass(self) -> SparseSymMatrix:
        return assembly.assemble_trace_mass(self.trace_space, self.geo)

    @cached_property
    def normal_coupling(self) -> scipy.sparse.csr_matrix:
        return assembly.assemble_normal_coupling(self.trace_space, self.space, self.geo)

    # restricted operators (zero-trace state space)

    def restrict_sym(self, m: SparseSymMatrix) -> SparseSymMatrix:
        return SparseSymMatrix(m.to_csr()[self.interior][:, self.interior])

    @cached_property
    def laplacian_int(self) -> scipy.sparse.csr_matrix:
        """K restricted to zero-trace columns: shape (dim W, dim U)."""
        return self.laplacian[:, self.interior].tocsr()

    @cached_property
    def mass_int(self) -> SparseSymMatrix:
        return self.restrict_sym(self.mass)

    @cached_property
    def biharmonic_int(self) -> SparseSymMatrix:
        return self.restrict_sym(self.biharmonic)

    @cached_property
    def normal_gram_int(self) -> SparseSymMatrix:
        return self.restrict_sym(self.normal_gram)

    @cached_property
    def rhs_normal_data(self) -> np.ndarray:
        full = assembly.assemble_rhs_normal_data(
            self.space, self.geo, sine_data_gradient(self.d)
        )
        return full[self.interior]

    @cached_property
    def rhs_l2_data(self) -> np.ndarray:
        return assembly.assemble_rhs_l2(self.space, self.geo, sine_data_value(self.d))


@lru_cache(maxsize=8)
def get_operators(d: int, p: int, level: int, geometry: str) -> DiscreteOperators:
    return DiscreteOperators(d, p, level, geometry)


@dataclass
class AssembledProblem:
    config: ProblemConfig
    system: BlockTridiagSystem
    rhs: np.ndarray
    practical: SchurPreconditioner
    labels: tuple[str, ...]
    ops: DiscreteOperators = field(repr=False, default=None)

    @property
    def total_dim(self) -> int:
        return self.system.total_dim


def _zero_block(dim: int) -> SparseSymMatrix:
    return SparseSymMatrix(scipy.sparse.csr_matrix((dim, dim)))


def build_boundary_observation(cfg: ProblemConfig) -> AssembledProblem:
    """Limited (boundary) observation, distributed control, strong state equation.

    Unknowns (f, w, u); diagonal blocks alpha M, 0, K_d; couplings M and K'.
    The practical preconditioner is diag(alpha M, M / alpha, K_d + alpha B).
    """
    ops = get_operators(cfg.d, cfg.p, cfg.level, cfg.geometry)
    a = cfg.alpha
    m = ops.mass
    k = ops.laplacian_int
    nw = m.dim
    am = m.scaled(a)
    system = BlockTridiagSystem(
        A=[am, _zero_block(nw), ops.normal_gram_int],
        B=[m.to_csr(), k.T.tocsr()],
    )
    rhs = np.concatenate([np.zeros(2 * nw), ops.rhs_normal_data])
    practical = SchurPreconditioner(
        [am, m.scaled(1.0 / a), ops.normal_gram_int.add(ops.biharmonic_int, a)],
        [ops.mass_factor.scaled(a), ops.mass_factor.scaled(1.0 / a), None],
    )
    return AssembledProblem(cfg, system, rhs, practical, ("f", "w", "u"), ops)


def build_distributed(cfg: ProblemConfig) -> AssembledProblem:
    """Distributed observation and control with the very-weak or strong state equation.

    distributed_very_weak: n = 2 with the combined first block (u, f) and
    the smooth zero-trace multiplier block; distributed_strong: n = 3 with
    unknowns (f, w, u) and the state in the zero-trace space.
    """
    ops = get_operators(cfg.d, cfg.p, cfg.level, cfg.geometry)
    a = cfg.alpha
    m = ops.mass
    nw = m.dim
    nz = len(ops.interior)
    k_vw = ops.laplacian_int.T.tocsr()  # (dim Z, dim W): very-weak Laplacian rows
    if cfg.problem == "distributed_very_weak":
        a1 = SparseSymMatrix(scipy.sparse.block_diag([m.to_csr(), a * m.to_csr()]))
        m_c = m.to_csr()[ops.interior, :]
        b1 = scipy.sparse.hstack([k_vw, m_c], format="csr")
        system = BlockTridiagSystem(A=[a1, _zero_block(nz)], B=[b1])
        rhs = np.concatenate([ops.rhs_l2_data, np.zeros(nw + nz)])
        practical = SchurPreconditioner(
            [m, m.scaled(a), ops.mass_int.scaled(1.0 / a).add(ops.biharmonic_int)],
            [ops.mass_factor, ops.mass_factor.scaled(a), None],
        )
        labels = ("u", "f", "w")
    else:
        k = ops.laplacian_int
        am = m.scaled(a)
        system = BlockTridiagSystem(
            A=[am, _zero_block(nw), ops.mass_int],
            B=[m.to_csr(), k.T.tocsr()],
        )
        rhs = np.concatenate([np.zeros(2 * nw), ops.rhs_l2_data[ops.interior]])
        practical = SchurPreconditioner(
            [am, m.scaled(1.0 / a), ops.mass_int.add(ops.biharmonic_int, a)],
            [ops.mass_factor.scaled(a), ops.mass_factor.scaled(1.0 / a), None],
        )
        labels = ("f", "w", "u")
    return AssembledProblem(cfg, system, rhs, practical, labels, ops)


def build_boundary_control(cfg: ProblemConfig) -> AssembledProblem:
    """Distributed observation with control acting on the boundary (n = 2).

    First block carries (u, f) with f in the per-face trace space; the
    multiplier lives in the smooth zero-trace space.  The practical
    preconditioner is diag(M, alpha M_d, K_d / alpha + B).
    """
    if cfg.problem != "boundary_control":
        raise ValueError("config is not a boundary_control problem")
    ops = get_operators(cfg.d, cfg.p, cfg.level, cfg.geometry)
    a = cfg.alpha
    m = ops.mass
    nz = len(ops.interior)
    k_vw = ops.laplacian_int.T.tocsr()
    n_t = ops.normal_coupling[:, ops.interior].T.tocsr()  # (dim Z, dim F)
    a1 = SparseSymMatrix(scipy.sparse.block_diag([m.to_csr(), a * ops.trace_mass.to_csr()]))
    b1 = scipy.sparse.hstack([k_vw, n_t], format="csr")
    system = BlockTridiagSystem(A=[a1, _zero_block(nz)], B=[b1])
    rhs = np.concatenate([ops.rhs_l2_data, np.zeros(ops.trace_space.dim + nz)])
    practical = SchurPreconditioner(
        [
            m,
            ops.trace_mass.scaled(a),
            ops.normal_gram_int.scaled(1.0 / a).add(ops.biharmonic_int),
        ],
        [ops.mass_factor, None, None],
    )
    return AssembledProblem(cfg, system, rhs, practical, ("u", "f", "w"), ops)


def build_problem(cfg: ProblemConfig) -> AssembledProblem:
    if cfg.problem == "boundary_observation":
        return build_boundary_observation(cfg)
    if cfg.problem == "boundary_control":
        return build_boundary_control(cfg)
    return build_distributed(cfg)


def exact_schur_precond(prob: AssembledProblem) -> SchurPreconditioner:
    """Exact Schur-complement preconditioner with a densified last block.

    The leading blocks of the practical preconditioner already equal the
    exact Schur complements for all four problems, so they and their factors
    are reused; only the last block S_n = A_n + B_{n-1} S_{n-1}^{-1} B_{n-1}'
    is formed densely, and `exact_schur` refuses it above its dense limit.
    """
    lead = prob.practical
    return exact_schur(prob.system, SchurPreconditioner(lead.blocks[:-1], lead.factors[:-1]))


def make_preconditioner(prob: AssembledProblem, variant: str) -> SchurPreconditioner:
    if variant == "practical":
        return prob.practical
    if variant in ("exact", "exact_schur"):
        return exact_schur_precond(prob)
    raise ValueError(f"unknown preconditioner variant {variant!r}")
