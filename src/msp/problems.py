"""Builders for the discretized optimal-control optimality systems.

One builder per block shape, (f, w, u) or ((u, f), w), produces a
block-tridiagonal system, its right-hand side, and the sparse ("practical")
block-diagonal preconditioner from the alpha-independent blocks cached on
`DiscreteOperators`; the exact Schur-complement preconditioner densifies only
the last block, from alpha-free dense pieces cached per mesh on the first
exact request.  All problems use equal-order tensor-product spline spaces of
maximal smoothness k = p-1, with the zero-trace state space realized by
dropping boundary basis functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, cached_property

import numpy as np
import scipy.sparse

from . import assembly
from .saddle import BlockTridiagSystem, SchurPreconditioner, check_stage_order, factor_stage
from .sparselin import CholeskyFactor, SparseSymMatrix, cholesky, inverse_gram
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
        if self.p < 1:
            raise ValueError("degree must be at least 1")
        if self.level < 0:
            raise ValueError("level must be non-negative")
        if self.geometry is None:
            object.__setattr__(self, "geometry", DEFAULT_GEOMETRY[self.d])
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if self.problem == "boundary_control" and self.d != 2:
            raise ValueError("boundary_control is only set up for d = 2")


class DiscreteOperators:
    """All geometry-dependent matrices for one (d, p, level, geometry).

    Assembled lazily and shared between alpha values and preconditioner
    variants; everything here is alpha-independent.  Only the blocks the
    builders read are kept: the full-space K, B, normal Gram and normal
    coupling are restricted or stacked and then freed.  The face forms a
    builder reads come from one pass over the faces.  The dense pieces of
    the exact last Schur stage (`laplacian_gram`, `normal_trace_gram`) are
    built only when an exact preconditioner first asks, 8 (dim U)^2 bytes
    each.
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
        self._faces: dict = {}

    def _restrict_sym(self, m: SparseSymMatrix) -> SparseSymMatrix:
        """The zero-trace block of m, wrapped unchecked: a principal submatrix of an
        exactly symmetric canonical CSR is exactly symmetric and canonical too."""
        return SparseSymMatrix._trusted(m.to_csr()[self.interior][:, self.interior])

    @cached_property
    def _volume_blocks(self) -> tuple[SparseSymMatrix, scipy.sparse.csr_matrix, SparseSymMatrix]:
        """M, K on zero-trace columns and B on the zero-trace space, from one
        assembly pass; the full K and B are not kept."""
        m, k, b = assembly.assemble_volume_forms(self.space, self.geo)
        return m, k[:, self.interior].tocsr(), self._restrict_sym(b)

    @cached_property
    def mass(self) -> SparseSymMatrix:
        return self._volume_blocks[0]

    @cached_property
    def mass_factor(self) -> CholeskyFactor:
        """Factor of M; the blocks alpha M and M / alpha use scaled views of it, which share its array."""
        return cholesky(self.mass)

    @cached_property
    def mass_int(self) -> SparseSymMatrix:
        return self._restrict_sym(self.mass)

    @cached_property
    def laplacian_int(self) -> scipy.sparse.csr_matrix:
        """K[j, i] = int psi_j (-Lap phi_i), i on zero-trace columns: shape (dim W, dim U)."""
        return self._volume_blocks[1]

    @cached_property
    def laplacian_int_t(self) -> scipy.sparse.csr_matrix:
        """K' as CSR: shape (dim U, dim W)."""
        return self.laplacian_int.T.tocsr()

    @cached_property
    def biharmonic_int(self) -> SparseSymMatrix:
        return self._volume_blocks[2]

    def _face_forms(self, *names: str) -> tuple:
        """The face forms `names` as the builders read them; those not made yet come from one pass over the faces.

        The normal Gram is kept on the zero-trace space, the normal-data rhs
        on its rows and the normal coupling N on its columns, without the
        zeros stored for the functions whose normal derivative vanishes on a
        face; the full-space forms are not kept.  A builder asks for all its
        face forms at once.
        """
        missing = [name for name in names if name not in self._faces]
        if missing:
            forms = assembly.assemble_face_forms(self.space, self.geo, missing, sine_data_gradient(self.d))

            def restrict_coupling(n: scipy.sparse.csr_matrix) -> scipy.sparse.csr_matrix:
                n = n[:, self.interior]
                n.eliminate_zeros()
                return n

            restrict = {
                "normal_gram": self._restrict_sym,
                "rhs_normal_data": lambda rhs: rhs[self.interior],
                "normal_coupling": restrict_coupling,
            }
            self._faces.update((name, restrict.get(name, lambda f: f)(form)) for name, form in forms.items())
        return tuple(self._faces[name] for name in names)

    @property
    def normal_gram_int(self) -> SparseSymMatrix:
        return self._face_forms("normal_gram")[0]

    @property
    def trace_mass(self) -> SparseSymMatrix:
        return self._face_forms("trace_mass")[0]

    @cached_property
    def mass_coupling(self) -> scipy.sparse.csr_matrix:
        """[K', M on zero-trace rows]: the very-weak coupling, shape (dim U, 2 dim W)."""
        return scipy.sparse.hstack(
            [self.laplacian_int_t, self.mass.to_csr()[self.interior, :]], format="csr"
        )

    @cached_property
    def mass_coupling_t(self) -> scipy.sparse.csr_matrix:
        """The transpose of `mass_coupling` as CSR."""
        return self.mass_coupling.T.tocsr()

    @cached_property
    def trace_mass_factor(self) -> CholeskyFactor:
        """Factor of M_d; the block alpha M_d uses a scaled view of it."""
        return cholesky(self.trace_mass)

    @cached_property
    def laplacian_gram(self) -> np.ndarray:
        """G = K' M^-1 K, dense and exactly symmetric, from M's factor: shape (dim U, dim U)."""
        return inverse_gram(self.mass_factor, self.laplacian_int)

    @cached_property
    def normal_trace_gram(self) -> np.ndarray:
        """N' M_d^-1 N with N on zero-trace columns, dense and exactly symmetric, from M_d's factor."""
        return inverse_gram(self.trace_mass_factor, self.trace_coupling_t[self.mass.dim :])

    @cached_property
    def trace_coupling(self) -> scipy.sparse.csr_matrix:
        """[K', N'] with N on zero-trace columns: the boundary-control coupling."""
        n = self._face_forms("normal_coupling")[0]
        return scipy.sparse.hstack([self.laplacian_int_t, n.T.tocsr()], format="csr")

    @cached_property
    def trace_coupling_t(self) -> scipy.sparse.csr_matrix:
        """The transpose of `trace_coupling` as CSR."""
        return self.trace_coupling.T.tocsr()

    @cached_property
    def rhs_l2_data(self) -> np.ndarray:
        return assembly.assemble_rhs_l2(self.space, self.geo, sine_data_value(self.d))


@lru_cache(maxsize=8)
def get_operators(d: int, p: int, level: int, geometry: str) -> DiscreteOperators:
    return DiscreteOperators(d, p, level, geometry)


def block_dims(cfg: ProblemConfig) -> list[int]:
    """The block orders of `cfg`'s system, read from its mesh's spaces without assembling.

    With W the spline space, U its zero-trace subspace and T the trace
    space: [W, W, U] for the three-block problems, [2W, U] for
    `distributed_very_weak` and [W + T, U] for `boundary_control`.  An
    unknown geometry raises here, as it does in `build_problem`.
    """
    ops = get_operators(cfg.d, cfg.p, cfg.level, cfg.geometry)
    w, u = ops.space.dim, len(ops.interior)
    if cfg.problem in ("boundary_observation", "distributed_strong"):
        return [w, w, u]
    if cfg.problem == "distributed_very_weak":
        return [2 * w, u]
    return [w + assembly.TraceSpace(ops.space).dim, u]


@dataclass
class AssembledProblem:
    """A built optimality system with the blocks of its practical preconditioner.

    `practical_blocks` are the practical preconditioner's blocks and
    `lead_factors` the factors of all but the last, which are the exact
    Schur complements S_1..S_{n-1}.  The last block, a sum view, is factored
    from its terms when `practical` is first read, so an exact-Schur cell
    neither builds nor factors it; the exact preconditioner takes only
    `lead_factors`.  `lead_pattern` is the builder's T (blocks 1..n-1 of
    L^{-1} A L^{-T} are T ⊗ I_W, L the lead factors), which both
    preconditioners carry with the system (`SchurPreconditioner`).
    """

    config: ProblemConfig
    system: BlockTridiagSystem
    rhs: np.ndarray
    practical_blocks: list[SparseSymMatrix]
    lead_factors: list[CholeskyFactor]
    lead_pattern: np.ndarray
    ops: DiscreteOperators = field(repr=False, default=None)

    @property
    def total_dim(self) -> int:
        return self.system.total_dim

    @cached_property
    def practical(self) -> SchurPreconditioner:
        factors = [*self.lead_factors, None]
        return SchurPreconditioner(self.practical_blocks, factors, system=self.system, lead=self.lead_pattern)


def _zero_block(dim: int) -> SparseSymMatrix:
    return SparseSymMatrix._trusted(scipy.sparse.csr_matrix((dim, dim)))


def _three_block(
    cfg: ProblemConfig, ops: DiscreteOperators, a3: SparseSymMatrix, rhs3: np.ndarray
) -> AssembledProblem:
    """Unknowns (f, w, u): diagonal blocks alpha M, 0, A_3; couplings M and K'.

    The practical preconditioner is diag(alpha M, M / alpha, A_3 + alpha B):
    views of M, of its factor and of the sum of the cached A_3 and B, whose
    CSR no cell builds.  alpha M shares its CSR with the coupling B_1 = M.
    As alpha M, M / alpha and the coupling M share M's factor, the lead
    blocks of the preconditioned operator are [[I, I], [I, 0]], and those of
    A P^{-1} are [[I, alpha I], [I / alpha, 0]].
    """
    a = cfg.alpha
    m = ops.mass
    am = m.scaled(a)
    # B_1 = M is symmetric and B_2' = K, so both transposes are at hand
    system = BlockTridiagSystem(
        A=[am, _zero_block(m.dim), a3],
        B=[m.to_csr(), ops.laplacian_int_t],
        Bt=[m.to_csr(), ops.laplacian_int],
    )
    rhs = np.concatenate([np.zeros(2 * m.dim), rhs3])
    blocks = [am, m.scaled(1.0 / a), a3.add(ops.biharmonic_int, a)]
    factors = [ops.mass_factor.scaled(a), ops.mass_factor.scaled(1.0 / a)]
    return AssembledProblem(cfg, system, rhs, blocks, factors, np.array([[1.0, 1.0], [1.0, 0.0]]), ops)


def _two_block(
    cfg: ProblemConfig,
    ops: DiscreteOperators,
    x: SparseSymMatrix,
    x_factor: CholeskyFactor,
    coupling: scipy.sparse.csr_matrix,
    coupling_t: scipy.sparse.csr_matrix,
    z: SparseSymMatrix,
) -> AssembledProblem:
    """Unknowns ((u, f), w): diagonal blocks diag(M, alpha X), 0; coupling [K', Y].

    The practical preconditioner is diag(M, alpha X, Z / alpha + B): alpha X
    uses X's factor `x_factor` scaled, the last block is a sum view of the
    cached Z and B (no cell builds its CSR), and diag(M, alpha X), over two
    exactly symmetric canonical blocks, is wrapped unchecked.  Its factors
    are those of S_1 = A_1, so the lead block of the preconditioned operator is I.
    """
    a = cfg.alpha
    m = ops.mass
    nz = len(ops.interior)
    a1 = SparseSymMatrix._trusted(scipy.sparse.block_diag([m.to_csr(), a * x.to_csr()], format="csr"))
    system = BlockTridiagSystem(A=[a1, _zero_block(nz)], B=[coupling], Bt=[coupling_t])
    rhs = np.concatenate([ops.rhs_l2_data, np.zeros(x.dim + nz)])
    blocks = [m, x.scaled(a), z.scaled(1.0 / a).add(ops.biharmonic_int)]
    factors = [ops.mass_factor, x_factor.scaled(a)]
    return AssembledProblem(cfg, system, rhs, blocks, factors, np.ones((1, 1)), ops)


def build_problem(cfg: ProblemConfig) -> AssembledProblem:
    """The optimality system of `cfg`, built from the operators of its mesh.

    The three-block problems take the strong state equation with boundary
    (A_3 = B_n) or distributed (A_3 = M) observation; the two-block ones the
    very-weak state equation with distributed (X = Z = M) or boundary
    (X = M_d, Z = B_n) control.
    """
    ops = get_operators(cfg.d, cfg.p, cfg.level, cfg.geometry)
    if cfg.problem == "boundary_observation":
        return _three_block(cfg, ops, *ops._face_forms("normal_gram", "rhs_normal_data"))
    if cfg.problem == "distributed_strong":
        return _three_block(cfg, ops, ops.mass_int, ops.rhs_l2_data[ops.interior])
    if cfg.problem == "distributed_very_weak":
        return _two_block(
            cfg, ops, ops.mass, ops.mass_factor, ops.mass_coupling, ops.mass_coupling_t, ops.mass_int
        )
    ops._face_forms("trace_mass", "normal_coupling", "normal_gram")  # from one pass over the faces
    return _two_block(
        cfg, ops, ops.trace_mass, ops.trace_mass_factor, ops.trace_coupling, ops.trace_coupling_t, ops.normal_gram_int
    )


def exact_schur_precond(prob: AssembledProblem) -> SchurPreconditioner:
    """Exact Schur-complement preconditioner: block factors only, the last one dense.

    The leading blocks of the practical preconditioner already equal the
    exact Schur complements for all four problems, so their factors are
    reused.  The last block S_n = A_n + B_{n-1} S_{n-1}^{-1} B_{n-1}'
    splits into alpha-free pieces cached on the mesh, with G = K' M^-1 K:
    S_3 = A_3 + alpha G for the three-block problems, and S_2 = G + Z / alpha
    for the two-block ones (Z = M_int for distributed control, N' M_d^-1 N
    for boundary control).  It is refused above the dense limit before
    anything is densified, and the dense S_n is factored in its own buffer.
    """
    n, a, ops = prob.system.n, prob.config.alpha, prob.ops
    check_stage_order(n, prob.system.block_dims[-1])
    if n == 3:
        s, rest = np.multiply(ops.laplacian_gram, a), prob.system.A[-1]
    elif prob.config.problem == "distributed_very_weak":
        s, rest = ops.laplacian_gram.copy(), ops.mass_int.scaled(1.0 / a)
    else:
        s, rest = np.divide(ops.normal_trace_gram, a), None
        s += ops.laplacian_gram
    if rest is not None:
        rest.add_to(s)
    factors = [*prob.lead_factors, factor_stage(n, s)]
    return SchurPreconditioner(factors=factors, system=prob.system, lead=prob.lead_pattern)


def plan(cfg: ProblemConfig, variant: str) -> list[int]:
    """The block orders of `cfg`'s system under `variant`: the one check a configuration passes before it is built.

    An unknown geometry (`block_dims`), an unknown variant and, for the
    exact variants, a dense last Schur stage above the dense limit raise
    ValueError without assembling anything.
    """
    dims = block_dims(cfg)
    if variant in ("exact", "exact_schur"):
        check_stage_order(len(dims), dims[-1])
    elif variant != "practical":
        raise ValueError(f"unknown preconditioner variant {variant!r}")
    return dims


def make_preconditioner(prob: AssembledProblem, variant: str) -> SchurPreconditioner:
    """`variant`'s preconditioner for `prob`, after its `plan`."""
    plan(prob.config, variant)
    return prob.practical if variant == "practical" else exact_schur_precond(prob)
