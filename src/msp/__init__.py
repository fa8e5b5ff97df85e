"""Solvers and preconditioners for multiple saddle-point systems.

Block-tridiagonal operators with SPSD diagonal blocks admit a block-diagonal
Schur-complement preconditioner whose preconditioned condition number is
bounded by closed-form constants depending only on the number of blocks.
This package certifies those bounds numerically, provides preconditioned
MINRES, and reproduces the iteration-count experiments for B-spline
discretized PDE-constrained optimal control problems.
"""

from .chebyshev import (
    BoundSet,
    bounds,
    epsilon_sequence,
    pbar_eval,
    pbar_roots,
    q_matrix_norm,
    smallest_abs_root,
)
from .krylov import SolveResult, minres_solve
from .saddle import (
    BlockTridiagSystem,
    SchurPreconditioner,
    SpectrumReport,
    assemble_full,
    exact_schur,
    spectrum,
    verify_sharpness,
)
from .sparselin import (
    CholeskyFactor,
    DenseSymMatrix,
    NotPositiveDefinite,
    SparseSymMatrix,
    cholesky,
    gen_sym_eig,
    solve_chol,
)
from .problems import (
    AssembledProblem,
    ProblemConfig,
    build_problem,
    exact_schur_precond,
    make_preconditioner,
)
from .run import run_table, solve_problem

__all__ = [
    "BoundSet",
    "bounds",
    "epsilon_sequence",
    "pbar_eval",
    "pbar_roots",
    "q_matrix_norm",
    "smallest_abs_root",
    "SolveResult",
    "minres_solve",
    "BlockTridiagSystem",
    "SchurPreconditioner",
    "SpectrumReport",
    "assemble_full",
    "exact_schur",
    "spectrum",
    "verify_sharpness",
    "CholeskyFactor",
    "DenseSymMatrix",
    "NotPositiveDefinite",
    "SparseSymMatrix",
    "cholesky",
    "gen_sym_eig",
    "solve_chol",
    "AssembledProblem",
    "ProblemConfig",
    "build_problem",
    "exact_schur_precond",
    "make_preconditioner",
    "run_table",
    "solve_problem",
]
