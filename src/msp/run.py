"""Drivers tying problems, preconditioners, and solvers together."""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from .krylov import SolveResult, _minres, check_stopping
from .problems import AssembledProblem, ProblemConfig, build_problem, make_preconditioner, plan
from .saddle import SchurPreconditioner

# Cells whose MINRES runs at once in `run_table`: one per core of a two-core host.
SOLVERS = 2


def solve_problem(
    prob: AssembledProblem,
    precond: SchurPreconditioner,
    tol: float = 1e-8,
    maxit: int = 500,
) -> SolveResult:
    """Run preconditioned MINRES from a zero initial guess.

    Convergence is tested on the plain Euclidean residual norm relative to
    ||b||, the protocol under which the published iteration counts for these
    optimality systems are reported; the energy-norm history is still
    available on the returned SolveResult.  MINRES takes its two hooks from
    `precond` (`SchurPreconditioner.apply_preconditioned` and
    `preconditioned_head`), so only the last two blocks are solved; a
    preconditioner without a lead pattern has none: ValueError.  Every
    convergence is confirmed with `prob.system.apply`.
    """
    return _solve(prob, precond, tol, maxit)


def _solve(prob: AssembledProblem, precond: SchurPreconditioner, tol: float, maxit: int) -> SolveResult:
    """`solve_problem` through `krylov._minres`: the one chain of `solve_problem` and `run_table`'s solver threads."""
    if precond.lead is None:
        raise ValueError("the preconditioner carries no lead pattern for MINRES's hooks")
    return _minres(
        prob.system.apply, precond.apply_inverse, prob.rhs, tol, maxit,
        precond.apply_preconditioned, precond.preconditioned_head,
    )


def _solve_cell(cell: list, tol: float, maxit: int) -> SolveResult:
    """A solver thread's job: `_solve` of the (problem, preconditioner) pair in `cell`, taken out of `cell`
    first, so that the pair dies as this returns, before its future holds the result."""
    prob, precond = cell
    cell.clear()
    return _solve(prob, precond, tol, maxit)


@dataclass
class TableCell:
    level: int
    alpha: float
    dof: int
    iterations: int
    converged: bool
    residual_history: list[float]


def run_table(
    problem: str,
    d: int,
    p: int,
    levels: list[int],
    alphas: list[float],
    precond_variant: str,
    geometry: str | None,
    tol: float = 1e-8,
    maxit: int = 500,
) -> list[TableCell]:
    """Iteration counts over a levels-by-alphas grid, one problem and variant.

    tol and maxit, then each cell's configuration and its `plan`, in cell
    order, are checked before any problem is built.

    SOLVERS cells solve at once.  This thread builds each cell and makes its
    preconditioner, in cell order, and hands its MINRES to a pool of SOLVERS
    threads; it takes the results back in cell order, and builds the next
    cell only once fewer than SOLVERS cells are unfinished, so a table holds
    at most SOLVERS cells' problems, factors and solutions.  MINRES runs
    there through `krylov._minres`, whose block solves release the GIL
    (`sparselin.solve_chol_nogil`), and nothing else does: every function
    that builds, factors or reads a lazy operator runs on this thread.  A
    cell's exception, from its build, its factors or its MINRES, is raised
    in its turn, after every cell before it is taken, and a cell after one
    that fails is not built.  The pool is joined before this returns or
    raises.
    """
    check_stopping(tol, maxit)
    cfgs = []
    for level in levels:
        for alpha in alphas:
            cfg = ProblemConfig(problem, d, p, level, alpha, geometry)
            plan(cfg, precond_variant)
            cfgs.append(cfg)

    def take(cfg: ProblemConfig, dof: int, job: Future) -> TableCell:
        res = job.result()
        return TableCell(cfg.level, cfg.alpha, dof, res.iterations, res.converged, res.residual_history)

    cells, solving, failure = [], deque(), None
    with ThreadPoolExecutor(max_workers=SOLVERS, thread_name_prefix="msp-minres") as pool:
        for cfg in cfgs:
            if len(solving) == SOLVERS:
                cells.append(take(*solving.popleft()))
            try:
                prob = build_problem(cfg)
                precond = make_preconditioner(prob, precond_variant)
            except Exception as exc:  # noqa: BLE001  (raised below, after the cells before it)
                failure = exc
                break
            solving.append((cfg, prob.total_dim, pool.submit(_solve_cell, [prob, precond], tol, maxit)))
        cells += [take(*job) for job in solving]
    if failure is not None:
        raise failure
    return cells


def format_table(cells: list[TableCell], fmt: str = "markdown") -> str:
    """Render cells as rows = levels, columns = alphas (csv or markdown)."""
    levels = sorted({c.level for c in cells})
    alphas = sorted({c.alpha for c in cells}, reverse=True)
    by_key = {(c.level, c.alpha): c for c in cells}

    def cell_text(c: TableCell | None) -> str:
        if c is None:
            return ""
        return str(c.iterations) if c.converged else f"{c.iterations}*"

    header = ["level", "dof"] + [f"{a:g}" for a in alphas]
    rows = []
    for lvl in levels:
        dof = next(c.dof for c in cells if c.level == lvl)
        rows.append(
            [str(lvl), str(dof)] + [cell_text(by_key.get((lvl, a))) for a in alphas]
        )
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(r) for r in rows]
        return "\n".join(lines) + "\n"
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    out = ["| " + " | ".join(h.rjust(w) for h, w in zip(header, widths)) + " |"]
    out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for r in rows:
        out.append("| " + " | ".join(v.rjust(w) for v, w in zip(r, widths)) + " |")
    return "\n".join(out) + "\n"
