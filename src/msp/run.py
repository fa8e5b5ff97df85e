"""Drivers tying problems, preconditioners, and solvers together."""

from __future__ import annotations

from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass

from .krylov import SolveResult, check_stopping, minres_solve
from .problems import AssembledProblem, ProblemConfig, build_problem, last_block, make_preconditioner, plan
from .saddle import SchurPreconditioner
from .sparselin import cholesky_ahead


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
    if precond.lead is None:
        raise ValueError("the preconditioner carries no lead pattern for MINRES's hooks")
    return minres_solve(
        prob.system.apply, precond.apply_inverse, prob.rhs, tol=tol, maxit=maxit,
        product=precond.apply_preconditioned, head=precond.preconditioned_head,
    )


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

    The cells run in order, and while MINRES solves one, the next cell of
    the same level (same mesh, so its operators are warm) has its last
    block factored on a worker thread: its problem and that block are
    built on this thread, and only the LAPACK call leaves it
    (`sparselin.cholesky_ahead`).  What building it ahead raises, and its
    factor's own NotPositiveDefinite, surface at that cell, after the solve
    before it, as in a sequential run.  The worker is joined before this
    returns or raises.  Each cell's problem, preconditioner and solution are
    dropped at the end of its pass, so a table holds one cell's blocks and
    factors at a time, and the next cell's problem and last factor.
    """
    check_stopping(tol, maxit)
    cfgs = []
    for level in levels:
        for alpha in alphas:
            cfg = ProblemConfig(problem, d, p, level, alpha, geometry)
            plan(cfg, precond_variant)
            cfgs.append(cfg)
    cells, ahead = [], None
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="msp-factor") as pool:
        for cfg, nxt in zip(cfgs, [*cfgs[1:], None]):
            if isinstance(ahead, Exception):
                raise ahead
            prob, last = ahead or (build_problem(cfg), None)
            precond = make_preconditioner(prob, precond_variant, last)
            ahead = _ahead(nxt, precond_variant, pool) if nxt is not None and nxt.level == cfg.level else None
            res = solve_problem(prob, precond, tol=tol, maxit=maxit)
            cells.append(TableCell(cfg.level, cfg.alpha, prob.total_dim, res.iterations, res.converged, res.residual_history))
            del prob, last, precond, res
    return cells


def _ahead(cfg: ProblemConfig, precond_variant: str, pool: Executor):
    """`cfg`'s problem and the function that finishes its last block's factor, whose LAPACK call runs on `pool`;
    or the exception that building them raised, for `cfg`'s cell to raise in its turn."""
    try:
        prob = build_problem(cfg)
        return prob, cholesky_ahead(last_block(prob, precond_variant), pool)
    except Exception as exc:  # noqa: BLE001  (raised at its cell by `run_table`)
        return exc


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
