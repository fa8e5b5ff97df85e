"""Command-line driver: verification suites, iteration tables, spectra, export.

Exit codes: 0 success, 1 property violation, 2 configuration error,
3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import chebyshev
from .problems import (
    DEFAULT_ALPHAS,
    PROBLEM_IDS,
    ProblemConfig,
    block_dims,
    build_problem,
    make_preconditioner,
    plan,
)
from .run import format_table, run_table
from .saddle import DENSE_MODE_LIMIT, LeadMismatch, spectrum, verify_sharpness
from .sparselin import NotPositiveDefinite
from .krylov import lanczos_bounds, minres_solve

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

# --precond value -> preconditioner variant
_VARIANTS = {"exact": "exact_schur", "exact_schur": "exact_schur", "practical": "practical"}

# Meshes of this many elements or more (2D level 6, 3D level 4, 1D level 12)
# are beyond desk scale and need --large.
_LARGE_ELEMENTS = 4096


def _parse_n_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def cmd_verify(args: argparse.Namespace) -> int:
    """Randomized sharpness/bound suites plus the closed-form polynomial checks."""
    if not args.n:
        raise ValueError("--n names an empty range of block counts")
    if not 2 <= min(args.n) <= max(args.n) <= 6:
        raise ValueError("--n must lie in 2..6")
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    q_devs, eps_dev = chebyshev.closed_form_deviations()
    failed = False
    for j, dev in enumerate(q_devs, start=1):
        if dev > chebyshev.CLOSED_FORM_TOL:
            failed = True
            print(f"Q_{j} norm closed form: FAIL (dev {dev:.2e})")
    print("Q_j norms j=1..10: " + ("FAIL" if failed else "PASS (1e-12)"))
    ok = eps_dev <= chebyshev.CLOSED_FORM_TOL
    failed = failed or not ok
    print(f"epsilon-sequence identities n=2..8: {'PASS' if ok else 'FAIL'} (max dev {eps_dev:.2e})")

    for n in args.n:
        rep = verify_sharpness(n, args.trials, args.seed)
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"sharpness/bounds n={n} ({args.trials} trials): {status} "
            f"(max dev {max(rep.max_norm_deviation, rep.max_inv_norm_deviation):.2e}, "
            f"max cond excess {rep.max_cond_excess:.2e})"
        )
        if not rep.passed:
            failed = True
            print(f"  failing seeds: {rep.failing_seeds}")
    return EXIT_VIOLATION if failed else EXIT_OK


def _problem_config(args: argparse.Namespace, level: int, alpha: float) -> ProblemConfig:
    return ProblemConfig(
        problem=args.problem,
        d=args.dim,
        p=args.degree,
        level=level,
        alpha=alpha,
        geometry=args.geometry,
    )


def _defaults(args: argparse.Namespace) -> tuple[list[int], list[float]]:
    """Levels and alphas, defaults filled in."""
    levels = args.levels or ([3, 4, 5] if args.dim == 2 else [2, 3])
    return levels, args.alphas or list(DEFAULT_ALPHAS)


def _single_case(args: argparse.Namespace) -> tuple[int, float]:
    """The one (level, alpha) of a single-case command; a user-given list of several is refused."""
    for flag, values in (("--levels", args.levels), ("--alphas", args.alphas)):
        if values is not None and len(values) > 1:
            raise ValueError(f"{args.command} takes one value of {flag}, got {len(values)}")
    levels, alphas = _defaults(args)
    return levels[0], alphas[0]


def _check_scale(args: argparse.Namespace, levels: list[int]) -> None:
    big = [l for l in levels if 2 ** (args.dim * l) >= _LARGE_ELEMENTS]
    if big and not args.large:
        raise ValueError(
            f"levels {big} exceed the desk-scale defaults for d={args.dim}; rerun with --large"
        )


def cmd_table(args: argparse.Namespace) -> int:
    levels, alphas = _defaults(args)
    _check_scale(args, levels)
    # output paths are checked before anything is solved
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"the directory of --out {args.out!r} does not exist")
    if args.out and os.path.isdir(args.out):
        raise ValueError(f"--out {args.out!r} is a directory")
    if args.dump_residuals and os.path.exists(args.dump_residuals) and not os.path.isdir(args.dump_residuals):
        raise ValueError(f"--dump-residuals {args.dump_residuals!r} is not a directory")
    cells = run_table(
        args.problem, args.dim, args.degree, levels, alphas, _VARIANTS[args.precond], args.geometry,
        tol=args.tol, maxit=args.maxit,
    )
    if args.dump_residuals:
        os.makedirs(args.dump_residuals, exist_ok=True)
        for c in cells:
            path = os.path.join(args.dump_residuals, f"residuals_l{c.level}_a{c.alpha:g}.csv")
            with open(path, "w") as fh:
                fh.write("iteration,residual\n")
                for k, r in enumerate(c.residual_history):
                    fh.write(f"{k},{r:.16e}\n")
    text = format_table(cells, "csv" if args.format == "csv" else "markdown")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if any(not c.converged for c in cells):
        return EXIT_SOLVER
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    level, alpha = _single_case(args)
    variant = _VARIANTS[args.precond]
    cfg = _problem_config(args, level, alpha)
    total = sum(block_dims(cfg))  # the refusals below need no assembly
    if total > DENSE_MODE_LIMIT and not args.lanczos:
        print(f"system dimension {total} exceeds the dense cap {DENSE_MODE_LIMIT}; rerun with --lanczos")
        return EXIT_CONFIG
    plan(cfg, variant)
    prob = build_problem(cfg)
    precond = make_preconditioner(prob, variant)
    print(f"problem={args.problem} level={level} alpha={alpha:g} precond={variant}")
    if total > DENSE_MODE_LIMIT:
        rhs = np.random.default_rng(0).standard_normal(total)
        # the plain product, not the preconditioner's hooks, whose rounding would move the printed bounds
        res = minres_solve(prob.system.apply, precond.apply_inverse, rhs, tol=1e-10)
        s_max, s_min = lanczos_bounds(res)
        bs = chebyshev.bounds(prob.system.n)
        print(
            f"Ritz extremes of MINRES's Lanczos matrix ({res.iterations} steps): "
            f"max|lambda| >= {s_max:.6f}, min|lambda| <= {s_min:.6f}"
        )
        print(f"kappa >= {s_max / s_min:.6f}  (lower bound; bound for n={bs.n}: {bs.cond_bound:.6f})")
        return EXIT_OK
    try:
        rep = spectrum(prob.system, precond)
    except LeadMismatch as exc:
        print(f"PRECONDITIONER MISMATCH: {exc}")
        return EXIT_VIOLATION
    print(*rep.lines, sep="\n")
    if rep.cond_exceeds_bound and variant == "exact_schur":
        print("BOUND VIOLATED")
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    level, alpha = _single_case(args)
    cfg = _problem_config(args, level, alpha)
    plan(cfg, "practical")  # a refused export makes no directory
    out = args.matrix_market
    os.makedirs(out, exist_ok=True)  # before anything is assembled
    prob = build_problem(cfg)
    import scipy.io
    import scipy.sparse

    for i, a in enumerate(prob.system.A, start=1):  # the lower triangle of each symmetric block
        scipy.io.mmwrite(os.path.join(out, f"A{i}.mtx"), scipy.sparse.tril(a.to_csr()).tocoo(), symmetry="symmetric")
    for i, b in enumerate(prob.system.B, start=1):
        scipy.io.mmwrite(os.path.join(out, f"B{i}.mtx"), b.tocoo())
    np.savetxt(os.path.join(out, "rhs.txt"), prob.rhs)
    print(f"wrote {len(prob.system.A)} diagonal and {len(prob.system.B)} coupling blocks to {out}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: no command writes into a parsed value, so defaults may be shared."""
    ap = argparse.ArgumentParser(prog="msp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the randomized theorem-verification suites")
    v.add_argument("--n", type=_parse_n_range, default=list(range(2, 7)), help="block count or range, e.g. 3 or 2..6")
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    def add_problem_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--problem", choices=PROBLEM_IDS, default="boundary_observation")
        p.add_argument("--dim", type=int, choices=(1, 2, 3), default=2)
        p.add_argument("--degree", type=int, default=2)
        p.add_argument("--levels", type=int, nargs="+", default=None)
        p.add_argument("--alphas", type=float, nargs="+", default=None)
        p.add_argument("--geometry", default=None)

    t = sub.add_parser("table", help="reproduce an iteration-count table")
    add_problem_args(t)
    t.add_argument("--precond", choices=tuple(_VARIANTS), default="practical")
    t.add_argument("--tol", type=float, default=1e-8)
    t.add_argument("--maxit", type=int, default=500)
    t.add_argument("--large", action="store_true", help="allow beyond-desk-scale levels")
    t.add_argument("--out", default=None)
    t.add_argument("--format", choices=("csv", "md"), default="md")
    t.add_argument("--dump-residuals", default=None, metavar="DIR", help="write per-cell residual-history CSVs")
    t.set_defaults(func=cmd_table)

    s = sub.add_parser("spectrum", help="condition number of the preconditioned system")
    add_problem_args(s)
    s.add_argument("--precond", choices=tuple(_VARIANTS), default="practical")
    s.add_argument("--lanczos", action="store_true", help="past the dense cap, lower-bound kappa by MINRES's Lanczos matrix")
    s.set_defaults(func=cmd_spectrum)

    e = sub.add_parser("export", help="write system blocks in Matrix Market format")
    add_problem_args(e)
    e.add_argument("--matrix-market", required=True, metavar="DIR")
    e.set_defaults(func=cmd_export)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NotPositiveDefinite as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
