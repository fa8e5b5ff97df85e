#!/usr/bin/env python3
"""Census of the `src/msp` statement lines that production traffic runs.

    python3 tools/line_census.py [--root CHECKOUT]

Runs, under `sys.settrace`, the production traffic of a checkout (default:
this one): a CLI sweep of `verify`, and of `table`, `spectrum` and
`export` for every problem at 1D p=2 L4, 2D p=2 L3 and 3D p=3 L2 with both
preconditioners and `--lanczos`, plus the refusals; then the three
`perfbench` units (full size, one set-up and one unit each).  It prints,
per module, each statement line that no run reached, the total, and the
exit code of every run.  One BLAS thread; about 4 s on a 2-core host.

A statement counts as reached when a line event fires on its first line;
docstrings are not statements.  Module-level lines run at import, which
the tracer sees as it is installed before `msp` is imported.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

PROBLEMS = ("distributed_very_weak", "distributed_strong", "boundary_control", "boundary_observation")
MESHES = ((1, 2, 4, None), (2, 2, 3, None), (3, 3, 2, "twisted_3d"))


def refusals(tmp: str) -> list[list[str]]:
    """Commands that exit 2, one per refusal the CLI makes."""
    return [
        ["verify", "--n", "7"],
        ["verify", "--n", "3..2"],
        ["verify", "--trials", "0"],
        ["verify", "--seed", "-1"],
        ["spectrum", "--levels", "5"],  # dense cap
        ["spectrum", "--levels", "3", "4"],
        ["spectrum", "--dim", "1", "--levels", "11", "--precond", "exact", "--lanczos"],  # S_2 of order 2048
        ["table", "--dim", "1", "--levels", "11", "--precond", "exact", "--alphas", "1"],
        ["table", "--levels", "6"],
        ["table", "--levels", "6", "--large", "--precond", "exact"],
        ["table", "--levels", "2", "--maxit", "0"],
        ["table", "--levels", "2", "--tol", "2"],
        ["table", "--levels", "2", "--alphas", "nan"],
        ["table", "--levels", "2", "--geometry", "nowhere"],
        ["table", "--levels", "2", "--geometry", "twisted_3d"],
        ["table", "--levels", "2", "--problem", "boundary_control", "--dim", "3"],
        ["table", "--levels", "2", "--out", os.path.join(tmp, "missing", "x.md")],
        ["table", "--levels", "2", "--out", tmp],
        ["table", "--levels", "-1"],
        ["table", "--levels", "2", "--degree", "0"],
        ["export", "--levels", "2", "--matrix-market", os.path.join(tmp, "t.csv", "x")],
    ]


def traffic(tmp: str) -> list[tuple[str, object]]:
    """Run the production traffic; returns (name, exit code or (attempted, failed)) per run."""
    from msp import cli

    def run(*argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(list(argv))

    codes = [("verify", run("verify", "--n", "2..6", "--trials", "3", "--seed", "7"))]
    for problem in PROBLEMS:
        for d, p, level, geometry in MESHES:
            if problem == "boundary_control" and d != 2:
                continue
            case = ["--problem", problem, "--dim", str(d), "--degree", str(p), "--levels", str(level)]
            case += ["--geometry", geometry] if geometry else []
            for precond in ("practical", "exact"):
                codes.append(("table", run("table", *case, "--precond", precond)))
                codes.append(("spectrum", run("spectrum", *case, "--precond", precond)))
                codes.append(("spectrum --lanczos", run("spectrum", *case, "--precond", precond, "--lanczos")))
            codes.append(("export", run("export", *case, "--matrix-market", os.path.join(tmp, f"{problem}{d}"))))
    codes.append(("spectrum --lanczos past the cap", run("spectrum", "--levels", "5", "--lanczos", "--precond", "exact")))
    codes.append(("table csv", run("table", "--levels", "2", "--format", "csv", "--out", os.path.join(tmp, "t.csv"),
                                   "--dump-residuals", os.path.join(tmp, "residuals"))))
    for argv in refusals(tmp):
        codes.append((" ".join(argv[:1] + argv[1:4]), run(*argv)))
    from perfbench import workloads

    for name, workload in workloads.WORKLOADS.items():
        w = workload("full", 101)
        w.setup()
        codes.append((name, w.unit()))
    return codes


def statement_lines(path: Path) -> set[int]:
    """First lines of the statements of a module, docstrings left out."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.stmt):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
                continue
            lines.add(node.lineno)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                    help="checkout whose src/msp and perfbench to run (default: this one)")
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported
    root = Path(args.root).resolve()
    package = root / "src" / "msp"
    sys.path[:0] = [str(root / "src"), str(root)]

    hits: dict[str, set[int]] = defaultdict(set)

    def line_events(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line_events

    def calls(frame, event, arg):
        return line_events if frame.f_code.co_filename.startswith(str(package)) else None

    sys.settrace(calls)
    try:
        import msp  # noqa: F401  (module-level lines run now, traced)

        with tempfile.TemporaryDirectory(prefix="line_census_") as tmp:
            codes = traffic(tmp)
    finally:
        sys.settrace(None)

    total = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text().splitlines()
        statements = statement_lines(path)
        missed = sorted(statements - hits[str(path)])
        total += len(missed)
        print(f"== {path.name}: {len(missed)} of {len(statements)} statement lines unreached")
        for line in missed:
            print(f"{path.name}:{line}: {source[line - 1].strip()}")
    print(f"total unreached statement lines: {total}")
    print("runs: " + "; ".join(f"{name} -> {code}" for name, code in codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
