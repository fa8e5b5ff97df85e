#!/usr/bin/env python3
"""Census of the `src/msp` statement lines that production traffic runs.

    python3 tools/line_census.py [--root CHECKOUT]

Runs, under `sys.settrace` and `threading.settrace` (so that the lines
`run_table`'s factor worker thread runs count), the production traffic of a
checkout (default: this one): a CLI sweep of `verify`, and of `table`,
`spectrum` and `export` for every problem at 1D p=2 L4, 2D p=2 L3 and 3D
p=3 L2 with both preconditioners and `--lanczos`, plus the refusals; then
the three `perfbench` units (full size, one set-up and one unit each).  It
prints, per module, each statement line that no run reached, the total, and
the exit code of every run.  It exits 1 when a traffic run exits other than
0, a refusal other than 2, or a `perfbench` unit fails an operation; 0
otherwise.  One BLAS thread; about 6 s on a 2-core host.

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
import threading
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
        ["spectrum", "--degree", "1", "--levels", "0"],  # an empty last block
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


def traffic(tmp: str) -> list[tuple[str, object, bool]]:
    """Run the production traffic; returns (name, exit code or (attempted, failed), as expected) per run."""
    from msp import cli

    codes = []

    def run(name: str, *argv: str, want: int = 0) -> None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        codes.append((name, code, code == want))

    run("verify", "verify", "--n", "2..6", "--trials", "3", "--seed", "7")
    for problem in PROBLEMS:
        for d, p, level, geometry in MESHES:
            if problem == "boundary_control" and d != 2:
                continue
            case = ["--problem", problem, "--dim", str(d), "--degree", str(p), "--levels", str(level)]
            case += ["--geometry", geometry] if geometry else []
            for precond in ("practical", "exact"):
                run("table", "table", *case, "--precond", precond)
                run("spectrum", "spectrum", *case, "--precond", precond)
                run("spectrum --lanczos", "spectrum", *case, "--precond", precond, "--lanczos")
            run("export", "export", *case, "--matrix-market", os.path.join(tmp, f"{problem}{d}"))
    run("spectrum --lanczos past the cap", "spectrum", "--levels", "5", "--lanczos", "--precond", "exact")
    run("table csv", "table", "--levels", "2", "--format", "csv", "--out", os.path.join(tmp, "t.csv"),
        "--dump-residuals", os.path.join(tmp, "residuals"))
    for argv in refusals(tmp):
        run(" ".join(argv[:4]), *argv, want=2)
    from perfbench import workloads

    for name, workload in workloads.WORKLOADS.items():
        w = workload("full", 101)
        w.setup()
        attempted, failed = w.unit()
        codes.append((name, (attempted, failed), failed == 0))
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
    threading.settrace(calls)  # each thread started from here on, the factor worker's included
    try:
        import msp  # noqa: F401  (module-level lines run now, traced)

        with tempfile.TemporaryDirectory(prefix="line_census_") as tmp:
            codes = traffic(tmp)
    finally:
        threading.settrace(None)
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
    print("runs: " + "; ".join(f"{name} -> {code}" for name, code, _ in codes))
    unexpected = [f"{name} -> {code}" for name, code, ok in codes if not ok]
    if unexpected:
        print("unexpected: " + "; ".join(unexpected))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
