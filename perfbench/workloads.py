"""The three benchmark workloads, each driven through msp's public API and CLI.

Each workload has a `setup()` (the warm-up a user pays once per process) and
a `unit()` (one measured run) that checks its own outputs and returns
`(attempted, failed)` operations.  An operation is a table cell, a solve, a
certification trial or a spectrum check; a mismatch with the expected output
is a failed operation, never an exception, so that it lands in the result.

Why these three: no single workload shows gains in all three places where the
time goes.  `table_2d` is dominated by assembly and splines (a cold CLI
table), `solve_3d` by MINRES and dense block solves (operators warm), and
`certify` by many tiny factorizations and dense eigensolves (no MINRES).

Smoke sizes (2D L3, 3D L2, `verify --n 2..3`, L2 spectra) run in seconds and
serve the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import re

from msp import cli, problems, run

ALPHAS = list(problems.DEFAULT_ALPHAS)
SPECTRUM_ALPHA = 0.01

# Expected outputs.  Iteration rows are per alpha in DEFAULT_ALPHAS order.
TABLE_2D = {"full": (6, 12808, [23, 38, 38, 32, 19, 15]), "smoke": (3, 264, [24, 38, 43, 36, 23, 20])}
SOLVE_3D = {"full": (3, [29, 41, 46, 42, 26, 23]), "smoke": (2, [26, 36, 40, 30, 20, 17])}
# problem -> printed kappa of the exact-Schur spectrum at alpha = 0.01
CERTIFY = {
    "full": (
        "2..6",
        4,
        {
            "distributed_very_weak": "2.618034",
            "distributed_strong": "4.048901",
            "boundary_control": "2.618034",
            "boundary_observation": "4.048917",
        },
    ),
    "smoke": (
        "2..3",
        2,
        {
            "distributed_very_weak": "2.618034",
            "distributed_strong": "4.043668",
            "boundary_control": "2.618034",
            "boundary_observation": "4.048917",
        },
    ),
}
VERIFY_TRIALS = 20
_BOUND_SLACK = 1e-10  # the CLI's own slack on the condition-number bound


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run `msp <argv>` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _table_row(text: str, level: int) -> tuple[int, list[str]] | None:
    """(dof, cells) of one level row of a markdown table printed by `msp table`."""
    for line in text.splitlines():
        fields = [f.strip() for f in line.strip().strip("|").split("|")]
        if len(fields) >= 2 and fields[0] == str(level):
            return int(fields[1]), fields[2:]
    return None


def _operator_misses() -> int:
    return problems.get_operators.cache_info().misses


class Table2D:
    """Cold `msp table --dim 2 --levels 6 --large`: every run assembles from scratch."""

    name = "table_2d"
    reference_memory_solves = 0  # interpreter-bound: assembly and splines

    def __init__(self, size: str, seed: int):
        self.level, self.dof, self.expected = TABLE_2D[size]
        self.argv = self._argv(self.level) + (["--large"] if self.level >= 6 else [])

    @staticmethod
    def _argv(level: int) -> list[str]:
        return [
            "table", "--problem", "boundary_observation", "--dim", "2", "--degree", "2",
            "--levels", str(level), "--precond", "practical",
        ]

    def setup(self) -> None:
        code, text = _cli(self._argv(2))  # a 2D L2 table warms the code paths
        if code != 0 or _table_row(text, 2) is None:
            raise RuntimeError(f"warm-up table failed (exit {code})")

    def unit(self) -> tuple[int, int]:
        problems.get_operators.cache_clear()
        code, text = _cli(self.argv)
        if _operator_misses() != 1:
            raise RuntimeError("table_2d run was not cold")
        row = _table_row(text, self.level)
        n = len(self.expected)
        if code != 0 or row is None or row[0] != self.dof:
            return n, n
        got = row[1]
        return n, sum(g != str(w) for g, w in zip(got, self.expected)) + abs(len(got) - n)


class Solve3D:
    """`run.run_table` for 3D p=3 boundary observation on warm operators."""

    name = "solve_3d"
    reference_memory_solves = 4  # ~85% memory-bound dense solves and sparse matvecs

    def __init__(self, size: str, seed: int):
        self.level, self.expected = SOLVE_3D[size]

    def setup(self) -> None:
        # Operators plus one solve: the first sweep in a process is ~10% slower
        # than the next ones, which a user pays once, like the assembly.
        problems.get_operators.cache_clear()
        problems.build_problem(
            problems.ProblemConfig("boundary_observation", d=3, p=3, level=self.level, geometry="twisted_3d")
        )
        cells = run.run_table("boundary_observation", 3, 3, [self.level], ALPHAS[3:4], "practical", "twisted_3d")
        if cells[0].iterations != self.expected[3]:
            raise RuntimeError("warm-up solve gave the wrong iteration count")

    def unit(self) -> tuple[int, int]:
        misses = _operator_misses()
        cells = run.run_table(
            "boundary_observation", 3, 3, [self.level], ALPHAS, "practical", "twisted_3d"
        )
        if _operator_misses() != misses:
            raise RuntimeError("solve_3d operators were not warm")
        n = len(self.expected)
        bad = sum(not c.converged or c.iterations != w for c, w in zip(cells, self.expected))
        return n, bad + abs(len(cells) - n)


class Certify:
    """`msp verify` plus exact-Schur `msp spectrum` for all four problems."""

    name = "certify"
    reference_memory_solves = 0  # interpreter and small-LAPACK bound

    def __init__(self, size: str, seed: int):
        self.n_range, self.level, self.kappas = CERTIFY[size]
        self.seed = seed
        lo, hi = (int(v) for v in self.n_range.split(".."))
        self.n_values = list(range(lo, hi + 1))

    def setup(self) -> None:
        problems.get_operators.cache_clear()
        for problem in self.kappas:
            problems.build_problem(
                problems.ProblemConfig(problem, d=2, p=2, level=self.level, alpha=SPECTRUM_ALPHA)
            )

    def unit(self) -> tuple[int, int]:
        attempted, failed = self._verify()
        for problem, kappa in self.kappas.items():
            failed += self._spectrum(problem, kappa)
            attempted += 1
        return attempted, failed

    def _verify(self) -> tuple[int, int]:
        attempted = failed = 0
        code, text = _cli(
            ["verify", "--n", self.n_range, "--trials", str(VERIFY_TRIALS), "--seed", str(self.seed)]
        )
        for n in self.n_values:
            attempted += VERIFY_TRIALS
            m = re.search(
                rf"^sharpness/bounds n={n} \(\d+ trials\): (PASS|FAIL).*\n(?:  failing seeds: \[(.*)\])?",
                text,
                re.M,
            )
            if m is None or m.group(1) != "PASS":
                seeds = m.group(2) if m is not None else None
                failed += len(seeds.split(",")) if seeds else VERIFY_TRIALS
        closed_form = re.findall(r"^(Q_j norms|epsilon-sequence identities).*: (PASS|FAIL)", text, re.M)
        attempted += 2
        failed += 2 - sum(status == "PASS" for _, status in closed_form)
        if code != 0 and failed == 0:
            failed = 1  # a violation that no output line shows
        return attempted, failed

    def _spectrum(self, problem: str, kappa: str) -> int:
        """1 if the exact-Schur spectrum misses its expected kappa or bound, else 0."""
        misses = _operator_misses()
        code, text = _cli(
            ["spectrum", "--problem", problem, "--precond", "exact",
             "--levels", str(self.level), "--alphas", str(SPECTRUM_ALPHA)]
        )
        if _operator_misses() != misses:
            raise RuntimeError("certify operators were not warm")
        m = re.search(r"kappa = (\S+)\s+\(bound for n=\d+: (\S+)\)", text)
        ok = (
            code == 0
            and m is not None
            and m.group(1) == kappa
            and float(m.group(1)) <= float(m.group(2)) * (1.0 + _BOUND_SLACK)
        )
        return int(not ok)


WORKLOADS = {w.name: w for w in (Table2D, Solve3D, Certify)}
