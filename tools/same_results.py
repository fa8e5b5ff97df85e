#!/usr/bin/env python3
"""Regenerate msp's record sets and print one hash per record, for a `diff`.

    python3 tools/same_results.py > change.txt
    python3 tools/same_results.py --src /path/to/other/checkout/src > parent.txt
    diff parent.txt change.txt

or, in one step against a commit of this repository:

    python3 tools/same_results.py --against HEAD

`--against REF` unpacks REF's `src` (`git archive`) into a temporary
directory, runs the record sets of REF's `src` and of this checkout's `src`
one after the other, each in its own process with one BLAS thread, and prints
the unified diff of the two outputs.  It exits 0 when only the first line
(the line count) differs, 1 otherwise, and 2 when git cannot archive REF.

    python3 tools/same_results.py --against HEAD --rounding

is for a change that moves bits at the rounding level on purpose.  It
compares the 312 `run_table` records on their clear text only (`clear`:
`it=`, `conv=`) and every other line in full, prints how many record
hashes moved per problem and the largest relative difference between the
two sides' solutions (as `--solutions` and `--diff` would), and exits 0
when nothing but those hashes and the line count differs.

Three record sets, run in one process with one BLAS thread:

* 312 `run_table` records: four problems x 1D L3-L4, 2D L3, 3D L2 (twisted
  extrusion; `boundary_control` 2D only) x p 2-3 x practical/exact x six
  default alphas.  Each record hashes the cell's dof count, iteration count,
  converged flag, Euclidean residual history and solution (sha256 of the
  float64 bytes) and prints the iteration count in the clear.
* CLI runs (stdout, stderr and exit code hashed; exit code printed): the
  spectrum of each of the 312 cells; the 48 spectra of acceptance gate 7
  (four problems x 2D p=2 L3-L4 x alpha 1, 1e-2, 1e-5 x exact/practical),
  of which the 24 at L3 are cells' spectra and run only as those;
  the 1D L5-L8 exact spectra (three problems x p 2-3 x alpha 1, 1e-2, 1e-3,
  1e-5); the 2D p=2 L6 --large table; two 3D tables; the 2D L5 --lanczos
  spectra (practical and exact); `verify --n 2..6 --trials 20` at seeds 101
  and 3434.  Each `kappa =` line is printed in the clear too.
* 400 verify systems, those of `verify --n 2..6 --trials 20` at seeds 101
  and 3434 (trial t draws from `default_rng(seed + t)`, the sharp system
  before the SPSD one), so that a generator edit is checked on two random
  streams: each record hashes every `exact_schur` factor's `lower()` and
  the `spectrum` eigenvalues.

The first line is the line count of the `msp` package that `--src` names.
Each record set ends with its factor census: how many `sparselin.cholesky`
calls each (storage kind, factor mode) pair took, and the largest band width
of those factors (order - 1 for a dense one), so that `--against` shows any
factor that changes mode.  The CLI runs take two censuses, one for the
spectra (`cli_spectra`) and one for the rest (`cli_others`).  The spectra
also end with their spectrum census: how many of the spectra `cli` computes
took each path (`SpectrumReport.method`: split, deflated or dense), so that
`--against` shows any spectrum whose path moves.  A census that counts no
factor fails the run: every record set factors something.

The output ends with the 1D exact verdict table: the exit codes of the 96
1D spectra, p=2 and p=3 (1 is BOUND VIOLATED; 17 of the 96 are false
alarms, see tests/test_records.py).  `--solutions FILE.npz` also saves the
solutions of the 312 records, and `--diff A.npz B.npz` prints the largest
relative difference between two such files.

`clear_records()` gives the lines of tests/data/records.txt, which Tier-1
compares: the clear text (`clear`, each line without its hash) of `records`
(the 312 `run_table` records, the CLI spectra and their censuses) and of
the verdict table.

    python3 tools/same_results.py --forms --against HEAD

compares the assembled forms instead, at 2D p=2 L6 (annulus_2d) and 3D p=3
L3 (twisted_3d): M, K and B of the volume pass, the normal Gram, the trace
mass and the normal coupling, and the L2 and normal-data right-hand sides
of the problems' sine data.  It prints each form's largest relative
difference, max |this - REF| / max |REF| over the stored values, or
"pattern differs" when the CSR index arrays do not match, and exits 0 when
every form is bitwise REF's.  `--forms-to FILE.npz` saves the forms of the
`--src` package, which is what each side of that comparison runs.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALPHAS_1D = ("1", "0.01", "0.001", "1e-05")
VERIFY_SEEDS = (101, 3434)  # the seeds of the recorded `verify` runs and their systems
PROBLEMS = ("distributed_very_weak", "distributed_strong", "boundary_control", "boundary_observation")


def _grid() -> list[tuple[str, int, int, int, str | None]]:
    """(problem, d, p, level, geometry) of the meshes of the 312 run_table records."""
    cases = []
    for problem in PROBLEMS:
        for d, level in ((1, 3), (1, 4), (2, 3), (3, 2)):
            if problem == "boundary_control" and d != 2:
                continue
            for p in (2, 3):
                cases.append((problem, d, p, level, "twisted_3d" if d == 3 else None))
    return cases


def _digest(*parts) -> str:
    import numpy as np

    h = hashlib.sha256()
    for part in parts:
        h.update(np.asarray(part, dtype=np.float64).tobytes() if not isinstance(part, str) else part.encode())
    return h.hexdigest()[:16]


@contextlib.contextmanager
def factor_census(name: str):
    """Count the factors of the enclosed run by (storage kind, factor mode); print them after it.

    A factor is a `sparselin.cholesky` call, or a `sparselin.cholesky_ahead`
    call (a factor `run_table` starts ahead) counted as the same `cholesky`
    call when its factor is finished, so that the pipelined factors count
    as the sequential ones do.  The wrappers are bound in every msp module
    that holds either function, as `from .sparselin import cholesky` makes
    a module do; `msp.cli` imports them all first, so none is first
    imported (and left unwrapped or never restored) inside the run.  Every
    record set factors something, so an empty census means the wrappers
    missed the calls: RuntimeError.
    """
    import msp.cli  # noqa: F401  (every msp module)
    from msp import sparselin

    cholesky, ahead = sparselin.cholesky, getattr(sparselin, "cholesky_ahead", None)
    counts, bands = Counter(), {}

    def count(m, f):
        key = f"{type(m).__name__}/{f.mode}"
        counts[key] += 1
        band = f.data.shape[0] - 1 if f.mode == "banded" else f.dim - 1
        bands[key] = max(bands.get(key, 0), band)
        return f

    def counted_ahead(m, pool):
        finish = ahead(m, pool)
        return lambda: count(m, finish())

    wrapped = {"cholesky": (cholesky, lambda m: count(m, cholesky(m))), "cholesky_ahead": (ahead, counted_ahead)}
    holders = [(mod, attr) for modname, mod in list(sys.modules.items()) if modname.partition(".")[0] == "msp"
               for attr, (fn, _) in wrapped.items() if fn is not None and getattr(mod, attr, None) is fn]
    for mod, attr in holders:
        setattr(mod, attr, wrapped[attr][1])
    try:
        yield
    finally:
        for mod, attr in holders:
            setattr(mod, attr, wrapped[attr][0])
    if not counts:
        raise RuntimeError(f"factor census {name}: no sparselin.cholesky call was counted")
    pairs = ", ".join(f"{key} {counts[key]} (band <= {bands[key]})" for key in sorted(counts))
    print(f"factor census {name}: {pairs}")


@contextlib.contextmanager
def spectrum_census():
    """Count the spectra `cli` computes in the enclosed run by `SpectrumReport.method`; print them after it.

    Only `cli`'s binding of `spectrum` is wrapped, so `verify`'s own spectra
    (called inside `saddle`) are not counted.  A report without `method`
    (an older `msp`) counts as "dense".
    """
    from msp import cli

    spectrum = cli.spectrum
    counts = Counter()

    def counted(*args, **kwargs):
        rep = spectrum(*args, **kwargs)
        counts[getattr(rep, "method", "dense")] += 1
        return rep

    cli.spectrum = counted
    try:
        yield
    finally:
        cli.spectrum = spectrum
    print("spectrum census cli: " + ", ".join(f"{key} {counts[key]}" for key in sorted(counts)))


def run_table_records(solutions: dict) -> None:
    from msp import problems, run

    captured = []
    solve = run.solve_problem

    def capturing_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        captured.append(res.solution.copy())
        return res

    run.solve_problem = capturing_solve
    try:
        for problem, d, p, level, geometry in _grid():
            for variant in ("practical", "exact_schur"):
                captured.clear()
                cells = run.run_table(problem, d, p, [level], list(problems.DEFAULT_ALPHAS), variant, geometry)
                for cell, x in zip(cells, captured, strict=True):
                    key = f"{problem} d={d} p={p} L={level} {variant} alpha={cell.alpha:g}"
                    solutions[key] = x
                    h = _digest(str(cell.dof), str(cell.iterations), str(cell.converged), cell.residual_history, x)
                    print(f"record {key}: it={cell.iterations} conv={cell.converged} {h}")
    finally:
        run.solve_problem = solve


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from msp import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_record(argv: list[str]) -> int:
    code, out, err = _cli(argv)
    h = _digest(out, "\0", err)
    kappa = "".join(f" | {line}" for line in out.splitlines() if line.startswith("kappa"))
    print(f"cli {' '.join(argv)}: exit={code} {h}{kappa}")
    return code


def _spectrum_argv(problem, d, p, level, alpha, precond, geometry=None) -> list[str]:
    argv = ["spectrum", "--problem", problem, "--dim", str(d), "--degree", str(p),
            "--levels", str(level), "--alphas", alpha, "--precond", precond]
    return argv + (["--geometry", geometry] if geometry else [])


def one_d_records() -> dict[tuple[str, int, int, str], int]:
    """The 96 1D L5-L8 exact spectra; their exit codes by (problem, p, level, alpha)."""
    verdicts = {}
    for problem in (q for q in PROBLEMS if q != "boundary_control"):
        for p in (2, 3):
            for level in (5, 6, 7, 8):
                for alpha in ALPHAS_1D:
                    argv = _spectrum_argv(problem, 1, p, level, alpha, "exact")
                    verdicts[problem, p, level, alpha] = _cli_record(argv)
    return verdicts


def cli_spectra() -> dict[tuple[str, int, int, str], int]:
    """The CLI spectra, each distinct argv once: the 312 cells', acceptance gate 7's 48 (24 of them cells') and
    the 96 1D exact ones; the 1D exit codes."""
    from msp import problems

    alphas = [f"{a:g}" for a in problems.DEFAULT_ALPHAS]
    argvs = [
        _spectrum_argv(problem, d, p, level, alpha, precond, geometry)
        for problem, d, p, level, geometry in _grid()
        for precond in ("practical", "exact")
        for alpha in alphas
    ]
    argvs += [
        _spectrum_argv(problem, 2, 2, level, alpha, precond)
        for problem in PROBLEMS
        for level in (3, 4)
        for alpha in ("1", "0.01", "1e-05")
        for precond in ("exact", "practical")
    ]
    for argv in dict.fromkeys(map(tuple, argvs)):  # gate 7's L3 spectra are among the cells': each runs once
        _cli_record(list(argv))
    return one_d_records()


def cli_others() -> None:
    """The other CLI runs: three tables, the two --lanczos spectra and the two `verify` runs."""
    _cli_record(["table", "--problem", "boundary_observation", "--dim", "2", "--degree", "2",
                 "--levels", "6", "--large", "--precond", "practical"])
    _cli_record(["table", "--problem", "boundary_observation", "--dim", "3", "--degree", "3",
                 "--levels", "2", "3", "--geometry", "twisted_3d"])
    _cli_record(["table", "--problem", "distributed_strong", "--dim", "3", "--levels", "3"])
    for precond in ("practical", "exact"):
        _cli_record(["spectrum", "--levels", "5", "--lanczos", "--precond", precond])
    for seed in VERIFY_SEEDS:
        _cli_record(["verify", "--n", "2..6", "--trials", "20", "--seed", str(seed)])


def records(solutions: dict) -> dict[tuple[str, int, int, str], int]:
    """The `run_table` records and the CLI spectra, each set with its censuses; the 1D exit codes.

    The operator cache is emptied first, so the factor censuses count the
    same factorizations in any process.
    """
    from msp import problems

    problems.get_operators.cache_clear()
    with factor_census("run_table"):
        run_table_records(solutions)
    with spectrum_census(), factor_census("cli spectra"):
        return cli_spectra()


def verify_system_records() -> None:
    import numpy as np
    from msp import saddle

    for seed in VERIFY_SEEDS:
        for n in range(2, 7):
            for t in range(20):
                rng = np.random.default_rng(seed + t)
                for kind, draw in (("sharp", saddle.random_sharp_system), ("spsd", saddle.random_spsd_system)):
                    sys = draw(n, rng)
                    pre = saddle.exact_schur(sys)
                    factors = _digest(*(f.lower() for f in pre.factors))
                    ev = _digest(saddle.spectrum(sys, pre).eigenvalues)
                    print(f"verify-system seed={seed} n={n} t={t} {kind}: factors {factors} eigenvalues {ev}")


def print_verdicts(verdicts: dict[tuple[str, int, int, str], int]) -> None:
    print("1D exact spectra, p=2 and p=3: exit codes (1 = BOUND VIOLATED)")
    print(f"{'problem':<24} {'p':>2} {'level':>5} " + " ".join(f"{a:>7}" for a in ALPHAS_1D))
    for problem, p, level in dict.fromkeys(k[:3] for k in verdicts):
        codes = " ".join(f"{verdicts[problem, p, level, a]:>7}" for a in ALPHAS_1D)
        print(f"{problem:<24} {p:>2} {level:>5} {codes}")
    print(f"violations: {sum(verdicts.values())} of {len(verdicts)}")


def clear(line: str) -> str:
    """A record line without its hash.

    A `run_table` record keeps `it=` and `conv=`, a CLI run `exit=` and its
    `kappa` line; any other line is its own clear text.
    """
    if line.startswith("record "):
        return line.rpartition(" ")[0]
    if line.startswith("cli "):
        argv, _, rest = line.partition(": exit=")
        code, _, rest = rest.partition(" ")
        kappa = rest.partition(" ")[2]  # past the hash
        return f"{argv}: exit={code}" + (f" {kappa}" if kappa else "")
    return line


def clear_records() -> list[str]:
    """The lines of tests/data/records.txt: the clear text of `records` and of the verdict table."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        print_verdicts(records({}))
    return [clear(line) for line in out.getvalue().splitlines()]


def diff_solutions(a_path: str, b_path: str) -> int:
    import numpy as np

    a, b = np.load(a_path), np.load(b_path)
    if sorted(a.files) != sorted(b.files):
        print("the two files hold different records")
        return 1
    worst = max((np.linalg.norm(a[k] - b[k]) / np.linalg.norm(b[k]), k) for k in b.files)
    print(f"largest relative solution difference: {worst[0]:.3e} ({worst[1]})")
    return 0


# (label, d, p, level, geometry) of the meshes `--forms` compares
FORM_MESHES = (("2D p=2 L6", 2, 2, 6, "annulus_2d"), ("3D p=3 L3", 3, 3, 3, "twisted_3d"))
FORM_NAMES = ("M", "K", "B", "normal_gram", "trace_mass", "normal_coupling", "rhs_l2", "rhs_normal_data")


def save_forms(path: str) -> None:
    """Assemble each form of FORM_NAMES on each of FORM_MESHES with the public assemblers; save them to `path`."""
    import numpy as np
    from msp import assembly, problems, splines

    arrays = {}
    for label, d, p, level, geometry in FORM_MESHES:
        space, geo = splines.tensor_space(d, p, level), splines.GEOMETRIES[geometry](d)
        trace = assembly.TraceSpace(space)
        m, k, b = assembly.assemble_volume_forms(space, geo)
        forms = {
            "M": m.to_csr(),
            "K": k,
            "B": b.to_csr(),
            "normal_gram": assembly.assemble_normal_gram(space, geo).to_csr(),
            "trace_mass": assembly.assemble_trace_mass(trace, geo).to_csr(),
            "normal_coupling": assembly.assemble_normal_coupling(trace, space, geo),
            "rhs_l2": assembly.assemble_rhs_l2(space, geo, problems.sine_data_value(d)),
            "rhs_normal_data": assembly.assemble_rhs_normal_data(space, geo, problems.sine_data_gradient(d)),
        }
        for name, form in forms.items():
            parts = {"data": form} if isinstance(form, np.ndarray) else {
                "data": form.data, "indices": form.indices, "indptr": form.indptr}
            for part, a in parts.items():
                arrays[f"{label}|{name}|{part}"] = a
    np.savez(path, **arrays)


def _forms_of(src: Path, path: Path) -> dict:
    import numpy as np

    subprocess.run([sys.executable, __file__, "--src", str(src), "--forms-to", str(path)], check=True)
    with np.load(path) as f:
        return {k: f[k] for k in f.files}


def forms_against(ref: str) -> int:
    """Print the largest relative difference of each form of this checkout against commit `ref`'s; 0 when all are bitwise equal."""
    import numpy as np

    with tempfile.TemporaryDirectory(prefix="same_results_") as tmp:
        if _unpack_src(ref, tmp):
            return 2
        old = _forms_of(Path(tmp) / "src", Path(tmp) / "ref.npz")
        new = _forms_of(ROOT / "src", Path(tmp) / "this.npz")
    same = True
    for label, *_ in FORM_MESHES:
        for name in FORM_NAMES:
            key = f"{label}|{name}|"
            parts = [k[len(key):] for k in new if k.startswith(key)]
            if any(not np.array_equal(old[key + part], new[key + part]) for part in parts if part != "data"):
                same = False
                print(f"{label} {name}: pattern differs")
                continue
            a, b = new[key + "data"], old[key + "data"]
            rel = float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
            same = same and rel == 0.0
            print(f"{label} {name}: {rel:.1e}" if rel else f"{label} {name}: 0.0")
    return 0 if same else 1


def _unpack_src(ref: str, tmp: str, trees: tuple[str, ...] = ("src",)) -> int:
    """Unpack the `trees` of commit `ref` into `tmp`; git's exit code."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, *trees], stdout=subprocess.PIPE)
    if archive.returncode == 0:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
    return archive.returncode


def _records_of(src: Path, solutions: Path) -> list[str]:
    """The record lines of the msp package under `src`, from a child process (`main` sets one BLAS thread).

    The 312 solutions go to `solutions`.
    """
    argv = [sys.executable, __file__, "--src", str(src), "--solutions", str(solutions)]
    return subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()


def _hashes_moved(old: list[str], new: list[str]) -> bool:
    """Print how many `run_table` record hashes moved per problem; True when no other part of a line differs."""
    moved, total = Counter(), Counter()
    for a, b in zip(old, new):
        if a.startswith("record ") and clear(a) == clear(b):
            problem = a.split()[1]
            total[problem] += 1
            moved[problem] += a != b
    print("record hashes moved: " + ", ".join(f"{p} {moved[p]} of {total[p]}" for p in total))
    return len(old) == len(new) and all(
        a == b or a.startswith("record ") and clear(a) == clear(b) for a, b in zip(old, new)
    )


def against(ref: str, rounding: bool = False) -> int:
    """Diff the records of commit `ref` against this checkout's; 0 when only the line count differs.

    With `rounding`, the `run_table` record hashes may differ too: their
    moves and the largest relative solution difference are printed.
    """
    with tempfile.TemporaryDirectory(prefix="same_results_") as tmp:
        if _unpack_src(ref, tmp):
            return 2  # git has said why
        ref_npz, this_npz = Path(tmp) / "ref.npz", Path(tmp) / "this.npz"
        old = _records_of(Path(tmp) / "src", ref_npz)
        new = _records_of(ROOT / "src", this_npz)
        for line in difflib.unified_diff(old, new, ref, "this checkout", lineterm=""):
            print(line)
        if rounding:
            same = _hashes_moved(old[1:], new[1:])
            diff_solutions(str(this_npz), str(ref_npz))
        else:
            same = old[1:] == new[1:]
    allowed = "the line count and run_table record hashes differ" if rounding else "the line count differs"
    print(f"{len(new)} lines; {f'only {allowed}' if same else 'records differ'}", file=sys.stderr)
    return 0 if same else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the msp package to run (default: this checkout's src)")
    ap.add_argument("--solutions", metavar="FILE.npz", help="also save the 312 solutions")
    ap.add_argument("--diff", nargs=2, metavar=("A.npz", "B.npz"), help="compare two saved solution sets and exit")
    ap.add_argument("--against", metavar="REF", help="diff the records of git commit REF against this checkout's")
    ap.add_argument("--forms", action="store_true",
                    help="with --against, compare the assembled forms instead of the records")
    ap.add_argument("--rounding", action="store_true",
                    help="with --against, allow the run_table record hashes to move; compare counts and flags")
    ap.add_argument("--forms-to", metavar="FILE.npz", help="save the assembled forms of the --src package and exit")
    args = ap.parse_args(argv)
    if args.diff:
        return diff_solutions(*args.diff)
    if (args.forms or args.rounding) and not args.against:
        ap.error("--forms and --rounding need --against REF")
    if args.forms and args.rounding:
        ap.error("--rounding compares records, not forms")
    if args.against:
        return forms_against(args.against) if args.forms else against(args.against, args.rounding)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported
    sys.path.insert(0, args.src)
    import msp

    package = Path(msp.__file__).resolve().parent
    print(f"msp from {package}", file=sys.stderr)
    if args.forms_to:
        save_forms(args.forms_to)
        return 0
    print(f"src/msp lines: {sum(len(f.read_text().splitlines()) for f in package.glob('*.py'))}")
    solutions: dict = {}
    verdicts = records(solutions)
    with factor_census("cli tables, --lanczos spectra and verify"):
        cli_others()
    with factor_census("verify systems"):
        verify_system_records()
    print_verdicts(verdicts)
    if args.solutions:
        import numpy as np

        np.savez(args.solutions, **solutions)
    return 0


if __name__ == "__main__":
    sys.exit(main())
