"""Command-line interface: exit codes, output formats, file artifacts."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import msp.cli
import msp.run
import msp.saddle
from msp.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_VIOLATION, main
from msp.krylov import minres_solve
from msp.problems import PROBLEM_IDS, ProblemConfig, block_dims, build_problem, make_preconditioner
from msp.sparselin import NotPositiveDefinite


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


SMALL = ["--dim", "2", "--degree", "2", "--levels", "2", "--alphas", "0.1"]

# user-given lists of several levels or alphas, for the single-case commands
SEVERAL = [
    ["--levels", "2", "3", "--alphas", "0.1"],
    ["--levels", "2", "--alphas", "1.0", "0.01"],
]


def refuse_builds(monkeypatch):
    def fail(cfg):
        raise AssertionError(f"built {cfg}")

    monkeypatch.setattr(msp.cli, "build_problem", fail)


def test_import_leaves_scipy_io_out():
    # scipy.io serves only the Matrix Market export, so a CLI start does not load it
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(msp.__file__))}
    check = "import sys, msp.cli; sys.exit('scipy.io' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", check], env=env).returncode == 0


class TestVerify:
    def test_passes_with_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2..3", "--trials", "3")
        assert code == EXIT_OK
        assert "PASS" in out
        assert "FAIL" not in out
        assert "sharpness/bounds n=2" in out
        assert "sharpness/bounds n=3" in out

    def test_single_n(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--trials", "2")
        assert code == EXIT_OK
        assert "n=4" in out

    # a certificate that checks nothing must not pass
    @pytest.mark.parametrize("argv", [["--n", "3..2"], ["--trials", "0"], ["--trials", "-3"]])
    def test_vacuous_run_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_CONFIG
        assert "PASS" not in out
        assert "configuration error" in err

    @pytest.mark.parametrize("n", ["2..7", "1", "0..3"])
    def test_block_count_out_of_range_refused_before_any_suite(self, capsys, n):
        code, out, err = run_cli(capsys, "verify", "--n", n, "--trials", "1")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error: --n must lie in 2..6" in err

    def test_negative_seed_refused_before_any_suite(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--trials", "1", "--seed", "-5")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error: --seed must be non-negative" in err


class TestTable:
    def test_markdown_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--problem", "distributed_very_weak", *SMALL
        )
        assert code == EXIT_OK
        assert "|" in out

    def test_csv_and_markdown_agree(self, capsys, tmp_path):
        args = ["table", "--problem", "distributed_very_weak", *SMALL]
        _, md, _ = run_cli(capsys, *args, "--format", "md")
        _, csv, _ = run_cli(capsys, *args, "--format", "csv")
        md_nums = [t for t in md.replace("|", " ").split() if t.isdigit()]
        csv_nums = [t for row in csv.splitlines() for t in row.split(",") if t.isdigit()]
        assert set(csv_nums) <= set(md_nums + csv_nums)
        # the iteration count itself must appear in both renderings
        iters = [t for t in csv.splitlines()[-1].split(",") if t.strip().isdigit()]
        assert iters and all(i in md_nums for i in iters)

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys,
            "table", "--problem", "distributed_very_weak", *SMALL,
            "--format", "csv", "--out", str(dest),
        )
        assert code == EXIT_OK
        assert dest.read_text().strip()
        assert out == ""

    def test_dump_residuals(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counting_minres(*args, **kwargs):
            calls.append(1)
            return minres_solve(*args, **kwargs)

        monkeypatch.setattr(msp.run, "minres_solve", counting_minres)
        dest = tmp_path / "hist"
        code, _, _ = run_cli(
            capsys,
            "table", "--problem", "distributed_very_weak", *SMALL,
            "--dump-residuals", str(dest),
        )
        assert code == EXIT_OK
        assert len(calls) == 1  # one solve per table cell
        files = os.listdir(dest)
        assert len(files) == 1
        lines = (dest / files[0]).read_text().splitlines()
        assert lines[0] == "iteration,residual"
        vals = [float(r.split(",")[1]) for r in lines[1:]]
        assert vals[-1] < vals[0]

    def test_one_dimensional_default_geometry(self, capsys):
        code, out, err = run_cli(
            capsys,
            "table", "--problem", "distributed_very_weak",
            "--dim", "1", "--levels", "3", "--alphas", "1.0",
        )
        assert code == EXIT_OK, err
        assert out.splitlines()[-1].split("|")[-2].strip() == "9"

    def test_large_gate(self, capsys):
        code, _, err = run_cli(
            capsys,
            "table", "--problem", "distributed_very_weak",
            "--dim", "2", "--levels", "6", "--alphas", "1.0",
        )
        assert code == EXIT_CONFIG
        assert "--large" in err

    def test_one_dimensional_desk_scale(self, capsys):
        # 1D level 4 has 16 elements, far below the --large threshold
        code, _, err = run_cli(
            capsys,
            "table", "--problem", "distributed_very_weak",
            "--dim", "1", "--levels", "4", "--alphas", "1.0",
        )
        assert code == EXIT_OK, err

    @pytest.mark.parametrize("dim,level", [(1, 12), (3, 4)])
    def test_large_gate_counts_elements(self, capsys, dim, level):
        code, _, err = run_cli(
            capsys,
            "table", "--problem", "distributed_very_weak",
            "--dim", str(dim), "--levels", str(level), "--alphas", "1.0",
        )
        assert code == EXIT_CONFIG
        assert "--large" in err

    def test_exact_precond_beyond_dense_cap(self, capsys, monkeypatch):
        # an exact --large table is refused by `plan`'s stage cap, before anything is built
        refuse_builds(monkeypatch)
        monkeypatch.setattr(msp.run, "build_problem", msp.cli.build_problem)
        code, out, err = run_cli(
            capsys,
            "table", "--problem", "distributed_very_weak",
            "--dim", "2", "--levels", "6", "--alphas", "1.0",
            "--large", "--precond", "exact",
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == (
            "configuration error: Schur complement S_2 has order 4096, above the dense limit 2000; "
            "use the practical preconditioner\n"
        )


class TestSpectrum:
    def test_exact_schur_within_bound(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--problem", "distributed_very_weak", *SMALL,
            "--precond", "exact",
        )
        assert code == EXIT_OK
        assert "kappa" in out
        assert "BOUND VIOLATED" not in out

    @pytest.mark.parametrize("precond, code", [("exact", EXIT_VIOLATION), ("practical", EXIT_OK)])
    def test_verdict_is_the_reports(self, capsys, monkeypatch, precond, code):
        # the CLI reads the report's bound check; only the exact preconditioner is judged
        monkeypatch.setattr(msp.saddle.SpectrumReport, "cond_exceeds_bound", property(lambda rep: True))
        got, out, _ = run_cli(
            capsys,
            "spectrum", "--problem", "distributed_very_weak", *SMALL,
            "--precond", precond,
        )
        assert got == code
        assert ("BOUND VIOLATED" in out) == (code == EXIT_VIOLATION)

    @pytest.mark.parametrize("problem", ["distributed_strong", "boundary_control"])
    def test_undeclared_lead_factor_is_a_violation(self, capsys, monkeypatch, problem):
        # the first lead factor 1% off (for a three-block problem the factor of
        # 1.01 alpha M) under the builder's T: the deflated spectrum refuses
        # it and the CLI exits 1
        def broken(prob, variant):
            pre = make_preconditioner(prob, variant)
            factors = [pre.factors[0].scaled(1.01), *pre.factors[1:]]
            return msp.saddle.SchurPreconditioner(factors=factors, system=prob.system, lead=prob.lead_pattern)

        monkeypatch.setattr(msp.cli, "make_preconditioner", broken)
        code, out, err = run_cli(capsys, "spectrum", "--problem", problem, *SMALL, "--precond", "exact")
        assert code == EXIT_VIOLATION
        header, refusal = out.splitlines()
        assert header.startswith(f"problem={problem} ")
        assert refusal.startswith("PRECONDITIONER MISMATCH: the preconditioned lead blocks are not T ⊗ I")
        assert err == ""

    def test_three_block_problem(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--problem", "boundary_observation", *SMALL,
            "--precond", "exact",
        )
        assert code == EXIT_OK
        kappa = float(out.split("kappa = ")[1].split()[0])
        assert kappa <= 4.0490

    def test_dense_cap_requires_lanczos(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--problem", "distributed_very_weak",
            "--dim", "2", "--levels", "5", "--alphas", "1.0",
        )
        assert code == EXIT_CONFIG
        assert "--lanczos" in out

    def test_dense_cap_checked_before_preconditioner(self, capsys, monkeypatch):
        calls = []

        def counting_make_preconditioner(*args, **kwargs):
            calls.append(1)
            return make_preconditioner(*args, **kwargs)

        monkeypatch.setattr(msp.cli, "make_preconditioner", counting_make_preconditioner)
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--problem", "distributed_strong",
            "--levels", "5", "--precond", "exact",
        )
        assert code == EXIT_CONFIG
        assert "--lanczos" in out
        assert calls == []

    @pytest.mark.parametrize(
        "problem", ["distributed_very_weak", "distributed_strong", "boundary_observation"]
    )
    def test_one_dimensional_exact_within_bound(self, capsys, problem):
        code, out, err = run_cli(
            capsys,
            "spectrum", "--problem", problem,
            "--dim", "1", "--levels", "3", "--precond", "exact",
        )
        assert code == EXIT_OK, err
        kappa, bound = re.search(r"kappa = (\S+)  \(bound for n=\d: (\S+)\)", out).groups()
        assert float(kappa) <= float(bound)

    @pytest.mark.parametrize("several", SEVERAL)
    def test_several_cases_refused(self, capsys, monkeypatch, several):
        refuse_builds(monkeypatch)
        code, out, err = run_cli(
            capsys, "spectrum", "--problem", "distributed_strong", "--precond", "exact", *several
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error: spectrum takes one value of" in err

    def test_lanczos_path(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--problem", "distributed_very_weak",
            "--dim", "2", "--levels", "5", "--alphas", "1.0", "--lanczos",
        )
        assert code == EXIT_OK
        assert "Ritz extremes" in out

    @pytest.mark.parametrize("precond", ["practical", "exact"])
    @pytest.mark.parametrize(
        "problem, dim", [(pid, d) for pid in PROBLEM_IDS for d in (1, 2, 3) if pid != "boundary_control" or d == 2]
    )
    def test_empty_last_block_refused(self, capsys, tmp_path, problem, dim, precond):
        # at degree 1, level 0 the last space has no function: the spectrum
        # is refused before any eigensolve, while table and export still run
        case = ["--problem", problem, "--dim", str(dim), "--degree", "1", "--levels", "0", "--alphas", "1"]
        code, out, err = run_cli(capsys, "spectrum", *case, "--precond", precond)
        assert code == EXIT_CONFIG
        assert out == f"problem={problem} level=0 alpha=1 precond={msp.cli._VARIANTS[precond]}\n"
        last = len(block_dims(ProblemConfig(problem, dim, 1, 0, 1.0)))
        assert err == f"configuration error: block {last} of the system is empty: it has no spectrum to bound\n"
        assert run_cli(capsys, "table", *case, "--precond", precond)[0] == EXIT_OK
        assert run_cli(capsys, "export", *case, "--matrix-market", str(tmp_path / "mm"))[0] == EXIT_OK


class TestExport:
    def test_writes_blocks_and_rhs(self, capsys, tmp_path):
        dest = tmp_path / "mm"
        code, out, _ = run_cli(
            capsys,
            "export", "--problem", "boundary_observation", *SMALL,
            "--matrix-market", str(dest),
        )
        assert code == EXIT_OK
        names = sorted(os.listdir(dest))
        assert names == ["A1.mtx", "A2.mtx", "A3.mtx", "B1.mtx", "B2.mtx", "rhs.txt"]
        rhs = np.loadtxt(dest / "rhs.txt")
        assert rhs.ndim == 1 and np.all(np.isfinite(rhs))

    @pytest.mark.parametrize("several", SEVERAL)
    def test_several_cases_refused(self, capsys, monkeypatch, tmp_path, several):
        refuse_builds(monkeypatch)
        dest = tmp_path / "mm"
        code, out, err = run_cli(
            capsys, "export", "--problem", "boundary_observation", *several,
            "--matrix-market", str(dest),
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error: export takes one value of" in err
        assert not dest.exists()

    @pytest.mark.parametrize(
        "bad, message",
        [
            (["--problem", "boundary_control", "--dim", "3"], "boundary_control is only set up for d = 2"),
            (["--geometry", "nowhere"], "unknown geometry 'nowhere'"),
        ],
        ids=["problem-dim", "geometry"],
    )
    def test_refused_export_makes_no_directory(self, capsys, monkeypatch, tmp_path, bad, message):
        refuse_builds(monkeypatch)
        dest = tmp_path / "D"
        code, out, err = run_cli(capsys, "export", "--levels", "2", *bad, "--matrix-market", str(dest))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"configuration error: {message}")
        assert not dest.exists()

    def test_existing_file_refused_before_build(self, capsys, monkeypatch, tmp_path):
        # the export directory is made, or refused, before anything is assembled
        refuse_builds(monkeypatch)
        dest = tmp_path / "taken"
        dest.write_text("")
        code, out, err = run_cli(
            capsys, "export", "--problem", "boundary_observation", *SMALL,
            "--matrix-market", str(dest),
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("configuration error:")
        assert dest.read_text() == ""

    @pytest.mark.parametrize("problem", ["distributed_very_weak", "boundary_observation"])
    def test_roundtrip_every_block(self, capsys, tmp_path, problem):
        # each diagonal block is written as its lower triangle, declared symmetric
        import scipy.io

        dest = tmp_path / "mm"
        code, _, err = run_cli(capsys, "export", "--problem", problem, *SMALL, "--matrix-market", str(dest))
        assert code == EXIT_OK, err
        prob = build_problem(ProblemConfig(problem=problem, d=2, p=2, level=2, alpha=0.1))
        for i, a in enumerate(prob.system.A, start=1):
            assert scipy.io.mminfo(dest / f"A{i}.mtx")[-1] == "symmetric"
            assert np.allclose(scipy.io.mmread(dest / f"A{i}.mtx").toarray(), a.to_dense(), atol=1e-14)


class TestFactorModes:
    @pytest.fixture
    def factors(self, monkeypatch):
        """(storage kind, factor mode) of every `cholesky` call and every factor `run_table` starts ahead, in the
        order they are finished."""
        from msp import problems, saddle, sparselin

        calls = []
        cholesky, ahead = sparselin.cholesky, sparselin.cholesky_ahead

        def recorded(m, f):
            calls.append((type(m).__name__, f.mode))
            return f

        def recording(m):
            return recorded(m, cholesky(m))

        def recording_ahead(m, pool):
            finish = ahead(m, pool)
            return lambda: recorded(m, finish())

        for mod in (sparselin, saddle, problems):
            monkeypatch.setattr(mod, "cholesky", recording)
        monkeypatch.setattr(msp.run, "cholesky_ahead", recording_ahead)
        return calls

    def test_schur_stages_are_factored_dense(self, capsys, factors):
        # verify and the four certify spectra: every Schur stage arrives as
        # a bare array and gets a dense factor
        assert run_cli(capsys, "verify", "--n", "2..6", "--trials", "3")[0] == EXIT_OK
        stages = 2 * 3 * sum(range(2, 7))  # two systems per trial, one stage per block
        assert factors == [("ndarray", "dense")] * stages
        factors.clear()
        for problem in PROBLEM_IDS:
            code, _, _ = run_cli(
                capsys, "spectrum", "--problem", problem, "--precond", "exact", "--levels", "4", "--alphas", "0.01"
            )
            assert code == EXIT_OK
        assert [f for f in factors if f[0] == "ndarray"] == [("ndarray", "dense")] * len(PROBLEM_IDS)

    def test_practical_blocks_are_factored_banded(self, capsys, factors):
        from msp import problems

        problems.get_operators.cache_clear()  # the mass factor too
        assert run_cli(capsys, "table", "--dim", "2", "--degree", "2", "--levels", "3")[0] == EXIT_OK
        assert len(factors) == 1 + len(problems.DEFAULT_ALPHAS)
        assert set(factors) == {("SparseSymMatrix", "banded")}


class TestErrors:
    def test_unknown_geometry(self, capsys):
        code, _, err = run_cli(
            capsys,
            "table", "--problem", "distributed_very_weak", *SMALL,
            "--geometry", "moebius",
        )
        assert code == EXIT_CONFIG

    def test_boundary_control_3d_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "table", "--problem", "boundary_control", "--dim", "3",
            "--degree", "3", "--levels", "2", "--alphas", "1.0",
        )
        assert code == EXIT_CONFIG
        assert "configuration error" in err

    @pytest.mark.parametrize("bad", [["--levels", "-1"], ["--levels", "2", "--degree", "0"]])
    def test_bad_level_or_degree_rejected(self, capsys, bad):
        code, _, err = run_cli(
            capsys, "table", "--problem", "boundary_observation", "--alphas", "1.0", *bad
        )
        assert code == EXIT_CONFIG
        assert "configuration error" in err

    @pytest.mark.parametrize("maxit", ["0", "-3"])
    def test_maxit_below_one_is_a_configuration_error(self, capsys, maxit):
        code, out, err = run_cli(
            capsys, "table", "--levels", "2", "--alphas", "1", "--maxit", maxit
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error: maxit must be at least 1" in err

    @pytest.mark.parametrize(
        "bad, message",
        [
            (["--maxit", "0"], "maxit must be at least 1"),
            (["--tol", "0"], "tol must lie in (0, 1)"),
            (["--tol", "1.5"], "tol must lie in (0, 1)"),
        ],
    )
    def test_solver_options_checked_before_any_build(self, capsys, monkeypatch, bad, message):
        calls = []

        def counting_build_problem(cfg):
            calls.append(cfg)
            return build_problem(cfg)

        monkeypatch.setattr(msp.run, "build_problem", counting_build_problem)
        code, out, err = run_cli(
            capsys, "table", "--dim", "2", "--levels", "3", "--alphas", "1", *bad
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"configuration error: {message}" in err
        assert calls == []

    STAGE_2197 = (
        "configuration error: Schur complement S_3 has order 2197, above the dense limit 2000; "
        "use the practical preconditioner\n"
    )

    @pytest.mark.parametrize(
        "argv, out, err",
        [
            (["spectrum", "--precond", "exact", "--lanczos"], "", STAGE_2197),
            (["table", "--precond", "exact", "--alphas", "1"], "", STAGE_2197),
            (["spectrum", "--precond", "practical"], "system dimension 8947 exceeds the dense cap 2000; rerun with --lanczos\n", ""),
        ],
        ids=["spectrum-exact-lanczos", "table-exact", "spectrum-practical"],
    )
    def test_oversize_runs_refused_before_any_build(self, capsys, monkeypatch, argv, out, err):
        # 3D p=7 L3: the block orders alone decide these refusals, so they
        # come before assembly (which took about 30 s and 450 MB), with the
        # output they had when they came after it
        calls = []

        def counting_build_problem(cfg):
            calls.append(cfg)
            return build_problem(cfg)

        for mod in (msp.cli, msp.run):
            monkeypatch.setattr(mod, "build_problem", counting_build_problem)
        got = run_cli(capsys, *argv, "--dim", "3", "--degree", "7", "--levels", "3")
        assert got == (EXIT_CONFIG, out, err)
        assert calls == []

    @pytest.mark.parametrize(
        "bad",
        [
            ["--tol", "2"],
            ["--maxit", "0"],
            ["--geometry", "nowhere"],
            ["--alphas", "nan"],
            ["--levels", "-1"],
            ["--problem", "boundary_control", "--dim", "3"],
            ["--precond", "exact", "--dim", "3", "--degree", "7", "--levels", "3"],
        ],
        ids=["tol", "maxit", "geometry", "alpha", "level", "problem-dim", "exact-stage"],
    )
    def test_refused_table_makes_no_residual_directory(self, capsys, tmp_path, bad):
        dest = tmp_path / "D"
        code, out, err = run_cli(capsys, "table", "--levels", "2", "--dump-residuals", str(dest), *bad)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("configuration error: ")
        assert not dest.exists()

    def test_failed_table_makes_no_residual_directory(self, capsys, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise NotPositiveDefinite("block 1 is not SPD")

        monkeypatch.setattr(msp.run, "solve_problem", fail)
        dest = tmp_path / "D"
        code, out, err = run_cli(capsys, "table", *SMALL, "--dump-residuals", str(dest))
        assert code == EXIT_SOLVER
        assert out == ""
        assert err.startswith("solver failure: ")
        assert not dest.exists()

    @pytest.mark.parametrize(
        "precond, message",
        [
            ("practical", "block 3 is not SPD: 1-th leading minor not positive definite"),
            ("exact", "Schur complement S_3 is not SPD: 1-th leading minor of the array is not positive definite"),
        ],
    )
    def test_indefinite_cell_factored_ahead_exits_3(self, capsys, monkeypatch, precond, message):
        # the second cell's last block is factored while the first solves; made
        # indefinite, it fails the table as a cell factored in turn does
        build = msp.run.build_problem

        def hooked(cfg):
            prob = build(cfg)
            if cfg.alpha == 0.01:
                prob.practical_blocks[-1] = prob.practical_blocks[-1].scaled(-1.0)
                prob.system.A[-1] = prob.system.A[-1].scaled(-1e6)
            return prob

        monkeypatch.setattr(msp.run, "build_problem", hooked)
        code, out, err = run_cli(
            capsys, "table", "--problem", "boundary_observation", "--dim", "2", "--degree", "2",
            "--levels", "3", "--alphas", "1", "0.01", "--precond", precond,
        )
        assert code == EXIT_SOLVER
        assert out == ""
        assert err == f"solver failure: {message}\n"

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_rejected(self, capsys, alpha):
        code, out, err = run_cli(capsys, "table", "--levels", "2", "--alphas", alpha)
        assert code == EXIT_CONFIG
        assert out == ""
        assert "configuration error: alpha must be positive and finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--problem", "distributed_very_weak", *SMALL, "--out", "{missing}/x.md"],
            ["table", "--problem", "distributed_very_weak", *SMALL, "--dump-residuals", "{file}"],
            ["export", "--problem", "distributed_very_weak", *SMALL, "--matrix-market", "{file}"],
        ],
        ids=["table-out", "table-dump-residuals", "export"],
    )
    def test_unwritable_output_is_a_configuration_error(self, capsys, tmp_path, argv):
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        paths = {"missing": str(tmp_path / "missing"), "file": str(a_file)}
        code, _, err = run_cli(capsys, *[a.format(**paths) for a in argv])
        assert code == EXIT_CONFIG
        assert err.startswith("configuration error: ")

    @pytest.mark.parametrize(
        "flag, path", [("--out", "{missing}/x.md"), ("--out", "{dir}"), ("--dump-residuals", "{file}")]
    )
    def test_bad_output_path_refused_before_any_solve(self, capsys, tmp_path, flag, path):
        # a table that could not be written is refused before the operators are assembled
        from msp import problems

        a_file = tmp_path / "a_file"
        a_file.write_text("")
        path = path.format(missing=tmp_path / "missing", file=a_file, dir=tmp_path)
        before = problems.get_operators.cache_info()
        code, out, err = run_cli(capsys, "table", "--dim", "2", "--levels", "3", "--alphas", "1", flag, path)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("configuration error: ")
        assert problems.get_operators.cache_info() == before


class TestOptions:
    # each command offers only the options it reads
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--tol", "1e-3"],
            ["spectrum", "--tol", "5", "--maxit", "-1"],
            ["spectrum", "--large"],
            ["export", "--precond", "exact"],
            ["export", "--tol", "7", "--large"],
        ],
    )
    def test_unread_options_refused(self, capsys, tmp_path, argv):
        if argv[0] == "export":
            argv = argv + ["--matrix-market", str(tmp_path / "mm")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_calls_share_one_parser(self, capsys, monkeypatch):
        # the parser is built once; its defaults, such as verify's --n list,
        # are then shared by every call, so no command may write into them
        import argparse

        parsers, parse = [], argparse.ArgumentParser.parse_args

        def recording(self, *args, **kwargs):
            parsers.append(self)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        for _ in range(2):
            code, out, _ = run_cli(capsys, "verify", "--trials", "1")
            assert code == EXIT_OK and "n=6" in out
        assert len(parsers) == 2 and parsers[0] is parsers[1]
        assert parsers[0].parse_args(["verify"]).n == [2, 3, 4, 5, 6]
