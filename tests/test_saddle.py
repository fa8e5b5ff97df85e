"""Block-tridiagonal systems, Schur recursion, and the spectral bounds."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from msp import problems, sparselin
from msp import saddle as sd
from msp.chebyshev import bounds, pbar_roots
from msp.sparselin import DenseSymMatrix, NotPositiveDefinite, SparseSymMatrix, cholesky, gen_sym_eig


def sharp_spectrum_reference(n):
    """The predicted eigenvalue set for the A_i = 0 (i >= 2) configuration: the roots of Pbar_1..Pbar_n."""
    return np.sort(np.concatenate([pbar_roots(j) for j in range(1, n + 1)]))


def dense_system(A_list, B_list):
    return sd.BlockTridiagSystem(
        [SparseSymMatrix.from_dense(np.asarray(a, dtype=float)) for a in A_list],
        [scipy.sparse.csr_matrix(np.asarray(b, dtype=float)) for b in B_list],
    )


def brute_force_schur(A_list, B_list):
    """Direct evaluation of S_1 = A_1, S_{i+1} = A_{i+1} + B_i S_i^{-1} B_i'."""
    out = [np.asarray(A_list[0], dtype=float)]
    for i, b in enumerate(B_list):
        b = np.asarray(b, dtype=float)
        out.append(np.asarray(A_list[i + 1], dtype=float) + b @ np.linalg.solve(out[i], b.T))
    return out



def bare(pre):
    """A preconditioner of `pre`'s factors that carries no lead pattern: `spectrum` solves it dense."""
    return sd.SchurPreconditioner(factors=pre.factors)

class TestSystem:
    def test_shape_validation(self):
        a = [np.eye(2), np.zeros((3, 3))]
        with pytest.raises(ValueError):
            dense_system(a, [np.ones((2, 2))])  # coupling must be 3 x 2

    def test_block_slices_and_total_dim(self):
        sys = dense_system([np.eye(2), np.zeros((3, 3))], [np.ones((3, 2))])
        assert sys.n == 2
        assert sys.total_dim == 5
        s1, s2 = sys.block_slices()
        assert (s1.start, s1.stop) == (0, 2)
        assert (s2.start, s2.stop) == (2, 5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_apply_matches_assembled_operator(self, n):
        rng = np.random.default_rng(40 + n)
        for sys in (sd.random_spsd_system(n, rng), sd.random_sharp_system(n, rng)):
            x = rng.standard_normal(sys.total_dim)
            want = sd.assemble_full(sys).to_csr() @ x
            assert np.linalg.norm(sys.apply(x) - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("pid", ["boundary_observation", "distributed_very_weak"])
    def test_empty_block_gives_the_dense_zero_product(self, pid):
        # the zero A_2 stores no entry: its product, negated, is bitwise the
        # -0.0 that a dense zero block's gives
        sys = problems.build_problem(problems.ProblemConfig(pid, d=2, p=2, level=3, alpha=1e-3)).system
        dim = sys.block_dims[1]
        dense = sd.BlockTridiagSystem(
            [sys.A[0], DenseSymMatrix._trusted(np.zeros((dim, dim))), *sys.A[2:]], sys.B, sys._bt
        )
        assert not sys.A[1].base.nnz
        x = np.random.default_rng(5).standard_normal(sys.total_dim)
        assert sys.apply(x).tobytes() == dense.apply(x).tobytes()

    def test_assemble_full_signs(self):
        # three 1x1 blocks: diag(a1, -a2, a3) with couplings  b1, b2
        sys = dense_system([[[2.0]], [[3.0]], [[5.0]]], [[[7.0]], [[11.0]]])
        full = sd.assemble_full(sys).to_dense()
        want = np.array(
            [
                [2.0, 7.0, 0.0],
                [7.0, -3.0, 11.0],
                [0.0, 11.0, 5.0],
            ]
        )
        assert np.allclose(full, want)

    def test_three_by_three_example(self):
        # n = 2 with A = [[1]], [[0]] and B = [[1]]: eigenvalues of
        # [[1, 1], [1, 0]] preconditioned by diag(1, 1) are the golden ratios.
        sys = dense_system([[[1.0]], [[0.0]]], [[[1.0]]])
        pre = sd.exact_schur(sys)
        ev = np.sort(sd.spectrum(sys, pre).eigenvalues)
        golden = np.sort(pbar_roots(2))
        assert np.allclose(ev, golden, atol=1e-12)


class TestSchurRecursion:
    def test_matches_brute_force(self, schur_stages):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            sys = sd.random_spsd_system(n, rng)
            A_d = [a.to_dense() for a in sys.A]
            B_d = [np.array(b) for b in sys.B]  # random couplings are arrays
            want = brute_force_schur(A_d, B_d)
            schur_stages.clear()
            assert sd.exact_schur(sys).blocks is None
            assert len(schur_stages) == n
            for w, g in zip(want, schur_stages):
                assert np.allclose(g, w, atol=1e-9)

    def test_dense_limit_refused_before_densifying(self, monkeypatch):
        # S_2 of order DENSE_MODE_LIMIT + 1 is refused; S_1 alone is densified
        big = sd.DENSE_MODE_LIMIT + 1
        sys = sd.BlockTridiagSystem(
            [SparseSymMatrix(scipy.sparse.identity(2, format="csr")),
             SparseSymMatrix(scipy.sparse.csr_matrix((big, big)))],
            [scipy.sparse.csr_matrix((big, 2))],
        )
        densified = []
        to_dense = SparseSymMatrix.to_dense

        def counting_to_dense(m):
            densified.append(m.dim)
            return to_dense(m)

        monkeypatch.setattr(SparseSymMatrix, "to_dense", counting_to_dense)
        with pytest.raises(ValueError, match=rf"S_2 has order {big}.*practical"):
            sd.exact_schur(sys)
        assert densified == [2]

    def test_singular_first_block_reported(self):
        sys = dense_system([np.zeros((2, 2)), np.eye(2)], [np.eye(2)])
        with pytest.raises(NotPositiveDefinite):
            sd.exact_schur(sys)

    def test_indefinite_dense_stage_named(self):
        # S_2 = -3 I + I I^-1 I = -2 I: LAPACK's first pivot fails
        sys = sd.BlockTridiagSystem([DenseSymMatrix(np.eye(2)), DenseSymMatrix(-3.0 * np.eye(2))], [np.eye(2)])
        message = "Schur complement S_2 is not SPD: 1-th leading minor of the array is not positive definite"
        with pytest.raises(NotPositiveDefinite, match=message):
            sd.exact_schur(sys)

    def test_blocks_are_read_not_written(self):
        # each stage is factored in its own buffer, never in a block of the system
        rng = np.random.default_rng(18)
        for sys in (sd.random_spsd_system(4, rng), sd.random_sharp_system(3, rng)):
            before = [a.to_dense() for a in sys.A]
            sd.exact_schur(sys)
            assert all(np.array_equal(a.to_dense(), b) for a, b in zip(sys.A, before))

    def test_stage_that_overflows_when_symmetrised_is_refused(self):
        # S_1's entries are finite, but S_1 + S_1' is not: the factorization refuses the inf
        sys = sd.BlockTridiagSystem([DenseSymMatrix(np.diag([1.5e308, 1.0])), DenseSymMatrix(np.eye(2))], [np.eye(2)])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
            sd.exact_schur(sys)

    def test_semidefinite_stage_named(self, schur_stages):
        # S_2 = u u' for u = (3, 0.7) is rank one, but rounding leaves LAPACK a
        # positive second pivot, tiny against its own diagonal entry: the pivot floor refuses it
        sys = sd.BlockTridiagSystem(
            [DenseSymMatrix(np.eye(2)), DenseSymMatrix(np.zeros((2, 2)))], [np.array([[3.0, 0.0], [0.7, 0.0]])]
        )
        message = "Schur complement S_2 is not SPD: pivot below tolerance; matrix is semidefinite"
        with pytest.raises(NotPositiveDefinite, match=message):
            sd.exact_schur(sys)
        s2 = schur_stages[1]
        pivot = scipy.linalg.cholesky(s2, lower=True)[1, 1]  # LAPACK passes every pivot
        assert 0 < pivot * pivot <= 1e-14 * s2[1, 1]

    def test_lu_existence(self):
        # when the recursion succeeds, the full matrix is invertible
        rng = np.random.default_rng(17)
        for n in (2, 3, 4):
            sys = sd.random_spsd_system(n, rng)
            sd.exact_schur(sys)  # must not raise
            full = sd.assemble_full(sys).to_dense()
            b = rng.standard_normal(sys.total_dim)
            x = np.linalg.solve(full, b)
            assert np.allclose(full @ x, b, atol=1e-8)


class TestPreconditioner:
    def test_apply_and_inverse_are_mutual(self, schur_stages):
        rng = np.random.default_rng(2)
        sys = sd.random_spsd_system(3, rng)
        pre = sd.exact_schur(sys)
        x = rng.standard_normal(sys.total_dim)
        px = np.concatenate([stage @ x[s] for stage, s in zip(schur_stages, sys.block_slices(), strict=True)])
        assert np.allclose(pre.apply_inverse(px), x, atol=1e-9)

    def test_indefinite_block_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            sd.SchurPreconditioner([SparseSymMatrix.from_dense(np.diag([1.0, -2.0]))])

    def test_blocks_that_do_not_tile_the_system_are_refused(self):
        # two factors for three blocks would make a preconditioner of order
        # 200 for a system of order 264, whose apply leaves rows 200.. unset
        prob = problems.build_problem(problems.ProblemConfig("distributed_very_weak", d=2, p=2, level=3, alpha=1e-3))
        f1 = prob.lead_factors[0]
        assert len(prob.practical_blocks) == 3 and prob.total_dim == 264
        with pytest.raises(ValueError, match="2 factors given for 3 blocks"):
            sd.SchurPreconditioner(prob.practical_blocks, [f1.scaled(1.01), None])
        short = sd.SchurPreconditioner(factors=prob.lead_factors)
        assert sum(short.block_dims) == 200
        with pytest.raises(ValueError, match="r has 264 rows, the preconditioner's order is 200"):
            short.apply_inverse(prob.rhs)
        with pytest.raises(ValueError, match="r has 199 rows"):
            short.apply_inverse(prob.rhs[:199], start=100)

    def test_a_last_block_not_the_systems_is_refused_on_construction(self):
        # the same factors over M and alpha X alone: the last block, of order
        # 100, is not the system's last (64), and the preconditioner is refused
        prob = problems.build_problem(problems.ProblemConfig("distributed_very_weak", d=2, p=2, level=3, alpha=1e-3))
        f1 = prob.lead_factors[0]
        blocks = prob.practical_blocks[:2]
        assert [b.dim for b in blocks] == [100, 100] and prob.system.block_dims == [200, 64]
        sd.SchurPreconditioner(blocks, [f1.scaled(1.01), None])  # without its system, nothing to check
        for lead in (None, prob.lead_pattern):
            with pytest.raises(ValueError, match=r"blocks \[100, 100\] do not tile the system's \[200, 64\]"):
                sd.SchurPreconditioner(blocks, [f1.scaled(1.01), None], system=prob.system, lead=lead)
        with pytest.raises(ValueError, match="needs its system"):
            sd.SchurPreconditioner(prob.practical_blocks, lead=prob.lead_pattern)

    def test_lead_factors_not_one_stored_factor_are_refused(self):
        # factored from the blocks alpha M and M / alpha, the lead factors hold
        # two arrays at scale 1, so E would read T in place of
        # [[1, alpha], [1 / alpha, 0]] and MINRES would run all its steps
        prob = problems.build_problem(problems.ProblemConfig("boundary_observation", d=2, p=2, level=3, alpha=1e-3))
        with pytest.raises(ValueError, match="one stored factor at scales"):
            sd.SchurPreconditioner(prob.practical_blocks, system=prob.system, lead=prob.lead_pattern)
        sd.SchurPreconditioner(prob.practical_blocks, system=prob.system)  # without T nothing reads E
        shifted = [*prob.lead_factors[:1], cholesky(np.eye(prob.system.block_dims[1] + 1)), None]
        with pytest.raises(ValueError, match="do not tile"):  # the tiling check comes first
            sd.SchurPreconditioner(
                [None, None, prob.practical_blocks[-1]], shifted, system=prob.system, lead=prob.lead_pattern
            )


class TestSpectrum:
    def test_sharp_configuration_subset_of_root_union(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            sys = sd.random_sharp_system(n, rng, block_dim=3)
            rep = sd.spectrum(sys, sd.exact_schur(sys))
            ref = sharp_spectrum_reference(n)
            # every computed eigenvalue appears in the predicted root union
            for lam in rep.eigenvalues:
                assert np.min(np.abs(ref - lam)) < 1e-8
            # and the extreme roots are attained
            assert rep.eigenvalues.max() == pytest.approx(ref.max(), abs=1e-8)
            assert np.min(np.abs(rep.eigenvalues)) == pytest.approx(
                np.min(np.abs(pbar_roots(n))), abs=1e-8
            )

    def test_bounds_hold_on_general_systems(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 5):
            sys = sd.random_spsd_system(n, rng)
            rep = sd.spectrum(sys, sd.exact_schur(sys))
            bs = bounds(n)
            assert rep.eigenvalues.max() <= bs.norm_bound + 1e-10
            assert np.min(np.abs(rep.eigenvalues)) >= 1.0 / bs.inv_norm_bound - 1e-10
            assert rep.within_bounds

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dense_operator_is_the_assembled_one(self, n):
        # entry for entry, zeros' signs included: eigh gets the same input
        rng = np.random.default_rng(60 + n)
        for sys in (sd.random_spsd_system(n, rng), sd.random_sharp_system(n, rng)):
            assert sd._dense_operator(sys).tobytes() == sd.assemble_full(sys).to_dense().tobytes()

    @pytest.mark.parametrize("pid", problems.PROBLEM_IDS)
    def test_dense_operator_is_the_assembled_one_on_problems(self, pid):
        cfg = problems.ProblemConfig(pid, d=2, p=2, level=3, alpha=1e-3)
        sys = problems.build_problem(cfg).system
        assert sd._dense_operator(sys).tobytes() == sd.assemble_full(sys).to_dense().tobytes()

    @staticmethod
    def _assert_matches_pencil_oracle(sys, pre, blocks):
        # the dense generalized problem (A, P) with P = diag(blocks), the
        # arrays the preconditioner's factors were computed from
        a = sd.assemble_full(sys).to_dense()
        p = scipy.linalg.block_diag(*blocks)
        want = np.sort(scipy.linalg.eigh(a, p, eigvals_only=True))
        got = sd.spectrum(sys, pre).eigenvalues
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
        reduced = sd._reduced_operator(sys, pre)
        assert np.array_equal(reduced, reduced.T)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_pencil_oracle_on_random_systems(self, n, schur_stages):
        rng = np.random.default_rng(80 + n)
        for _ in range(3):
            for sys in (sd.random_sharp_system(n, rng), sd.random_spsd_system(n, rng)):
                schur_stages.clear()
                self._assert_matches_pencil_oracle(sys, sd.exact_schur(sys), schur_stages)

    def test_matches_pencil_oracle_on_split_blocks(self):
        # S_1 given as two preconditioner blocks inside one system block
        rng = np.random.default_rng(12)
        g1, g2 = rng.standard_normal((2, 2)), rng.standard_normal((3, 3))
        d1, d2 = g1 @ g1.T + np.eye(2), g2 @ g2.T + np.eye(3)
        a = [scipy.linalg.block_diag(d1, d2), np.zeros((2, 2)), np.eye(4)]
        b = [rng.standard_normal((2, 5)), rng.standard_normal((4, 2))]
        sys = dense_system(a, b)
        stages = brute_force_schur(a, b)[1:]
        pre = sd.SchurPreconditioner([SparseSymMatrix.from_dense(m) for m in (d1, d2, *stages)])
        assert pre.block_dims == [2, 3, 2, 4]
        self._assert_matches_pencil_oracle(sys, pre, [b.to_dense() for b in pre.blocks])

    @pytest.mark.parametrize("variant", ["exact", "practical"])
    @pytest.mark.parametrize("pid", problems.PROBLEM_IDS)
    def test_matches_pencil_oracle_on_problems(self, pid, variant, schur_stages):
        prob = problems.build_problem(problems.ProblemConfig(pid, d=2, p=2, level=3, alpha=1e-3))
        pre = problems.make_preconditioner(prob, variant)
        if variant == "exact":
            # the practical leading blocks are S_1..S_{n-1}; S_n is the one stage factored
            blocks = [*(b.to_dense() for b in prob.practical_blocks[:-1]), *schur_stages]
        else:
            blocks = [b.to_dense() for b in pre.blocks]
        self._assert_matches_pencil_oracle(prob.system, pre, blocks)

    def test_no_generalized_solve_and_no_dense_preconditioner(self, monkeypatch):
        eigh = scipy.linalg.eigh

        def standard_only(a, b=None, **kwargs):
            if b is not None:
                raise AssertionError("generalized eigensolver called")
            return eigh(a, **kwargs)

        def no_block_diag(*args):
            raise AssertionError("dense block-diagonal preconditioner formed")

        monkeypatch.setattr(scipy.linalg, "eigh", standard_only)
        monkeypatch.setattr(scipy.linalg, "block_diag", no_block_diag)
        prob = problems.build_problem(problems.ProblemConfig("boundary_observation", d=2, p=2, level=3))
        for pre in (problems.make_preconditioner(prob, "exact"), prob.practical):
            assert sd.spectrum(prob.system, pre).eigenvalues.size == prob.total_dim
        sys = sd.random_spsd_system(4, np.random.default_rng(1))
        assert sd.spectrum(sys, sd.exact_schur(sys)).within_bounds

    @pytest.mark.parametrize("variant", ["exact", "practical"])
    def test_eigenvalues_are_those_of_the_reduced_operator(self, variant):
        # the eigensolver overwrites the reduced operator's own buffer and
        # gives bitwise the eigenvalues of a copy
        prob = problems.build_problem(problems.ProblemConfig("distributed_strong", d=2, p=2, level=3))
        pre = problems.make_preconditioner(prob, variant)
        want = gen_sym_eig(sd._reduced_operator(prob.system, pre))
        assert sd.spectrum(prob.system, bare(pre)).eigenvalues.tobytes() == want.tobytes()
        rng = np.random.default_rng(3)
        for sys in (sd.random_sharp_system(4, rng), sd.random_spsd_system(5, rng)):
            pre = sd.exact_schur(sys)
            want = gen_sym_eig(sd._reduced_operator(sys, pre))
            assert sd.spectrum(sys, pre).eigenvalues.tobytes() == want.tobytes()

    def test_peak_memory_is_one_dense_buffer(self):
        # the operator, the factors' dense L and two block temporaries: no
        # second n x n array (a copy for the eigensolver) is made
        prob = problems.build_problem(problems.ProblemConfig("boundary_observation", d=2, p=2, level=4, alpha=1e-2))
        pre = bare(problems.make_preconditioner(prob, "exact"))
        dims = pre.block_dims
        bound = 8 * (prob.total_dim**2 + sum(d * d for d in dims) + 2 * max(dims) ** 2)
        tracemalloc.start()
        try:
            sd.spectrum(prob.system, pre)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_preconditioner_order_must_match(self):
        sys = dense_system([np.eye(2), np.zeros((3, 3))], [np.ones((3, 2))])
        pre = sd.SchurPreconditioner([SparseSymMatrix.from_dense(np.eye(4))])
        with pytest.raises(ValueError, match=r"blocks \[4\] do not tile the system's \[2, 3\]"):
            sd.spectrum(sys, pre)

    def test_cond_exceeds_bound_only_beyond_the_slack(self):
        sys = dense_system([[[1.0]], [[0.0]]], [[[1.0]]])
        rep = sd.spectrum(sys, sd.exact_schur(sys))
        edge = rep.bound_set.cond_bound * (1.0 + sd.BOUND_SLACK)
        assert not rep.cond_exceeds_bound
        rep.cond = edge
        assert not rep.cond_exceeds_bound
        rep.cond = np.nextafter(edge, np.inf)
        assert rep.cond_exceeds_bound

    @pytest.mark.parametrize("cond_scale", [1.0, 2.0])
    def test_bound_checks_are_python_bools(self, cond_scale):
        # the bounds are numpy floats; the checks are still plain bools, on
        # either side of the bound (a JSON record or an `is True` reads them)
        sys = dense_system([[[1.0]], [[0.0]]], [[[1.0]]])
        rep = sd.spectrum(sys, sd.exact_schur(sys))
        rep.cond = np.float64(rep.bound_set.cond_bound * cond_scale)
        checks = sd._exceeds(rep.bound_set, rep.norm, rep.inv_norm, rep.cond)
        assert [type(c) for c in checks] == [bool] * 3
        assert type(rep.within_bounds) is bool
        assert type(rep.cond_exceeds_bound) is bool
        assert rep.cond_exceeds_bound is (cond_scale > 1.0)


# (problem, d, p, level) of the deflation's oracle cells; boundary_control is set up in 2D only
DEFLATION_CASES = [
    (pid, d, p, level)
    for d, p, level in ((2, 2, 3), (3, 3, 2), (1, 2, 6))
    for pid in problems.PROBLEM_IDS
    if pid != "boundary_control" or d == 2
]


def dense_probe_residual(sys, pre):
    """`_probe_lead`'s larger relative residual, with the lead factors expanded and solved as dense triangles."""
    lead, t = [(f.lower(), s) for f, s in zip(pre.factors[:-1], pre._slices[:-1])], pre.lead
    size = lead[-1][1].stop
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(2):
        z = rng.standard_normal(size)
        x = np.zeros(sys.total_dim)
        for li, s in lead:
            x[s] = scipy.linalg.solve_triangular(li, z[s], lower=True, trans="T")
        y = sys.apply(x)
        for li, s in lead:
            y[s] = scipy.linalg.solve_triangular(li, y[s], lower=True)
        worst = max(worst, np.linalg.norm(y[:size] - (t @ z.reshape(len(t), -1)).ravel()) / np.linalg.norm(z))
    return worst


class TestDeflatedSpectrum:
    @pytest.mark.parametrize("pid, d, p, level", DEFLATION_CASES)
    def test_is_the_dense_spectrum_and_prints_the_same(self, monkeypatch, capsys, pid, d, p, level):
        # the CLI's deflated spectrum against the dense one of the same
        # preconditioner, and its output against a run with the dense path forced
        from msp import cli

        spectrum, reports, force_dense = sd.spectrum, [], [False]

        def recording(sys, pre):
            assert pre.lead is not None  # cmd_spectrum's preconditioner carries the builder's T
            rep = spectrum(sys, bare(pre) if force_dense[0] else pre)
            reports.append(rep)
            return rep

        monkeypatch.setattr(cli, "spectrum", recording)
        geometry = ["--geometry", "twisted_3d"] if d == 3 else []
        for precond in ("exact", "practical"):
            for alpha in ("1", "1e-3", "1e-7"):
                argv = ["spectrum", "--problem", pid, "--dim", str(d), "--degree", str(p), "--levels",
                        str(level), "--alphas", alpha, "--precond", precond, *geometry]
                runs = []
                for forced in (False, True):
                    force_dense[0] = forced
                    runs.append((cli.main(argv), capsys.readouterr()))
                (code, cap), (dense_code, dense_cap) = runs
                assert (code, cap.out, cap.err) == (dense_code, dense_cap.out, dense_cap.err)
                assert "kappa = " in cap.out
                got, want = (r.eigenvalues for r in reports[-2:])
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("pid", problems.PROBLEM_IDS)
    def test_refuses_a_lead_factor_that_is_not_declared(self, pid):
        # the first lead factor 1% off: the dense path takes it, the deflated one refuses
        alpha = 1e-3
        prob = problems.build_problem(problems.ProblemConfig(pid, d=2, p=2, level=3, alpha=alpha))
        exact = problems.exact_schur_precond(prob)
        first = prob.lead_factors[0]
        factors = [first.scaled(1.01), *exact.factors[1:]]
        broken = sd.SchurPreconditioner(factors=factors, system=prob.system, lead=prob.lead_pattern)
        if prob.system.n == 3:
            assert first.scale == alpha  # alpha M's factor: mass_factor.scaled(1.01 * alpha) above
        assert sd.spectrum(prob.system, bare(broken)).eigenvalues.size == prob.total_dim
        with pytest.raises(sd.LeadMismatch, match="not T ⊗ I"):
            sd.spectrum(prob.system, broken)
        sd.spectrum(prob.system, exact)

    def test_refuses_a_wrong_pattern(self):
        prob = problems.build_problem(problems.ProblemConfig("distributed_strong", d=2, p=2, level=2))
        pre = problems.exact_schur_precond(prob)

        def declared(factors, lead):
            return sd.SchurPreconditioner(factors=factors, system=prob.system, lead=lead)

        with pytest.raises(sd.LeadMismatch):
            sd.spectrum(prob.system, declared(pre.factors, np.array([[1.0, 1.0], [1.0, 1.0]])))
        with pytest.raises(ValueError, match="cannot be T ⊗ I_W"):
            declared(pre.factors, np.ones((1, 1)))
        w = prob.system.block_dims[0]
        shifted = [cholesky(np.eye(w - 1)), cholesky(np.eye(w + 1)), pre.factors[-1]]
        with pytest.raises(ValueError, match="do not tile"):
            declared(shifted, prob.lead_pattern)
        with pytest.raises(ValueError, match="do not tile"):
            sd.spectrum(prob.system, sd.SchurPreconditioner(factors=shifted))

    @pytest.mark.parametrize("pid, d, p, level", [case for case in DEFLATION_CASES if case[1] > 1])
    def test_probe_on_the_stored_factors_matches_a_dense_triangular_oracle(self, pid, d, p, level):
        prob = problems.build_problem(problems.ProblemConfig(pid, d=d, p=p, level=level, alpha=1e-3))
        for pre in (problems.exact_schur_precond(prob), prob.practical):
            lead = list(zip(pre.factors[:-1], pre._slices[:-1]))
            got = sd._probe_lead(prob.system, lead, pre.lead)
            assert got <= sd.LEAD_PROBE_TOL
            assert abs(got - dense_probe_residual(prob.system, pre)) <= 1e-13

    @pytest.mark.parametrize("d, p, level, mode", [(2, 2, 3, "banded"), (3, 3, 2, "dense")])
    def test_probe_solves_each_lead_factor_by_its_stored_mode(self, monkeypatch, d, p, level, mode):
        # dtbtrs on a banded factor's band, dtrtrs on a dense factor
        calls = []
        for name in ("dtbtrs", "dtrtrs"):  # looked up on scipy's lapack module by `CholeskyFactor.triangular_solve`
            routine = getattr(sparselin.lapack, name)
            counted = lambda *a, _r=routine, _n=name, **k: calls.append(_n) or _r(*a, **k)  # noqa: E731
            monkeypatch.setattr(sparselin.lapack, name, counted)
        prob = problems.build_problem(problems.ProblemConfig("distributed_strong", d=d, p=p, level=level))
        pre = problems.exact_schur_precond(prob)
        assert {f.mode for f in pre.factors[:-1]} == {mode}
        sd._probe_lead(prob.system, list(zip(pre.factors[:-1], pre._slices[:-1])), pre.lead)
        assert calls == [{"banded": "dtbtrs", "dense": "dtrtrs"}[mode]] * 8  # two probes, two lead blocks, two solves

    def test_refused_over_the_dense_limit(self):
        prob = problems.build_problem(problems.ProblemConfig("boundary_observation", d=2, p=2, level=2))
        with pytest.raises(ValueError, match="dense-mode limit"):
            sd.spectrum(prob.system, prob.practical, dense_limit=prob.total_dim - 1)

    def test_both_paths_report_through_one_helper(self, monkeypatch):
        calls = []
        report = sd._report

        def counting(ev, n):
            calls.append(ev.size)
            return report(ev, n)

        monkeypatch.setattr(sd, "_report", counting)
        prob = problems.build_problem(problems.ProblemConfig("boundary_control", d=2, p=2, level=2))
        dense = sd.spectrum(prob.system, bare(prob.practical))
        deflated = sd.spectrum(prob.system, prob.practical)
        assert calls == [prob.total_dim] * 2
        assert deflated.bound_set == dense.bound_set
        assert deflated.within_bounds == dense.within_bounds


# (problem, d, p, level) of the split's oracle cells; boundary_control is set up in 2D only
SPLIT_CASES = [
    (pid, d, p, level)
    for d, p, level in ((1, 2, 6), (2, 2, 3), (2, 2, 4), (3, 3, 2))
    for pid in problems.PROBLEM_IDS
    if pid != "boundary_control" or d == 2
]

TWO_BLOCK = ("distributed_very_weak", "boundary_control")

# 1D L6 cells whose exact last stage rounds too far from A_n + B S^-1 B' for
# the split (radius 4.8e-12 to 3.9e-11): all but distributed_strong at alpha 1e-7
SPLIT_FALLS_BACK_1D = {("distributed_strong", 1.0), ("distributed_strong", 1e-3)} | {
    ("boundary_observation", alpha) for alpha in (1.0, 1e-3, 1e-7)
}


def _cli_spectrum(monkeypatch, capsys, argv):
    """(exit code, stdout, report) of `msp spectrum argv`, then the same with the whole operator solved dense."""
    from msp import cli

    spectrum, runs, forced = sd.spectrum, [], [False]

    def recording(sys, pre):
        rep = spectrum(sys, bare(pre) if forced[0] else pre)
        runs.append(rep)
        return rep

    monkeypatch.setattr(cli, "spectrum", recording)
    out = []
    for forced[0] in (False, True):
        code = cli.main(argv)
        out.append((code, capsys.readouterr().out, runs[-1]))
    return out


def _split_system(n, w, m, seed):
    """A random n-block system (n = 2 or 3) whose lead blocks are T ⊗ I_w under its exact Schur factors, and T.

    A_1 = M (SPD), and for n = 3 A_2 = 0 and B_1 = M, so that S_2 = M and
    T = [[1, 1], [1, 0]]; for n = 2, T = [1].  The last block has order m,
    an SPD A_n and a random coupling of shape (m, w).
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((w, w))
    mass = g @ g.T / w + np.eye(w)
    h = rng.standard_normal((m, m))
    last = h @ h.T / m + 0.5 * np.eye(m)
    A = [mass, *[np.zeros((w, w))] * (n - 2), last]
    B = [mass] * (n - 2) + [rng.standard_normal((m, w))]
    t = np.array([[1.0, 1.0], [1.0, 0.0]]) if n == 3 else np.ones((1, 1))
    return dense_system(A, B), t


# What `enclosed_spectra` puts near a decision: a printed value of `_lines`
# (min or max lambda, min |lambda|) near a rounding boundary of its last
# decimal, or one of the three quantities `_exceeds` checks near its threshold.
ENCLOSURE_TARGETS = ("none", "lo", "hi", "bottom", "kappa", "norm", "inv")


@st.composite
def enclosed_spectra(draw):
    """(sorted ev, radius, n): a random spectrum, often with one value a few radii from a decision.

    The radius runs from under one ulp of max|lambda| to 2^13 ulps, about
    SPLIT_RTOL max|lambda|; at a few ulps the rounding of kappa and of the
    inverse norm decides.  The distance from the decision is a whole or half
    number of radii, or any number up to 4.
    """
    n = draw(st.integers(2, 6))
    ev = np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=2, max_size=8)))
    ev *= np.array(draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=len(ev), max_size=len(ev))))
    ev.sort()
    big, small = np.argmax(np.abs(ev)), np.argmin(np.abs(ev))
    top = abs(ev[big])
    r = np.spacing(top) * draw(st.floats(0.5, 2.0)) * 2.0 ** draw(st.integers(0, 12))
    c = draw(st.one_of(st.integers(-8, 8).map(lambda k: k / 2), st.floats(-4.0, 4.0)))
    target = draw(st.sampled_from(ENCLOSURE_TARGETS))
    slack, bs, unit = 1 + sd.BOUND_SLACK, bounds(n), 10.0**-sd.PRINTED_DECIMALS
    boundary = lambda x: (np.floor(x / unit) + 0.5) * unit  # a rounding boundary of the last printed decimal
    if target in ("lo", "hi"):
        i = 0 if target == "lo" else -1
        ev[i] = boundary(ev[i]) + c * r
    elif target == "norm":
        ev[big] = np.copysign(bs.norm_bound * slack + c * r, ev[big])
    elif target != "none":
        magnitude = {"bottom": boundary(abs(ev[small])), "kappa": top / (bs.cond_bound * slack),
                     "inv": 1.0 / (bs.inv_norm_bound * slack)}[target]
        ev[small] = np.copysign(magnitude + c * r, ev[small])
    ev.sort()
    return ev, r, n


class TestSplitSpectrum:
    @pytest.mark.parametrize("pid, d, p, level", SPLIT_CASES)
    def test_split_is_the_deflated_spectrum_within_its_radius(self, monkeypatch, pid, d, p, level):
        # every exact cell and both two-block problems' practical cells split,
        # but for 1D cells whose stage rounds too far; each split lies within
        # its radius and 1e-12 max|lambda| of the deflated dense eigenvalues
        geometry = "twisted_3d" if d == 3 else None
        variants = ("exact", "practical") if pid in TWO_BLOCK else ("exact",)
        for alpha in (1.0, 1e-3, 1e-7):
            cfg = problems.ProblemConfig(pid, d=d, p=p, level=level, alpha=alpha, geometry=geometry)
            prob = problems.build_problem(cfg)
            for variant in variants:
                pre = problems.make_preconditioner(prob, variant)
                rep = sd.spectrum(prob.system, pre)
                falls_back = d == 1 and (pid, alpha) in SPLIT_FALLS_BACK_1D
                assert rep.method == ("deflated" if falls_back else "split"), (alpha, variant)
                with monkeypatch.context() as forced:
                    forced.setattr(sd, "_enclosure_decides", lambda ev, radius, n: False)
                    dense = sd.spectrum(prob.system, pre)
                with monkeypatch.context() as forced:
                    forced.setattr(sd, "SPLIT_RTOL", np.inf)
                    forced.setattr(sd, "_enclosure_decides", lambda ev, radius, n: True)
                    split = sd.spectrum(prob.system, pre)
                assert (dense.method, dense.radius, split.method) == ("deflated", 0.0, "split")
                assert split.eigenvalues.shape == dense.eigenvalues.shape == (prob.total_dim,)
                gap = np.max(np.abs(split.eigenvalues - dense.eigenvalues))
                assert gap <= split.radius
                if not falls_back:
                    assert rep.radius == split.radius <= 1e-12 * np.max(np.abs(dense.eigenvalues))
                    np.testing.assert_array_equal(rep.eigenvalues, split.eigenvalues)
                else:
                    np.testing.assert_array_equal(rep.eigenvalues, dense.eigenvalues)

    def test_three_block_practical_falls_back(self):
        # the practical last block is not the exact stage: ||E||_F is of order 1e-3 or more
        prob = problems.build_problem(problems.ProblemConfig("boundary_observation", d=2, p=2, level=3, alpha=1e-3))
        rep = sd.spectrum(prob.system, prob.practical)
        assert (rep.method, rep.radius) == ("deflated", 0.0)
        dense = sd.spectrum(prob.system, bare(prob.practical))
        assert (dense.method, dense.radius) == ("dense", 0.0)
        assert np.max(np.abs(rep.eigenvalues - dense.eigenvalues)) <= 1e-12 * dense.norm

    @pytest.mark.parametrize("n", [2, 3])
    def test_fewer_coupled_directions_than_last_unknowns(self, n):
        # k = w < m: only w singular values carry a block, the other m - w
        # directions give C_0's eigenvalue (-1)^(n-1)
        w, m = 4, 7
        sys, t = _split_system(n, w, m, seed=n)
        pre = sd.exact_schur(sys)
        # S_2 = M for n = 3: the lead blocks take S_1's one factor, as a builder's do
        factors = [pre.factors[0]] * (n - 1) + pre.factors[-1:]
        rep = sd.spectrum(sys, sd.SchurPreconditioner(factors=factors, system=sys, lead=t))
        dense = sd.spectrum(sys, sd.SchurPreconditioner(factors=factors))
        assert rep.method == "split" and 0 < rep.radius <= 1e-12 * dense.norm
        assert rep.eigenvalues.shape == (sys.total_dim,)
        assert np.max(np.abs(rep.eigenvalues - dense.eigenvalues)) <= 1e-12 * dense.norm
        s = (-1.0) ** (n - 1)
        assert np.sum(np.abs(rep.eigenvalues - s) < 1e-12) >= m - w

    def test_zero_eigenvalues_fall_back(self):
        # A_2 = 0 with w < m under a last factor that is not the exact stage:
        # H_0 = H has m - w zero eigenvalues, which no enclosure separates from 0
        w, m = 3, 5
        rng = np.random.default_rng(4)
        b = rng.standard_normal((m, w))
        sys = dense_system([np.eye(w), np.zeros((m, m))], [b])
        factors = [cholesky(np.eye(w)), cholesky(b @ b.T + np.eye(m))]
        rep = sd.spectrum(sys, sd.SchurPreconditioner(factors=factors, system=sys, lead=np.ones((1, 1))))
        assert (rep.method, rep.radius) == ("deflated", 0.0)
        assert np.sum(np.abs(rep.eigenvalues) < 1e-14) == m - w

    def test_split_allocates_no_array_of_the_deflated_order(self):
        prob = problems.build_problem(problems.ProblemConfig("boundary_observation", d=2, p=2, level=4, alpha=1e-2))
        pre = problems.make_preconditioner(prob, "exact")
        k, m = prob.system.block_dims[0], prob.system.block_dims[-1]
        tracemalloc.start()
        try:
            rep = sd.spectrum(prob.system, pre)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.method == "split"
        assert peak < 8 * (2 * min(k, m) + m) ** 2

    @pytest.mark.parametrize("pid", problems.PROBLEM_IDS)
    def test_a_scaled_last_stage_prints_as_the_dense_path(self, monkeypatch, capsys, pid):
        # the exact last factor taken of c S_n: the output and exit code are
        # the dense path's.  In the three-block problems ||E|| grows with
        # |c - 1| and every c != 1 falls back, exit 1 included; the two-block
        # ones store no A_2, so H_0 = H, E = 0 and the split decides them
        exact = problems.exact_schur_precond
        radii = {}
        split = sd._split_eigenvalues

        def recording(*args):
            ev, radius = split(*args)
            radii[scale] = radius
            return ev, radius

        def scaled_stage(prob):
            pre = exact(prob)
            factors = [*pre.factors[:-1], pre.factors[-1].scaled(scale)]
            return sd.SchurPreconditioner(factors=factors, system=prob.system, lead=prob.lead_pattern)

        monkeypatch.setattr(sd, "_split_eigenvalues", recording)
        monkeypatch.setattr(problems, "exact_schur_precond", scaled_stage)
        argv = ["spectrum", "--problem", pid, "--levels", "3", "--alphas", "1e-3", "--precond", "exact"]
        codes = {}
        for scale in (1.0, 1 - 1e-9, 1 + 1e-9, 1 - 1e-6, 1 + 1e-6, 0.99, 1.01):
            (code, out, rep), (dense_code, dense_out, _) = _cli_spectrum(monkeypatch, capsys, argv)
            assert (code, out) == (dense_code, dense_out)
            codes[scale] = code
            if pid in TWO_BLOCK:
                assert rep.method == "split"  # A_2 = 0: H_0 = H whatever the factor
            else:
                assert rep.method == ("split" if scale == 1.0 else "deflated")
        if pid in TWO_BLOCK:
            assert max(radii.values()) < 1e-12
        else:
            for lo, hi in ((1.0, 1 + 1e-9), (1 + 1e-9, 1 + 1e-6), (1 + 1e-6, 1.01), (1 - 1e-9, 1 - 1e-6), (1 - 1e-6, 0.99)):
                assert radii[hi] > 100 * radii[lo]
        assert codes[1.0] == 0 and codes[1.01] == 1

    @pytest.mark.parametrize("pid", problems.PROBLEM_IDS)
    def test_split_takes_no_qr(self, monkeypatch, capsys, pid):
        # the split reads its singular values off G = Y'Y: the thin QR of Y
        # is taken only for the dense H, here where a last stage scaled by
        # 0.99 sends a three-block problem to the fallback
        qr, calls = np.linalg.qr, []
        exact = problems.exact_schur_precond

        def counted(*args, **kwargs):
            calls.append(scale)
            if scale == 1.0:
                raise AssertionError("a split spectrum took a QR")
            return qr(*args, **kwargs)

        def scaled_stage(prob):
            pre = exact(prob)
            factors = [*pre.factors[:-1], pre.factors[-1].scaled(scale)]
            return sd.SchurPreconditioner(factors=factors, system=prob.system, lead=prob.lead_pattern)

        monkeypatch.setattr(np.linalg, "qr", counted)
        monkeypatch.setattr(problems, "exact_schur_precond", scaled_stage)
        argv = ["spectrum", "--problem", pid, "--levels", "3", "--alphas", "1e-3", "--precond", "exact"]
        for scale in (1.0, 0.99):
            (code, out, rep), (dense_code, dense_out, _) = _cli_spectrum(monkeypatch, capsys, argv)
            assert (code, out) == (dense_code, dense_out)
            falls_back = scale != 1.0 and pid not in TWO_BLOCK  # A_2 = 0: H_0 = H whatever the factor
            assert rep.method == ("deflated" if falls_back else "split")
            assert calls.count(scale) == falls_back

    @pytest.mark.parametrize("pid", ["distributed_very_weak", "boundary_observation"])
    def test_1d_bound_violations_stand(self, monkeypatch, capsys, pid):
        # the 1D false alarm (ROADMAP item 1) at L8, alpha 1, as with the
        # dense path: boundary_observation's stage is off by ||E||_F = 1.3e-8,
        # which sends it to the fallback; distributed_very_weak stores no
        # A_2, so H_0 = H, and its kappa, 1.2e-8 above the bound, lies far
        # outside the radius of 7e-13
        argv = ["spectrum", "--problem", pid, "--dim", "1", "--levels", "8", "--alphas", "1", "--precond", "exact"]
        (code, out, rep), (dense_code, dense_out, _) = _cli_spectrum(monkeypatch, capsys, argv)
        assert (code, out) == (dense_code, dense_out)
        assert code == 1 and out.endswith("BOUND VIOLATED\n")
        assert rep.method == ("split" if pid == "distributed_very_weak" else "deflated")
        if rep.method == "split":
            assert rep.cond - rep.bound_set.cond_bound * (1 + sd.BOUND_SLACK) > 1e4 * rep.radius

    def test_enclosure_decides_every_printed_digit_and_verdict(self):
        ev, r = np.array([-0.5, 0.25, 1.0]), 1e-13
        assert sd._enclosure_decides(ev, r, 3)
        assert not sd._enclosure_decides(ev, 1.01 * sd.SPLIT_RTOL, 3)  # above SPLIT_RTOL max|lambda|
        # a value on a 6-decimal boundary: min and max lambda, min |lambda|, kappa
        for moved in ([-0.5000005, 0.25, 1.0], [-0.5, 0.2500005, 1.0], [-0.5, 0.25, 1.0000005], [-0.5, 1 / 2.5000005, 1.0]):
            assert not sd._enclosure_decides(np.array(moved), r, 3)
        edge = 1.0 / (bounds(3).cond_bound * (1 + sd.BOUND_SLACK))  # min|lambda| at kappa's threshold
        assert not sd._enclosure_decides(np.array([-0.5, edge, 1.0]), 1e-13, 3)
        assert not sd._enclosure_decides(np.array([-0.5, 1e-14, 1.0]), 1e-13, 3)

    @settings(max_examples=100, deadline=None)
    @given(case=enclosed_spectra(), u=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    # two spectra the enclosure must refuse, though some of its checks agree
    # at both ends; kappa at n = 2 two ulps above its threshold, radius 2^-53: at the
    # enclosure's low end the quotient lies one ulp above the threshold, but
    # the report's product, top * (1 / bottom), on it
    @example(case=(np.array([-1.0566714147823104, 0.40361256546604307]), 2.0**-53, 2), u=[0.0] * 8)
    # min |lambda| at n = 3 on the inverse norm's threshold, which neither the
    # printed lines nor kappa's check sees
    @example(case=(np.array([-1.25, 0.4450418678681246, 1.5]), 2.0**-44, 3), u=[0.0] * 8)
    def test_what_the_enclosure_decides_holds_within_it(self, case, u):
        # the enclosure's claim, checked through `_report` and not through
        # how `_enclosure_decides` is coded: every spectrum within the radius
        # prints and judges as the spectrum itself
        ev, r, n = case
        assume(sd._enclosure_decides(ev, r, n))

        def verdict(rep):
            return rep.lines, rep.within_bounds, rep.cond_exceeds_bound

        want = verdict(sd._report(ev, n))
        for move in (-r, r, np.array(u[: len(ev)]) * r):
            assert verdict(sd._report(ev + move, n)) == want

    def test_report_names_its_method(self):
        prob = problems.build_problem(problems.ProblemConfig("boundary_control", d=2, p=2, level=2))
        dense = sd.spectrum(prob.system, bare(prob.practical))
        assert (dense.method, dense.radius) == ("dense", 0.0)


def per_coupling_sharp_system(n, rng, block_dim=None):
    """The sharp generator as it was before the stacked QR: one QR per matrix, the couplings drawn one by one."""
    m = int(block_dim) if block_dim else int(rng.integers(2, 7))
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    a1 = q @ np.diag(rng.uniform(0.5, 2.0, m)) @ q.T
    B = []
    for _ in range(n - 1):
        qb, rb = np.linalg.qr(rng.standard_normal((m, m)))
        B.append(qb * np.sign(np.diag(rb)))
    return DenseSymMatrix.from_upper(a1), B


class TestRandomSharpSystem:
    @pytest.mark.parametrize("block_dim", [None, 3, 9])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_stacked_qr_is_bitwise_the_per_coupling_one(self, n, block_dim):
        for seed in range(200):
            sys = sd.random_sharp_system(n, np.random.default_rng(seed), block_dim)
            a1, B = per_coupling_sharp_system(n, np.random.default_rng(seed), block_dim)
            m = a1.dim
            assert sys.A[0].to_dense().tobytes() == a1.to_dense().tobytes()
            for a in sys.A[1:]:
                assert a.to_dense().tobytes() == np.zeros((m, m)).tobytes()
            assert len(sys.B) == n - 1
            for got, want in zip(sys.B, B):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_draws_leave_the_stream_where_the_per_coupling_ones_did(self):
        # verify_sharpness draws the SPSD system from the same generator next
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        sd.random_sharp_system(5, r1)
        per_coupling_sharp_system(5, r2)
        assert r1.standard_normal(4).tobytes() == r2.standard_normal(4).tobytes()


def matrix_rank_spsd_system(n, rng):
    """The SPSD generator as it was before the singular-value rank test: `matrix_rank` on each coupling."""
    dims = sorted((int(rng.integers(2, 7)) for _ in range(n)), reverse=True)
    g = rng.standard_normal((dims[0], dims[0]))
    A = [DenseSymMatrix.from_upper(g.T @ g + 0.1 * np.eye(dims[0]))]
    for i in range(1, n):
        rank = int(rng.integers(0, dims[i] + 1))
        h = rng.standard_normal((rank, dims[i]))
        A.append(DenseSymMatrix.from_upper(h.T @ h))
    B = []
    for i in range(n - 1):
        b = rng.standard_normal((dims[i + 1], dims[i]))
        while np.linalg.matrix_rank(b) < dims[i + 1]:
            b = rng.standard_normal((dims[i + 1], dims[i]))
        B.append(b)
    return A, B


class RepeatedRowDraw:
    """`default_rng(seed)`'s draws, except that its `target`-th `standard_normal` draw repeats its first row last."""

    def __init__(self, seed, target):
        self.rng, self.target, self.draws = np.random.default_rng(seed), target, 0

    def integers(self, *args):
        return self.rng.integers(*args)

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        self.draws += 1
        if self.draws == self.target:
            out[-1] = out[0]
        return out


def assert_same_system(sys, A, B):
    assert len(sys.A) == len(A) and len(sys.B) == len(B)
    for got, want in zip(sys.A, A):
        assert got.to_dense().tobytes() == want.to_dense().tobytes()
    for got, want in zip(sys.B, B):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRandomSpsdSystem:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_is_bitwise_the_matrix_rank_generator(self, n):
        for seed in range(200):
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            assert_same_system(sd.random_spsd_system(n, r1), *matrix_rank_spsd_system(n, r2))
            # verify_sharpness's next trial draws from a fresh generator, but the stream must end alike
            assert r1.standard_normal(4).tobytes() == r2.standard_normal(4).tobytes()

    @pytest.mark.parametrize("n", [2, 4])
    def test_a_rank_deficient_coupling_is_redrawn_as_matrix_rank_redraws_it(self, n):
        # draws: A_1's matrix, the n - 1 factors of A_2..A_n, then the first coupling
        target = n + 1
        for seed in range(5):
            r1, r2 = RepeatedRowDraw(seed, target), RepeatedRowDraw(seed, target)
            sys = sd.random_spsd_system(n, r1)
            A, B = matrix_rank_spsd_system(n, r2)
            assert_same_system(sys, A, B)
            assert r1.draws == r2.draws == target + (n - 1)  # the repeated-row draw, then its one redraw
            assert r1.rng.standard_normal(4).tobytes() == r2.rng.standard_normal(4).tobytes()


class TestVerifySharpness:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_passes(self, n):
        rep = sd.verify_sharpness(n, trials=5, seed=0)
        assert rep.passed
        assert rep.max_norm_deviation <= sd.SHARPNESS_TOL
        assert rep.max_inv_norm_deviation <= sd.SHARPNESS_TOL

    def test_deterministic_in_seed(self):
        r1 = sd.verify_sharpness(3, trials=4, seed=9)
        r2 = sd.verify_sharpness(3, trials=4, seed=9)
        assert r1.max_norm_deviation == r2.max_norm_deviation
        assert r1.max_cond_excess == r2.max_cond_excess

    def test_builds_no_triangle_mask(self, monkeypatch):
        # the random systems mirror their upper triangles row by row and the
        # dense factors come with a zeroed upper triangle
        def refuse(*args, **kwargs):
            raise AssertionError("triangle mask built")

        monkeypatch.setattr(np, "triu", refuse)
        monkeypatch.setattr(np, "tril", refuse)
        assert sd.verify_sharpness(4, trials=3, seed=5).passed
