"""Sparse symmetric storage, Cholesky solves, and eigen/IO helpers."""

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse

from msp import problems
from msp import sparselin as sl


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


def random_banded_spd(n, bw, seed=0):
    """A diagonally dominant SPD matrix of band width bw and its upper band array in LAPACK's layout."""
    rng = np.random.default_rng(seed)
    a = np.diag(rng.uniform(bw + 1.0, bw + 2.0, n))
    for k in range(1, bw + 1):
        off = rng.uniform(-1.0, 1.0, n - k)
        a += np.diag(off, k) + np.diag(off, -k)
    ab = np.zeros((bw + 1, n))
    for k in range(bw + 1):
        ab[bw - k, k:] = np.diag(a, k)
    return a, ab


class TestSparseSymMatrix:
    def test_from_dense_round_trip(self):
        a = random_spd(7)
        m = sl.SparseSymMatrix.from_dense(a)
        assert np.allclose(m.to_dense(), a)
        assert m.dim == 7

    def test_matvec_matches_dense(self):
        a = random_spd(9, seed=1)
        m = sl.SparseSymMatrix.from_dense(a)
        x = np.random.default_rng(2).standard_normal(9)
        assert np.allclose(m.matvec(x), a @ x)

    def test_scaled_and_add(self):
        a = random_spd(5, seed=3)
        b = random_spd(5, seed=4)
        ma = sl.SparseSymMatrix.from_dense(a)
        mb = sl.SparseSymMatrix.from_dense(b)
        assert np.allclose(ma.scaled(2.5).to_dense(), 2.5 * a)
        assert np.allclose(ma.add(mb, 0.75).to_dense(), a + 0.75 * b)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            sl.SparseSymMatrix(scipy.sparse.csr_matrix(np.ones((2, 3))))

    @pytest.mark.parametrize(
        "a",
        [
            [[1.0, 2.0], [0.0, 1.0]],  # an upper triangle alone is not the matrix
            [[1.0, 2.0], [2.0 + 1e-15, 1.0]],  # symmetry is checked exactly
        ],
    )
    def test_non_symmetric_rejected(self, a):
        with pytest.raises(ValueError, match="symmetric"):
            sl.SparseSymMatrix(scipy.sparse.csr_matrix(np.array(a)))

    def test_canonical_storage_leaves_input_untouched(self):
        # row 0 holds (0, 1) twice and an explicit zero at (0, 0), unsorted
        data = np.array([1.0, 0.0, 2.0, 3.0, 5.0])
        indices = np.array([1, 0, 1, 0, 1], dtype=np.int32)
        indptr = np.array([0, 3, 5], dtype=np.int32)
        a = scipy.sparse.csr_matrix((data, indices, indptr), shape=(2, 2))
        before = [arr.copy() for arr in (a.data, a.indices, a.indptr)]
        full = sl.SparseSymMatrix(a).to_csr()
        assert full.data.tolist() == [3.0, 3.0, 5.0]
        assert full.indices.tolist() == [1, 0, 1]
        assert full.indptr.tolist() == [0, 1, 3]
        for arr, old in zip((a.data, a.indices, a.indptr), before):
            assert np.array_equal(arr, old)

    def test_scaled_and_add_exactly_symmetric(self):
        ma = sl.SparseSymMatrix.from_dense(random_spd(6, seed=5))
        mb = sl.SparseSymMatrix.from_dense(random_spd(6, seed=6))
        for m in (ma.scaled(1.0 / 3.0), ma.add(mb, 0.7)):
            c = m.to_csr()
            assert (c != c.T).nnz == 0


    @pytest.mark.parametrize("c", [1e-7, 1e7])
    def test_scaled_stays_canonical_and_symmetric(self, c):
        m = problems.get_operators(2, 2, 3, "annulus_2d").mass
        got = m.scaled(c).to_csr()
        assert got.has_canonical_format
        assert np.all(got.data != 0)
        assert (got != got.T).nnz == 0
        want = sl.SparseSymMatrix(m.to_csr() * c).to_csr()
        for a, b in zip((got.data, got.indices, got.indptr), (want.data, want.indices, want.indptr)):
            assert np.array_equal(a, b)

    def test_add_stays_canonical_and_symmetric(self):
        ops = problems.get_operators(2, 2, 3, "annulus_2d")
        a, b = ops.normal_gram_int, ops.biharmonic_int
        got = a.add(b, 1e-3).to_csr()
        assert got.has_canonical_format
        assert np.all(got.data != 0)
        assert (got != got.T).nnz == 0
        want = sl.SparseSymMatrix(a.to_csr() + 1e-3 * b.to_csr()).to_csr()
        for x, y in zip((got.data, got.indices, got.indptr), (want.data, want.indices, want.indptr)):
            assert np.array_equal(x, y)
        assert a.add(a, -1.0).to_csr().nnz == 0

    @pytest.mark.parametrize("c", [1e-7, 0.3, 1e7])
    def test_scaled_is_a_view(self, c):
        # the view shares the stored CSR; its CSR is built on demand, bitwise
        # the entry-by-entry product, and its product is c (M x)
        m = problems.get_operators(2, 2, 3, "annulus_2d").mass
        v = m.scaled(c)
        assert v.base is m.base and v.scale == c
        want = m.base * c
        want.eliminate_zeros()
        got = v.to_csr()
        for a, b in zip((got.data, got.indices, got.indptr), (want.data, want.indices, want.indptr)):
            assert a.tobytes() == b.tobytes()
        assert v.to_dense().tobytes() == want.toarray().tobytes()
        x = np.random.default_rng(1).standard_normal(m.dim)
        assert v.matvec(x).tobytes() == (c * (m.base @ x)).tobytes()

    def test_scaled_drops_underflowed_entries(self):
        m = sl.SparseSymMatrix.from_dense(np.array([[1.0, 1e-300], [1e-300, 1.0]]))
        got = m.scaled(1e-30).to_csr()
        assert got.nnz == 2
        assert got.has_canonical_format

    @pytest.mark.parametrize("c", [1.0, 1e-3, 7.0])
    def test_add_to_adds_the_scaled_matrix(self, c):
        # 70 rows scatter in three row blocks, into a strided view; each
        # entry lands as the product c m_ij that to_csr stores
        a, _ = random_banded_spd(70, 4, seed=37)
        m = sl.SparseSymMatrix.from_dense(a).scaled(c)
        base = np.random.default_rng(38).standard_normal((140, 140))
        out = base.copy()
        m.add_to(out[::2, 1::2])
        want = base.copy()
        want[::2, 1::2] += m.to_dense()
        assert out.tobytes() == want.tobytes()


class TestDenseSymMatrix:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            sl.DenseSymMatrix(np.ones((2, 3)))

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            sl.DenseSymMatrix(np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]]))

    def test_to_dense_returns_a_copy(self):
        a = random_spd(4, seed=12)
        m = sl.DenseSymMatrix(a)
        a[0, 0] = 99.0  # the constructor copied
        out = m.to_dense()
        out[1, 1] = 99.0
        assert np.array_equal(m.to_dense(), random_spd(4, seed=12))

    def test_stored_like_sparse_storage(self):
        # a -0.0 is stored as the sparse format's dropped zero, and
        # from_upper ignores the lower triangle as from_dense does
        a = random_spd(5, seed=13)
        a[0, 4] = a[4, 0] = -0.0
        want = sl.SparseSymMatrix.from_dense(a).to_dense().tobytes()
        assert sl.DenseSymMatrix(a).to_dense().tobytes() == want
        assert sl.DenseSymMatrix.from_upper(np.triu(a)).to_dense().tobytes() == want

    def test_trusted_wrap_stores_like_the_constructor(self):
        # the unchecked wrap of a matrix symmetric by construction keeps the
        # constructor's -0.0 -> +0.0
        a = random_spd(5, seed=13)
        a[0, 4] = a[4, 0] = -0.0
        want = sl.DenseSymMatrix(a).to_dense().tobytes()
        assert sl.DenseSymMatrix._trusted(a.copy()).to_dense().tobytes() == want

    def test_matvec_and_csr(self):
        a = random_spd(6, seed=14)
        m = sl.DenseSymMatrix(a)
        x = np.random.default_rng(15).standard_normal(6)
        assert np.allclose(m.matvec(x), a @ x)
        assert np.array_equal(m.to_csr().toarray(), a)


class TestCholesky:
    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_solve_round_trip(self, n):
        a = random_spd(n, seed=n)
        m = sl.SparseSymMatrix.from_dense(a)
        f = sl.cholesky(m)
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal(n)
        assert np.allclose(sl.solve_chol(f, a @ x), x, atol=1e-8)

    def test_bare_array_is_factored_in_its_own_buffer(self):
        # a matrix is left as it is; a bare array is taken over, and the
        # factor, bitwise the same, is formed in it
        a = random_spd(9, seed=14)
        m = sl.DenseSymMatrix(a)
        want = sl.cholesky(m)
        assert np.array_equal(m.to_dense(), a)
        got = sl.cholesky(a)
        assert got.mode == want.mode == "dense"
        assert got.data[0].tobytes() == want.data[0].tobytes()
        assert np.shares_memory(got.data[0], a)

    def test_unscaled_dense_lower_is_the_stored_factor(self):
        f = sl.cholesky(sl.DenseSymMatrix(random_spd(6, seed=15)))
        assert f.lower() is f.data[0]
        assert f.scaled(2.0).lower() is not f.data[0]

    def test_matrix_rhs(self):
        a = random_spd(8, seed=7)
        f = sl.cholesky(sl.SparseSymMatrix.from_dense(a))
        xs = np.random.default_rng(8).standard_normal((8, 3))
        assert np.allclose(sl.solve_chol(f, a @ xs), xs, atol=1e-8)
        assert sl.solve_chol(f, np.zeros((8, 0))).shape == (8, 0)

    def test_banded_path_on_tridiagonal(self):
        n = 200
        main = np.full(n, 2.0)
        off = np.full(n - 1, -1.0)
        a = scipy.sparse.diags([off, main, off], [-1, 0, 1]).tocsr()
        m = sl.SparseSymMatrix(a)
        f = sl.cholesky(m)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(n)
        assert np.allclose(sl.solve_chol(f, a @ x), x, atol=1e-8)

    def test_banded_matrix_rhs(self):
        # one banded solve on a block of right-hand sides equals the
        # column-by-column solves and a dense solve
        n = 200
        main = np.full(n, 2.5)
        off = np.full(n - 1, -1.0)
        a = scipy.sparse.diags([off, main, off], [-1, 0, 1]).tocsr()
        f = sl.cholesky(sl.SparseSymMatrix(a))
        assert f.mode == "banded"
        b = np.random.default_rng(3).standard_normal((n, 5))
        x = sl.solve_chol(f, b)
        by_column = np.column_stack([sl.solve_chol(f, b[:, j]) for j in range(b.shape[1])])
        assert np.array_equal(x, by_column)
        assert np.allclose(x, np.linalg.solve(a.toarray(), b), rtol=1e-12, atol=1e-12)

    def test_indefinite_raises(self):
        with pytest.raises(sl.NotPositiveDefinite):
            sl.cholesky(sl.SparseSymMatrix.from_dense(np.diag([1.0, -1.0])))

    def test_semidefinite_raises(self):
        with pytest.raises(sl.NotPositiveDefinite):
            sl.cholesky(sl.SparseSymMatrix.from_dense(np.diag([1.0, 0.0, 2.0])))

    def test_semidefinite_dense_storage_raises(self):
        with pytest.raises(sl.NotPositiveDefinite):
            sl.cholesky(sl.DenseSymMatrix(np.diag([1.0, 0.0, 2.0])))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    @pytest.mark.parametrize("mode", ["dense", "banded"])
    def test_non_finite_entry_raises(self, mode, storage, value):
        # the unchecked wraps accept a non-finite entry; the factorization refuses it
        if mode == "dense":
            a = random_spd(6, seed=17)
        else:
            a, _ = random_banded_spd(12, 1, seed=17)
        a[2, 3] = a[3, 2] = value
        if storage == "dense":
            m = sl.DenseSymMatrix._trusted(a)
        else:
            m = sl.SparseSymMatrix._trusted(scipy.sparse.csr_matrix(a))
        with pytest.raises(ValueError, match="infs or NaNs"):
            sl.cholesky(m)

    @pytest.mark.parametrize("where, value", [((1, 4), np.nan), ((4, 1), np.nan), ((2, 2), np.inf)])
    def test_non_finite_entry_of_a_taken_array_raises(self, where, value):
        # the whole array is checked: a NaN in one strict triangle only (dpotrf
        # reads the upper one), or an inf on the diagonal
        a = random_spd(6, seed=18)
        a[where] = value
        with pytest.raises(ValueError, match="infs or NaNs"):
            sl.cholesky(a)

    def test_taken_negative_zero_is_stored_as_positive_zero(self):
        # dpotrf would carry a -0.0 into the factor (-0.0 / l_11); the taken array holds +0.0
        a = np.diag([4.0, 9.0, 16.0])
        a[0, 1] = a[1, 0] = -0.0
        f = sl.cholesky(a)
        assert not np.signbit(f.data[0]).any()
        assert f.data[0].tobytes() == sl.cholesky(sl.DenseSymMatrix(np.diag([4.0, 9.0, 16.0]))).data[0].tobytes()

    @pytest.mark.parametrize("kind", ["dense", "tridiagonal"])
    def test_dense_storage_factors_like_sparse(self, kind):
        # dense storage always gets a dense factor.  A full matrix gives
        # LAPACK the same input in both storages, so the factors agree
        # bitwise; a tridiagonal one is factored dense where its sparse twin
        # is banded, and the two factors solve alike
        if kind == "dense":
            a, sparse_mode = random_spd(6, seed=16), "dense"
        else:
            n = 12
            a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
            sparse_mode = "banded"
        got = sl.cholesky(sl.DenseSymMatrix(a))
        want = sl.cholesky(sl.SparseSymMatrix.from_dense(a))
        assert (got.mode, want.mode) == ("dense", sparse_mode)
        if sparse_mode == "dense":
            assert got.data[0].tobytes() == want.data[0].tobytes()
            assert got.data[1] == want.data[1]
        b = np.random.default_rng(16).standard_normal((a.shape[0], 3))
        x, y = sl.solve_chol(got, b), sl.solve_chol(want, b)
        assert np.linalg.norm(x - y) <= 1e-13 * np.linalg.norm(y)

    @pytest.mark.parametrize(
        "d, p, level, geometry, bandwidth",
        [(2, 2, 4, "annulus_2d", 38), (3, 3, 3, "twisted_3d", 399)],
    )
    def test_spline_mass_factored_banded_in_stored_order(self, d, p, level, geometry, bandwidth):
        # the tensor-product mass matrix is banded as stored (C order on the
        # grid); reverse Cuthill-McKee would widen the band to 68 at 2D L4
        # and push the 3D L3 factor to dense mode
        m = problems.get_operators(d, p, level, geometry).mass
        a = m.to_csr()
        coo = a.tocoo()
        assert int(np.max(np.abs(coo.row - coo.col))) == bandwidth
        f = sl.cholesky(m)
        assert f.mode == "banded"
        assert f.data.shape[0] - 1 == bandwidth
        b = np.random.default_rng(d).standard_normal(a.shape[0])
        expected = np.linalg.solve(a.toarray(), b)
        x = sl.solve_chol(f, b)
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


    @pytest.mark.parametrize("c", [1e-7, 1.0, 1e7])
    @pytest.mark.parametrize("mode", ["banded", "dense"])
    def test_scaled_factor_solves_like_a_fresh_factor(self, mode, c):
        if mode == "banded":
            m = problems.get_operators(2, 2, 4, "annulus_2d").mass
        else:
            m = sl.SparseSymMatrix.from_dense(random_spd(30, seed=9))
        f = sl.cholesky(m)
        assert f.mode == mode
        b = np.random.default_rng(10).standard_normal(m.dim)
        got = sl.solve_chol(f.scaled(c), b)
        want = sl.solve_chol(sl.cholesky(m.scaled(c)), b)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["dense", "tridiagonal", "spline_mass"])
    def test_lower_reproduces_the_factored_matrix(self, kind):
        if kind == "dense":
            m, mode = sl.SparseSymMatrix.from_dense(random_spd(7, seed=12)), "dense"
        elif kind == "tridiagonal":
            n = 12
            m, mode = sl.SparseSymMatrix.from_dense(2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)), "banded"
        else:
            m, mode = problems.get_operators(2, 2, 3, "annulus_2d").mass, "banded"
        f = sl.cholesky(m)
        assert f.mode == mode
        low = f.lower()
        assert np.array_equal(low, np.tril(low))
        a = m.to_dense()
        assert np.max(np.abs(low @ low.T - a)) <= 1e-14 * np.max(np.abs(a))
        b = np.random.default_rng(13).standard_normal(m.dim)
        x = scipy.linalg.solve_triangular(low, scipy.linalg.solve_triangular(low, b, lower=True), trans=1, lower=True)
        assert np.linalg.norm(x - sl.solve_chol(f, b)) <= 1e-12 * np.linalg.norm(x)
        # a scaled factor keeps its scale: the factor its solves apply
        assert np.array_equal(f.scaled(4.0).lower(), 2.0 * low)

    @pytest.mark.parametrize("c", [1e-7, 0.3, 1.0, 1e7])
    @pytest.mark.parametrize("mode", ["banded", "dense"])
    def test_scaled_factor_is_a_view(self, mode, c):
        # the view shares the stored factor, and its L is bitwise the L of
        # the factor times sqrt(c) stored as a copy
        if mode == "banded":
            m = problems.get_operators(2, 2, 4, "annulus_2d").mass
        else:
            m = sl.SparseSymMatrix.from_dense(random_spd(30, seed=9))
        f = sl.cholesky(m)
        assert f.mode == mode
        view = f.scaled(c)
        assert view.data is f.data and view.scale == c
        s = np.sqrt(c)
        data = f.data * s if mode == "banded" else (f.data[0] * s, f.data[1])
        assert view.lower().tobytes() == sl.CholeskyFactor(f.dim, mode, data).lower().tobytes()

    def test_scaled_factor_rejects_non_positive_scale(self):
        f = sl.cholesky(sl.SparseSymMatrix.from_dense(random_spd(3)))
        with pytest.raises(ValueError):
            f.scaled(0.0)

    def test_memory_guard_refuses_dense_factor_beyond_physical_memory(self):
        # order 10^6 with a corner coupling: band width n - 1, so a dense
        # factor of n^2 entries (8 TB), refused before anything is allocated
        n = 10**6
        rows = np.concatenate([np.arange(n), [0, n - 1]])
        cols = np.concatenate([np.arange(n), [n - 1, 0]])
        vals = np.concatenate([np.full(n, 4.0), [1.0, 1.0]])
        m = sl.SparseSymMatrix(scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n)))
        with pytest.raises(ValueError, match=f"dense Cholesky factor of order {n} with band width {n - 1} needs {8 * n * n} bytes"):
            sl.cholesky(m)

    def test_memory_guard_estimates_banded_factor(self, monkeypatch):
        # a tridiagonal order-200 block needs (1 + 1) * 200 entries = 3200 bytes
        n = 200
        m = sl.SparseSymMatrix(scipy.sparse.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)], [-1, 0, 1]))
        monkeypatch.setattr(sl, "physical_memory_bytes", lambda: 3199)
        with pytest.raises(ValueError, match="banded Cholesky factor of order 200 with band width 1 needs 3200 bytes"):
            sl.cholesky(m)
        monkeypatch.setattr(sl, "physical_memory_bytes", lambda: 3200)
        assert sl.cholesky(m).mode == "banded"

    def test_memory_guard_exits_2_from_the_cli(self, monkeypatch, capsys):
        from msp.cli import EXIT_CONFIG, main

        problems.get_operators.cache_clear()
        monkeypatch.setattr(sl, "physical_memory_bytes", lambda: 1)
        code = main(["table", "--dim", "1", "--levels", "3", "--alphas", "1.0"])
        assert code == EXIT_CONFIG
        assert "physical memory" in capsys.readouterr().err
        problems.get_operators.cache_clear()


class TestEigen:
    @pytest.mark.parametrize("n", [1, 4, 30])
    def test_standard_problem_matches_eigvalsh(self, n):
        # the symmetric eigenproblem a x = lambda x
        a = random_spd(n, seed=20 + n) - n * np.eye(n)
        got = sl.gen_sym_eig(a)
        want = np.linalg.eigvalsh(a)
        assert np.all(np.diff(got) >= 0)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_non_finite_entry_raises(self):
        a = random_spd(4, seed=24)
        a[1, 2] = a[2, 1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            sl.gen_sym_eig(a)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_argument_left_unchanged(self, symmetric, order):
        g = np.random.default_rng(26).standard_normal((12, 12))
        a = np.array(0.5 * (g + g.T) if symmetric else g, order=order)
        before = a.copy()
        sl.gen_sym_eig(a)
        assert a.tobytes() == before.tobytes() and a.flags.f_contiguous == (order == "F")

    @pytest.mark.parametrize("n", [1, 7, 60])
    def test_overwriting_solve_matches_the_copying_one(self, n):
        # on an exactly symmetric array both read the same lower triangle
        g = np.random.default_rng(27 + n).standard_normal((n, n))
        a = np.asfortranarray(0.5 * (g + g.T))
        want = sl.gen_sym_eig(a)
        assert sl.sym_eig_overwrite(a).tobytes() == want.tobytes()

    def test_overwriting_solve_works_in_a_fortran_buffer(self):
        g = np.random.default_rng(28).standard_normal((9, 9))
        a = np.asfortranarray(g + g.T)
        before = a.copy()
        sl.sym_eig_overwrite(a)
        assert not np.array_equal(a, before)
        for bad, match in ((np.ones((3, 2), order="F"), "square"), (np.full((2, 2), np.inf, order="F"), "NaN")):
            with pytest.raises(ValueError, match=match):
                sl.sym_eig_overwrite(bad)
        for value in (np.nan, -np.inf):
            bad = np.asfortranarray(np.eye(3))
            bad[2, 1] = value
            with pytest.raises(ValueError, match="NaN"):
                sl.sym_eig_overwrite(bad)

    def test_non_square_raises_and_empty_is_empty(self):
        with pytest.raises(ValueError, match="square"):
            sl.gen_sym_eig(np.ones((3, 2)))
        assert sl.gen_sym_eig(np.zeros((0, 0))).shape == (0,)


class TestLapackOracles:
    """The direct LAPACK calls give bitwise the results of scipy's wrappers."""

    @pytest.mark.parametrize("storage", [sl.DenseSymMatrix, sl.SparseSymMatrix.from_dense])
    def test_dense_factor_matches_cho_factor(self, storage):
        a = random_spd(9, seed=21)
        f = sl.cholesky(storage(a))
        assert f.mode == "dense"
        want, lower = scipy.linalg.cho_factor(a, lower=True)
        assert f.data[1] == lower
        assert np.tril(f.data[0]).tobytes() == np.tril(want).tobytes()

    @pytest.mark.parametrize("bw", [1, 3])
    def test_banded_factor_matches_cholesky_banded(self, bw):
        a, ab = random_banded_spd(40, bw, seed=22)
        f = sl.cholesky(sl.SparseSymMatrix.from_dense(a))
        assert f.mode == "banded"
        assert f.data.tobytes() == scipy.linalg.cholesky_banded(ab).tobytes()

    @pytest.mark.parametrize("c", [1.0, 0.3])
    @pytest.mark.parametrize("rhs", [(), (3,)], ids=["vector", "matrix"])
    @pytest.mark.parametrize("mode", ["dense", "banded"])
    def test_solve_matches_cho_solve(self, mode, rhs, c):
        # a scaled factor solves with the stored factor and divides by c
        if mode == "dense":
            a = random_spd(9, seed=23)
            stored = scipy.linalg.cho_factor(a, lower=True)

            def wrapper(b):
                return scipy.linalg.cho_solve(stored, b)
        else:
            a, ab = random_banded_spd(40, 2, seed=23)
            stored = (scipy.linalg.cholesky_banded(ab), False)

            def wrapper(b):
                return scipy.linalg.cho_solve_banded(stored, b)
        f = sl.cholesky(sl.SparseSymMatrix.from_dense(a)).scaled(c)
        assert f.mode == mode
        b = np.random.default_rng(24).standard_normal((a.shape[0], *rhs))
        want = wrapper(b)
        want /= c
        assert sl.solve_chol(f, b).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 60])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_eigenvalues_match_eigh(self, n, symmetric):
        # both read the lower triangle only
        g = np.random.default_rng(25 + n).standard_normal((n, n))
        a = 0.5 * (g + g.T) if symmetric else g
        want = scipy.linalg.eigh(a, eigvals_only=True)
        assert sl.gen_sym_eig(a).tobytes() == want.tobytes()


class TestInverseGram:
    @pytest.mark.parametrize("c", [1.0, 0.3])
    @pytest.mark.parametrize("sparse", [True, False], ids=["csr", "array"])
    @pytest.mark.parametrize("mode", ["dense", "banded"])
    def test_matches_dense_oracle(self, mode, sparse, c):
        a = random_spd(9, seed=31) if mode == "dense" else random_banded_spd(40, 2, seed=31)[0]
        f = sl.cholesky(sl.SparseSymMatrix.from_dense(a)).scaled(c)
        assert f.mode == mode
        b = np.random.default_rng(32).standard_normal((a.shape[0], 5))
        g = sl.inverse_gram(f, scipy.sparse.csr_matrix(b) if sparse else b)
        want = b.T @ np.linalg.solve(c * a, b)
        assert g.flags.c_contiguous and np.array_equal(g, g.T)
        assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))

    def test_is_the_averaged_product(self):
        # the in-place average is bitwise 0.5 (g + g') of g = b' (m^-1 b)
        a, _ = random_banded_spd(60, 3, seed=33)
        f = sl.cholesky(sl.SparseSymMatrix.from_dense(a))
        b = np.random.default_rng(34).standard_normal((60, 40))
        g = b.T @ sl.solve_chol(f, b)
        assert sl.inverse_gram(f, b).tobytes() == (0.5 * (g + g.T)).tobytes()

    def test_narrow_dense_storage_gets_a_dense_factor(self):
        # a narrow-band array in dense storage is factored dense, its sparse
        # twin banded, and the two factors give the same inverse Gram
        a, _ = random_banded_spd(30, 3, seed=35)
        got = sl.cholesky(sl.DenseSymMatrix(a))
        want = sl.cholesky(sl.SparseSymMatrix.from_dense(a))
        assert (got.mode, want.mode) == ("dense", "banded")
        b = np.random.default_rng(36).standard_normal((30, 4))
        g, h = sl.inverse_gram(got, b), sl.inverse_gram(want, b)
        assert np.max(np.abs(g - h)) <= 1e-13 * np.max(np.abs(h))


class TestMatrixMarket:
    def test_round_trip(self, tmp_path):
        a = random_spd(6, seed=11)
        m = sl.SparseSymMatrix.from_dense(a)
        path = tmp_path / "m.mtx"
        sl.write_matrix_market(m, path)
        back = scipy.io.mmread(path)
        assert np.allclose(back.toarray(), a, atol=1e-12)


def eager_sum(a, b, beta):
    """A + beta B as `add` built it before the sum was a view: the scipy sum of both CSRs."""
    full = a.to_csr() + beta * b.to_csr()
    full.eliminate_zeros()
    return full


def eager_factor(full):
    """The factor of a CSR through its COO triples and scipy's wrappers: the upper band when
    bw + 1 < n // 2, the lower dense factor otherwise."""
    coo = full.tocoo()
    n, bw = full.shape[0], int(np.abs(coo.row - coo.col).max(initial=0))
    if bw + 1 < n // 2:
        ab = np.zeros((bw + 1, n))
        up = coo.row <= coo.col
        ab[bw + coo.row[up] - coo.col[up], coo.col[up]] = coo.data[up]
        return "banded", scipy.linalg.cholesky_banded(ab)
    return "dense", np.tril(scipy.linalg.cho_factor(full.toarray(), lower=True)[0])


def assert_factor(f, want):
    mode, data = want
    assert f.mode == mode
    assert (f.data if mode == "banded" else f.data[0]).tobytes() == data.tobytes()


class TestSumView:
    @pytest.mark.parametrize("pid", ["distributed_very_weak", "boundary_observation"])
    @pytest.mark.parametrize("d, p, level, mode", [(2, 2, 3, "banded"), (3, 3, 2, "dense")])
    def test_practical_last_block_is_the_eager_sum(self, pid, d, p, level, mode):
        # Z / alpha + B (a scaled first term) and A_3 + alpha B: the CSR and the
        # factor are bitwise those of the eager sum, and a banded factor builds
        # no CSR of the view
        ops = problems.get_operators(d, p, level, problems.DEFAULT_GEOMETRY[d])
        for alpha in (1.0, 1e-3, 1e-7):
            prob = problems.build_problem(problems.ProblemConfig(pid, d=d, p=p, level=level, alpha=alpha))
            if pid == "boundary_observation":
                want = eager_sum(ops.normal_gram_int, ops.biharmonic_int, alpha)
            else:
                want = eager_sum(ops.mass_int.scaled(1.0 / alpha), ops.biharmonic_int, 1.0)
            view = prob.practical_blocks[-1]
            assert type(view) is sl.SparseSymMatrix
            assert_factor(sl.cholesky(view), eager_factor(want))
            assert ("base" in vars(view)) == (mode == "dense")
            got = view.to_csr()
            for x, y in zip((got.data, got.indices, got.indptr), (want.data, want.indices, want.indptr)):
                assert x.tobytes() == y.tobytes()

    def test_band_edge_that_cancels_or_underflows_is_not_in_the_band(self):
        # an entry at distance 5 of order 12 makes the band dense (5 + 1 = 12 // 2);
        # where it cancels or underflows the factor is tridiagonal, as for the eager CSR
        n = 12
        tri = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        edge = np.zeros((n, n))
        edge[0, 5] = edge[5, 0] = 0.5
        a = sl.SparseSymMatrix.from_dense(tri + edge)
        b = sl.SparseSymMatrix.from_dense(np.eye(n) - edge)
        t = sl.SparseSymMatrix.from_dense(tri)
        tiny = sl.SparseSymMatrix.from_dense(tri + 1e-300 * edge)
        cases = [(a, b, 1.0), (b, a, 1.0), (t, tiny, 1e-30), (tiny.scaled(1e-30), t, 1e-3)]
        for x, y, beta in cases:
            want = eager_factor(eager_sum(x, y, beta))
            assert want[0] == "banded"
            assert_factor(sl.cholesky(x.add(y, beta)), want)
        want = eager_factor(tiny.scaled(1e-30).to_csr())
        assert want[0] == "banded"
        assert_factor(sl.cholesky(tiny.scaled(1e-30)), want)
        assert_factor(sl.cholesky(a.add(b, 0.5)), eager_factor(eager_sum(a, b, 0.5)))  # no cancellation: dense

    def test_overflow_is_refused(self):
        # a huge coefficient overflows a term; two finite terms overflow in their sum
        n = 12
        a = sl.SparseSymMatrix.from_dense(4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
        big = sl.SparseSymMatrix.from_dense(1.5e308 * np.eye(n))
        with np.errstate(over="ignore"):
            for m in (a.add(a, 1e308), big.add(big), a.add(big).add(big)):
                assert not np.isfinite(m.to_csr().data).all()
                with pytest.raises(ValueError, match="infs or NaNs"):
                    sl.cholesky(m)
        sl.cholesky(a.add(big))

    def test_orders_must_match(self):
        a = sl.SparseSymMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="order 2 to one of order 3"):
            a.add(sl.SparseSymMatrix.from_dense(np.eye(2)))

    @pytest.mark.parametrize("variant", ["exact", "practical"])
    def test_a_cell_builds_no_csr_of_the_last_block(self, monkeypatch, variant):
        from msp import run

        built = []
        monkeypatch.setattr(run, "build_problem", lambda cfg: built.append(problems.build_problem(cfg)) or built[-1])
        run.run_table("boundary_observation", 2, 2, [3], [1e-3], variant, None)
        assert "base" not in vars(built[0].practical_blocks[-1])

    @pytest.mark.parametrize("pid", ["distributed_very_weak", "boundary_observation"])
    def test_coordinates_are_computed_once_per_stored_csr(self, pid):
        # the last blocks of six alphas read the coordinates kept on the stored
        # CSRs of their terms, Z (or A_3) and B, as computed for the first alpha;
        # the mass, factored once as a plain matrix, keeps none
        problems.get_operators.cache_clear()
        kept = None
        for alpha in problems.DEFAULT_ALPHAS:
            prob = problems.build_problem(problems.ProblemConfig(pid, d=2, p=2, level=3, alpha=alpha))
            prob.practical
            stored = [t.base for t, _ in prob.practical_blocks[-1]._sum]
            coords = [full._msp_upper for full in stored]
            assert kept is None or all(a is b for a, b in zip(coords, kept, strict=True))
            kept = coords
        assert stored[1] is prob.ops.biharmonic_int.base
        assert not hasattr(prob.ops.mass.base, "_msp_upper")
        problems.get_operators.cache_clear()


class _Inline:
    """An executor that records what is submitted to it and runs it at once, on the calling thread."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, *args):
        from concurrent.futures import Future

        self.submitted.append(fn)
        done = Future()
        done.set_result(fn(*args))
        return done


def ahead_cases():
    """(name, matrix factory) pairs that cover every path of `cholesky`: each factory returns a fresh input."""
    tri = 4.0 * np.eye(12) - np.eye(12, k=1) - np.eye(12, k=-1)
    edge = np.zeros((12, 12))
    edge[0, 5] = edge[5, 0] = 0.5
    banded, _ = random_banded_spd(60, 3, seed=31)
    narrow, _ = random_banded_spd(60, 1, seed=36)
    sparse = sl.SparseSymMatrix.from_dense
    return [
        ("sparse banded", lambda: sparse(banded)),
        ("sparse dense", lambda: sparse(random_spd(7, seed=32))),
        ("scaled banded", lambda: sparse(banded).scaled(1e-3)),
        ("sum banded", lambda: sparse(narrow).scaled(2.0).add(sparse(banded), 0.5)),
        ("sum whose edge cancels", lambda: sparse(tri + edge).add(sparse(np.eye(12) - edge))),
        ("dense storage", lambda: sl.DenseSymMatrix(random_spd(9, seed=33))),
        ("bare array", lambda: random_spd(9, seed=34)),
        ("order 1", lambda: sl.DenseSymMatrix(np.array([[2.0]]))),
        ("order 0", lambda: sl.DenseSymMatrix(np.zeros((0, 0)))),
        ("sparse order 0", lambda: sl.SparseSymMatrix(scipy.sparse.csr_matrix((0, 0)))),
    ]


class TestCholeskyAhead:
    @pytest.fixture
    def pool(self):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            yield pool

    @pytest.mark.parametrize("name, make", ahead_cases(), ids=[c[0] for c in ahead_cases()])
    def test_factor_is_bitwise_the_synchronous_one(self, pool, name, make):
        want, m = sl.cholesky(make()), make()
        kept = m.copy() if isinstance(m, np.ndarray) else m.to_dense()
        got = sl.cholesky_ahead(m, pool)()
        assert (got.dim, got.mode, got.scale) == (want.dim, want.mode, want.scale)
        if got.mode == "banded":
            assert got.data.tobytes() == want.data.tobytes() and got.data.flags.f_contiguous
        else:
            assert got.data[0].tobytes() == want.data[0].tobytes() and got.data[1] is want.data[1] is True
        if isinstance(m, np.ndarray):  # taken over, as `cholesky` does
            assert m.size == 0 or np.shares_memory(got.data[0], m)
        else:
            assert np.array_equal(m.to_dense(), kept)

    def test_only_the_lapack_call_is_submitted(self):
        # the array is prepared before the call is submitted, and finished after it
        inline = _Inline()
        for _, make in ahead_cases():
            sl.cholesky_ahead(make(), inline)()
        assert set(inline.submitted) == {sl._lapack_nogil}

    @pytest.mark.parametrize(
        "diagonal, sparse, message",
        [
            ([1.0, -1.0], True, "2-th leading minor of the array is not positive definite"),  # a dense factor
            ([1.0] * 10 + [-1.0] + [1.0] * 9, True, "11-th leading minor not positive definite"),
            ([1.0] * 10 + [-1.0] + [1.0] * 9, False, "11-th leading minor of the array is not positive definite"),
            ([1.0] * 10 + [1e-20] + [1.0] * 9, True, "pivot below tolerance; matrix is semidefinite"),
            ([1.0] * 10 + [1e-20] + [1.0] * 9, False, "pivot below tolerance; matrix is semidefinite"),
        ],
    )
    def test_pivot_failures_raise_when_finished(self, pool, diagonal, sparse, message):
        # `cholesky`'s message, raised by the function that finishes the factor
        def make():
            a = np.diag(diagonal)
            return sl.SparseSymMatrix.from_dense(a) if sparse else a

        with pytest.raises(sl.NotPositiveDefinite, match=f"^{message}$"):
            sl.cholesky(make())
        finish = sl.cholesky_ahead(make(), pool)
        with pytest.raises(sl.NotPositiveDefinite, match=f"^{message}$"):
            finish()

    def test_checks_raise_before_anything_is_submitted(self, monkeypatch):
        inline = _Inline()
        a = random_spd(6, seed=35)
        a[1, 2] = a[2, 1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            sl.cholesky_ahead(a, inline)
        monkeypatch.setattr(sl, "physical_memory_bytes", lambda: 100)
        with pytest.raises(ValueError, match="more than the 100 bytes of physical memory"):
            sl.cholesky_ahead(sl.DenseSymMatrix(random_spd(6, seed=35)), inline)
        assert inline.submitted == []
