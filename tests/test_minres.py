"""MINRES solver behavior: convergence, monotonicity, finite termination."""

import numpy as np
import pytest

from msp import saddle as sd
from msp.krylov import lanczos_extremes, minres_solve


def identity(v):
    return v


class TestBasics:
    def test_identity_one_iteration(self):
        b = np.array([1.0, -2.0, 3.0])
        res = minres_solve(identity, identity, b)
        assert res.converged
        assert res.iterations <= 1
        assert np.allclose(res.solution, b, atol=1e-12)

    def test_zero_rhs(self):
        res = minres_solve(identity, identity, np.zeros(4))
        assert res.converged
        assert res.iterations == 0
        assert np.allclose(res.solution, 0.0)

    def test_indefinite_diagonal(self):
        a = np.diag([1.0, -1.0])
        b = np.array([1.0, 1.0])
        res = minres_solve(lambda v: a @ v, identity, b)
        assert res.converged
        assert res.iterations <= 2
        assert np.allclose(res.solution, [1.0, -1.0], atol=1e-10)

    def test_invalid_tol_rejected(self):
        with pytest.raises(ValueError):
            minres_solve(identity, identity, np.ones(2), tol=0.0)
        with pytest.raises(ValueError):
            minres_solve(identity, identity, np.ones(2), tol=2.0)

    def test_non_finite_rhs_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            minres_solve(identity, identity, np.array([1.0, np.nan, 2.0]))

    def test_unknown_stop_mode_rejected(self):
        with pytest.raises(ValueError):
            minres_solve(identity, identity, np.ones(2), stop="nonsense")


class TestConvergence:
    def test_general_symmetric_solve(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((30, 30))
        a = g + g.T + 0.5 * np.eye(30)
        b = rng.standard_normal(30)
        res = minres_solve(lambda v: a @ v, identity, b, tol=1e-10, maxit=400)
        assert res.converged
        assert np.linalg.norm(b - a @ res.solution) <= 1e-8 * np.linalg.norm(b)

    def test_monotone_history(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((25, 25))
        a = g + g.T
        b = rng.standard_normal(25)
        res = minres_solve(lambda v: a @ v, identity, b, tol=1e-9, maxit=200)
        h = np.array(res.residual_history)
        assert np.all(np.diff(h) <= 1e-12 * h[0])

    def test_converged_flag_consistent(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((20, 20))
        a = g + g.T
        b = rng.standard_normal(20)
        res = minres_solve(lambda v: a @ v, identity, b, tol=1e-8, maxit=3)
        assert not res.converged  # 3 iterations cannot be enough generically
        res = minres_solve(lambda v: a @ v, identity, b, tol=1e-8, maxit=200)
        assert res.converged
        assert res.residual_history[-1] <= 1e-8 * res.residual_history[0]

    def test_preconditioned_solve(self):
        rng = np.random.default_rng(3)
        d = np.abs(rng.uniform(1, 100, 40))
        a = np.diag(d * np.where(np.arange(40) % 2 == 0, 1.0, -1.0))
        pinv = np.diag(1.0 / d)
        b = rng.standard_normal(40)
        res = minres_solve(lambda v: a @ v, lambda v: pinv @ v, b, tol=1e-10)
        assert res.converged
        assert np.allclose(a @ res.solution, b, atol=1e-6)

    def test_euclidean_stop_residual(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((30, 30))
        a = g + g.T + np.eye(30)
        b = rng.standard_normal(30)
        res = minres_solve(lambda v: a @ v, identity, b, tol=1e-8, stop="euclidean")
        assert res.converged
        assert np.linalg.norm(b - a @ res.solution) <= 1e-8 * np.linalg.norm(b)


class TestFiniteTermination:
    @pytest.mark.parametrize("n", [2, 3])
    def test_sharp_system_distinct_eigenvalue_count(self, n):
        # with the exact Schur preconditioner and A_i = 0 (i >= 2) the
        # preconditioned operator has at most n(n+1)/2 distinct eigenvalues,
        # so MINRES terminates in that many iterations.
        rng = np.random.default_rng(10 + n)
        sys = sd.random_sharp_system(n, rng, block_dim=4)
        pre = sd.exact_schur(sys)
        full = sd.assemble_full(sys).to_csr()
        b = rng.standard_normal(sys.total_dim)
        res = minres_solve(lambda v: full @ v, pre.apply_inverse, b, tol=1e-9)
        assert res.converged
        assert res.iterations <= n * (n + 1) // 2

    def test_solution_residual_consistency(self):
        rng = np.random.default_rng(20)
        sys = sd.random_spsd_system(3, rng)
        pre = sd.exact_schur(sys)
        full = sd.assemble_full(sys).to_csr()
        b = rng.standard_normal(sys.total_dim)
        tol = 1e-8
        res = minres_solve(lambda v: full @ v, pre.apply_inverse, b, tol=tol)
        r = b - full @ res.solution
        z = pre.apply_inverse(r)
        monitored = np.sqrt(r @ z)
        assert monitored <= 10 * tol * res.residual_history[0]


class TestLanczos:
    def test_diagonal_extremes(self):
        d = np.arange(1.0, 11.0)
        lo, hi = lanczos_extremes(lambda v: d * v, lambda u, v: float(u @ v), 10, 50)
        assert lo == pytest.approx(1.0, abs=1e-8)
        assert hi == pytest.approx(10.0, abs=1e-8)

    def test_bracketed_by_true_extremes(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((60, 60))
        a = g + g.T
        ev = np.linalg.eigvalsh(a)
        lo, hi = lanczos_extremes(lambda v: a @ v, lambda u, v: float(u @ v), 60, 100)
        assert ev[0] - 1e-8 <= lo
        assert hi <= ev[-1] + 1e-8
        assert lo == pytest.approx(ev[0], rel=1e-4)
        assert hi == pytest.approx(ev[-1], rel=1e-4)

    def test_requires_two_steps(self):
        with pytest.raises(ValueError):
            lanczos_extremes(identity, lambda u, v: float(u @ v), 5, 1)
