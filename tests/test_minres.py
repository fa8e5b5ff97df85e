"""MINRES solver behavior: convergence, monotonicity, finite termination."""

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msp import problems as pb
from msp import run
from msp import saddle as sd
from msp.chebyshev import bounds
from msp.krylov import lanczos_bounds, minres_solve


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

    @pytest.mark.parametrize("maxit", [0, -3])
    def test_invalid_maxit_rejected(self, maxit):
        with pytest.raises(ValueError, match="maxit"):
            minres_solve(identity, identity, np.ones(2), maxit=maxit)

    def test_non_finite_rhs_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            minres_solve(identity, identity, np.array([1.0, np.nan, 2.0]))


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
        res = minres_solve(lambda v: a @ v, identity, b, tol=1e-8)
        assert res.converged
        assert np.linalg.norm(b - a @ res.solution) <= 1e-8 * np.linalg.norm(b)


class CountingOperator:
    def __init__(self, a):
        self.a = a
        self.calls = 0

    def __call__(self, v):
        self.calls += 1
        return self.a @ v


class TestEuclideanStop:
    @pytest.mark.parametrize("seed", range(5))
    def test_one_operator_apply_per_iteration(self, seed):
        # the Lanczos step's A v carries the residual; only a true residual
        # confirming the stop applies the operator again
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((40, 40))
        a = g + g.T + np.eye(40)
        b = rng.standard_normal(40)
        op = CountingOperator(a)
        res = minres_solve(op, identity, b, tol=1e-8, maxit=400)
        assert res.converged
        assert res.iterations + 1 <= op.calls < 2 * res.iterations
        assert np.linalg.norm(b - a @ res.solution) <= 1e-8 * np.linalg.norm(b)

    @pytest.mark.parametrize("pid", ["distributed_very_weak", "boundary_observation"])
    def test_true_residual_meets_tolerance_on_a_control_problem(self, pid):
        prob = pb.build_problem(pb.ProblemConfig(pid, d=2, p=2, level=3, alpha=1e-5))
        full = sd.assemble_full(prob.system).to_csr()
        op = CountingOperator(full)
        tol = 1e-8
        res = minres_solve(op, prob.practical.apply_inverse, prob.rhs, tol=tol)
        assert res.converged
        assert op.calls == res.iterations + 1
        r = prob.rhs - full @ res.solution
        assert np.linalg.norm(r) <= tol * np.linalg.norm(prob.rhs)

    @pytest.mark.parametrize("seed", range(3))
    def test_residual_record_ends_with_the_confirmed_residual(self, seed):
        # ||b|| first, then one Euclidean norm per step; the last is the true
        # residual that confirmed the stop
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((40, 40))
        a = g + g.T + np.eye(40)
        b = rng.standard_normal(40)
        before = b.copy()
        tol = 1e-8
        res = minres_solve(lambda v: a @ v, identity, b, tol=tol, maxit=400)
        assert res.converged
        assert b.tobytes() == before.tobytes()
        norms = res.residual_norms
        assert len(norms) == res.iterations + 1 == len(res.residual_history)
        assert norms[0] == np.linalg.norm(b)
        assert norms[-1] <= tol * norms[0]
        assert norms[-1] == np.linalg.norm(b - a @ res.solution)
        assert all(n > tol * norms[0] for n in norms[1:-1])

    def test_residual_record_on_a_control_problem(self):
        prob = pb.build_problem(pb.ProblemConfig("boundary_observation", d=2, p=2, level=3, alpha=1e-3))
        res = minres_solve(prob.system.apply, prob.practical.apply_inverse, prob.rhs)
        assert res.converged
        assert res.residual_norms[0] == np.linalg.norm(prob.rhs)
        assert res.residual_norms[-1] == np.linalg.norm(prob.rhs - prob.system.apply(res.solution))

    def test_zero_rhs_record(self):
        assert minres_solve(identity, identity, np.zeros(3)).residual_norms == [0.0]

    def test_failed_confirmation_is_not_convergence(self):
        # a first operator apply off by a relative 1e-6 breaks the Lanczos
        # relation: the updated residual falls below tol while the true one
        # stalls near 1e-6.  The one confirmation fails, the true residual
        # replaces the updated one, and the solve goes on and reports no
        # convergence.
        rng = np.random.default_rng(8)
        g = rng.standard_normal((30, 30))
        a = g + g.T + np.eye(30)
        b = rng.standard_normal(30)
        calls = [0]

        def perturbed(v):
            calls[0] += 1
            out = a @ v
            return out * (1 + 1e-6) if calls[0] == 1 else out

        res = minres_solve(perturbed, identity, b, tol=1e-8, maxit=100)
        assert not res.converged
        assert res.iterations == 100
        assert calls[0] == res.iterations + 1
        assert np.linalg.norm(b - a @ res.solution) > 1e-8 * np.linalg.norm(b)


class TestScaleInvariance:
    @staticmethod
    def _cases():
        rng = np.random.default_rng(12)
        g = rng.standard_normal((20, 20))
        regular = (g + g.T, rng.standard_normal(20))
        # singular and inconsistent: the solve does not converge, the Krylov space
        # is exhausted after 4 steps and the Lanczos beta breaks down
        singular = (np.diag([1.0, -2.0, 3.0, 0.0, 0.0]), np.ones(5))
        return [regular, singular]

    def test_rhs_and_operator_scale_leave_the_run_unchanged(self):
        for a, b in self._cases():
            ref = minres_solve(lambda v: a @ v, identity, b, tol=1e-8, maxit=100)
            key = (ref.iterations, ref.converged, ref.breakdown_at)
            for c in (1e20, 1e-20):
                scaled_b = minres_solve(lambda v: a @ v, identity, c * b, tol=1e-8, maxit=100)
                scaled_a = minres_solve(lambda v: c * (a @ v), identity, b, tol=1e-8, maxit=100)
                for res in (scaled_b, scaled_a):
                    assert (res.iterations, res.converged, res.breakdown_at) == key

    def test_exhausted_krylov_space_reports_breakdown(self):
        a, b = self._cases()[1]
        res = minres_solve(lambda v: a @ v, identity, b, maxit=100)
        assert not res.converged
        assert res.breakdown_at == 4


def sign_flipping_after_the_first_call():
    """P^{-1} = I on the first call, -I on every later one: r' P^{-1} r turns negative after step 1."""
    calls = []

    def apply(r):
        calls.append(r)
        return r if len(calls) == 1 else -r

    return apply, calls


class TestNegativeBetaSquared:
    def test_noise_level_is_a_breakdown(self):
        # one step on A = diag(1, 1 + 1e-15) leaves a Lanczos vector of rounding
        # noise; with P^{-1} = -I there, beta^2 = -||r||^2 ~ -1e-31 rounds below
        # zero within (10 eps anorm)^2 and counts as beta = 0
        a = np.array([1.0, 1.0 + 1e-15])
        apply, calls = sign_flipping_after_the_first_call()
        res = minres_solve(lambda v: a * v, apply, np.ones(2), tol=1e-20)
        r = calls[-1]
        assert 0.0 < r @ r <= (10 * np.finfo(float).eps) ** 2
        assert (res.iterations, res.converged, res.breakdown_at) == (1, False, 1)
        assert res.lanczos[1] == [0.0]

    def test_beyond_noise_level_raises(self):
        apply, calls = sign_flipping_after_the_first_call()
        with pytest.raises(ValueError, match="not positive definite"):
            minres_solve(lambda v: np.array([1.0, 2.0]) * v, apply, np.ones(2))
        assert len(calls) == 2

    def test_negative_identity_raises_at_step_1(self):
        calls = []

        def negative(r):
            calls.append(r)
            return -r

        with pytest.raises(ValueError, match="not positive definite"):
            minres_solve(identity, negative, np.array([1.0, -2.0, 3.0]))
        assert len(calls) == 1


class TestScipyOracle:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    # draws whose exact-Schur P is so ill-conditioned (up to 1e16) that
    # neither solver reaches tol in the Euclidean residual
    @example(n=3, seed=88586733)
    @example(n=4, seed=15)
    @example(n=4, seed=608)
    @example(n=5, seed=96)
    @example(n=5, seed=538)
    @example(n=6, seed=979)
    def test_matches_scipy_minres(self, n, seed):
        # random SPSD block systems preconditioned by their exact Schur
        # complements; both solvers must land within the stopping tolerance
        # of each other, measured through the operator's conditioning
        rng = np.random.default_rng(seed)
        sys = sd.random_spsd_system(n, rng)
        pre = sd.exact_schur(sys)
        dense = sd.assemble_full(sys).to_dense()
        b = rng.standard_normal(sys.total_dim)
        tol = 1e-10
        ours = minres_solve(sys.apply, pre.apply_inverse, b, tol=tol)
        m = scipy.sparse.linalg.LinearOperator(dense.shape, matvec=pre.apply_inverse)
        theirs, info = scipy.sparse.linalg.minres(dense, b, M=m, rtol=1e-14, maxiter=50 * sys.total_dim)
        ours_res = np.linalg.norm(b - dense @ ours.solution) / np.linalg.norm(b)
        theirs_res = np.linalg.norm(b - dense @ theirs) / np.linalg.norm(b)
        kappa = np.linalg.cond(dense)
        gap = np.linalg.norm(ours.solution - theirs)
        if theirs_res <= tol:
            assert ours.converged
            assert ours_res <= tol
            assert gap <= 10 * tol * kappa * np.linalg.norm(theirs)
        else:
            # scipy falls short of tol too: msp must do no worse, and the
            # solutions agree to the residual scipy reached
            assert ours_res <= theirs_res
            assert gap <= 10 * theirs_res * kappa * np.linalg.norm(theirs)


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


def random_start_run(apply_a, apply_prec_inv, dim):
    """MINRES from a seeded random right-hand side, as `spectrum --lanczos` runs it."""
    b = np.random.default_rng(0).standard_normal(dim)
    return minres_solve(apply_a, apply_prec_inv, b, tol=1e-10)


def random_symmetric(dim, seed):
    g = np.random.default_rng(seed).standard_normal((dim, dim))
    return g + g.T


def practical_and_exact_cells():
    for pid in pb.PROBLEM_IDS:
        for alpha in (1.0, 1e-3):
            prob = pb.build_problem(pb.ProblemConfig(pid, d=2, p=2, level=3, alpha=alpha))
            for variant in ("practical", "exact_schur"):
                yield prob, variant, pb.make_preconditioner(prob, variant)


class TestLanczosBounds:
    @pytest.mark.parametrize(
        "a",
        [
            np.diag([-3.0, -1.0, -0.2, 0.5, 2.0, 4.0, 7.5]),
            random_symmetric(60, seed=6),
        ],
        ids=["diagonal", "random"],
    )
    def test_within_the_moduli_of_the_spectrum(self, a):
        moduli = np.abs(np.linalg.eigvalsh(a))
        res = random_start_run(lambda v: a @ v, identity, a.shape[0])
        assert len(res.lanczos[0]) == len(res.lanczos[1]) == res.iterations
        s_max, s_min = lanczos_bounds(res)
        assert moduli.min() * (1 - 1e-10) <= s_min <= s_max <= moduli.max() * (1 + 1e-10)
        # MINRES exhausts these small Krylov spaces, so the bounds are attained
        assert (s_min, s_max) == pytest.approx((moduli.min(), moduli.max()), rel=1e-8)

    def test_run_without_steps_refused(self):
        with pytest.raises(ValueError, match="no Lanczos step"):
            lanczos_bounds(minres_solve(identity, identity, np.zeros(3)))

    def test_close_lower_bound_on_the_dense_condition_number(self):
        cells = 0
        for prob, variant, pre in practical_and_exact_cells():
            s_max, s_min = lanczos_bounds(
                random_start_run(prob.system.apply, pre.apply_inverse, prob.system.total_dim)
            )
            kappa = sd.spectrum(prob.system, sd.SchurPreconditioner(factors=pre.factors)).cond  # the dense path
            assert 0.99 * kappa <= s_max / s_min <= kappa * (1 + 1e-10), (prob.config, variant)
            cells += 1
        assert cells == 16

    @pytest.mark.parametrize("scale", [1.01, 0.1])
    def test_perturbed_exact_last_block_exceeds_the_bound(self, scale):
        for prob, variant, pre in practical_and_exact_cells():
            if variant != "exact_schur":
                continue
            last = prob.system.block_slices()[-1]

            def perturbed_inverse(r):
                z = pre.apply_inverse(r)
                z[last] /= scale
                return z

            s_max, s_min = lanczos_bounds(
                random_start_run(prob.system.apply, perturbed_inverse, prob.system.total_dim)
            )
            assert s_max / s_min > bounds(prob.system.n).cond_bound, prob.config


def textbook_minres(apply_a, apply_prec_inv, b, tol, maxit):
    """Preconditioned MINRES as Paige and Saunders write it, with msp's Euclidean stop.

    The operation order is the one `minres_solve` is held to: v = (1/beta) y;
    y = (A v - (beta/beta_old) r1) - (alpha/beta) r2; w = ((v - eps_old w1)
    - delta w2) / gamma, A w alike; x + phi w; r - phi A w.  Returns
    (x, energy norms, Euclidean norms, alphas, betas).
    """
    eps = np.finfo(float).eps
    x = np.zeros(len(b))
    r1 = r2 = b.copy()
    y = apply_prec_inv(r2)
    beta = np.sqrt(r2 @ y)
    energy, euclid, alphas, betas = [beta], [np.linalg.norm(b)], [], []
    oldb, phibar, cs, sn, dbar, epsln, anorm = 0.0, beta, -1.0, 0.0, 0.0, 0.0, 0.0
    w1 = w2 = w = aw1 = aw2 = aw = np.zeros(len(b))
    r = b
    for itn in range(1, maxit + 1):
        v = (1.0 / beta) * y
        av = apply_a(v)
        y = av - (beta / oldb) * r1 if itn > 1 else av
        alpha = v @ y
        y = y - (alpha / beta) * r2
        r1, r2 = r2, y
        y = apply_prec_inv(r2)
        oldb, beta = beta, np.sqrt(r2 @ y)
        anorm = max(anorm, abs(alpha), beta)
        alphas.append(alpha)
        betas.append(beta)
        oldeps, delta, gbar = epsln, cs * dbar + sn * alpha, sn * dbar - cs * alpha
        epsln, dbar = sn * beta, -cs * beta
        gamma = max(np.sqrt(gbar**2 + beta**2), eps * anorm, np.finfo(float).tiny)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = ((v - oldeps * w1) - delta * w2) / gamma
        aw1, aw2 = aw2, aw
        aw = ((av - oldeps * aw1) - delta * aw2) / gamma
        x = x + phi * w
        r = r - phi * aw
        energy.append(abs(phibar))
        rnorm = np.linalg.norm(r)
        if rnorm <= tol * euclid[0]:
            r = b - apply_a(x)
            rnorm = np.linalg.norm(r)
        euclid.append(rnorm)
        if rnorm <= tol * euclid[0] or beta <= 10 * eps * anorm:
            break
    return x, energy, euclid, alphas, betas


class TestTextbookOracle:
    # bit for bit: any reordering of MINRES's arithmetic shows here first

    @staticmethod
    def _assert_same_bits(apply_a, apply_prec_inv, b):
        res = minres_solve(apply_a, apply_prec_inv, b, tol=1e-10, maxit=300)
        x, energy, euclid, alphas, betas = textbook_minres(apply_a, apply_prec_inv, b, 1e-10, 300)
        assert res.converged
        assert res.solution.tobytes() == x.tobytes()
        assert res.residual_history == energy
        assert res.residual_norms == euclid
        assert res.lanczos == (alphas, betas)

    def test_random_preconditioned_indefinite_system(self):
        rng = np.random.default_rng(31)
        g = rng.standard_normal((50, 50))
        a = g + g.T
        d = rng.uniform(0.5, 5.0, 50)
        self._assert_same_bits(lambda v: a @ v, lambda r: r / d, rng.standard_normal(50))

    def test_control_problem(self):
        prob = pb.build_problem(pb.ProblemConfig("boundary_observation", d=2, p=2, level=3, alpha=1e-3))
        self._assert_same_bits(prob.system.apply, prob.practical.apply_inverse, prob.rhs)


PRODUCT_CASES = [
    (pid, d, p, level)
    for d, p, level in ((2, 2, 3), (3, 3, 2), (1, 2, 6))
    for pid in pb.PROBLEM_IDS
    if pid != "boundary_control" or d == 2
]


def product_cells(pid, d, p, level):
    for variant in ("practical", "exact"):
        for alpha in (1.0, 1e-3, 1e-7):
            prob = pb.build_problem(pb.ProblemConfig(pid, d=d, p=p, level=level, alpha=alpha))
            yield prob, pb.make_preconditioner(prob, variant)


def wrong_lead(prob, pre, factor):
    """`pre` with E built from factor * alpha (factor * T for one lead block), for its hooks."""
    factors, lead = pre.factors, prob.lead_pattern
    if prob.system.n == 3:
        f1, f2, last = factors
        factors = [f1.scaled(factor), f2.scaled(1.0 / factor), last]
    else:
        lead = factor * lead
    return sd.SchurPreconditioner(factors=factors, system=prob.system, lead=lead)


class TestPreconditionedProduct:
    @pytest.mark.parametrize("pid, d, p, level", PRODUCT_CASES)
    def test_is_the_plain_product_and_keeps_the_counts(self, pid, d, p, level):
        for prob, pre in product_cells(pid, d, p, level):
            r = np.random.default_rng(5).standard_normal(prob.total_dim)
            beta = 0.7
            v = pre.apply_inverse(r) / beta
            want = prob.system.apply(v)
            got = pre.apply_preconditioned(v, r, beta)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            plain = minres_solve(prob.system.apply, pre.apply_inverse, prob.rhs)
            fused = minres_solve(prob.system.apply, pre.apply_inverse, prob.rhs, product=pre.apply_preconditioned)
            assert (fused.iterations, fused.converged) == (plain.iterations, plain.converged)

    def test_solve_problem_passes_it(self):
        prob = pb.build_problem(pb.ProblemConfig("boundary_observation", d=2, p=2, level=3, alpha=1e-3))
        got = run.solve_problem(prob, prob.practical)
        want = minres_solve(prob.system.apply, prob.practical.apply_inverse, prob.rhs,
                            product=prob.practical.apply_preconditioned, head=prob.practical.preconditioned_head)
        assert got.solution.tobytes() == want.solution.tobytes()
        assert got.residual_norms == want.residual_norms

    def test_solve_problem_refuses_a_preconditioner_without_a_lead_pattern(self):
        # a preconditioner without T has no hooks, so it is refused; with the
        # hooks of the problem's own lead factors this run took all 500
        # steps, while plain MINRES converges
        prob = pb.build_problem(pb.ProblemConfig("distributed_very_weak", d=2, p=2, level=3, alpha=1e-3))
        first, *rest = prob.lead_factors
        pre = sd.SchurPreconditioner(prob.practical_blocks, [first.scaled(1.01), *rest, None])
        assert minres_solve(prob.system.apply, pre.apply_inverse, prob.rhs).converged
        with pytest.raises(ValueError, match="carries no lead pattern"):
            run.solve_problem(prob, pre)

    @pytest.mark.parametrize("pid, d, p, level", PRODUCT_CASES)
    def test_head_is_the_preconditioned_product_and_keeps_the_counts(self, pid, d, p, level):
        # the head rows MINRES forms are not pinned to a fresh solve: where r is
        # at noise level they drift from it by design; the counts are pinned
        for prob, pre in product_cells(pid, d, p, level):
            v = np.random.default_rng(6).standard_normal(prob.total_dim)
            want = pre.apply_inverse(prob.system.apply(v))
            head = pre.preconditioned_head(v)
            assert len(head) == (prob.system.block_dims[0] if prob.system.n == 3 else 0)
            assert np.linalg.norm(head - want[: len(head)]) <= 1e-12 * np.linalg.norm(want)
            fused = minres_solve(prob.system.apply, pre.apply_inverse, prob.rhs, product=pre.apply_preconditioned)
            got = run.solve_problem(prob, pre)
            assert (got.iterations, got.converged, got.breakdown_at) == (
                fused.iterations, fused.converged, fused.breakdown_at)
            if prob.system.n == 2:  # no head rows: every bit of the product-only run
                assert got.solution.tobytes() == fused.solution.tobytes()
                assert got.residual_norms == fused.residual_norms
                assert got.lanczos == fused.lanczos

    @pytest.mark.parametrize("factor", [1.01, 1 + 1e-6])
    @pytest.mark.parametrize("pid, d, p, level", PRODUCT_CASES)
    def test_a_wrong_product_never_reports_convergence(self, pid, d, p, level, factor):
        # the updated residual follows the wrong product; the confirmation does not
        tol = 1e-8
        for prob, pre in product_cells(pid, d, p, level):
            confirmations = []

            def apply_a(x):
                confirmations.append(x)
                return prob.system.apply(x)

            res = minres_solve(apply_a, pre.apply_inverse, prob.rhs, tol=tol, maxit=100,
                               product=wrong_lead(prob, pre, factor).apply_preconditioned)
            assert confirmations  # the updated residual passed the test at least once
            if res.converged:
                true = np.linalg.norm(prob.rhs - prob.system.apply(res.solution))
                assert res.residual_norms[-1] == true <= tol * np.linalg.norm(prob.rhs)

    @pytest.mark.parametrize("factor", [1.01, 1 + 1e-6])
    @pytest.mark.parametrize("pid, d, p, level", PRODUCT_CASES)
    def test_a_wrong_head_never_reports_convergence(self, pid, d, p, level, factor):
        # a wrong head breaks the preconditioner's symmetry: the run either
        # finds r' P^{-1} r < 0 and raises, or stops only on a confirmed residual
        tol = 1e-8
        for prob, pre in product_cells(pid, d, p, level):
            try:
                res = minres_solve(prob.system.apply, pre.apply_inverse, prob.rhs, tol=tol, maxit=100,
                                   product=pre.apply_preconditioned, head=wrong_lead(prob, pre, factor).preconditioned_head)
            except ValueError as exc:
                assert prob.system.n == 3 and "not positive definite" in str(exc)
                continue
            if res.converged:
                true = np.linalg.norm(prob.rhs - prob.system.apply(res.solution))
                assert res.residual_norms[-1] == true <= tol * np.linalg.norm(prob.rhs)


class TestHugeAlpha:
    # E = T sqrt(s_i / s_j) at the three-block scales (alpha, 1 / alpha): the
    # quotient alpha^2 overflows from alpha about 1.3e154, where the hooks took
    # a NaN (500 unconverged steps after a RuntimeWarning); sqrt(s_i) / sqrt(s_j)
    # does not, and stands in only where the quotient leaves the normal range
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", ["practical", "exact"])
    @pytest.mark.parametrize(
        "pid, practical_steps",
        [("distributed_strong", 21), ("boundary_observation", 21), ("distributed_very_weak", 19)],
    )
    def test_every_huge_alpha_converges_without_a_warning(self, pid, practical_steps, variant):
        for alpha in (1e100, 1e150, 1e155, 1e200, 1e300):
            prob = pb.build_problem(pb.ProblemConfig(pid, d=2, p=2, level=3, alpha=alpha))
            res = run.solve_problem(prob, pb.make_preconditioner(prob, variant))
            assert (res.converged, res.iterations) == (True, practical_steps if variant == "practical" else 3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "alpha, normal", [(1e-300, False), (1e-7, True), (1.0, True), (1e150, True), (1e155, False), (1e300, False)]
    )
    def test_lead_product_keeps_the_root_of_a_normal_quotient(self, alpha, normal):
        # where alpha^2 and alpha^-2 are normal numbers, E keeps its bits
        pre = pb.build_problem(pb.ProblemConfig("distributed_strong", d=1, p=2, level=3, alpha=alpha)).practical
        s = np.array([alpha, 1.0 / alpha])
        e = np.sqrt(np.divide.outer(s, s)) if normal else np.sqrt(s)[:, None] / np.sqrt(s)
        assert pre._lead_product.tobytes() == (pre.lead * e).tobytes()


class TestTinyAlpha:
    # the last blocks of the boundary problems mix alpha-scaled and unscaled
    # rows: a pivot floor relative to the block's largest diagonal entry refused
    # them from alpha 1e-15 down, one relative to each pivot's own entry does not
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", ["practical", "exact"])
    @pytest.mark.parametrize("pid, practical_steps", [("boundary_control", 25), ("boundary_observation", 15)])
    def test_boundary_problems_converge_at_alpha_1e_16(self, pid, practical_steps, variant):
        prob = pb.build_problem(pb.ProblemConfig(pid, d=2, p=2, level=3, alpha=1e-16))
        res = run.solve_problem(prob, pb.make_preconditioner(prob, variant))
        assert (res.converged, res.iterations) == (True, practical_steps if variant == "practical" else 3)
