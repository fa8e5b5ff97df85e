"""Recurrence polynomials, their roots, and the closed-form spectral bounds."""

import numpy as np
import pytest
from scipy.special import eval_chebyu

from msp import chebyshev as ch


def p_coefficients(j):
    """Monomial coefficients of P_j (ascending degree), exact integers, by the recurrence."""
    pm = np.array([1.0])
    if j == 0:
        return pm
    pc = np.array([0.0, 1.0])
    for _ in range(1, j):
        nxt = np.zeros(len(pc) + 1)
        nxt[1:] = pc
        nxt[: len(pm)] -= pm
        pm, pc = pc, nxt
    return pc


def pbar_coefficients(j):
    """Monomial coefficients of Pbar_j = P_j - P_{j-1} (ascending degree)."""
    if j == 0:
        return np.array([1.0])
    a, b = p_coefficients(j), p_coefficients(j - 1)
    out = a.copy()
    out[: len(b)] -= b
    return out


def bisect_roots(f, lo, hi, n_grid=20000, tol=1e-14):
    """Sign-change bisection root finder used as an independent oracle."""
    xs = np.linspace(lo, hi, n_grid)
    vals = np.array([f(x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            while b - a > tol:
                m = 0.5 * (a + b)
                fm = f(m)
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    return np.array(roots)


class TestRecurrence:
    def test_matches_chebyshev_u_scaled(self):
        xs = np.linspace(-2.0, 2.0, 41)
        for j in range(9):
            mine = np.array([ch.p_eval(j, x) for x in xs])
            assert np.allclose(mine, eval_chebyu(j, xs / 2.0), atol=1e-11)

    def test_first_members(self):
        assert ch.p_eval(0, 1.7) == 1.0
        assert ch.p_eval(1, 1.7) == 1.7
        # P_2 = x^2 - 1
        assert ch.p_eval(2, 1.7) == pytest.approx(1.7**2 - 1.0, abs=1e-14)

    def test_pbar_is_difference(self):
        for j in range(1, 8):
            for x in (-1.9, -0.3, 0.0, 0.77, 1.5):
                assert ch.pbar_eval(j, x) == pytest.approx(
                    ch.p_eval(j, x) - ch.p_eval(j - 1, x), abs=1e-12
                )

    def test_coefficients_match_eval(self):
        xs = np.linspace(-2, 2, 11)
        for j in range(8):
            c = p_coefficients(j)
            vals = np.polynomial.polynomial.polyval(xs, c)
            assert np.allclose(vals, [ch.p_eval(j, x) for x in xs], atol=1e-10)
            cb = pbar_coefficients(j + 1)
            vb = np.polynomial.polynomial.polyval(xs, cb)
            assert np.allclose(vb, [ch.pbar_eval(j + 1, x) for x in xs], atol=1e-10)


class TestRoots:
    def test_closed_form_roots_against_bisection(self):
        for j in range(1, 9):
            mine = np.sort(ch.pbar_roots(j))
            oracle = bisect_roots(lambda x: ch.pbar_eval(j, x), -2.0, 2.0)
            assert len(oracle) == j
            assert np.allclose(mine, oracle, atol=1e-10)

    def test_roots_annihilate(self):
        for j in range(1, 11):
            for r in ch.pbar_roots(j):
                assert abs(ch.pbar_eval(j, r)) < 1e-10

    def test_smallest_abs_root_closed_form(self):
        for j in range(1, 11):
            want = 2.0 * np.sin(np.pi / (2.0 * (2 * j + 1)))
            assert ch.smallest_abs_root(j) == pytest.approx(want, abs=1e-14)
            assert min(abs(r) for r in ch.pbar_roots(j)) == pytest.approx(want, abs=1e-12)

    def test_interlacing(self):
        # roots of consecutive pbar polynomials interlace strictly
        for j in range(2, 9):
            inner = np.sort(ch.pbar_roots(j - 1))
            outer = np.sort(ch.pbar_roots(j))
            for i, r in enumerate(inner):
                assert outer[i] < r < outer[i + 1]


class TestEpsilonSequence:
    def test_chain_identities(self):
        for n in range(2, 9):
            eps = ch.epsilon_sequence(n)
            assert len(eps) == n - 1
            top = 2.0 * np.cos(np.pi / (2 * n + 1))
            assert eps[-1] == pytest.approx(top, abs=1e-12)
            assert 1.0 + 1.0 / eps[0] == pytest.approx(top, abs=1e-12)
            for i in range(1, n - 1):
                assert eps[i - 1] + 1.0 / eps[i] == pytest.approx(top, abs=1e-12)

    def test_admissibility(self):
        for n in range(2, 9):
            assert all(e >= 1.0 - 1e-12 for e in ch.epsilon_sequence(n))

    def test_ratio_representation(self):
        # eps_{n-i} = P_i(top)/P_{i-1}(top)
        for n in range(2, 8):
            top = 2.0 * np.cos(np.pi / (2 * n + 1))
            eps = ch.epsilon_sequence(n)
            for i in range(1, n):
                want = ch.p_eval(i, top) / ch.p_eval(i - 1, top)
                assert eps[n - 1 - i] == pytest.approx(want, abs=1e-11)


class TestBounds:
    def test_norm_bounds(self):
        for n in range(2, 9):
            bs = ch.bounds(n)
            assert bs.norm_bound == pytest.approx(2.0 * np.cos(np.pi / (2 * n + 1)), abs=1e-14)
            assert bs.inv_norm_bound == pytest.approx(
                1.0 / (2.0 * np.sin(np.pi / (2.0 * (2 * n + 1)))), abs=1e-12
            )
            assert bs.cond_bound == pytest.approx(bs.norm_bound * bs.inv_norm_bound, abs=1e-10)

    def test_golden_ratio_case(self):
        assert ch.bounds(2).cond_bound == pytest.approx((3.0 + np.sqrt(5.0)) / 2.0, abs=1e-12)

    def test_three_block_value(self):
        assert ch.bounds(3).cond_bound == pytest.approx(4.0489, abs=1e-4)

    def test_refuses_fewer_than_two_blocks(self):
        for n in (1, 0, -3):
            with pytest.raises(ValueError, match="at least 2 blocks"):
                ch.bounds(n)


class TestQMatrix:
    def test_structure(self):
        m = ch.q_inverse_matrix(4)
        assert m.shape == (4, 4)
        assert m[0, 0] == 1.0
        assert np.allclose(np.diag(m)[1:], 0.0)
        assert np.allclose(m, m.T)

    def test_characteristic_polynomial(self):
        for j in range(1, 9):
            char = np.poly(ch.q_inverse_matrix(j))[::-1]
            assert np.allclose(char, pbar_coefficients(j), rtol=1e-8, atol=1e-8)

    def test_norm_closed_form(self):
        for j in range(1, 11):
            want = 1.0 / (2.0 * np.sin(np.pi / (2.0 * (2 * j + 1))))
            assert ch.q_matrix_norm(j) == pytest.approx(want, abs=1e-12)

    def test_eigenvalues_are_pbar_roots(self):
        ev = np.sort(np.linalg.eigvalsh(ch.q_inverse_matrix(5)))
        assert np.allclose(ev, np.sort(ch.pbar_roots(5)), atol=1e-10)
