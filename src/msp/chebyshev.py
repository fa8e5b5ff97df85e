"""Recurrence polynomials, their roots, and the closed-form condition bounds.

The whole condition-number analysis of block-diagonally preconditioned
block-tridiagonal saddle-point operators reduces to properties of the
polynomial family

    P_0 = 1,  P_1(x) = x,  P_{i+1}(x) = x P_i(x) - P_{i-1}(x),

(which is the Chebyshev polynomial of the second kind with rescaled
argument, P_j(x) = U_j(x/2)) and of the differences Pbar_j = P_j - P_{j-1}.
This module provides evaluation, closed-form roots, the parameter chain
used in the norm estimate, the resulting bounds, and the small integer
matrices whose spectral norm gives the inverse bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _forward(j: int, q1: float, x: float) -> float:
    """q_j of the recurrence q_0 = 1, q_1 = `q1`, q_{i+1} = x q_i - q_{i-1}."""
    if j < 0:
        raise ValueError("degree must be >= 0")
    pm, pc = 1.0, q1
    if j == 0:
        return pm
    for _ in range(1, j):
        pm, pc = pc, x * pc - pm
    return pc


def p_eval(j: int, x: float) -> float:
    """Evaluate P_j(x) by the three-term forward recurrence."""
    return _forward(j, x, x)


def pbar_eval(j: int, x: float) -> float:
    """Evaluate Pbar_j(x) = P_j(x) - P_{j-1}(x) by the forward recurrence.

    The recurrence Pbar_0 = 1, Pbar_1 = x - 1,
    Pbar_{i+1} = x Pbar_i - Pbar_{i-1} is used directly; it is numerically
    stable for the O(1) arguments that occur here.
    """
    return _forward(j, x - 1.0, x)


def pbar_roots(j: int) -> np.ndarray:
    """All j roots of Pbar_j in descending order, from the closed form.

    The roots are 2 cos((2i-1) pi / (2j+1)), i = 1..j.  The closed form is
    exact and deterministic; numerical root-finding is only used as a test
    oracle against this function.
    """
    if j < 1:
        raise ValueError("Pbar_0 is constant and has no roots")
    i = np.arange(1, j + 1)
    return 2.0 * np.cos((2 * i - 1) * np.pi / (2 * j + 1))


def smallest_abs_root(j: int) -> float:
    """Modulus of the root of Pbar_j closest to zero: 2 sin(pi / (2(2j+1)))."""
    if j < 1:
        raise ValueError("Pbar_0 is constant and has no roots")
    return 2.0 * np.sin(np.pi / (2.0 * (2 * j + 1)))


def epsilon_sequence(n: int) -> np.ndarray:
    """Parameters eps_1..eps_{n-1} equalizing the diagonal in the norm estimate.

    eps_{n-1} is the largest root of Pbar_n and the remaining entries follow
    from eps_{n-i} = P_i(eps_{n-1}) / P_{i-1}(eps_{n-1}).  The sequence
    satisfies the continued-fraction chain

        1 + 1/eps_1 = eps_{n-1},   eps_{i-1} + 1/eps_i = eps_{n-1},

    and eps_i >= 1 for all i.
    """
    if n < 2:
        raise ValueError("need at least 2 blocks")
    top = 2.0 * np.cos(np.pi / (2 * n + 1))
    eps = np.empty(n - 1)
    eps[n - 2] = top
    for i in range(2, n):
        eps[n - 1 - i] = p_eval(i, top) / p_eval(i - 1, top)
    return eps


@dataclass(frozen=True)
class BoundSet:
    """Closed-form norm/condition bounds for an n-block system."""

    n: int
    norm_bound: float
    inv_norm_bound: float
    cond_bound: float


def bounds(n: int) -> BoundSet:
    """Sharp bounds on the norms and condition number of the preconditioned operator."""
    if n < 2:
        raise ValueError("need at least 2 blocks")
    nb = 2.0 * np.cos(np.pi / (2 * n + 1))
    ib = 1.0 / (2.0 * np.sin(np.pi / (2.0 * (2 * n + 1))))
    return BoundSet(n=n, norm_bound=nb, inv_norm_bound=ib, cond_bound=nb * ib)


def q_inverse_matrix(j: int) -> np.ndarray:
    """The symmetric tridiagonal j-by-j matrix inverse to Q_j.

    Entry (1,1) is 1, the remaining diagonal is 0, and the off-diagonal
    entries alternate -1, +1, -1, ...  Its characteristic polynomial is
    Pbar_j, so its eigenvalues are exactly the roots of Pbar_j.
    """
    if j < 1:
        raise ValueError("size must be >= 1")
    m = np.zeros((j, j))
    m[0, 0] = 1.0
    for i in range(j - 1):
        v = -1.0 if i % 2 == 0 else 1.0
        m[i, i + 1] = v
        m[i + 1, i] = v
    return m


def q_matrix_norm(j: int) -> float:
    """Spectral norm of Q_j, computed as 1/min|eig| of its explicit inverse."""
    ev = np.linalg.eigvalsh(q_inverse_matrix(j))
    return 1.0 / np.min(np.abs(ev))


CLOSED_FORM_TOL = 1e-12


def closed_form_deviations() -> tuple[list[float], float]:
    """Deviations of the computed quantities from their closed forms.

    Returns the deviation of ||Q_j|| from 1 / (2 sin(pi / (2(2j+1)))) for
    j = 1..10, and the largest violation of the epsilon-chain identities
    and of eps_i >= 1 over n = 2..8.
    """
    q_devs = [
        abs(q_matrix_norm(j) - 1.0 / (2.0 * np.sin(np.pi / (2.0 * (2 * j + 1)))))
        for j in range(1, 11)
    ]
    eps_dev = 0.0
    for n in range(2, 9):
        eps = epsilon_sequence(n)
        top = 2.0 * np.cos(np.pi / (2 * n + 1))
        eps_dev = max(eps_dev, abs(1.0 + 1.0 / eps[0] - top))
        for i in range(1, n - 1):
            eps_dev = max(eps_dev, abs(eps[i - 1] + 1.0 / eps[i] - top))
        if min(eps) < 1.0 - CLOSED_FORM_TOL:
            eps_dev = max(eps_dev, 1.0 - min(eps))
    return q_devs, eps_dev
