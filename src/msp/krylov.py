"""Preconditioned MINRES for symmetric indefinite systems.

The textbook Paige-Saunders recurrence (SIAM J. Numer. Anal. 12, 1975) with
an SPD preconditioner P, from a zero guess, in plain array expressions whose
operation order the tests pin.  The energy norm sqrt(r' P^{-1} r) it records
is the Euclidean norm of the symmetrically preconditioned residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Operator = Callable[[np.ndarray], np.ndarray]

_BREAKDOWN_RTOL = 10 * np.finfo(float).eps  # MINRES: relative to the Lanczos norm estimate


@dataclass
class SolveResult:
    solution: np.ndarray
    iterations: int
    residual_history: list[float]
    converged: bool
    breakdown_at: int | None = None
    # (alpha_1..alpha_k, beta_2..beta_{k+1}) of the k Lanczos steps taken
    lanczos: tuple[list[float], list[float]] = field(default_factory=lambda: ([], []))
    # ||b||, then per step the Euclidean residual norm the stopping test compared
    residual_norms: list[float] = field(default_factory=list)


def check_stopping(tol: float, maxit: int) -> None:
    """ValueError unless tol lies in (0, 1) and maxit is at least 1."""
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    if maxit < 1:
        raise ValueError("maxit must be at least 1")


def minres_solve(
    apply_a: Operator,
    apply_prec_inv: Operator,
    b: np.ndarray,
    tol: float = 1e-8,
    maxit: int = 500,
    product: Callable[[np.ndarray, np.ndarray, float], np.ndarray] | None = None,
    head: Operator | None = None,
) -> SolveResult:
    """Solve A x = b with MINRES preconditioned by an SPD operator inverse.

    `apply_a` must be symmetric and `apply_prec_inv` the application of the
    inverse of an SPD matrix.  A Lanczos beta below 10 eps times the largest
    Lanczos coefficient seen so far (an estimate of the preconditioned
    operator's norm, so the test does not depend on the scale of b or of
    the operator) terminates the iteration early (exact convergence or a
    lucky breakdown) and is reported through `breakdown_at`.  A
    beta^2 = r' P^{-1} r that rounds below zero by no more than the square
    of that threshold is such a breakdown (beta = 0); one further below, a
    right-hand side holding a NaN or an inf, or options `check_stopping`
    refuses, raise ValueError.

    The iteration stops on the plain residual norm ||b - A x_k|| <=
    tol ||b||.  The residual is updated by the recurrence
    r_k = r_{k-1} - phi_k A w_k, where A w_k follows the same three-term
    recurrence as w_k from the A v_k the Lanczos step computes anyway, so
    each iteration forms one operator product: `apply_a(v_k)`, or, given
    `product`, `product(v_k, r, beta)`, A v_k for v_k = P^{-1} r / beta and
    the Lanczos vector r (`run.solve_problem` passes the preconditioner's
    `apply_preconditioned`; `spectrum --lanczos` does not).
    When the updated residual passes the test, one true residual b - A x_k
    from `apply_a` confirms it (Greenbaum, SIAM J. Matrix Anal. Appl. 18(3),
    1997), so a wrong `product` cannot report convergence; if the
    confirmation fails, the true residual replaces the updated one and the
    iteration goes on.
    Given `head` as well, `head(v_k)` returns rows [0, h) of P^{-1} A v_k
    (`run.solve_problem` passes the preconditioner's `preconditioned_head`).
    Those rows of the next preconditioned vector then come from
    P^{-1} r_{k+1} = P^{-1} A v_k - (beta_k / beta_{k-1}) P^{-1} r_{k-1}
    - (alpha_k / beta_k) P^{-1} r_k, in the order r_{k+1} is formed, and
    `apply_prec_inv(r, h)` solves only for rows h and beyond (the rows
    before may be left unset); the previous preconditioned vector is kept
    for that.  Without `head` every step applies `apply_prec_inv(r)`.
    The reported residual_history always holds the energy-norm values;
    residual_norms holds ||b||, then per step the Euclidean norm the test
    compared (the true residual's where one was formed); and `lanczos` the
    coefficients of the preconditioned Lanczos process.
    """
    check_stopping(tol, maxit)
    b = np.asarray(b, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side holds a NaN or an inf")
    n = b.shape[0]
    x = np.zeros(n)

    bnorm0 = float(np.linalg.norm(b))
    r = b  # the residual; no array below is written in place but the head rows of a fresh P^{-1} r2
    r1 = r2 = b.copy()  # the last two Lanczos vectors; a copy, as the preconditioner receives r2
    y = apply_prec_inv(r2)
    beta1_sq = float(r2 @ y)
    if beta1_sq < 0:
        raise ValueError("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1_sq)
    history = [beta1]
    norms = [bnorm0]
    if beta1 == 0.0:
        return SolveResult(x, 0, [0.0], True, residual_norms=norms)

    oldb, beta, phibar = 0.0, beta1, beta1
    cs, sn, dbar, epsln, anorm = -1.0, 0.0, 0.0, 0.0, 0.0
    # the last three directions w and their products A w
    w = w1 = w2 = aw = aw1 = aw2 = np.zeros(n)
    converged, breakdown_at = False, None
    alphas: list[float] = []
    betas: list[float] = []

    for itn in range(1, maxit + 1):
        v = (1.0 / beta) * y
        av = apply_a(v) if product is None else product(v, r2, beta)
        u = av - (beta / oldb) * r1 if itn >= 2 else av
        alfa = float(v @ u)
        u = u - (alfa / beta) * r2
        r1, r2 = r2, u
        if head is None:
            y = apply_prec_inv(r2)
        else:
            # rows [0, h) of P^{-1} r2 follow the recurrence that formed r2; only the rest is solved
            z = head(v)
            h = len(z)
            z = z - (beta / oldb) * y1[:h] if itn >= 2 else z
            z = z - (alfa / beta) * y[:h]
            y1, y = y, apply_prec_inv(r2, h)
            y[:h] = z
        oldb = beta
        beta_sq = float(r2 @ y)
        if beta_sq < 0:
            # r2 at noise level can round r2' P^{-1} r2 below zero: that is a breakdown, beta = 0
            if beta_sq < -((_BREAKDOWN_RTOL * max(anorm, abs(alfa))) ** 2):
                raise ValueError("preconditioner is not positive definite")
            beta_sq = 0.0
        beta = np.sqrt(beta_sq)
        anorm = max(anorm, abs(alfa), beta)
        alphas.append(alfa)
        betas.append(float(beta))

        # previous rotation, then the new one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.sqrt(gbar * gbar + beta * beta)
        # a floor relative to the operator's scale, like the breakdown test
        gamma = max(gamma, np.finfo(float).eps * anorm, np.finfo(float).tiny)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        # A w follows the recurrence of w, so r = b - A x is updated without an operator apply
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        aw1, aw2 = aw2, aw
        aw = (av - oldeps * aw1 - delta * aw2) / gamma
        x = x + phi * w
        r = r - phi * aw
        history.append(abs(phibar))
        rnorm = np.linalg.norm(r)
        if rnorm <= tol * bnorm0:
            r = b - apply_a(x)
            rnorm = np.linalg.norm(r)
            converged = rnorm <= tol * bnorm0
        norms.append(float(rnorm))
        if converged:
            break
        if beta <= _BREAKDOWN_RTOL * anorm:
            breakdown_at = itn
            break

    return SolveResult(x, itn, history, converged, breakdown_at, (alphas, betas), norms)


def lanczos_bounds(res: SolveResult) -> tuple[float, float]:
    """Extreme singular values (s_max, s_min) of a MINRES run's Lanczos matrix.

    The (k+1) x k tridiagonal T = V_{k+1}' P^{-1/2} A P^{-1/2} V_k has
    orthonormal V, so s_max <= max|lambda|, s_min >= min|lambda| and
    s_max / s_min <= kappa(P^{-1} A): a lower bound, never a certificate.
    Up to rounding it holds in floating point too (Greenbaum, Linear Algebra
    Appl. 113, 1989).
    """
    alphas, betas = res.lanczos
    if not alphas:
        raise ValueError("the run took no Lanczos step")
    t = np.diag([*alphas, 0.0]) + np.diag(betas, 1) + np.diag(betas, -1)
    s = np.linalg.svd(t[:, :-1], compute_uv=False)  # the first k columns: (k+1) x k
    return float(s[0]), float(s[-1])
