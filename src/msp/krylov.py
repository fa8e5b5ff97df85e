"""Preconditioned MINRES for symmetric indefinite systems.

Standard Paige-Saunders two-term recurrence with an SPD preconditioner.
Iteration starts from a zero guess and stops when the Euclidean residual
norm ||b - A x_k|| drops below tol ||b||.  Two histories are recorded: the
energy norm sqrt(r_k' P^{-1} r_k), the natural quantity of the
preconditioned Lanczos process (equal to the Euclidean norm of the
symmetrically preconditioned residual), and the Euclidean norm the
stopping test compares.
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
) -> SolveResult:
    """Solve A x = b with MINRES preconditioned by an SPD operator inverse.

    `apply_a` must be symmetric and `apply_prec_inv` the application of the
    inverse of an SPD matrix.  A Lanczos beta below 10 eps times the largest
    Lanczos coefficient seen so far (an estimate of the preconditioned
    operator's norm, so the test does not depend on the scale of b or of
    the operator) terminates the iteration early (exact convergence or a
    lucky breakdown) and is reported through `breakdown_at`.  A right-hand
    side holding a NaN or an inf, or options `check_stopping` refuses,
    raise ValueError.

    The iteration stops on the plain residual norm ||b - A x_k|| <=
    tol ||b||.  The residual is updated by the recurrence
    r_k = r_{k-1} - phi_k A w_k, where A w_k follows the same three-term
    recurrence as w_k from the A v_k the Lanczos step computes anyway, so
    each iteration applies the operator once.  When the updated residual
    passes the test, one true residual b - A x_k confirms it (Greenbaum,
    SIAM J. Matrix Anal. Appl. 18(3), 1997); if the confirmation fails,
    the true residual replaces the updated one and the iteration goes on.
    The reported residual_history always holds the energy-norm values;
    residual_norms holds ||b||, then per step the Euclidean norm the test
    compared (the true residual's where one was formed); and `lanczos` the
    coefficients of the preconditioned Lanczos process.

    The iterates, directions and residuals are updated in place on a fixed
    set of work arrays, with the same floating-point operations in the same
    order as the expressions in the comments.
    """
    check_stopping(tol, maxit)
    b = np.asarray(b, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side holds a NaN or an inf")
    n = b.shape[0]
    x = np.zeros(n)

    bnorm0 = float(np.linalg.norm(b))
    r2 = b.copy()
    y = apply_prec_inv(r2)
    beta1_sq = float(r2 @ y)
    if beta1_sq < 0:
        raise ValueError("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1_sq)
    history = [beta1]
    norms = [bnorm0]
    if beta1 == 0.0:
        return SolveResult(x, 0, [0.0], True, residual_norms=norms)

    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    anorm = 0.0
    # work arrays, updated in place: the last three w and A w, the residual,
    # the last two Lanczos vectors (each new one is formed in the older one's
    # buffer; r1 is spare until the first step) and a temporary
    w, w1, w2 = np.zeros(n), np.zeros(n), np.zeros(n)
    aw, aw1, aw2 = np.zeros(n), np.zeros(n), np.zeros(n)
    r = b.copy()
    r1 = np.empty(n)
    v = np.empty(n)
    tmp = np.empty(n)
    converged = False
    breakdown_at = None
    itn = 0
    alphas: list[float] = []
    betas: list[float] = []

    while itn < maxit:
        itn += 1
        s = 1.0 / beta
        np.multiply(s, y, out=v)
        av = apply_a(v)
        # y = A v - (beta / oldb) r1 - (alfa / beta) r2, formed in r1's buffer
        if itn >= 2:
            np.multiply(beta / oldb, r1, out=tmp)
            np.subtract(av, tmp, out=r1)
        else:
            r1[:] = av
        alfa = float(v @ r1)
        np.multiply(alfa / beta, r2, out=tmp)
        np.subtract(r1, tmp, out=r1)
        r1, r2 = r2, r1
        y = apply_prec_inv(r2)
        oldb = beta
        beta_sq = float(r2 @ y)
        if beta_sq < 0:
            raise ValueError("preconditioner is not positive definite")
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

        # w = (v - oldeps w1 - delta w2) / gamma in the oldest w's buffer, and A w alike
        w1, w2, w = w2, w, w1
        _next_direction(v, oldeps, w1, delta, w2, gamma, w, tmp)
        # x = x + phi w, and below r = r - phi A w
        np.multiply(phi, w, out=tmp)
        np.add(x, tmp, out=x)

        history.append(abs(phibar))
        aw1, aw2, aw = aw2, aw, aw1
        _next_direction(av, oldeps, aw1, delta, aw2, gamma, aw, tmp)
        np.multiply(phi, aw, out=tmp)
        np.subtract(r, tmp, out=r)
        rnorm = np.linalg.norm(r)
        if rnorm <= tol * bnorm0:
            np.subtract(b, apply_a(x), out=r)
            rnorm = np.linalg.norm(r)
            converged = rnorm <= tol * bnorm0
        norms.append(float(rnorm))
        if converged:
            break
        if beta <= _BREAKDOWN_RTOL * anorm:
            breakdown_at = itn
            break

    return SolveResult(x, itn, history, converged, breakdown_at, (alphas, betas), norms)


def _next_direction(v, oldeps, w1, delta, w2, gamma, out, tmp) -> None:
    """out = (v - oldeps w1 - delta w2) / gamma, operation for operation; out may be neither w1 nor w2."""
    np.multiply(oldeps, w1, out=out)
    np.subtract(v, out, out=out)
    np.multiply(delta, w2, out=tmp)
    np.subtract(out, tmp, out=out)
    np.divide(out, gamma, out=out)


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
