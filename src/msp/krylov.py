"""Preconditioned MINRES for symmetric indefinite systems.

Standard Paige-Saunders two-term recurrence with an SPD preconditioner.
Iteration starts from a zero guess and stops when the Euclidean residual
norm ||b - A x_k|| drops below tol ||b||.  The recorded history is the
energy norm sqrt(r_k' P^{-1} r_k), the natural quantity of the
preconditioned Lanczos process (equal to the Euclidean norm of the
symmetrically preconditioned residual).
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
    The reported residual_history always holds the energy-norm values,
    and `lanczos` the coefficients of the preconditioned Lanczos process.
    """
    check_stopping(tol, maxit)
    b = np.asarray(b, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side holds a NaN or an inf")
    n = b.shape[0]
    x = np.zeros(n)

    bnorm0 = float(np.linalg.norm(b))
    r1 = b.copy()
    y = apply_prec_inv(r1)
    beta1_sq = float(r1 @ y)
    if beta1_sq < 0:
        raise ValueError("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1_sq)
    history = [beta1]
    if beta1 == 0.0:
        return SolveResult(x, 0, [0.0], True)

    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    anorm = 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r = b
    aw = np.zeros(n)
    aw2 = np.zeros(n)
    r2 = r1
    converged = False
    breakdown_at = None
    itn = 0
    alphas: list[float] = []
    betas: list[float] = []

    while itn < maxit:
        itn += 1
        s = 1.0 / beta
        v = s * y
        av = apply_a(v)
        y = av - (beta / oldb) * r1 if itn >= 2 else av
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
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

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        history.append(abs(phibar))
        aw1 = aw2
        aw2 = aw
        aw = (av - oldeps * aw1 - delta * aw2) / gamma
        r = r - phi * aw
        if np.linalg.norm(r) <= tol * bnorm0:
            r = b - apply_a(x)
            converged = np.linalg.norm(r) <= tol * bnorm0
        if converged:
            break
        if beta <= _BREAKDOWN_RTOL * anorm:
            breakdown_at = itn
            break

    return SolveResult(x, itn, history, converged, breakdown_at, (alphas, betas))


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
