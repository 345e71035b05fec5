"""Checks of a solve's output against results derived apart from the solver.

Each minimizer or minimum value below is written from the problem's formula,
not taken from ``Problem.f_opt_hint``: for ``cosine_mixture`` that hint is
the global value ``-0.1 n``, while the solver correctly stops at the local
minimum with every coordinate at 0.3689.

- Where the minimizer ``x*`` is unique and the Hessian there is nonsingular,
  ``x_final`` is compared to ``x*``.
- Where the Hessian at the minimizer is singular (``ext_powell``,
  ``dqrtic``), ``x`` is only accurate to about 1e-4, so ``f`` is recomputed
  from the formula here and compared to ``f* = 0``.
- ``trigonometric`` and ``cosine_mixture`` stop at local minima, so their
  checks are properties: ``f`` decreased from ``x0`` and the recomputed
  gradient meets the stop test; for ``cosine_mixture`` every coordinate is
  also a root of the 1-D derivative with positive second derivative.
"""

import numpy as np
from scipy.linalg import solve_banded

# ||x - x*||_inf <= X_TOL * max(1, ||x*||_inf).  Measured errors at the stop
# test of epsilon = 1e-10 are at most 2e-9 on the registry at n = 1000.
X_TOL = 1e-6
# The penalty Hessian at x* has smallest eigenvalue 2.0e-7 at n = 1000, so the
# stop test only bounds the error by ||g|| / 2.0e-7 = 5e-4 (measured 1.7e-4).
PENALTY_X_TOL = 1e-3
# f <= F_TOL * n where f* = 0 and the Hessian is singular.  dqrtic with the
# error spread evenly over the coordinates reaches about 3e-15 per coordinate.
F_TOL = 1e-13


def _index(n):
    return np.arange(1.0, n + 1.0)


def _tridia_star(n):
    # x1 = 1 and 2 x_i = x_{i-1} zero every residual.
    return 2.0 ** (1.0 - _index(n))


def _penalty_star(n):
    # The residual targets are built from this point, which zeroes them all.
    base = 1.0 + _index(n) / n
    return 0.5 * base / np.linalg.norm(base)


def _arwhead_star(n):
    # Each head (x_i^2 + x_n^2)^2 - 4 x_i + 3 vanishes at x_i = 1, x_n = 0.
    x = np.ones(n)
    x[-1] = 0.0
    return x


def _broyden_star(n, tol=1e-14, max_iter=50):
    """Root of the tridiagonal residual system by Newton's method from -1.

    The residuals are ``(3 - 2 x_i) x_i - x_{i-1} - 2 x_{i+1} + 1`` and their
    Jacobian is tridiagonal and nonsingular at the root, so f* = 0 there.
    """
    x = -np.ones(n)
    for _ in range(max_iter):
        xm = np.concatenate([[0.0], x[:-1]])
        xp = np.concatenate([x[1:], [0.0]])
        r = (3.0 - 2.0 * x) * x - xm - 2.0 * xp + 1.0
        if np.max(np.abs(r)) <= tol:
            return x
        bands = np.zeros((3, n))
        bands[0, 1:] = -2.0
        bands[1] = 3.0 - 4.0 * x
        bands[2, :-1] = -1.0
        x = x - solve_banded((1, 1), bands, r)
    raise ArithmeticError("Newton's method on the Broyden tridiagonal system did not converge")


def _powell_f(x):
    a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
    return float(
        np.sum((a + 10.0 * b) ** 2 + 5.0 * (c - d) ** 2 + (b - 2.0 * c) ** 4 + 10.0 * (a - d) ** 4)
    )


def _dqrtic_f(x):
    return float(np.sum((x - _index(x.size) / x.size) ** 4))


def _cosine_roots(x, epsilon):
    """Every coordinate is a local minimizer of ``t^2 - 0.1 cos(5 pi t)``."""
    slope = 2.0 * x + 0.5 * np.pi * np.sin(5.0 * np.pi * x)
    curvature = 2.0 + 2.5 * np.pi**2 * np.cos(5.0 * np.pi * x)
    reasons = []
    worst = float(np.max(np.abs(slope)))
    if not worst <= epsilon * max(1.0, float(np.linalg.norm(x))):
        reasons.append(f"a coordinate is no root of the 1-D derivative (|h| = {worst:.3g})")
    if not np.all(curvature > 0.0):
        reasons.append("a coordinate sits where the 1-D second derivative is not positive")
    return reasons


def near(x_star, tol=X_TOL):
    def check(problem, x0, x, epsilon):
        ref = x_star(problem.n)
        err = float(np.max(np.abs(x - ref)))
        if not err <= tol * max(1.0, float(np.max(np.abs(ref)))):
            return [f"||x - x*||_inf = {err:.3g} exceeds {tol:g}"]
        return []

    return check


def zero_f(f):
    def check(problem, x0, x, epsilon):
        value = f(x)
        if not value <= F_TOL * problem.n:
            return [f"f = {value:.3g} exceeds {F_TOL * problem.n:.3g}, with f* = 0"]
        return []

    return check


def stationary(extra=None):
    def check(problem, x0, x, epsilon):
        reasons = []
        f0, f = float(problem.eval_f(x0)), float(problem.eval_f(x))
        if not f < f0:
            reasons.append(f"f did not decrease from x0 ({f0:.6g} -> {f:.6g})")
        g = float(np.linalg.norm(problem.eval_g(x)))
        if not g <= epsilon * max(1.0, float(np.linalg.norm(x))):
            reasons.append(f"recomputed ||g|| = {g:.3g} fails the stop test")
        if extra is not None:
            reasons += extra(x, epsilon)
        return reasons

    return check


CHECKS = {
    "quad_diag": near(np.zeros),
    "tridia": near(_tridia_star),
    "ext_rosenbrock": near(np.ones),
    "gen_rosenbrock": near(np.ones),
    "ext_powell": zero_f(_powell_f),
    "trigonometric": stationary(),
    "penalty": near(_penalty_star, PENALTY_X_TOL),
    "cosine_mixture": stationary(_cosine_roots),
    "broyden_tridiag": near(_broyden_star),
    "arwhead": near(_arwhead_star),
    "dqrtic": zero_f(_dqrtic_f),
}


def failures(problem, x0, result, epsilon) -> list[str]:
    """Why a solve failed; empty when its status is converged and every check holds."""
    reasons = []
    if result.status != "converged":
        reasons.append(f"status {result.status}")
    x = np.asarray(result.x_final, dtype=float)
    if not np.all(np.isfinite(x)):
        return reasons + ["x_final is not finite"]
    return reasons + CHECKS[problem.name](problem, x0, x, epsilon)
