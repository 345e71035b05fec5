"""Scalable unconstrained test problems with analytic gradients.

Every problem is pure and deterministic: the same ``x`` always returns the
same value.  Gradients are written out analytically; ``fd_check`` compares
them against central differences and is run over the whole registry by the
test suite.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Problem", "registry", "get", "fd_check", "PROBLEM_NAMES"]


@dataclass(frozen=True)
class Problem:
    name: str
    n: int
    eval_f: Callable[[np.ndarray], float]
    eval_g: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    f_opt_hint: float | None = None


def _quad_diag(n: int) -> Problem:
    """Convex diagonal quadratic with eigenvalues 1, 2, ..., n."""
    d = np.arange(1.0, n + 1.0)

    def f(x):
        return 0.5 * float(x @ (d * x))

    def g(x):
        return d * x

    return Problem("quad_diag", n, f, g, np.ones(n), f_opt_hint=0.0)


def _tridia(n: int) -> Problem:
    """Convex quadratic with tridiagonal coupling: (x1-1)^2 + sum i*(2xi - x_{i-1})^2."""

    w = np.arange(2.0, n + 1.0)

    def f(x):
        r = 2.0 * x[1:] - x[:-1]
        return float((x[0] - 1.0) ** 2 + w @ r**2)

    def g(x):
        r = 2.0 * x[1:] - x[:-1]
        out = np.zeros_like(x)
        out[0] = 2.0 * (x[0] - 1.0)
        out[1:] += 4.0 * w * r
        out[:-1] -= 2.0 * w * r
        return out

    return Problem("tridia", n, f, g, np.ones(n), f_opt_hint=0.0)


def _ext_rosenbrock(n: int) -> Problem:
    """Pairwise Rosenbrock blocks; n must be even."""
    if n % 2 != 0:
        raise ValueError(f"ext_rosenbrock needs even n, got {n}")

    def f(x):
        xo, xe = x[0::2], x[1::2]
        return float(np.sum(100.0 * (xe - xo**2) ** 2 + (1.0 - xo) ** 2))

    def g(x):
        xo, xe = x[0::2], x[1::2]
        out = np.empty_like(x)
        t = xe - xo**2
        out[0::2] = -400.0 * xo * t - 2.0 * (1.0 - xo)
        out[1::2] = 200.0 * t
        return out

    x0 = np.ones(n)
    x0[0::2] = -1.2
    return Problem("ext_rosenbrock", n, f, g, x0, f_opt_hint=0.0)


def _gen_rosenbrock(n: int) -> Problem:
    """Chained Rosenbrock: consecutive coordinates coupled."""
    if n < 2:
        raise ValueError(f"gen_rosenbrock needs n >= 2, got {n}")

    def f(x):
        t = x[1:] - x[:-1] ** 2
        return float(np.sum(100.0 * t**2 + (1.0 - x[:-1]) ** 2))

    def g(x):
        t = x[1:] - x[:-1] ** 2
        out = np.zeros_like(x)
        out[:-1] = -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        out[1:] += 200.0 * t
        return out

    x0 = np.ones(n)
    x0[0::2] = -1.2
    return Problem("gen_rosenbrock", n, f, g, x0, f_opt_hint=0.0)


def _ext_powell(n: int) -> Problem:
    """Powell's singular function in 4-blocks; n must be a multiple of 4."""
    if n % 4 != 0:
        raise ValueError(f"ext_powell needs n divisible by 4, got {n}")

    def f(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        return float(
            np.sum((a + 10.0 * b) ** 2)
            + 5.0 * np.sum((c - d) ** 2)
            + np.sum((b - 2.0 * c) ** 4)
            + 10.0 * np.sum((a - d) ** 4)
        )

    def g(x):
        a, b, c, d = x[0::4], x[1::4], x[2::4], x[3::4]
        t1 = a + 10.0 * b
        t2 = c - d
        t3 = (b - 2.0 * c) ** 3
        t4 = (a - d) ** 3
        out = np.empty_like(x)
        out[0::4] = 2.0 * t1 + 40.0 * t4
        out[1::4] = 20.0 * t1 + 4.0 * t3
        out[2::4] = 10.0 * t2 - 8.0 * t3
        out[3::4] = -10.0 * t2 - 40.0 * t4
        return out

    x0 = np.empty(n)
    x0[0::4], x0[1::4], x0[2::4], x0[3::4] = 3.0, -1.0, 0.0, 1.0
    return Problem("ext_powell", n, f, g, x0, f_opt_hint=0.0)


def _trigonometric(n: int) -> Problem:
    """Trigonometric system: residuals mix a shared cosine sum with per-index terms."""
    idx = np.arange(1.0, n + 1.0)

    def _residuals(x):
        # 1 - cos(x) written as 2 sin^2(x/2): summing n near-unit cosines
        # would otherwise drown the residuals in cancellation noise.
        vers = 2.0 * np.sin(0.5 * x) ** 2
        return np.sum(vers) + idx * vers - np.sin(x)

    def f(x):
        return float(np.sum(_residuals(x) ** 2))

    def g(x):
        r = _residuals(x)
        # dr_i/dx_j = sin(x_j) + delta_ij * (i*sin(x_i) - cos(x_i))
        return 2.0 * (np.sin(x) * np.sum(r) + r * (idx * np.sin(x) - np.cos(x)))

    return Problem("trigonometric", n, f, g, np.full(n, 1.0 / n), f_opt_hint=0.0)


def _penalty(n: int, a: float = 1e-5) -> Problem:
    """Penalty-style sum of squares: a linear anchor, two exponential residual
    groups weighted by sqrt(a), and a quadratic-constraint coupling term.

    The group targets are generated from an explicit point satisfying the
    coupling constraint, so the residual system is consistent and the
    minimum value is zero; otherwise the nonzero floor of f would sit above
    what double precision can resolve at tight gradient tolerances.
    """
    sa = np.sqrt(a)
    base = 1.0 + np.arange(1.0, n + 1.0) / n
    xhat = 0.5 * base / np.linalg.norm(base)  # ramp point with sum(xhat^2) = 0.25
    eh = np.exp(xhat / 10.0)
    yi = eh[1:] + eh[:-1]

    def f(x):
        ex = np.exp(x / 10.0)
        rA = sa * (ex[1:] + ex[:-1] - yi)
        rB = sa * (ex[1:] - eh[1:])
        rC = float(x @ x) - 0.25
        return float((x[0] - xhat[0]) ** 2 + np.sum(rA**2) + np.sum(rB**2) + rC**2)

    def g(x):
        ex = np.exp(x / 10.0)
        rA = sa * (ex[1:] + ex[:-1] - yi)
        rB = sa * (ex[1:] - eh[1:])
        rC = float(x @ x) - 0.25
        out = np.zeros_like(x)
        out[0] = 2.0 * (x[0] - xhat[0])
        coef = sa * ex / 10.0
        out[1:] += 2.0 * rA * coef[1:]
        out[:-1] += 2.0 * rA * coef[:-1]
        out[1:] += 2.0 * rB * coef[1:]
        out += 4.0 * rC * x
        return out

    return Problem("penalty", n, f, g, np.full(n, 0.5), f_opt_hint=0.0)


def _cosine_mixture(n: int) -> Problem:
    """Nonconvex separable mixture: x^2 wells modulated by cos(5 pi x)."""

    def f(x):
        return float(np.sum(x**2) - 0.1 * np.sum(np.cos(5.0 * np.pi * x)))

    def g(x):
        return 2.0 * x + 0.5 * np.pi * np.sin(5.0 * np.pi * x)

    return Problem("cosine_mixture", n, f, g, np.full(n, 0.3), f_opt_hint=-0.1 * n)


def _broyden_tridiag(n: int) -> Problem:
    """Broyden tridiagonal system as a sum of squares."""

    def _residuals(x):
        xm = np.concatenate([[0.0], x[:-1]])
        xp = np.concatenate([x[1:], [0.0]])
        return (3.0 - 2.0 * x) * x - xm - 2.0 * xp + 1.0

    def f(x):
        return float(np.sum(_residuals(x) ** 2))

    def g(x):
        r = _residuals(x)
        out = 2.0 * r * (3.0 - 4.0 * x)
        out[:-1] -= 2.0 * r[1:]
        out[1:] -= 4.0 * r[:-1]
        return out

    return Problem("broyden_tridiag", n, f, g, -np.ones(n), f_opt_hint=0.0)


def _arwhead(n: int) -> Problem:
    """Quartic heads coupled to the last coordinate: sum (xi^2+xn^2)^2 - 4xi + 3."""
    if n < 2:
        raise ValueError(f"arwhead needs n >= 2, got {n}")

    def f(x):
        t = x[:-1] ** 2 + x[-1] ** 2
        return float(np.sum(t**2 - 4.0 * x[:-1] + 3.0))

    def g(x):
        t = x[:-1] ** 2 + x[-1] ** 2
        out = np.empty_like(x)
        out[:-1] = 4.0 * x[:-1] * t - 4.0
        out[-1] = 4.0 * x[-1] * np.sum(t)
        return out

    return Problem("arwhead", n, f, g, np.ones(n), f_opt_hint=0.0)


def _dqrtic(n: int) -> Problem:
    """Separable quartic with per-coordinate targets i/n.

    Targets stay in (0, 1] so the function value cannot dwarf individual
    gradient entries, which would sink finite-difference checks.
    """
    idx = np.arange(1.0, n + 1.0) / n

    def f(x):
        return float(np.sum((x - idx) ** 4))

    def g(x):
        return 4.0 * (x - idx) ** 3

    return Problem("dqrtic", n, f, g, 2.0 * np.ones(n), f_opt_hint=0.0)


_FACTORIES: dict[str, Callable[..., Problem]] = {
    "quad_diag": _quad_diag,
    "tridia": _tridia,
    "ext_rosenbrock": _ext_rosenbrock,
    "gen_rosenbrock": _gen_rosenbrock,
    "ext_powell": _ext_powell,
    "trigonometric": _trigonometric,
    "penalty": _penalty,
    "cosine_mixture": _cosine_mixture,
    "broyden_tridiag": _broyden_tridiag,
    "arwhead": _arwhead,
    "dqrtic": _dqrtic,
}

PROBLEM_NAMES = tuple(_FACTORIES)


def get(name: str, n: int) -> Problem:
    """Build one problem by name at dimension n.

    Raises KeyError for unknown names and ValueError for dimensions a
    problem cannot take (n < 1, or a problem's parity or divisibility
    constraint); the ValueError names n.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; available: {', '.join(PROBLEM_NAMES)}") from None
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return factory(n)


def registry(n: int = 1000) -> list[Problem]:
    """All registered problems instantiated at dimension n."""
    return [get(name, n) for name in PROBLEM_NAMES]


def fd_check(
    problem: Problem, x: np.ndarray, h: float = np.finfo(float).eps ** (1 / 3)
) -> float:
    """Worst per-coordinate deviation of the gradient from central differences.

    Step sizes scale with the coordinate magnitude (``h * max(1, |x_i|)``);
    errors are measured relative to ``max(1, |g_i|)``.

    A central difference with step ``h`` has two error terms: truncation,
    ``h**2 * |f'''| / 6``, which is zero on a quadratic, and roundoff, about
    ``eps * |f| / h``.  The ``max(1, |g_i|)`` scaling does not absorb ``|f|``,
    so the roundoff floor of the returned measure grows with ``|f|``.  The
    default ``h = eps**(1/3)`` balances the two terms when ``|f|`` and
    ``|f'''|`` are of moderate size (Nocedal & Wright, *Numerical
    Optimization*, section 8.1); on a quadratic a large step leaves only
    roundoff.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    g = np.asarray(problem.eval_g(x), dtype=float)
    worst = 0.0
    for i in range(x.size):
        hi = h * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += hi
        xm[i] -= hi
        fd = (problem.eval_f(xp) - problem.eval_f(xm)) / (2.0 * hi)
        worst = max(worst, abs(fd - g[i]) / max(1.0, abs(g[i])))
    return worst
