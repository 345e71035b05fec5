"""Closed-form solution of the shape-changing trust-region subproblem.

In the eigenbasis coordinates the subproblem splits into r independent 1-D
problems on ``[-radius, radius]`` (infinity-norm block) and one radial
problem on the complementary subspace (two-norm block).  Both admit exact
minimizers, so no iterative subproblem solver is needed.
"""

import numpy as np

from .pairs import PairBuffer
from .spectral import SpectralFactorization, apply_P_par

__all__ = [
    "solve_parallel",
    "solve_perp_beta",
    "assemble_step",
    "model_reduction",
]


def solve_parallel(
    g_par: np.ndarray, lambdas: np.ndarray, radius: float, zero_tol: float = 1e-12
) -> np.ndarray:
    """Coordinate-wise exact minimizers of ``g_i v + 0.5 lam_i v^2`` on [-radius, radius].

    Curvatures with ``|lam_i| <= zero_tol`` are treated as zero; ties in the
    zero-gradient cases are broken deterministically (0 for the free case,
    +radius for the negative-curvature case).
    """
    g = np.asarray(g_par, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    if g.shape != lam.shape:
        raise ValueError(f"shape mismatch: g_par {g.shape} vs lambdas {lam.shape}")
    v = np.empty_like(g)
    for i in range(g.size):
        gi, li = g[i], lam[i]
        if abs(li) <= zero_tol:
            li = 0.0
        if li > 0.0 and abs(gi / li) <= radius:
            v[i] = -gi / li
        elif gi == 0.0 and li == 0.0:
            v[i] = 0.0
        elif gi != 0.0 and li == 0.0:
            v[i] = -np.sign(gi) * radius
        elif gi == 0.0 and li < 0.0:
            v[i] = radius
        else:
            v[i] = -(radius / abs(gi)) * gi
    return v


def solve_perp_beta(gamma_perp: float, g_perp_norm: float, radius: float) -> float:
    """Scalar beta with ``v_perp = beta * g_perp`` minimizing the radial problem."""
    if g_perp_norm < 0:
        raise ValueError(f"g_perp_norm must be nonnegative, got {g_perp_norm}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if g_perp_norm == 0.0:
        return -1.0 / gamma_perp
    if gamma_perp > 0.0 and g_perp_norm <= radius * abs(gamma_perp):
        return -1.0 / gamma_perp
    return -radius / g_perp_norm


def assemble_step(
    beta: float,
    g: np.ndarray,
    g_par: np.ndarray,
    v_par: np.ndarray,
    fac: SpectralFactorization,
    buffer: PairBuffer,
) -> np.ndarray:
    """Recombine the block solutions: ``p = beta*g + P_par (v_par - beta*g_par)``.

    The perpendicular block never appears explicitly; it rides along inside
    ``beta*g`` and is corrected on the retained subspace.
    """
    if fac.rank == 0:
        return beta * g
    return beta * g + apply_P_par(fac, buffer, v_par - beta * g_par)


def model_reduction(
    v_par: np.ndarray,
    beta: float,
    g_par: np.ndarray,
    g_perp_norm: float,
    lambdas: np.ndarray,
    gamma_perp: float,
) -> float:
    """Quadratic model value of the assembled step (decoupled evaluation).

    Equals ``g^T p + 0.5 p^T B p`` of the full model; nonpositive for the
    exact solution and strictly negative whenever g is nonzero.
    """
    q_par = float(g_par @ v_par) + 0.5 * float(v_par @ (lambdas * v_par))
    gp2 = g_perp_norm**2
    q_perp = beta * gp2 + 0.5 * gamma_perp * beta**2 * gp2
    return q_par + q_perp
