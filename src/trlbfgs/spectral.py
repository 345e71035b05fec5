"""Compact representation, partial eigendecomposition and the shape-changing norm.

With history columns ``S``, ``Y`` and a scale ``gamma > 0``, the quasi-Newton
matrix has the low-rank form ``B = gamma*I + Psi M Psi^T`` with
``Psi = [gamma*S, Y]``.  Everything here works in the 2m'-dimensional Gram
geometry: the only n-dimensional operations are products with ``Psi`` and
with ``V^T = [S, Y]^T`` (``PairBuffer.vt_dot``), from which ``Psi^T x`` is one
scaling away.  In particular the orthonormal basis of Range(Psi) is never stored;
products with it are assembled from a pivoted Cholesky factor of the
column-normalized Gram ``Psi^T Psi`` and the eigenvectors of the small core
matrix.

The triangular solves call LAPACK's ``dtrtrs`` directly (``solve_upper``)
instead of going through ``scipy.linalg.solve_triangular``.  At n = 10^3 the
wrapper's batching, input validation and finiteness scans cost more than the
solve itself; the factors reaching a solve here are finite by construction.
The floats are unchanged, because ``solve_upper`` passes the same routine the
same arguments as the wrapper, down to solving the transposed system when the
factor is C-ordered.

Only the routines numpy lacks (``dpstrf``, ``dtrtrs`` and ``dpotrf``) come
from ``scipy.linalg.lapack``; everything numpy has, ``eigh`` and ``inv``
among them, comes from numpy.  The two wheels bundle different OpenBLAS
builds (0.3.30 in scipy 1.17.1, 0.3.31 in numpy 2.4.6), so the same LAPACK
routine can round differently between them.  Swapping ``np.linalg.eigh``
for scipy's ``dsyevd`` matched numpy bitwise on 3000 random matrices, yet
moved ``ext_powell`` at n = 10^5 from 211 to 431 steps.
``tests/test_exports.py`` holds the step-path modules to these imports.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpstrf, dtrtrs

from .pairs import PairBuffer

__all__ = [
    "SpectralFactorization",
    "build_middle",
    "factorize",
    "apply_P_par",
    "apply_P_par_T",
    "perp_norm_sq",
    "sc_norm",
    "solve_upper",
]

# Rank threshold on the pivots of the column-normalized Gram; see factorize.
# denseinit._gram_pinv drops the eigenvalues at or below it of the same
# normalized Gram (column scaling takes gamma out of Psi^T Psi).
EPS_R = 1e-14


@dataclass(frozen=True)
class SpectralFactorization:
    """Retained-rank eigendecomposition of the low-rank part of B.

    ``lambdas`` holds the r nonconstant eigenvalues of B sorted ascending,
    those of the core matrix shifted by ``gamma``, and ``zero_tol`` is the
    magnitude at or below which the constrained solve treats one of them as
    zero.  ``U1`` is the leading r-by-r triangle of the pivoted Cholesky
    factor of the normalized Gram, ``piv`` the r retained columns of Psi in
    pivot order, ``col_scale`` their Psi column norms and ``psi_scale`` the
    factor that takes their entry of ``V^T x`` to their entry of ``Psi^T x``
    (gamma for a column of S, 1.0 for a column of Y, which is exact).
    Together with ``W`` these suffice to apply the orthonormal basis of the
    retained subspace and its transpose.  ``gamma`` is the scale the
    factorization was built for; every product with the basis reads it from
    here.
    """

    rank: int
    lambdas: np.ndarray
    zero_tol: float
    W: np.ndarray
    U1: np.ndarray
    piv: np.ndarray
    col_scale: np.ndarray
    psi_scale: np.ndarray
    gamma: float


def solve_upper(U: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve ``U x = b`` (``trans=0``) or ``U^T x = b`` (``trans=1``) for upper-triangular U.

    The ``dtrtrs`` call of ``scipy.linalg.solve_triangular(U, b, trans,
    lower=False)`` without its wrappers.  Like it, a factor that is not
    Fortran-ordered is passed as ``U.T`` with ``lower`` and ``trans``
    flipped, which is the same matrix to LAPACK without a copy; solving the
    untransposed system instead would run another BLAS path and could move
    round-off.  ``b`` may be a vector or a matrix.  Raises ``LinAlgError``
    when a diagonal entry of U is exactly zero.
    """
    if U.flags.f_contiguous:
        x, info = dtrtrs(U, b, lower=0, trans=trans)
    else:
        x, info = dtrtrs(U.T, b, lower=1, trans=1 - trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


def psi_dot(buffer: PairBuffer, gamma: float, w: np.ndarray) -> np.ndarray:
    """Blockwise ``Psi w = gamma*S w1 + Y w2`` in O(m n)."""
    k = buffer.count
    return gamma * (buffer.S @ w[:k]) + buffer.Y @ w[k:]


def psi_gram(buffer: PairBuffer, gamma: float) -> np.ndarray:
    """Assemble ``Psi^T Psi`` from the cached Gram blocks (no n-dim work)."""
    k = buffer.count
    gSY = gamma * buffer.gram_SY
    A = np.empty((2 * k, 2 * k))
    A[:k, :k] = gamma**2 * buffer.gram_SS
    A[:k, k:] = gSY
    A[k:, :k] = gSY.T
    A[k:, k:] = buffer.gram_YY
    return A


def build_middle(buffer: PairBuffer, gamma: float) -> np.ndarray:
    """Invert the small bracket matrix of the compact representation.

    Returns ``M = -[[gamma*S^T S, L], [L^T, -D]]^{-1}`` where L is the strictly
    lower and D the diagonal part of ``S^T Y``.  The bracket is invertible
    whenever every stored pair has positive curvature, which the buffer
    guarantees; numpy's ``LinAlgError`` is raised when it is singular or its
    computed inverse is not finite.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    L, D, _ = buffer.triangular_views()
    k = buffer.count
    bracket = np.empty((2 * k, 2 * k))
    bracket[:k, :k] = gamma * buffer.gram_SS
    bracket[:k, k:] = L
    bracket[k:, :k] = L.T
    bracket[k:, k:] = -D
    M = -np.linalg.inv(bracket)
    if not np.isfinite(M).all():
        raise np.linalg.LinAlgError("bracket of the compact representation is numerically singular")
    return 0.5 * (M + M.T)


def factorize(buffer: PairBuffer, gamma: float) -> SpectralFactorization:
    """Rank-detected eigendecomposition of ``Psi M Psi^T``.

    The Gram ``Psi^T Psi`` is column-normalized so the rank threshold
    ``EPS_R`` is scale-free, and factorized by pivoted Cholesky (``dpstrf``),
    which stops at the first pivot ``<= EPS_R``.  A pivot is the remaining
    diagonal of the Schur complement, the square of the factor's diagonal
    entry, so the retained diagonal of ``U1`` only exceeds ``sqrt(EPS_R)``
    (1e-7), and the retained basis can be far from orthonormal when that
    diagonal is small.  The r-by-r core ``R M R^T`` is then
    eigendecomposed; eigenvalues come back ascending.

    An empty buffer yields rank 0 (no parallel subspace); the caller treats
    B as a plain multiple of the identity.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    gamma = float(gamma)
    zero_tol = 1e-12 * max(1.0, abs(gamma))
    rank, piv, d = 0, np.empty(0, dtype=int), np.empty(0)
    if buffer.count:
        A = psi_gram(buffer, gamma)
        d = np.sqrt(A.diagonal())
        # Zero columns cannot occur (acceptance forces s, y nonzero), but guard
        # the division so a degenerate buffer fails loudly later, not here.
        d = np.where(d > 0, d, 1.0)
        dd = d[:, None] * d
        # A and dd are exactly symmetric, so An is too; dpstrf reads its
        # upper triangle only.
        An = A / dd
        c, piv, rank, info = dpstrf(An, tol=EPS_R, lower=0)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpstrf")
        rank = int(rank)
        piv = np.asarray(piv, dtype=int) - 1  # LAPACK pivots are 1-based
    if rank == 0:
        return SpectralFactorization(
            rank=0,
            lambdas=np.empty(0),
            zero_tol=zero_tol,
            W=np.empty((0, 0)),
            U1=np.empty((0, 0)),
            piv=np.empty(0, dtype=int),
            col_scale=np.empty(0),
            psi_scale=np.empty(0),
            gamma=gamma,
        )
    # r-by-2m' trapezoidal factor, pivoted order; dpstrf leaves the input's
    # values below the diagonal.
    U = np.where(buffer.strict_lower(2 * buffer.count), 0.0, c)[:rank, :]
    M = build_middle(buffer, gamma)
    Mn = M * dd  # fold the column scaling into the middle matrix
    core = U @ Mn.take(piv, axis=0).take(piv, axis=1) @ U.T
    core = 0.5 * (core + core.T)
    lam_hat, W = np.linalg.eigh(core)
    kept = piv[:rank]
    return SpectralFactorization(
        rank=rank,
        lambdas=lam_hat + gamma,
        zero_tol=zero_tol,
        W=W,
        U1=np.ascontiguousarray(U[:, :rank]),
        piv=kept,
        col_scale=d[kept],
        psi_scale=np.where(kept < buffer.count, gamma, 1.0),
        gamma=gamma,
    )


def apply_P_par_T(fac: SpectralFactorization, u: np.ndarray) -> np.ndarray:
    """Coordinates ``P_par^T x`` in the retained orthonormal basis (length r).

    Takes ``u = V^T x`` (``PairBuffer.vt_dot``), so a caller that already
    holds it pays no n-dimensional work here: the retained entries of
    ``Psi^T x`` are those of ``u`` times ``psi_scale``.
    """
    if fac.rank == 0:
        return np.empty(0)
    t = u[fac.piv] * fac.psi_scale / fac.col_scale
    q = solve_upper(fac.U1, t, trans=1)
    return fac.W.T @ q


def apply_P_par(fac: SpectralFactorization, buffer: PairBuffer, v: np.ndarray) -> np.ndarray:
    """Map retained-basis coordinates v (length r) back to an n-vector."""
    if fac.rank == 0:
        raise ValueError("no parallel subspace: factorization has rank 0")
    v = np.asarray(v, dtype=float)
    if v.shape != (fac.rank,):
        raise ValueError(f"expected coordinate vector of length {fac.rank}, got {v.shape}")
    z = solve_upper(fac.U1, fac.W @ v)
    w = np.zeros(2 * buffer.count)
    w[fac.piv] = z / fac.col_scale
    return psi_dot(buffer, fac.gamma, w)


def perp_norm_sq(xx: float, g_par: np.ndarray) -> float:
    """Squared norm of the component of x orthogonal to the retained subspace.

    Takes ``xx = x^T x`` and ``g_par = P_par^T x`` and uses the projection
    identity ``||P_perp^T x||^2 = ||x||^2 - ||P_par^T x||^2``; clamped at
    zero against round-off.
    """
    return max(0.0, xx - float(g_par @ g_par))


def sc_norm(x: np.ndarray, fac: SpectralFactorization, buffer: PairBuffer) -> float:
    """Shape-changing infinity norm ``max(||P_par^T x||_inf, ||P_perp^T x||_2)``."""
    if fac.rank == 0:
        return float(np.linalg.norm(x))
    g_par = apply_P_par_T(fac, buffer.vt_dot(x))
    perp = math.sqrt(perp_norm_sq(float(x @ x), g_par))
    return max(float(np.abs(g_par).max()), perp)
