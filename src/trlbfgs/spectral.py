"""Compact representation, partial eigendecomposition and the shape-changing norm.

With history columns ``S``, ``Y`` and a scale ``gamma > 0``, the quasi-Newton
matrix has the low-rank form ``B = gamma*I + Psi M Psi^T`` with
``Psi = [gamma*S, Y]``.  Everything here works in the 2m'-dimensional Gram
geometry: the only n-dimensional operations are products with ``Psi`` and
``Psi^T``.  In particular the orthonormal basis of Range(Psi) is never stored;
products with it are assembled from a pivoted Cholesky factor of the
column-normalized Gram ``Psi^T Psi`` and the eigenvectors of the small core
matrix.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpstrf

from .errors import DegenerateFactorizationError
from .pairs import PairBuffer

__all__ = [
    "CompactMiddle",
    "SpectralFactorization",
    "build_middle",
    "factorize",
    "apply_P_par",
    "apply_P_par_T",
    "perp_norm_sq",
    "sc_norm",
]


@dataclass(frozen=True)
class CompactMiddle:
    """Middle matrix M of ``B = gamma*I + Psi M Psi^T`` (2m'-by-2m', symmetric)."""

    gamma: float
    M: np.ndarray


@dataclass(frozen=True)
class SpectralFactorization:
    """Retained-rank eigendecomposition of the low-rank part of B.

    ``lam_hat`` holds the r eigenvalues of the core matrix sorted ascending;
    the nonconstant eigenvalues of B are ``lam_hat + gamma``.  ``U1`` is the
    leading r-by-r triangle of the pivoted Cholesky factor of the normalized
    Gram, ``piv`` the pivot order (retained columns first) and ``col_scale``
    the Psi column norms.  Together with ``W`` these suffice to apply the
    orthonormal basis of the retained subspace and its transpose.
    """

    rank: int
    lam_hat: np.ndarray
    W: np.ndarray
    U1: np.ndarray
    piv: np.ndarray
    col_scale: np.ndarray
    gamma: float


def psi_t_dot(buffer: PairBuffer, gamma: float, x: np.ndarray) -> np.ndarray:
    """Blockwise ``Psi^T x = [gamma*S^T x; Y^T x]`` in O(m n)."""
    return np.concatenate([gamma * (buffer.S.T @ x), buffer.Y.T @ x])


def psi_dot(buffer: PairBuffer, gamma: float, w: np.ndarray) -> np.ndarray:
    """Blockwise ``Psi w = gamma*S w1 + Y w2`` in O(m n)."""
    k = buffer.count
    return gamma * (buffer.S @ w[:k]) + buffer.Y @ w[k:]


def psi_gram(buffer: PairBuffer, gamma: float) -> np.ndarray:
    """Assemble ``Psi^T Psi`` from the cached Gram blocks (no n-dim work)."""
    SS, SY, YY = buffer.gram_SS, buffer.gram_SY, buffer.gram_YY
    return np.block([[gamma**2 * SS, gamma * SY], [gamma * SY.T, YY]])


def build_middle(buffer: PairBuffer, gamma: float) -> CompactMiddle:
    """Invert the small bracket matrix of the compact representation.

    Returns ``M = -[[gamma*S^T S, L], [L^T, -D]]^{-1}`` where L is the strictly
    lower and D the diagonal part of ``S^T Y``.  The bracket is invertible
    whenever every stored pair has positive curvature, which the buffer
    guarantees.
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
    try:
        M = -np.linalg.inv(bracket)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFactorizationError(
            "bracket matrix of the compact representation is singular"
        ) from exc
    if not np.all(np.isfinite(M)):
        raise DegenerateFactorizationError(
            "bracket matrix of the compact representation is numerically singular"
        )
    M = 0.5 * (M + M.T)
    return CompactMiddle(gamma=float(gamma), M=M)


def factorize(buffer: PairBuffer, gamma: float, eps_r: float = 1e-14) -> SpectralFactorization:
    """Rank-detected eigendecomposition of ``Psi M Psi^T``.

    The Gram ``Psi^T Psi`` is column-normalized so the rank threshold
    ``eps_r`` is scale-free, and factorized by pivoted Cholesky (``dpstrf``),
    which stops at the first pivot ``<= eps_r``.  A pivot is the remaining
    diagonal of the Schur complement, the square of the factor's diagonal
    entry, so the retained diagonal of ``U1`` only exceeds ``sqrt(eps_r)``
    (1e-7 at the default), and the retained basis can be far from
    orthonormal when that diagonal is small.  The r-by-r core ``R M R^T``
    is then eigendecomposed; eigenvalues come back ascending.

    An empty buffer yields rank 0 (no parallel subspace); the caller treats
    B as a plain multiple of the identity.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    k = buffer.count
    if k == 0:
        return SpectralFactorization(
            rank=0,
            lam_hat=np.empty(0),
            W=np.empty((0, 0)),
            U1=np.empty((0, 0)),
            piv=np.empty(0, dtype=int),
            col_scale=np.empty(0),
            gamma=float(gamma),
        )
    A = psi_gram(buffer, gamma)
    d = np.sqrt(np.diag(A))
    # Zero columns cannot occur (acceptance forces s, y nonzero), but guard
    # the division so a degenerate buffer fails loudly later, not here.
    d = np.where(d > 0, d, 1.0)
    An = A / np.outer(d, d)
    An = 0.5 * (An + An.T)
    c, piv, rank, info = dpstrf(An, tol=eps_r, lower=0)
    if info < 0:
        raise DegenerateFactorizationError(f"pivoted Cholesky failed (info={info})")
    rank = int(rank)
    piv = np.asarray(piv, dtype=int) - 1  # LAPACK pivots are 1-based
    if rank == 0:
        return SpectralFactorization(
            rank=0,
            lam_hat=np.empty(0),
            W=np.empty((0, 0)),
            U1=np.empty((0, 0)),
            piv=piv,
            col_scale=d,
            gamma=float(gamma),
        )
    U = np.triu(c)[:rank, :]  # r-by-2m' trapezoidal factor, pivoted order
    M = build_middle(buffer, gamma).M
    Mn = M * np.outer(d, d)  # fold the column scaling into the middle matrix
    core = U @ Mn[np.ix_(piv, piv)] @ U.T
    core = 0.5 * (core + core.T)
    lam_hat, W = np.linalg.eigh(core)
    return SpectralFactorization(
        rank=rank,
        lam_hat=lam_hat,
        W=W,
        U1=np.ascontiguousarray(U[:, :rank]),
        piv=piv,
        col_scale=d,
        gamma=float(gamma),
    )


def apply_P_par_T(
    fac: SpectralFactorization, buffer: PairBuffer, gamma: float, x: np.ndarray
) -> np.ndarray:
    """Coordinates of x in the retained orthonormal basis (length r)."""
    if fac.rank == 0:
        return np.empty(0)
    px = psi_t_dot(buffer, gamma, x)
    t = px[fac.piv[: fac.rank]] / fac.col_scale[fac.piv[: fac.rank]]
    q = solve_triangular(fac.U1, t, trans="T", lower=False)
    return fac.W.T @ q


def apply_P_par(
    fac: SpectralFactorization, buffer: PairBuffer, gamma: float, v: np.ndarray
) -> np.ndarray:
    """Map retained-basis coordinates v (length r) back to an n-vector."""
    if fac.rank == 0:
        raise ValueError("no parallel subspace: factorization has rank 0")
    v = np.asarray(v, dtype=float)
    if v.shape != (fac.rank,):
        raise ValueError(f"expected coordinate vector of length {fac.rank}, got {v.shape}")
    z = solve_triangular(fac.U1, fac.W @ v, lower=False)
    w = np.zeros(2 * buffer.count)
    sel = fac.piv[: fac.rank]
    w[sel] = z / fac.col_scale[sel]
    return psi_dot(buffer, gamma, w)


def perp_norm_sq(x: np.ndarray, g_par: np.ndarray) -> float:
    """Squared norm of the component of x orthogonal to the retained subspace.

    Uses the projection identity ``||P_perp^T x||^2 = ||x||^2 - ||P_par^T x||^2``;
    clamped at zero against round-off.
    """
    return max(0.0, float(x @ x) - float(g_par @ g_par))


def sc_norm(
    x: np.ndarray, fac: SpectralFactorization, buffer: PairBuffer, gamma: float
) -> float:
    """Shape-changing infinity norm ``max(||P_par^T x||_inf, ||P_perp^T x||_2)``."""
    if fac.rank == 0:
        return float(np.linalg.norm(x))
    g_par = apply_P_par_T(fac, buffer, gamma, x)
    perp = np.sqrt(perp_norm_sq(x, g_par))
    return max(float(np.max(np.abs(g_par))), float(perp))
