"""Two-scale initialization policy and the inverse of the resulting matrix.

The initialization assigns the spectral estimate ``gamma = y^T y / s^T y`` to
the subspace where curvature has been observed and a more conservative scale
``gamma_perp = lam*c*gamma_max + (1 - lam)*gamma`` to its orthogonal
complement.  Products with the inverse of the resulting quasi-Newton matrix
use a compact representation built from ``V = [S, Y]`` and cost O(m n); the
norm of the full quasi-Newton step is available in O(m^2) without forming the
step itself.  The representation depends only on the stored pairs and the two
scales, so the driver builds it once per accepted pair.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .pairs import PairBuffer

__all__ = ["InitPolicy", "InverseRep", "build_inverse", "unconstrained_step", "unconstrained_norm"]

# Both scales before any pair has been accepted.
GAMMA0_PERP = 1.0


class InitPolicy:
    """Tracks the two curvature scales.

    ``gamma`` follows the most recent accepted pair; ``gamma_max`` is the
    running maximum over the whole run (never reset).  Before any pair has
    been accepted ``gamma_perp()`` falls back to ``GAMMA0_PERP``.
    """

    def __init__(self, c: float = 1.0, lam: float = 0.5):
        if c < 1.0:
            raise ValueError(f"c must be >= 1, got {c}")
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {lam}")
        self.c = float(c)
        self.lam = float(lam)
        self.gamma: float | None = None
        self.gamma_max: float | None = None

    def update_gamma(self, sy: float, yy: float) -> None:
        """Set ``gamma = y^T y / s^T y`` from an accepted pair's products and track the max."""
        if sy <= 0.0:
            raise ValueError("update_gamma needs an accepted pair (s^T y > 0)")
        self.gamma = float(yy) / float(sy)
        self.gamma_max = self.gamma if self.gamma_max is None else max(self.gamma_max, self.gamma)

    def gamma_perp(self) -> float:
        """Scale for the unexplored subspace: ``lam*c*gamma_max + (1-lam)*gamma``."""
        if self.gamma is None:
            return GAMMA0_PERP
        return self.lam * self.c * self.gamma_max + (1.0 - self.lam) * self.gamma


@dataclass(frozen=True)
class InverseRep:
    """Small matrices of ``B^{-1} = (1/gamma_perp) I + V M_hat V^T`` with ``V = [S, Y]``.

    ``M_hat`` is the 2m'-by-2m' middle matrix and ``VtV`` the Gram ``V^T V``
    that the step norm needs; both change only when a pair is accepted.
    """

    M_hat: np.ndarray
    VtV: np.ndarray
    gamma_perp: float


def build_inverse(buffer: PairBuffer, gamma: float, gamma_perp: float) -> InverseRep:
    """Assemble the 2m'-by-2m' middle matrix of the inverse representation.

    All work happens in 2m' dimensions: triangular solves against the upper
    triangle T of ``S^T Y`` and the Cholesky factor of ``V^T V``.  The
    correction ``alpha = 1/gamma - 1/gamma_perp`` retargets the identity term
    from gamma to gamma_perp on Range(V); with ``gamma_perp == gamma`` it
    vanishes and ``M_hat`` is the classical compact inverse's middle matrix.
    When ``V^T V`` is numerically rank-deficient the correction falls back to
    a thresholded eigendecomposition of the column-normalized Gram; the result
    acts identically inside the ``V (.) V^T`` sandwich.
    """
    if gamma_perp <= 0.0:
        raise ValueError(f"gamma_perp must be positive, got {gamma_perp}")
    k = buffer.count
    if k == 0:
        empty = np.empty((0, 0))
        return InverseRep(M_hat=empty, VtV=empty, gamma_perp=float(gamma_perp))
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    _, D, T = buffer.triangular_views()
    YY = buffer.gram_YY
    # T^{-T} (D + gamma^{-1} Y^T Y) T^{-1} via two triangular solves.
    inner = D + YY / gamma
    tmp = solve_triangular(T, inner, trans="T", lower=False)
    A11 = solve_triangular(T, tmp.T, trans="T", lower=False).T
    A11 = 0.5 * (A11 + A11.T)
    Tinv = solve_triangular(T, np.eye(k), lower=False)
    M_hat = np.empty((2 * k, 2 * k))
    M_hat[:k, :k] = A11
    M_hat[:k, k:] = -Tinv.T / gamma
    M_hat[k:, :k] = -Tinv / gamma
    M_hat[k:, k:] = 0.0

    alpha = 1.0 / gamma - 1.0 / gamma_perp
    # The Gram blocks are exactly symmetric, so VtV is too.
    VtV = np.block([[buffer.gram_SS, buffer.gram_SY], [buffer.gram_SY.T, YY]])
    if alpha != 0.0:
        try:
            R = cholesky(VtV, lower=False)
            Rinv = solve_triangular(R, np.eye(2 * k), lower=False)
            M_hat += alpha * (Rinv @ Rinv.T)
        except np.linalg.LinAlgError:
            M_hat += alpha * _gram_pinv(VtV)
    return InverseRep(M_hat=0.5 * (M_hat + M_hat.T), VtV=VtV, gamma_perp=float(gamma_perp))


def _gram_pinv(G: np.ndarray, rel_tol: float = 1e-14) -> np.ndarray:
    """Thresholded inverse of a PSD Gram matrix, valid inside a V(.)V^T sandwich.

    Normalizes columns so the cutoff is scale-free, drops eigenvalues at or
    below ``rel_tol`` and inverts the rest.  The discarded directions are
    (numerically) linear combinations of the retained ones, so the sandwiched
    projection V G^+ V^T is unaffected by the normalization.
    """
    d = np.sqrt(np.diag(G))
    d = np.where(d > 0, d, 1.0)
    Gn = G / np.outer(d, d)
    w, Q = np.linalg.eigh(0.5 * (Gn + Gn.T))
    keep = w > rel_tol
    Qk = Q[:, keep] / d[:, None]
    return (Qk / w[keep]) @ Qk.T


def unconstrained_step(inv: InverseRep, buffer: PairBuffer, g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Full quasi-Newton step ``-B^{-1} g`` in O(m n), given ``u = V^T g``."""
    if buffer.count == 0:
        return -g / inv.gamma_perp
    w = inv.M_hat @ u
    k = buffer.count
    return -(g / inv.gamma_perp + buffer.S @ w[:k] + buffer.Y @ w[k:])


def unconstrained_norm(inv: InverseRep, g: np.ndarray, u: np.ndarray) -> float:
    """Two-norm of the full quasi-Newton step without forming it, given ``u = V^T g``.

    Expands ``g^T B^{-2} g`` in the 2m'-dimensional space:
    ``||g||^2/gamma_perp^2 + (2/gamma_perp) u^T M_hat u + w^T (V^T V) w`` with
    ``w = M_hat u``; only small-matrix products and one ``||g||`` remain.
    """
    gg = float(g @ g)
    if u.size == 0:
        return float(np.sqrt(gg)) / inv.gamma_perp
    w = inv.M_hat @ u
    val = gg / inv.gamma_perp**2 + 2.0 / inv.gamma_perp * float(u @ w) + float(w @ (inv.VtV @ w))
    return float(np.sqrt(max(0.0, val)))
