"""Two-scale initialization policy and the inverse of the resulting matrix.

The initialization assigns the spectral estimate ``gamma = y^T y / s^T y`` to
the subspace where curvature has been observed and a more conservative scale
``gamma_perp = lam*c*gamma_max + (1 - lam)*gamma`` to its orthogonal
complement.  Products with the inverse of the resulting quasi-Newton matrix
use a compact representation built from ``V = [S, Y]`` and cost O(m n); the
norm of the full quasi-Newton step is available in O(m^2) without forming the
step itself.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .pairs import PairBuffer

__all__ = ["InitPolicy", "InverseRep", "build_inverse", "unconstrained_step", "unconstrained_norm"]


class InitPolicy:
    """Tracks the two curvature scales.

    ``gamma`` follows the most recent accepted pair; ``gamma_max`` is the
    running maximum over the whole run (never reset).  Before any pair has
    been accepted ``gamma_perp()`` falls back to ``gamma0_perp``.
    """

    def __init__(self, c: float = 1.0, lam: float = 0.5, gamma0_perp: float = 1.0):
        if c < 1.0:
            raise ValueError(f"c must be >= 1, got {c}")
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {lam}")
        if gamma0_perp <= 0.0:
            raise ValueError(f"gamma0_perp must be positive, got {gamma0_perp}")
        self.c = float(c)
        self.lam = float(lam)
        self.gamma0_perp = float(gamma0_perp)
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
            return self.gamma0_perp
        return self.lam * self.c * self.gamma_max + (1.0 - self.lam) * self.gamma


@dataclass(frozen=True)
class InverseRep:
    """Factors of ``B^{-1} = (1/gamma_perp) I + V M_hat V^T`` with ``V = [S, Y]``.

    ``alpha = 1/gamma - 1/gamma_perp`` weights the correction that retargets
    the identity term from gamma to gamma_perp on Range(V); with
    ``gamma_perp == gamma`` it vanishes and the representation reduces to the
    classical compact inverse.  ``R_V`` is the Cholesky factor of ``V^T V``
    (None when the rank-deficient fallback was taken).
    """

    T: np.ndarray
    R_V: np.ndarray | None
    M_hat: np.ndarray
    alpha: float
    gamma: float
    gamma_perp: float


def build_inverse(buffer: PairBuffer, gamma: float, gamma_perp: float) -> InverseRep:
    """Assemble the 2m'-by-2m' middle matrix of the inverse representation.

    All work happens in 2m' dimensions (triangular solves against T and R_V).
    When ``V^T V`` is numerically rank-deficient the correction term falls
    back to a thresholded eigendecomposition of the column-normalized Gram;
    the result acts identically inside the ``V (.) V^T`` sandwich.
    """
    if gamma_perp <= 0.0:
        raise ValueError(f"gamma_perp must be positive, got {gamma_perp}")
    k = buffer.count
    if k == 0:
        return InverseRep(
            T=np.empty((0, 0)),
            R_V=np.empty((0, 0)),
            M_hat=np.empty((0, 0)),
            alpha=0.0,
            gamma=float(gamma),
            gamma_perp=float(gamma_perp),
        )
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
    VtV = np.block([[buffer.gram_SS, buffer.gram_SY], [buffer.gram_SY.T, YY]])
    VtV = 0.5 * (VtV + VtV.T)
    R_V = None
    if alpha != 0.0:
        try:
            R_V = cholesky(VtV, lower=False)
            Rinv = solve_triangular(R_V, np.eye(2 * k), lower=False)
            M_hat += alpha * (Rinv @ Rinv.T)
        except np.linalg.LinAlgError:
            M_hat += alpha * _gram_pinv(VtV)
    else:
        try:
            R_V = cholesky(VtV, lower=False)
        except np.linalg.LinAlgError:
            R_V = None  # unused when alpha == 0
    return InverseRep(
        T=T,
        R_V=R_V,
        M_hat=0.5 * (M_hat + M_hat.T),
        alpha=float(alpha),
        gamma=float(gamma),
        gamma_perp=float(gamma_perp),
    )


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


def _v_t_dot(buffer: PairBuffer, g: np.ndarray) -> np.ndarray:
    """``V^T g = [S^T g; Y^T g]``."""
    return np.concatenate([buffer.S.T @ g, buffer.Y.T @ g])


def unconstrained_step(
    inv: InverseRep, buffer: PairBuffer, g: np.ndarray, u: np.ndarray | None = None
) -> np.ndarray:
    """Full quasi-Newton step ``-B^{-1} g`` in O(m n).

    ``u`` may carry a precomputed ``V^T g`` so the driver evaluates it once
    per iteration.
    """
    if buffer.count == 0:
        return -g / inv.gamma_perp
    if u is None:
        u = _v_t_dot(buffer, g)
    w = inv.M_hat @ u
    k = buffer.count
    return -(g / inv.gamma_perp + buffer.S @ w[:k] + buffer.Y @ w[k:])


def unconstrained_norm(
    inv: InverseRep, buffer: PairBuffer, g: np.ndarray, u: np.ndarray | None = None
) -> float:
    """Two-norm of the full quasi-Newton step without forming it.

    Expands ``g^T B^{-2} g`` in the 2m'-dimensional space:
    ``||g||^2/gamma_perp^2 + (2/gamma_perp) u^T M_hat u + w^T (V^T V) w`` with
    ``w = M_hat u``; only small-matrix products and one ``||g||`` remain.
    """
    gg = float(g @ g)
    if buffer.count == 0:
        return float(np.sqrt(gg)) / inv.gamma_perp
    if u is None:
        u = _v_t_dot(buffer, g)
    w = inv.M_hat @ u
    VtV = np.block(
        [[buffer.gram_SS, buffer.gram_SY], [buffer.gram_SY.T, buffer.gram_YY]]
    )
    val = gg / inv.gamma_perp**2 + 2.0 / inv.gamma_perp * float(u @ w) + float(w @ (VtV @ w))
    return float(np.sqrt(max(0.0, val)))
