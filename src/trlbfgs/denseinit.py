"""Two-scale initialization and the inverse of the resulting matrix.

The initialization assigns the newest pair's ``gamma = y^T y / s^T y`` to
the subspace where curvature has been observed and a more conservative scale
``gamma_perp = lam*c*gamma_max + (1 - lam)*gamma`` (``perp_scale``, with
``gamma_max`` the largest pair gamma so far) to its orthogonal complement;
both are ``GAMMA0_PERP`` while no pair is stored.  Products with the inverse
of the resulting quasi-Newton matrix use a compact representation built from
``V = [S, Y]`` and cost O(m n); the norm of the full quasi-Newton step is
available in O(m^2) without forming the step itself.  The representation
depends only on the stored pairs and the two scales, so the driver builds it
once per accepted pair.  The step and its norm take ``V^T g``, ``g^T g`` and
``w = M_hat V^T g`` from the caller, which forms the first two once per
accepted step and ``w`` once per trial step.

The Cholesky factorization and the triangular solves call LAPACK directly:
``dpotrf`` with the arguments ``scipy.linalg.cholesky`` gives it, and
``spectral.solve_upper`` for ``dtrtrs``.  The scipy wrappers' validation and
batching cost more than the 2m'-dimensional work at n = 10^3, and the Gram
blocks they would check are finite because every stored pair is.  The same
routines run on the same arguments, so the floats are unchanged.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf

from .pairs import PairBuffer
from .spectral import EPS_R, psi_gram, solve_upper

__all__ = ["InverseRep", "perp_scale", "build_inverse", "unconstrained_step", "unconstrained_norm"]

# Both scales while no pair is stored.
GAMMA0_PERP = 1.0


def perp_scale(c: float, lam: float, gamma: float, gamma_max: float) -> float:
    """Scale for the unexplored subspace: ``lam*c*gamma_max + (1-lam)*gamma``."""
    return lam * c * gamma_max + (1.0 - lam) * gamma


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
    a thresholded eigendecomposition of the column-normalized Gram
    (``_gram_pinv``); the result acts identically inside the ``V (.) V^T``
    sandwich.

    Both paths are taken.  With one BLAS thread, ``dpotrf`` succeeds on 7180
    of the 7920 calls of a ``registry-1k`` benchmark round, all from dense
    solves (a conventional solve has ``alpha = 0`` and never factors), and
    fails on every call of the two solves at n >= 10^5: 163 of 163 in
    ``powell-100k`` and 44 of 44 in ``rosenbrock-1m``.  The Cholesky path stays because it is
    the cheap one: about 5 us a call on a 10-by-10 Gram, against 34 to 44 us
    for ``_gram_pinv``'s eigendecomposition.
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
    tmp = solve_upper(T, inner, trans=1)
    A11 = solve_upper(T, tmp.T, trans=1).T
    A11 = 0.5 * (A11 + A11.T)
    Tinv = solve_upper(T, buffer.identity(k))
    M_hat = np.empty((2 * k, 2 * k))
    M_hat[:k, :k] = A11
    off = -Tinv / gamma
    M_hat[:k, k:] = off.T
    M_hat[k:, :k] = off
    M_hat[k:, k:] = 0.0

    alpha = 1.0 / gamma - 1.0 / gamma_perp
    # Psi^T Psi at gamma = 1, where the scalings are exact.  The Gram blocks
    # are exactly symmetric, so VtV is too.
    VtV = psi_gram(buffer, 1.0)
    if alpha != 0.0:
        try:
            R, info = dpotrf(VtV, lower=0, clean=1)
            if info > 0:
                raise np.linalg.LinAlgError(f"leading minor {info} of V^T V is not positive definite")
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of dpotrf")
            Rinv = solve_upper(R, buffer.identity(2 * k))
            M_hat += alpha * (Rinv @ Rinv.T)
        except np.linalg.LinAlgError:
            M_hat += alpha * _gram_pinv(VtV)
    return InverseRep(M_hat=0.5 * (M_hat + M_hat.T), VtV=VtV, gamma_perp=float(gamma_perp))


def _gram_pinv(G: np.ndarray) -> np.ndarray:
    """Thresholded inverse of a PSD Gram matrix, valid inside a V(.)V^T sandwich.

    ``build_inverse``'s fallback when ``dpotrf`` finds ``V^T V`` not
    positive definite, and the only path taken in the benchmark's solves at
    n >= 10^5.

    Normalizes columns so the cutoff is scale-free, drops eigenvalues at or
    below ``EPS_R`` and inverts the rest.  The discarded directions are
    (numerically) linear combinations of the retained ones, so the sandwiched
    projection V G^+ V^T is unaffected by the normalization.
    """
    d = np.sqrt(np.diag(G))
    d = np.where(d > 0, d, 1.0)
    # G and the outer product are exactly symmetric, so Gn is too.
    Gn = G / np.outer(d, d)
    w, Q = np.linalg.eigh(Gn)
    keep = w > EPS_R
    Qk = Q[:, keep] / d[:, None]
    return (Qk / w[keep]) @ Qk.T


def unconstrained_step(inv: InverseRep, buffer: PairBuffer, g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Full quasi-Newton step ``-B^{-1} g`` in O(m n), given ``w = M_hat V^T g``."""
    if buffer.count == 0:
        return -g / inv.gamma_perp
    k = buffer.count
    return -(g / inv.gamma_perp + buffer.S @ w[:k] + buffer.Y @ w[k:])


def unconstrained_norm(inv: InverseRep, gg: float, u: np.ndarray, w: np.ndarray) -> float:
    """Two-norm of the full quasi-Newton step without forming it.

    Takes ``gg = g^T g``, ``u = V^T g`` and ``w = M_hat u`` and expands
    ``g^T B^{-2} g`` in the 2m'-dimensional space:
    ``gg/gamma_perp^2 + (2/gamma_perp) u^T w + w^T (V^T V) w``; only
    small-matrix products remain.
    """
    if u.size == 0:
        return math.sqrt(gg) / inv.gamma_perp
    val = gg / inv.gamma_perp**2 + 2.0 / inv.gamma_perp * float(u @ w) + float(w @ (inv.VtV @ w))
    return math.sqrt(max(0.0, val))
