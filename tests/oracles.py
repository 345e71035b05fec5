"""Dense reference computations and random-instance generators for the tests.

Everything here is allowed to form n-by-n matrices and explicit basis
matrices; the production modules never do.  The oracles only share plain
numpy with the code under test.  Where a test needs the exact floats of a
production path, the oracle computes them with scipy's public wrappers,
which the production modules bypass.
"""

import numpy as np
from scipy.linalg import cholesky, solve_triangular

import trlbfgs.spectral as spectral
from trlbfgs.pairs import PairBuffer

C3 = 1e-8


def bfgs_recursion(B0, pairs):
    """Apply the rank-two update once per pair, starting from a dense B0."""
    B = np.array(B0, dtype=float)
    for s, y in pairs:
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        Bs = B @ s
        B = B - np.outer(Bs, Bs) / (s @ Bs) + np.outer(y, y) / (s @ y)
    return B


def dense_middle(S, Y, gamma):
    """Middle matrix from explicit column products (independent of build_middle)."""
    SY = S.T @ Y
    L = np.tril(SY, -1)
    D = np.diag(np.diag(SY))
    k = S.shape[1]
    bracket = np.empty((2 * k, 2 * k))
    bracket[:k, :k] = gamma * (S.T @ S)
    bracket[:k, k:] = L
    bracket[k:, :k] = L.T
    bracket[k:, k:] = -D
    return -np.linalg.inv(bracket)


def dense_compact(S, Y, gamma):
    """gamma*I + Psi M Psi^T assembled densely."""
    n = S.shape[0]
    Psi = np.hstack([gamma * S, Y])
    return gamma * np.eye(n) + Psi @ dense_middle(S, Y, gamma) @ Psi.T


def explicit_P_par(fac, buffer):
    """Materialize the retained orthonormal basis column by column."""
    return np.column_stack(
        [spectral.apply_P_par(fac, buffer, e) for e in np.eye(fac.rank)]
    )


def dense_B0_hat(P_par, gamma, gamma_perp, n):
    """Explicit two-scale initial matrix gamma*P P^T + gamma_perp*(I - P P^T)."""
    PPt = P_par @ P_par.T
    return gamma * PPt + gamma_perp * (np.eye(n) - PPt)


def random_pairs(rng, n, count, c3=C3):
    """Random pairs passing the acceptance inequality (sign-flip + resample)."""
    pairs = []
    while len(pairs) < count:
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if s @ y < 0:
            y = -y
        if s @ y > c3 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y))
    return pairs


def quadratic_pairs(rng, n, count, spread=(0.5, 3.0)):
    """Pairs generated by a fixed SPD quadratic: y = A s."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q @ np.diag(rng.uniform(*spread, size=n)) @ Q.T
    pairs = []
    for _ in range(count):
        s = rng.standard_normal(n)
        pairs.append((s, A @ s))
    return pairs, A


def fill_buffer(rng, n, count, m=None, pairs=None):
    buf = PairBuffer(n, m if m is not None else count)
    for s, y in pairs if pairs is not None else random_pairs(rng, n, count):
        assert buf.try_push(s, y)
    return buf


def scipy_inverse_middle(buffer, gamma, gamma_perp, gram_pinv=False):
    """``M_hat`` of ``build_inverse`` through scipy's wrappers and numpy's assembly helpers.

    With ``gram_pinv`` the ``alpha`` term takes the thresholded inverse of
    the column-normalized ``V^T V``, as ``build_inverse`` does when
    ``dpotrf`` finds it not positive definite.
    """
    k = buffer.count
    SY = buffer.gram_SY
    T = np.triu(SY)
    D = np.diag(np.diag(SY))
    inner = D + buffer.gram_YY / gamma
    tmp = solve_triangular(T, inner, trans="T", lower=False)
    A11 = solve_triangular(T, tmp.T, trans="T", lower=False).T
    A11 = 0.5 * (A11 + A11.T)
    Tinv = solve_triangular(T, np.eye(k), lower=False)
    M_hat = np.block([[A11, -Tinv.T / gamma], [-Tinv / gamma, np.zeros((k, k))]])
    alpha = 1.0 / gamma - 1.0 / gamma_perp
    VtV = np.block([[buffer.gram_SS, SY], [SY.T, buffer.gram_YY]])
    if alpha != 0.0 and gram_pinv:
        d = np.sqrt(np.diag(VtV))
        w, Q = np.linalg.eigh(VtV / np.outer(d, d))
        keep = w > spectral.EPS_R
        Qk = Q[:, keep] / d[:, None]
        M_hat += alpha * ((Qk / w[keep]) @ Qk.T)
    elif alpha != 0.0:
        R = cholesky(VtV, lower=False)
        Rinv = solve_triangular(R, np.eye(2 * k), lower=False)
        M_hat += alpha * (Rinv @ Rinv.T)
    return 0.5 * (M_hat + M_hat.T)


def solve_parallel_numpy_loop(g_par, lambdas, radius, zero_tol=1e-12):
    """``solve_parallel`` as a loop over numpy scalars with ``np.sign``, the reference its Python-float loop must match bitwise."""
    g = np.asarray(g_par, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
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
