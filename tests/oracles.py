"""Dense reference computations and random-instance generators for the tests.

Everything here is allowed to form n-by-n matrices and explicit basis
matrices; the production modules never do.  The oracles only share plain
numpy with the code under test.
"""

import numpy as np

import trlbfgs as t

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
    if fac.rank == 0:
        return np.zeros((buffer.n, 0))
    return np.column_stack(
        [t.apply_P_par(fac, buffer, e) for e in np.eye(fac.rank)]
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
    buf = t.PairBuffer(n, m if m is not None else count)
    for s, y in pairs if pairs is not None else random_pairs(rng, n, count):
        assert buf.try_push(s, y)
    return buf
