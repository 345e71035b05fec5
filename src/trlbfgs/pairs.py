"""Limited-memory storage of curvature pairs with cached Gram blocks.

A :class:`PairBuffer` holds the ``m`` most recent accepted pairs ``(s, y)``
(oldest first) together with the small cross-product blocks ``S^T S``,
``S^T Y`` and ``Y^T Y``.  Each pair is stored once, as one row of a
preallocated ``(m, n)`` array per vector, and the blocks are maintained
incrementally, one appended row/column per accepted pair, so the
n-dimensional work per push stays O(m n).

A pair is accepted when ``s^T y > C3 ||s|| ||y||``.  ``C3`` is fixed at
1e-8 because every caller uses that value.
"""

import numpy as np

from .errors import EmptyHistoryError

__all__ = ["PairBuffer"]

C3 = 1e-8


class PairBuffer:
    """FIFO buffer of at most ``m`` accepted curvature pairs.

    Attributes:
        S, Y: n-by-m' column matrices of the stored pairs, oldest first.
            They are views of the row storage: the next accepted pair may
            overwrite them, so copy what must outlive a push.
        gram_SS, gram_SY, gram_YY: cached m'-by-m' blocks ``S^T S``,
            ``S^T Y`` and ``Y^T Y``.
        rejected: number of pairs turned away by the acceptance test.
    """

    def __init__(self, n: int, m: int):
        if n < 1 or m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
        self.n = int(n)
        self.m = int(m)
        self.count = 0
        # Row i holds the i-th oldest pair, so S^T x is a contiguous gemv.
        self._s_rows = np.empty((self.m, self.n))
        self._y_rows = np.empty((self.m, self.n))
        self.gram_SS = np.empty((0, 0))
        self.gram_SY = np.empty((0, 0))
        self.gram_YY = np.empty((0, 0))
        self.rejected = 0

    @property
    def S(self) -> np.ndarray:
        return self._s_rows[: self.count].T

    @property
    def Y(self) -> np.ndarray:
        return self._y_rows[: self.count].T

    def try_push(self, s, y) -> bool:
        """Append ``(s, y)`` if it passes ``s^T y > C3 ||s|| ||y||``.

        The oldest pair is evicted when the buffer is full.  Returns True
        when the pair was stored; a rejected pair leaves the buffer
        untouched and is only counted in ``rejected``.
        """
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        if s.shape != (self.n,) or y.shape != (self.n,):
            raise ValueError(
                f"pair has shape {s.shape}/{y.shape}, buffer expects ({self.n},)"
            )
        ss = float(s @ s)
        yy = float(y @ y)
        sy = float(s @ y)
        if not sy > C3 * np.sqrt(ss) * np.sqrt(yy) or ss == 0.0 or yy == 0.0:
            self.rejected += 1
            return False

        k = self.count
        if k == self.m:
            # Evict the oldest pair: shift the rows up by one.  The shift runs
            # on the flat 1-D view, where numpy copies overlapping memory in
            # place; a 2-D overlapping assignment would allocate a temporary.
            for rows in (self._s_rows, self._y_rows):
                flat = rows.reshape(-1)
                flat[: -self.n] = flat[self.n :]
            self.gram_SS = self.gram_SS[1:, 1:].copy()
            self.gram_SY = self.gram_SY[1:, 1:].copy()
            self.gram_YY = self.gram_YY[1:, 1:].copy()
            k -= 1

        # Cross products against the surviving rows, then grow each block.
        S_rows, Y_rows = self._s_rows[:k], self._y_rows[:k]
        Ss = S_rows @ s
        Sy = S_rows @ y
        Ys = Y_rows @ s
        Yy = Y_rows @ y
        self.gram_SS = _grow(self.gram_SS, Ss, Ss, ss)
        self.gram_SY = _grow(self.gram_SY, Sy, Ys, sy)
        self.gram_YY = _grow(self.gram_YY, Yy, Yy, yy)

        self._s_rows[k] = s
        self._y_rows[k] = y
        self.count = k + 1
        return True

    def vt_dot(self, x: np.ndarray) -> np.ndarray:
        """``V^T x = [S^T x; Y^T x]`` with ``V = [S, Y]``, two gemvs over the rows."""
        return np.concatenate([self.S.T @ x, self.Y.T @ x])

    def triangular_views(self):
        """Split ``S^T Y`` into (L, D, T): strictly lower, diagonal, upper with diagonal."""
        if self.count == 0:
            raise EmptyHistoryError("triangular views need at least one stored pair")
        L = np.tril(self.gram_SY, -1)
        T = np.triu(self.gram_SY)
        D = np.diag(np.diag(self.gram_SY))
        return L, D, T

    def violations(self) -> int:
        """Count stored pairs that fail the strict acceptance inequality."""
        sy = np.diag(self.gram_SY)
        ss = np.diag(self.gram_SS)
        yy = np.diag(self.gram_YY)
        return int(np.count_nonzero(~(sy > C3 * np.sqrt(ss) * np.sqrt(yy))))


def _grow(block: np.ndarray, col: np.ndarray, row: np.ndarray, corner: float) -> np.ndarray:
    k = block.shape[0]
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = block
    out[:k, k] = col
    out[k, :k] = row
    out[k, k] = corner
    return out
