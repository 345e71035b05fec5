"""Limited-memory storage of curvature pairs with cached Gram blocks.

A :class:`PairBuffer` holds the ``m`` most recent accepted pairs ``(s, y)``
(oldest first) together with the small cross-product blocks ``S^T S``,
``S^T Y`` and ``Y^T Y``.  Each pair is stored once, as one row of a
preallocated ``(m, n)`` array per vector, and the blocks are maintained
incrementally in preallocated ``(m, m)`` arrays, one row/column written per
accepted pair, so the n-dimensional work per push stays O(m n).

A pair is accepted when ``s^T y > C3 ||s|| ||y||``.  ``C3`` is fixed at
1e-8 because every caller uses that value.
"""

import math

import numpy as np

__all__ = ["PairBuffer"]

C3 = 1e-8


class PairBuffer:
    """FIFO buffer of at most ``m`` accepted curvature pairs.

    Attributes:
        S, Y: n-by-m' column matrices of the stored pairs, oldest first.
        gram_SS, gram_SY, gram_YY: cached m'-by-m' blocks ``S^T S``,
            ``S^T Y`` and ``Y^T Y``.
        rejected: number of pairs turned away by the acceptance test.

    ``S``, ``Y`` and the Gram blocks are views of preallocated storage: the
    next accepted pair may overwrite them, so copy what must outlive a push.
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
        # Entry (i, j) of each block pairs the i-th and j-th oldest pairs.
        self._ss = np.empty((self.m, self.m))
        self._sy = np.empty((self.m, self.m))
        self._yy = np.empty((self.m, self.m))
        # The leading size-by-size corner of a triangle mask is the mask of
        # that size, so one mask serves every count (and the 2m'-by-2m'
        # Gram of Psi).
        self._strict_lower = np.tri(2 * self.m, k=-1, dtype=bool)
        self._diagonal = np.eye(self.m, dtype=bool)
        self._identity = np.eye(2 * self.m)
        self._identity.flags.writeable = False
        # (L, D, T) of the stored pairs, split on first use after each push.
        self._views = None
        self.rejected = 0

    @property
    def S(self) -> np.ndarray:
        return self._s_rows[: self.count].T

    @property
    def Y(self) -> np.ndarray:
        return self._y_rows[: self.count].T

    @property
    def gram_SS(self) -> np.ndarray:
        return self._ss[: self.count, : self.count]

    @property
    def gram_SY(self) -> np.ndarray:
        return self._sy[: self.count, : self.count]

    @property
    def gram_YY(self) -> np.ndarray:
        return self._yy[: self.count, : self.count]

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
        if not sy > C3 * math.sqrt(ss) * math.sqrt(yy) or ss == 0.0 or yy == 0.0:
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
            for block in (self._ss, self._sy, self._yy):
                block[:-1, :-1] = block[1:, 1:]
            k -= 1

        # Cross products against the surviving rows fill the new row and column.
        S_rows, Y_rows = self._s_rows[:k], self._y_rows[:k]
        Ss = S_rows @ s
        Ys = Y_rows @ s
        Yy = Y_rows @ y
        self._ss[:k, k] = self._ss[k, :k] = Ss
        self._sy[:k, k] = S_rows @ y
        self._sy[k, :k] = Ys
        self._yy[:k, k] = self._yy[k, :k] = Yy
        self._ss[k, k] = ss
        self._sy[k, k] = sy
        self._yy[k, k] = yy

        self._s_rows[k] = s
        self._y_rows[k] = y
        self.count = k + 1
        self._views = None
        return True

    def vt_dot(self, x: np.ndarray) -> np.ndarray:
        """``V^T x = [S^T x; Y^T x]`` with ``V = [S, Y]``, two gemvs over the rows."""
        k = self.count
        return np.concatenate([self._s_rows[:k] @ x, self._y_rows[:k] @ x])

    def strict_lower(self, size: int) -> np.ndarray:
        """Boolean mask of the strictly lower triangle of a size-by-size matrix, ``size <= 2m``."""
        return self._strict_lower[:size, :size]

    def identity(self, size: int) -> np.ndarray:
        """Read-only size-by-size identity, ``size <= 2m``, as a right-hand side for solves."""
        return self._identity[:size, :size]

    def triangular_views(self):
        """Split ``S^T Y`` into (L, D, T): strictly lower, diagonal, upper with diagonal.

        The split is made once per accepted pair and every later call until
        the next push returns the same read-only arrays, so the middle
        matrix and the compact inverse share it.  Entries outside a part
        are +0.0, as with ``np.tril``, ``np.triu`` and ``np.diag``.
        """
        if self.count == 0:
            raise ValueError("triangular views need at least one stored pair")
        if self._views is None:
            self._views = self._split()
        return self._views

    def _split(self):
        # Each part is selected through a mask cached at construction,
        # sliced to the current count, so no mask is built per split.
        k = self.count
        SY = self.gram_SY
        lower = self.strict_lower(k)
        views = (
            np.where(lower, SY, 0.0),
            np.where(self._diagonal[:k, :k], SY, 0.0),
            np.where(lower, 0.0, SY),
        )
        for part in views:
            part.flags.writeable = False
        return views
