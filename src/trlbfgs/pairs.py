"""Limited-memory storage of curvature pairs with cached Gram blocks.

A :class:`PairBuffer` holds the ``m`` most recent accepted pairs ``(s, y)``
(oldest first) together with the small cross-product blocks ``S^T S``,
``S^T Y`` and ``Y^T Y``.  Each pair is stored once, as one row of a
preallocated ``(m, n)`` array per vector, and the blocks are maintained
incrementally in preallocated ``(m, m)`` arrays, one row/column written per
accepted pair, so the n-dimensional work per push stays O(m n).  Nothing
else in the package reads the rows.

A pair is accepted when ``s^T y > C3 ||s|| ||y||``.  ``C3`` is fixed at
1e-8 because every caller uses that value.

The S rows and the Y rows are independent, so a buffer given a
:class:`Worker`, at ``n >= SPLIT_MIN_N`` (2^16), runs the S half of every
pass over them on the worker's thread while the calling thread runs its Y
half: ``try_push``'s eviction shift, Gram-row products and row write per
side, ``vt_dot``'s ``S^T x`` and ``Y^T x`` and ``v_dot``'s ``S w1`` and
``Y w2``.  Below that n, or without a worker, both halves run in series on
the calling thread.  Each BLAS call is the same single call either way, so
every float is the same.  2^16 is the smallest power of two at which the
split pays on both problems measured, with one BLAS thread on a 2-CPU
host.  The split's time per step over the serial one, at n = 2^13 to
2^17, read 1.45, 1.22, 0.98, 0.95 and 0.84 on ``ext_powell`` and 1.33,
1.11, 1.03, 0.88 and 0.86 on ``broyden_tridiag`` (6 solves a side).

``concurrently`` runs the two halves; the driver uses it too, by its own
rule, to compute f beside g.  ``minimize`` opens one worker per solve,
when the process may run on two CPUs or more, and passes it to both.  Its
thread starts on the first handoff, so a solve that never hands off starts
none.  A handoff is one lock release and one lock acquire, about 0.02 ms
(20 to 26 us), against 0.07 to 0.09 ms through a one-thread
``ThreadPoolExecutor`` and 0.23 to 0.27 ms for a thread started and joined
per call.  One thread also means one malloc arena: with a thread per call,
``rosenbrock-1m``'s peak RSS read 225.4 MB instead of 213.8 MB in 4 of 9
runs, from arenas not yet released.

The halves call ``np.dot``, not ``@``: ``matmul`` holds the GIL through its
gemv, so two concurrent ``(5, 10^6)`` products took 10.5 ms with ``@``
against 9.6 ms in series, and 5.9 against 10.0 ms with ``np.dot``.
``np.dot`` gives the same floats as ``@`` for these shapes and costs less
at small n, so the serial path uses it too.  The series behind these
figures are in ``CHANGES.md``.
"""

import contextvars
import functools
import math
import os
import threading

import numpy as np

__all__ = ["PairBuffer"]

C3 = 1e-8
# Dimension from which a buffer given a worker runs the S half of each pass on its thread.
SPLIT_MIN_N = 2**16


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Worker:
    """One thread that runs the first call of :func:`concurrently`.

    The thread starts on the first handoff and is joined when the worker's
    ``with`` block ends, on an exception too.  A handoff is one ``Lock``
    release to the thread and one ``Lock`` acquire back.  One caller at a
    time may hand work to a worker.
    """

    def __init__(self):
        # Each lock is held while its side has nothing to take: _ready
        # until a task is set, _done until the task has ended.
        self._ready = threading.Lock()
        self._done = threading.Lock()
        self._ready.acquire()
        self._done.acquire()
        self._task = None
        self._outcome = None
        self._thread = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        """End the thread, after the task it is running, if it was started."""
        if self._thread is not None:
            # With no task set, the thread returns.
            self._ready.release()
            self._thread.join()
            self._thread = None

    def _serve(self):
        while True:
            self._ready.acquire()
            # The task is dropped before the next wait, so that what its
            # closure holds, such as an n-vector, is not kept alive.
            task, self._task = self._task, None
            if task is None:
                return
            try:
                self._outcome = task(), None
            except BaseException as exc:  # raised again on the calling thread
                self._outcome = None, exc
            task = None
            self._done.release()

    def hand(self, task):
        """Start ``task()`` on the thread, which is started on the first call."""
        if self._thread is None:
            # A daemon, so that a worker used outside ``with`` cannot hold up exit.
            self._thread = threading.Thread(target=self._serve, name="trlbfgs-worker", daemon=True)
            self._thread.start()
        self._task = task
        self._ready.release()

    def wait(self):
        """Wait for the task handed last to end, and return ``(result, exception)``."""
        self._done.acquire()
        outcome, self._outcome = self._outcome, None
        return outcome


def concurrently(worker: Worker, a, b):
    """``(a(), b())``, with ``a`` on ``worker``'s thread while ``b`` runs on this one.

    ``a`` runs in a copy of the calling thread's context, so settings kept
    in context variables, such as ``np.errstate``, govern it as they govern
    ``b``.  ``a`` must not hand work to ``worker`` itself: it would wait on
    its own thread.  ``a`` has finished before this returns or raises, and
    an exception from either call is raised here (``b``'s first).  Each
    caller decides by its own rule whether the overlap pays for the
    handoff.
    """
    worker.hand(functools.partial(contextvars.copy_context().run, a))
    try:
        b_result = b()
    finally:
        a_result, error = worker.wait()
    if error is not None:
        raise error
    return a_result, b_result


def _push_row(rows: np.ndarray, new: np.ndarray, k: int, evict: bool, s: np.ndarray, y: np.ndarray):
    """Store ``new`` as row ``k`` of ``rows`` and return the kept rows' products with ``s`` and ``y``.

    With ``evict`` the rows first shift up by one, dropping the oldest.
    The shift runs on the flat 1-D view, where numpy copies overlapping
    memory in place; a 2-D overlapping assignment would allocate a
    temporary.
    """
    if evict:
        flat = rows.reshape(-1)
        flat[: -rows.shape[1]] = flat[rows.shape[1] :]
    kept = rows[:k]
    products = np.dot(kept, s), np.dot(kept, y)
    rows[k] = new
    return products


class PairBuffer:
    """FIFO buffer of at most ``m`` accepted curvature pairs.

    Attributes:
        S, Y: n-by-m' column matrices of the stored pairs, oldest first.
        gram_SS, gram_SY, gram_YY: cached m'-by-m' blocks ``S^T S``,
            ``S^T Y`` and ``Y^T Y``.
        rejected: number of pairs turned away by the acceptance test.

    ``S``, ``Y`` and the Gram blocks are views of preallocated storage: the
    next accepted pair may overwrite them, so copy what must outlive a push.
    ``worker``, a :class:`Worker` or None, runs the S half of each pass
    when ``n >= SPLIT_MIN_N``; the buffer never ends its thread.
    """

    def __init__(self, n: int, m: int, worker: Worker | None = None):
        if n < 1 or m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
        self.n = int(n)
        self.m = int(m)
        # The worker that runs the S half of each pass, if the pass splits.
        self._worker = worker if self.n >= SPLIT_MIN_N else None
        self.count = 0
        # Row i holds the i-th oldest pair, so S^T x is a contiguous gemv.
        self._s_rows = np.empty((self.m, self.n))
        self._y_rows = np.empty((self.m, self.n))
        # Entry (i, j) of each block pairs the i-th and j-th oldest pairs.
        self._ss = np.empty((self.m, self.m))
        self._sy = np.empty((self.m, self.m))
        self._yy = np.empty((self.m, self.m))
        # The leading size-by-size corner of a triangle mask is the mask of
        # that size, so one mask serves every count: L of S^T Y in the middle
        # matrix and the factor of the 2m'-by-2m' Gram of Psi.
        self._strict_lower = np.tri(2 * self.m, k=-1, dtype=bool)
        self._identity = np.eye(2 * self.m)
        self._identity.flags.writeable = False
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
        evict = k == self.m
        if evict:
            # Evict the oldest pair from the blocks; _push_row does the rows.
            for block in (self._ss, self._sy, self._yy):
                block[:-1, :-1] = block[1:, 1:]
            k -= 1

        # Cross products against the surviving rows fill the new row and column.
        (Ss, Sy), (Ys, Yy) = self._in_halves(
            lambda: _push_row(self._s_rows, s, k, evict, s, y),
            lambda: _push_row(self._y_rows, y, k, evict, s, y),
        )
        self._ss[:k, k] = self._ss[k, :k] = Ss
        self._sy[:k, k] = Sy
        self._sy[k, :k] = Ys
        self._yy[:k, k] = self._yy[k, :k] = Yy
        self._ss[k, k] = ss
        self._sy[k, k] = sy
        self._yy[k, k] = yy
        self.count = k + 1
        return True

    def vt_dot(self, x: np.ndarray) -> np.ndarray:
        """``V^T x = [S^T x; Y^T x]`` with ``V = [S, Y]``, two gemvs over the rows."""
        k = self.count
        return np.concatenate(
            self._in_halves(
                lambda: np.dot(self._s_rows[:k], x),
                lambda: np.dot(self._y_rows[:k], x),
            )
        )

    def v_dot(self, w: np.ndarray):
        """``(S w[:k], Y w[k:])`` for ``k`` stored pairs: the two halves of ``V w``, ``V = [S, Y]``."""
        k = self.count
        return self._in_halves(
            lambda: np.dot(self._s_rows[:k].T, w[:k]),
            lambda: np.dot(self._y_rows[:k].T, w[k:]),
        )

    def _in_halves(self, s_half, y_half):
        """``(s_half(), y_half())``, with ``s_half`` on the worker's thread when the buffer has one."""
        if self._worker is None:
            return s_half(), y_half()
        return concurrently(self._worker, s_half, y_half)

    def strict_lower(self, size: int) -> np.ndarray:
        """Boolean mask of the strictly lower triangle of a size-by-size matrix, ``size <= 2m``."""
        return self._strict_lower[:size, :size]

    def identity(self, size: int) -> np.ndarray:
        """Read-only size-by-size identity, ``size <= 2m``, as a right-hand side for solves."""
        return self._identity[:size, :size]
