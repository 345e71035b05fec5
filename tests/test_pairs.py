import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from trlbfgs import pairs
from trlbfgs.pairs import PairBuffer

from oracles import C3, fill_buffer, random_pairs


def test_accept_collinear_pair():
    buf = PairBuffer(2, 3)
    assert buf.try_push([1.0, 0.0], [2.0, 0.0])
    assert buf.count == 1
    assert buf.gram_SY[0, 0] == 2.0


def test_reject_orthogonal_pair():
    buf = PairBuffer(2, 3)
    assert not buf.try_push([1.0, 0.0], [0.0, 1.0])
    assert buf.count == 0
    assert buf.rejected == 1
    assert buf.gram_SY.shape == (0, 0)


def test_reject_zero_vectors():
    buf = PairBuffer(2, 3)
    assert not buf.try_push([0.0, 0.0], [1.0, 1.0])
    assert not buf.try_push([1.0, 1.0], [0.0, 0.0])
    assert buf.count == 0


def test_eviction_keeps_count_at_capacity():
    rng = np.random.default_rng(7)
    m = 5
    buf = PairBuffer(10, m)
    pairs = random_pairs(rng, 10, m + 1)
    for s, y in pairs[:m]:
        assert buf.try_push(s, y)
    first_sy = buf.gram_SY[0, 0]
    assert buf.try_push(*pairs[m])
    assert buf.count == m
    # oldest evicted, newest at the end
    assert buf.gram_SY[0, 0] != first_sy
    assert buf.gram_SY[-1, -1] == pairs[m][0] @ pairs[m][1]


def test_storage_holds_last_m_pairs_in_order():
    rng = np.random.default_rng(19)
    n, m = 9, 3
    buf = PairBuffer(n, m)
    pairs = random_pairs(rng, n, 2 * m + 1)
    for s, y in pairs:
        assert buf.try_push(s, y)
    assert np.array_equal(buf.S, np.column_stack([s for s, _ in pairs[-m:]]))
    assert np.array_equal(buf.Y, np.column_stack([y for _, y in pairs[-m:]]))


def test_storage_copies_the_pushed_vectors():
    rng = np.random.default_rng(20)
    buf = PairBuffer(6, 2)
    (s, y), = random_pairs(rng, 6, 1)
    s_ref, y_ref = s.copy(), y.copy()
    assert buf.try_push(s, y)
    s[:] = 0.0
    y *= 2.0
    assert np.array_equal(buf.S[:, 0], s_ref)
    assert np.array_equal(buf.Y[:, 0], y_ref)


@pytest.mark.parametrize("stored", [1, 3])
def test_rejected_push_leaves_storage_unchanged(stored):
    rng = np.random.default_rng(21 + stored)
    n = 8
    buf = PairBuffer(n, 3)
    for s, y in random_pairs(rng, n, stored):
        assert buf.try_push(s, y)
    before = [a.copy() for a in (buf.S, buf.Y, buf.gram_SS, buf.gram_SY, buf.gram_YY)]
    s = rng.standard_normal(n)
    assert not buf.try_push(s, -s)
    after = (buf.S, buf.Y, buf.gram_SS, buf.gram_SY, buf.gram_YY)
    assert buf.count == stored
    for a, b in zip(after, before):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_dimension_mismatch_raises():
    buf = PairBuffer(4, 2)
    with pytest.raises(ValueError):
        buf.try_push(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        buf.try_push(np.ones(4), np.ones(5))


@pytest.mark.parametrize("n,pushes", [(20, 4), (100, 12)])
def test_incremental_grams_match_recompute(n, pushes):
    rng = np.random.default_rng(n)
    buf = PairBuffer(n, 5)
    for s, y in random_pairs(rng, n, pushes):
        buf.try_push(s, y)
    for block, ref in [
        (buf.gram_SS, buf.S.T @ buf.S),
        (buf.gram_SY, buf.S.T @ buf.Y),
        (buf.gram_YY, buf.Y.T @ buf.Y),
    ]:
        assert np.abs(block - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_debug_recompute_path_agrees():
    rng = np.random.default_rng(3)
    inc = PairBuffer(30, 4)
    for s, y in random_pairs(rng, 30, 9):
        inc.try_push(s, y)
    S, Y = inc.S, inc.Y
    for a, b in [(inc.gram_SS, S.T @ S), (inc.gram_SY, S.T @ Y), (inc.gram_YY, Y.T @ Y)]:
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


def test_grams_track_survivors_after_eviction():
    rng = np.random.default_rng(11)
    buf = PairBuffer(15, 3)
    for s, y in random_pairs(rng, 15, 8):
        buf.try_push(s, y)
    assert buf.count == 3
    assert np.allclose(buf.gram_SS, buf.S.T @ buf.S, rtol=1e-13, atol=0)
    assert np.allclose(buf.gram_SY, buf.S.T @ buf.Y, rtol=1e-13, atol=0)
    assert np.allclose(buf.gram_YY, buf.Y.T @ buf.Y, rtol=1e-13, atol=0)


def test_stored_pairs_satisfy_acceptance_strictly():
    rng = np.random.default_rng(13)
    buf = fill_buffer(rng, 25, 5)
    for sy, ss, yy in zip(np.diag(buf.gram_SY), np.diag(buf.gram_SS), np.diag(buf.gram_YY)):
        assert sy > C3 * np.sqrt(ss) * np.sqrt(yy)
        assert ss > 0 and yy > 0


@pytest.mark.parametrize("k", range(1, 6))
def test_np_dot_equals_matmul_bitwise(k):
    # A pass over the pairs calls np.dot, which releases the GIL, on both
    # its split and its serial path; that is one code path only because
    # np.dot rounds as @ does, in both orientations.
    rng = np.random.default_rng(k)
    n = 100003
    rows = rng.standard_normal((k, n))
    x = rng.standard_normal(n)
    w = rng.standard_normal(k)
    assert np.dot(rows, x).tobytes() == (rows @ x).tobytes()
    assert np.dot(rows.T, w).tobytes() == (rows.T @ w).tobytes()


@pytest.mark.parametrize("side", ["S", "Y"])
def test_an_exception_in_either_half_reaches_the_caller_after_the_join(monkeypatch, side):
    rng = np.random.default_rng(5)
    n, m = 30, 3
    monkeypatch.setattr(pairs, "SPLIT_MIN_N", 1)
    real_dot = np.dot
    s_threads = []
    s_ended = []

    def dot(a, b):
        if np.shares_memory(a, buf._s_rows):
            s_threads.append(threading.current_thread())
            try:
                if side == "S":
                    raise FloatingPointError("S half fails")
                time.sleep(0.1)  # still running when the Y half raises
            finally:
                s_ended.append(1)
        elif side == "Y" and np.shares_memory(a, buf._y_rows):
            raise FloatingPointError("Y half fails")
        return real_dot(a, b)

    with pairs.Worker() as worker:
        buf = PairBuffer(n, m, worker)
        for s, y in random_pairs(rng, n, m):
            assert buf.try_push(s, y)
        (s, y), = random_pairs(rng, n, 1)
        w = rng.standard_normal(2 * m)
        monkeypatch.setattr(pairs.np, "dot", dot)
        for call in (lambda: buf.try_push(s, y), lambda: buf.vt_dot(s), lambda: buf.v_dot(w)):
            with pytest.raises(FloatingPointError, match=f"{side} half fails"):
                call()
            # The S half had ended before the exception reached the caller.
            assert s_threads and len(s_ended) == len(s_threads)
    # The S rows were multiplied on the worker's thread, never the caller's.
    assert threading.current_thread() not in s_threads


def test_a_pass_stays_on_the_calling_thread_with_one_usable_cpu(monkeypatch):
    # With one usable CPU minimize gives its buffer no worker, and a buffer
    # without one runs every pass here, whatever its n.
    rng = np.random.default_rng(6)
    n, m = 30, 3
    pairs_in = random_pairs(rng, n, m + 2)
    serial = fill_buffer(rng, n, len(pairs_in), m=m, pairs=pairs_in)

    def no_thread(*_, **__):
        pytest.fail("a pass split without a worker")

    monkeypatch.setattr(pairs, "SPLIT_MIN_N", 1)
    monkeypatch.setattr(threading, "Thread", no_thread)
    buf = fill_buffer(rng, n, len(pairs_in), m=m, pairs=pairs_in)
    x = rng.standard_normal(n)
    assert buf.vt_dot(x).tobytes() == serial.vt_dot(x).tobytes()
    assert buf.gram_SY.tobytes() == serial.gram_SY.tobytes()


@pytest.mark.parametrize("n", [30, 29])
def test_a_buffer_given_a_pool_runs_its_s_half_on_the_pools_thread(monkeypatch, n):
    # Bitwise the same blocks and V^T x as a buffer without a worker; below
    # SPLIT_MIN_N (here 30) the buffer keeps no worker and runs every pass here.
    rng = np.random.default_rng(8)
    m = 3
    pairs_in = random_pairs(rng, n, m + 3)
    serial = fill_buffer(rng, n, len(pairs_in), m=m, pairs=pairs_in)
    monkeypatch.setattr(pairs, "SPLIT_MIN_N", 30)
    real_dot = np.dot
    s_threads = set()

    def dot(a, b):
        if np.shares_memory(a, buf._s_rows):
            s_threads.add(threading.current_thread())
        return real_dot(a, b)

    monkeypatch.setattr(pairs.np, "dot", dot)
    x = rng.standard_normal(n)
    with pairs.Worker() as worker:
        buf = PairBuffer(n, m, worker)
        for s, y in pairs_in:
            buf.try_push(s, y)
        vt_x = buf.vt_dot(x)
        worker_thread = pairs.concurrently(worker, threading.current_thread, lambda: None)[0]
    assert buf.count == serial.count == m
    for block in ("gram_SS", "gram_SY", "gram_YY"):
        assert getattr(buf, block).tobytes() == getattr(serial, block).tobytes()
    assert vt_x.tobytes() == serial.vt_dot(x).tobytes()
    assert s_threads == ({worker_thread} if n >= 30 else {threading.current_thread()})


@pytest.mark.parametrize("pooled", [True, False], ids=["pool", "no_pool"])
def test_v_dot_is_bitwise_the_two_column_products_at_every_count(monkeypatch, pooled):
    # (S w[:k], Y w[k:]) as @ forms them from the stored columns, for k = 1
    # to m; with a worker, at SPLIT_MIN_N (here 30), the S half runs on the
    # worker's thread, as every other pass over the rows does.
    rng = np.random.default_rng(9)
    n, m = 30, 4
    monkeypatch.setattr(pairs, "SPLIT_MIN_N", 30)
    real_dot = np.dot
    s_threads = set()

    def dot(*args, **kwargs):
        if np.shares_memory(args[0], buf._s_rows):
            s_threads.add(threading.current_thread())
        return real_dot(*args, **kwargs)

    monkeypatch.setattr(pairs.np, "dot", dot)
    with pairs.Worker() as worker:
        buf = PairBuffer(n, m, worker if pooled else None)
        worker_thread = pairs.concurrently(worker, threading.current_thread, lambda: None)[0]
        for k, (s, y) in enumerate(random_pairs(rng, n, m), start=1):
            assert buf.try_push(s, y) and buf.count == k
            w = rng.standard_normal(2 * k)
            s_threads.clear()
            sw, yw = buf.v_dot(w)
            assert sw.tobytes() == (buf.S @ w[:k]).tobytes()
            assert yw.tobytes() == (buf.Y @ w[k:]).tobytes()
            assert s_threads == ({worker_thread} if pooled else {threading.current_thread()})


def test_concurrently_runs_the_first_call_on_a_worker_under_the_callers_context():
    threads = []

    def overflow():
        threads.append(threading.current_thread())
        return float(np.exp(np.array([1000.0]))[0])

    with pairs.Worker() as worker:
        with np.errstate(over="ignore"):
            assert pairs.concurrently(worker, overflow, lambda: 2) == (math.inf, 2)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            pairs.concurrently(worker, overflow, lambda: 2)
    assert len(threads) == 2 and threading.current_thread() not in threads


def test_one_second_thread_serves_a_block_and_is_joined_when_it_ends():
    # Every handoff to a worker, the one a solve opens, runs on its one
    # thread, which is joined when the worker's block ends.
    start = threading.active_count()
    seen = []
    with pairs.Worker() as worker:
        for _ in range(3):
            seen.append(pairs.concurrently(worker, threading.current_thread, lambda: None)[0])
        alive = threading.active_count()
    assert alive == start + 1 and threading.active_count() == start
    assert len(set(seen)) == 1 and seen[0] is not threading.current_thread()


def test_after_an_interrupt_in_the_callers_half_the_workers_half_has_ended_and_the_worker_serves_on():
    ended = []

    def slow():
        time.sleep(0.05)  # still running when the caller's half is interrupted
        ended.append(threading.current_thread())
        return "a"

    def interrupted():
        raise KeyboardInterrupt

    with pairs.Worker() as worker:
        with pytest.raises(KeyboardInterrupt):
            pairs.concurrently(worker, slow, interrupted)
        assert len(ended) == 1
        assert pairs.concurrently(worker, lambda: "next", lambda: "b") == ("next", "b")
    assert ended[0] is not threading.current_thread()
    ended[0].join(timeout=10)
    assert not ended[0].is_alive()


def test_handoffs_keep_their_results_apart_under_fast_thread_switching():
    # Three callers, each with its own worker: six threads on fewer CPUs,
    # switching every microsecond.  A result handed to the wrong call, or
    # read before its task ended, shows as a mismatch.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        mismatches = []

        def drive(k):
            with pairs.Worker() as worker:
                for i in range(300):
                    got = pairs.concurrently(worker, lambda: (k, i), lambda: i)
                    if got != ((k, i), i):
                        mismatches.append(got)

        callers = [threading.Thread(target=drive, args=(k,)) for k in range(3)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
        assert not any(caller.is_alive() for caller in callers)
        assert mismatches == []
    finally:
        sys.setswitchinterval(interval)


def test_a_worker_keeps_nothing_that_a_finished_handoff_held():
    # Neither the task's closure nor its result outlives the call, so a
    # pass never keeps an n-vector alive until the next handoff.
    held = np.ones(4)
    held_ref = weakref.ref(held)
    made = []

    # A default, not a closure cell, so that only the task holds the vector.
    def task(vector=held):
        doubled = vector * 2.0
        made.append(weakref.ref(doubled))
        return doubled

    del held
    with pairs.Worker() as worker:
        result, _ = pairs.concurrently(worker, task, lambda: None)
        assert result is not None and made[0]() is result
        del task, result
        assert held_ref() is None and made[0]() is None
