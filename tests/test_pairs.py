import numpy as np
import pytest

from trlbfgs import EmptyHistoryError, PairBuffer

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
    assert buf.violations() == 0
    for sy, ss, yy in zip(np.diag(buf.gram_SY), np.diag(buf.gram_SS), np.diag(buf.gram_YY)):
        assert sy > C3 * np.sqrt(ss) * np.sqrt(yy)
        assert ss > 0 and yy > 0


def test_triangular_views_single_pair():
    buf = PairBuffer(2, 2)
    buf.try_push([1.0, 0.0], [2.0, 0.0])
    L, D, T = buf.triangular_views()
    assert np.array_equal(L, [[0.0]])
    assert np.array_equal(D, [[2.0]])
    assert np.array_equal(T, [[2.0]])


def test_triangular_views_two_pairs():
    # engineered so S^T Y = [[2, 5], [3, 7]]
    buf = PairBuffer(2, 2)
    assert buf.try_push([1.0, 0.0], [2.0, 3.0])
    assert buf.try_push([0.0, 1.0], [5.0, 7.0])
    assert np.allclose(buf.gram_SY, [[2.0, 5.0], [3.0, 7.0]])
    L, D, T = buf.triangular_views()
    assert np.array_equal(L, [[0.0, 0.0], [3.0, 0.0]])
    assert np.array_equal(D, np.diag([2.0, 7.0]))
    assert np.array_equal(T, [[2.0, 5.0], [0.0, 7.0]])


def test_triangular_views_reassemble_exactly():
    rng = np.random.default_rng(17)
    buf = fill_buffer(rng, 12, 5)
    L, D, T = buf.triangular_views()
    assert np.array_equal(L + D + (T - D), buf.gram_SY)
    assert np.all(np.diag(T) > 0)


def test_triangular_views_empty_buffer_raises():
    with pytest.raises(EmptyHistoryError):
        PairBuffer(3, 2).triangular_views()
