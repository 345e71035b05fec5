import numpy as np
import pytest

import trlbfgs as t
import trlbfgs.denseinit as denseinit

from oracles import (
    bfgs_recursion,
    dense_B0_hat,
    explicit_P_par,
    fill_buffer,
    quadratic_pairs,
    scipy_inverse_middle,
)


def full_step(inv, buf, g):
    """``unconstrained_step`` with ``w = M_hat V^T g`` formed here."""
    return t.unconstrained_step(inv, buf, g, inv.M_hat @ buf.vt_dot(g))


def full_step_norm(inv, buf, g):
    """``unconstrained_norm`` with ``g^T g``, ``u = V^T g`` and ``w = M_hat u`` formed here."""
    u = buf.vt_dot(g)
    return t.unconstrained_norm(inv, float(g @ g), u, inv.M_hat @ u)


def test_gamma_perp_parameter_table():
    gamma, gamma_max = 1.5, 2.0
    assert t.perp_scale(1.0, 1.0, gamma, gamma_max) == pytest.approx(2.0)  # gamma_max itself
    assert t.perp_scale(2.0, 1.0, gamma, gamma_max) == pytest.approx(4.0)  # c * gamma_max
    assert t.perp_scale(1.0, 0.0, gamma, gamma_max) == pytest.approx(1.5)  # conventional: gamma itself
    assert t.perp_scale(1.0, 0.5, gamma, gamma_max) == pytest.approx(0.5 * 2.0 + 0.5 * 1.5)


def test_equal_scales_reduce_to_classical_inverse():
    rng = np.random.default_rng(30)
    n, k, gamma = 12, 4, 1.8
    buf = fill_buffer(rng, n, k)
    inv = t.build_inverse(buf, gamma, gamma)
    # no two-scale correction: the Y-Y block of the middle matrix stays zero
    assert not inv.M_hat[k:, k:].any()
    # secant equation: B^{-1} y_last = s_last
    s_last, y_last = buf.S[:, -1], buf.Y[:, -1]
    got = -full_step(inv, buf, y_last)
    assert np.abs(got - s_last).max() <= 1e-10 * max(1.0, np.abs(s_last).max())
    # and the full action equals the dense inverse of the recursion matrix
    B = bfgs_recursion(gamma * np.eye(n), zip(buf.S.T, buf.Y.T))
    g = rng.standard_normal(n)
    assert np.abs(full_step(inv, buf, g) + np.linalg.solve(B, g)).max() <= 1e-9


def test_hand_example_single_pair_two_scales():
    # one pair s=(1,0), y=(2,0): with gamma=1, gamma_perp=5 the dense matrix
    # is diag(2, 5); V = [s, y] is rank one, exercising the Gram fallback
    buf = t.PairBuffer(2, 1)
    assert buf.try_push([1.0, 0.0], [2.0, 0.0])
    inv = t.build_inverse(buf, gamma=1.0, gamma_perp=5.0)
    g = np.array([1.0, 1.0])
    p = full_step(inv, buf, g)
    assert np.abs(p - [-0.5, -0.2]).max() <= 1e-12
    assert full_step_norm(inv, buf, g) == pytest.approx(np.sqrt(0.25 + 0.04), abs=1e-12)


@pytest.mark.parametrize("count", [1, 3, 5])
@pytest.mark.parametrize("gamma, gamma_perp", [(1.3, 4.0), (4.0, 1.3), (1.3, 1.3)])
def test_build_inverse_matches_the_scipy_wrappers_bitwise(count, gamma, gamma_perp):
    # Unequal scales run the Cholesky branch (dpotrf); m = 3 with 5 pairs
    # also runs the eviction of the Gram blocks.
    rng = np.random.default_rng(33)
    buf = fill_buffer(rng, 9, count, m=min(count, 3))
    inv = t.build_inverse(buf, gamma, gamma_perp)
    assert np.array_equal(inv.M_hat, scipy_inverse_middle(buf, gamma, gamma_perp))
    VtV = np.block([[buf.gram_SS, buf.gram_SY], [buf.gram_SY.T, buf.gram_YY]])
    assert np.array_equal(inv.VtV, VtV)


def test_collinear_duplicate_pairs_reach_the_gram_fallback(monkeypatch):
    # The same pair twice makes V^T V exactly singular: dpotrf reports it and
    # build_inverse switches to the thresholded inverse.  B is unchanged by
    # the repeat, so the step matches the single-pair hand example.
    calls = []
    real = denseinit._gram_pinv

    def spy(G, *args):
        calls.append(G.shape)
        return real(G, *args)

    monkeypatch.setattr(denseinit, "_gram_pinv", spy)
    buf = t.PairBuffer(2, 2)
    assert buf.try_push([1.0, 0.0], [2.0, 0.0])
    assert buf.try_push([1.0, 0.0], [2.0, 0.0])
    inv = t.build_inverse(buf, gamma=1.0, gamma_perp=5.0)
    assert calls == [(4, 4)]
    g = np.array([1.0, 1.0])
    p = full_step(inv, buf, g)
    assert np.abs(p - [-0.5, -0.2]).max() <= 1e-12


def test_inverse_identity_dense():
    rng = np.random.default_rng(31)
    n, k, gamma, gamma_perp = 30, 5, 1.2, 3.7
    buf = fill_buffer(rng, n, k)
    fac = t.factorize(buf, gamma)
    P = explicit_P_par(fac, buf)
    B_hat = bfgs_recursion(
        dense_B0_hat(P, gamma, gamma_perp, n), zip(buf.S.T, buf.Y.T)
    )
    inv = t.build_inverse(buf, gamma, gamma_perp)
    B_hat_inv = np.column_stack(
        [-full_step(inv, buf, e) for e in np.eye(n)]
    )
    assert np.abs(B_hat @ B_hat_inv - np.eye(n)).max() <= 1e-9


def test_empty_history_uses_fallback_scale():
    buf = t.PairBuffer(5, 3)
    inv = t.build_inverse(buf, gamma=1.0, gamma_perp=2.5)
    g = np.arange(1.0, 6.0)
    assert np.allclose(full_step(inv, buf, g), -g / 2.5)
    assert full_step_norm(inv, buf, g) == pytest.approx(np.linalg.norm(g) / 2.5)


def test_quadratic_history_matches_dense_solve():
    rng = np.random.default_rng(32)
    n, k = 8, 5
    pairs, _ = quadratic_pairs(rng, n, k)
    buf = fill_buffer(rng, n, k, pairs=pairs)
    gamma, gamma_perp = 1.0, 2.0
    fac = t.factorize(buf, gamma)
    P = explicit_P_par(fac, buf)
    B_hat = bfgs_recursion(dense_B0_hat(P, gamma, gamma_perp, n), pairs)
    inv = t.build_inverse(buf, gamma, gamma_perp)
    g = rng.standard_normal(n)
    p = full_step(inv, buf, g)
    assert np.abs(B_hat @ p + g).max() <= 1e-9 * max(1.0, np.abs(g).max())


def test_norm_matches_step_norm():
    rng = np.random.default_rng(33)
    n, k = 50, 5
    buf = fill_buffer(rng, n, k)
    inv = t.build_inverse(buf, gamma=1.4, gamma_perp=2.9)
    for _ in range(20):
        g = rng.standard_normal(n)
        direct = np.linalg.norm(full_step(inv, buf, g))
        cheap = full_step_norm(inv, buf, g)
        assert abs(cheap - direct) <= 1e-10 * direct


def test_monotone_damping_in_gamma_perp():
    rng = np.random.default_rng(34)
    n, k, gamma = 16, 3, 1.5
    buf = fill_buffer(rng, n, k)
    g = rng.standard_normal(n)  # generic g has a perpendicular component
    norms = []
    for gamma_perp in (1.0, 2.0, 4.0, 8.0):
        inv = t.build_inverse(buf, gamma, gamma_perp)
        norms.append(np.linalg.norm(full_step(inv, buf, g)))
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_build_inverse_validates_scales():
    buf = fill_buffer(np.random.default_rng(35), 6, 2)
    with pytest.raises(ValueError):
        t.build_inverse(buf, gamma=1.0, gamma_perp=0.0)
    with pytest.raises(ValueError):
        t.build_inverse(buf, gamma=-1.0, gamma_perp=1.0)
