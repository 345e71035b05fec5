import numpy as np
import pytest

import trlbfgs as t
from trlbfgs.denseinit import GAMMA0_PERP

from oracles import (
    bfgs_recursion,
    dense_B0_hat,
    explicit_P_par,
    fill_buffer,
    quadratic_pairs,
)


def products(s, y):
    """``(s^T y, y^T y)`` of a pair, the arguments of ``update_gamma``."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(s @ y), float(y @ y)


def test_update_gamma_formula():
    pol = t.InitPolicy()
    pol.update_gamma(*products([1.0, 0.0], [2.0, 0.0]))
    assert pol.gamma == pytest.approx(2.0)


def test_update_gamma_identity_pair():
    pol = t.InitPolicy()
    pol.update_gamma(*products([1.0, 2.0], [1.0, 2.0]))
    assert pol.gamma == pytest.approx(1.0)


def test_gamma_max_is_running_maximum():
    pol = t.InitPolicy()
    pol.update_gamma(*products([1.0, 0.0], [2.0, 0.0]))  # gamma = 2
    pol.update_gamma(*products([2.0, 0.0], [3.0, 0.0]))  # gamma = 1.5
    assert pol.gamma == pytest.approx(1.5)
    assert pol.gamma_max == pytest.approx(2.0)


def test_update_gamma_rejects_nonpositive_curvature():
    pol = t.InitPolicy()
    with pytest.raises(ValueError):
        pol.update_gamma(0.0, 2.0)


def test_gamma_perp_parameter_table():
    pol = t.InitPolicy(c=1.0, lam=1.0)
    pol.update_gamma(*products([1.0, 0.0], [2.0, 0.0]))  # gamma = 2
    pol.update_gamma(*products([2.0, 0.0], [3.0, 0.0]))  # gamma = 1.5, max 2
    assert pol.gamma_perp() == pytest.approx(2.0)  # c=1, lam=1 -> gamma_max

    pol2 = t.InitPolicy(c=2.0, lam=1.0)
    pol2.gamma, pol2.gamma_max = 1.5, 2.0
    assert pol2.gamma_perp() == pytest.approx(4.0)  # 2 * gamma_max

    pol3 = t.InitPolicy(c=1.0, lam=0.0)
    pol3.gamma, pol3.gamma_max = 1.5, 2.0
    assert pol3.gamma_perp() == pytest.approx(1.5)  # conventional: gamma itself

    pol4 = t.InitPolicy(c=1.0, lam=0.5)
    pol4.gamma, pol4.gamma_max = 1.5, 2.0
    assert pol4.gamma_perp() == pytest.approx(0.5 * 2.0 + 0.5 * 1.5)


def test_gamma_perp_before_any_pair_uses_fallback():
    assert t.InitPolicy().gamma_perp() == GAMMA0_PERP


def test_policy_validation():
    with pytest.raises(ValueError):
        t.InitPolicy(c=0.5)
    with pytest.raises(ValueError):
        t.InitPolicy(lam=1.5)


def test_equal_scales_reduce_to_classical_inverse():
    rng = np.random.default_rng(30)
    n, k, gamma = 12, 4, 1.8
    buf = fill_buffer(rng, n, k)
    inv = t.build_inverse(buf, gamma, gamma)
    # no two-scale correction: the Y-Y block of the middle matrix stays zero
    assert not inv.M_hat[k:, k:].any()
    # secant equation: B^{-1} y_last = s_last
    s_last, y_last = buf.S[:, -1], buf.Y[:, -1]
    got = -t.unconstrained_step(inv, buf, y_last, buf.vt_dot(y_last))
    assert np.abs(got - s_last).max() <= 1e-10 * max(1.0, np.abs(s_last).max())
    # and the full action equals the dense inverse of the recursion matrix
    B = bfgs_recursion(gamma * np.eye(n), zip(buf.S.T, buf.Y.T))
    g = rng.standard_normal(n)
    assert np.abs(t.unconstrained_step(inv, buf, g, buf.vt_dot(g)) + np.linalg.solve(B, g)).max() <= 1e-9


def test_hand_example_single_pair_two_scales():
    # one pair s=(1,0), y=(2,0): with gamma=1, gamma_perp=5 the dense matrix
    # is diag(2, 5); V = [s, y] is rank one, exercising the Gram fallback
    buf = t.PairBuffer(2, 1)
    assert buf.try_push([1.0, 0.0], [2.0, 0.0])
    inv = t.build_inverse(buf, gamma=1.0, gamma_perp=5.0)
    g = np.array([1.0, 1.0])
    p = t.unconstrained_step(inv, buf, g, buf.vt_dot(g))
    assert np.abs(p - [-0.5, -0.2]).max() <= 1e-12
    assert t.unconstrained_norm(inv, g, buf.vt_dot(g)) == pytest.approx(np.sqrt(0.25 + 0.04), abs=1e-12)


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
        [-t.unconstrained_step(inv, buf, e, buf.vt_dot(e)) for e in np.eye(n)]
    )
    assert np.abs(B_hat @ B_hat_inv - np.eye(n)).max() <= 1e-9


def test_empty_history_uses_fallback_scale():
    buf = t.PairBuffer(5, 3)
    inv = t.build_inverse(buf, gamma=1.0, gamma_perp=2.5)
    g = np.arange(1.0, 6.0)
    assert np.allclose(t.unconstrained_step(inv, buf, g, buf.vt_dot(g)), -g / 2.5)
    assert t.unconstrained_norm(inv, g, buf.vt_dot(g)) == pytest.approx(np.linalg.norm(g) / 2.5)


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
    p = t.unconstrained_step(inv, buf, g, buf.vt_dot(g))
    assert np.abs(B_hat @ p + g).max() <= 1e-9 * max(1.0, np.abs(g).max())


def test_norm_matches_step_norm():
    rng = np.random.default_rng(33)
    n, k = 50, 5
    buf = fill_buffer(rng, n, k)
    inv = t.build_inverse(buf, gamma=1.4, gamma_perp=2.9)
    for _ in range(20):
        g = rng.standard_normal(n)
        direct = np.linalg.norm(t.unconstrained_step(inv, buf, g, buf.vt_dot(g)))
        cheap = t.unconstrained_norm(inv, g, buf.vt_dot(g))
        assert abs(cheap - direct) <= 1e-10 * direct


def test_monotone_damping_in_gamma_perp():
    rng = np.random.default_rng(34)
    n, k, gamma = 16, 3, 1.5
    buf = fill_buffer(rng, n, k)
    g = rng.standard_normal(n)  # generic g has a perpendicular component
    norms = []
    for gamma_perp in (1.0, 2.0, 4.0, 8.0):
        inv = t.build_inverse(buf, gamma, gamma_perp)
        norms.append(np.linalg.norm(t.unconstrained_step(inv, buf, g, buf.vt_dot(g))))
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_build_inverse_validates_scales():
    buf = fill_buffer(np.random.default_rng(35), 6, 2)
    with pytest.raises(ValueError):
        t.build_inverse(buf, gamma=1.0, gamma_perp=0.0)
    with pytest.raises(ValueError):
        t.build_inverse(buf, gamma=-1.0, gamma_perp=1.0)
