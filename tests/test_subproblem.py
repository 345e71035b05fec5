import numpy as np
import pytest

import trlbfgs.spectral as spectral
import trlbfgs.subproblem as subproblem

from oracles import dense_B0_hat, explicit_P_par, fill_buffer, solve_parallel_numpy_loop


def test_parallel_interior_newton_step():
    v = subproblem.solve_parallel(np.array([1.0]), np.array([2.0]), radius=1.0)
    assert v == pytest.approx([-0.5])


def test_parallel_boundary_case():
    v = subproblem.solve_parallel(np.array([4.0]), np.array([2.0]), radius=1.0)
    assert v == pytest.approx([-1.0])


def test_parallel_negative_curvature_zero_gradient_tie_break():
    v = subproblem.solve_parallel(np.array([0.0]), np.array([-1.0]), radius=2.0)
    assert v == pytest.approx([2.0])


def test_parallel_zero_curvature_nonzero_gradient():
    v = subproblem.solve_parallel(np.array([3.0]), np.array([0.0]), radius=2.0)
    assert v == pytest.approx([-2.0])


def test_parallel_free_case_picks_zero():
    v = subproblem.solve_parallel(np.array([0.0]), np.array([0.0]), radius=2.0)
    assert v == pytest.approx([0.0])


def test_parallel_zero_tolerance_classifies_tiny_curvature():
    # curvature below the tolerance behaves like an exact zero
    v = subproblem.solve_parallel(np.array([3.0]), np.array([1e-15]), radius=2.0, zero_tol=1e-12)
    assert v == pytest.approx([-2.0])


def test_parallel_shape_mismatch():
    with pytest.raises(ValueError):
        subproblem.solve_parallel(np.zeros(2), np.zeros(3), 1.0)


def test_perp_beta_interior():
    assert subproblem.solve_perp_beta(2.0, 1.0, 1.0) == pytest.approx(-0.5)


def test_perp_beta_boundary():
    assert subproblem.solve_perp_beta(2.0, 4.0, 1.0) == pytest.approx(-0.25)


def test_perp_beta_zero_gradient_component():
    beta = subproblem.solve_perp_beta(2.0, 0.0, 1.0)
    assert beta == pytest.approx(-0.5)
    # v_perp = beta * g_perp is the zero vector regardless of beta
    assert np.allclose(beta * np.zeros(3), 0.0)


def test_perp_beta_validates_inputs():
    with pytest.raises(ValueError):
        subproblem.solve_perp_beta(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        subproblem.solve_perp_beta(1.0, 1.0, 0.0)


def test_assemble_step_cancellation():
    rng = np.random.default_rng(40)
    buf = fill_buffer(rng, 10, 3)
    gamma = 1.3
    fac = spectral.factorize(buf, gamma)
    g = rng.standard_normal(10)
    g_par = spectral.apply_P_par_T(fac, buf.vt_dot(g))
    beta = -0.7
    p = subproblem.assemble_step(beta, g, g_par, beta * g_par, fac, buf)
    assert np.abs(p - beta * g).max() <= 1e-12 * np.abs(g).max()


def test_assemble_step_matches_explicit_projectors():
    rng = np.random.default_rng(41)
    n, gamma = 20, 1.6
    buf = fill_buffer(rng, n, 4)
    fac = spectral.factorize(buf, gamma)
    P = explicit_P_par(fac, buf)
    g = rng.standard_normal(n)
    g_par = spectral.apply_P_par_T(fac, buf.vt_dot(g))
    v_par = rng.standard_normal(fac.rank)
    beta = -0.31
    p = subproblem.assemble_step(beta, g, g_par, v_par, fac, buf)
    ref = P @ v_par + beta * (np.eye(n) - P @ P.T) @ g
    assert np.abs(p - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_model_reduction_zero_gradient():
    val = subproblem.model_reduction(np.zeros(2), -0.5, np.zeros(2), 0.0, np.ones(2), 2.0)
    assert val == 0.0


def test_model_reduction_rank_zero_interior_value():
    # interior perpendicular solution: q = -||g||^2 / (2 gamma_perp)
    gamma_perp, gnorm = 2.0, 1.5
    beta = subproblem.solve_perp_beta(gamma_perp, gnorm, radius=10.0)
    val = subproblem.model_reduction(np.empty(0), beta, np.empty(0), gnorm, np.empty(0), gamma_perp)
    assert val == pytest.approx(-0.5 * gnorm**2 / gamma_perp)


def test_model_reduction_matches_dense_quadratic():
    rng = np.random.default_rng(42)
    n, gamma, gamma_perp = 20, 1.4, 3.3
    buf = fill_buffer(rng, n, 4)
    fac = spectral.factorize(buf, gamma)
    P = explicit_P_par(fac, buf)
    from oracles import bfgs_recursion

    B_hat = bfgs_recursion(
        dense_B0_hat(P, gamma, gamma_perp, n), zip(buf.S.T, buf.Y.T)
    )
    g = rng.standard_normal(n)
    delta = 0.4
    g_par = spectral.apply_P_par_T(fac, buf.vt_dot(g))
    gp_norm = np.sqrt(spectral.perp_norm_sq(float(g @ g), g_par))
    lambdas = fac.lambdas
    v_par = subproblem.solve_parallel(g_par, lambdas, delta)
    beta = subproblem.solve_perp_beta(gamma_perp, gp_norm, delta)
    p = subproblem.assemble_step(beta, g, g_par, v_par, fac, buf)
    dense_q = float(g @ p + 0.5 * p @ (B_hat @ p))
    ours = subproblem.model_reduction(v_par, beta, g_par, gp_norm, lambdas, gamma_perp)
    assert abs(ours - dense_q) <= 1e-10 * max(1.0, abs(dense_q))
    assert ours < 0.0


def test_separability_no_cross_terms():
    rng = np.random.default_rng(43)
    n, gamma, gamma_perp = 14, 1.1, 2.6
    buf = fill_buffer(rng, n, 3)
    fac = spectral.factorize(buf, gamma)
    P = explicit_P_par(fac, buf)
    from oracles import bfgs_recursion

    B_hat = bfgs_recursion(
        dense_B0_hat(P, gamma, gamma_perp, n), zip(buf.S.T, buf.Y.T)
    )
    g = rng.standard_normal(n)
    # any decomposed point p = P v_par + perp part
    v_par = rng.standard_normal(fac.rank)
    w = rng.standard_normal(n)
    perp = w - P @ (P.T @ w)
    p = P @ v_par + perp
    g_par = spectral.apply_P_par_T(fac, buf.vt_dot(g))
    lambdas = fac.lambdas
    q_full = float(g @ p + 0.5 * p @ (B_hat @ p))
    q_par = float(g_par @ v_par + 0.5 * v_par @ (lambdas * v_par))
    gp = g - P @ g_par
    q_perp = float(gp @ perp + 0.5 * gamma_perp * (perp @ perp))
    assert abs(q_full - (q_par + q_perp)) <= 1e-10 * max(1.0, abs(q_full))


def grid_best(gi, li, radius, points=100_000):
    v = np.linspace(-radius, radius, points)
    return np.min(gi * v + 0.5 * li * v**2)


def test_coordinate_global_optimality_grid_scan():
    rng = np.random.default_rng(44)
    for _ in range(50):
        r = int(rng.integers(1, 6))
        g = rng.standard_normal(r) * rng.choice([0.0, 1.0], size=r, p=[0.15, 0.85])
        lam = rng.standard_normal(r) * rng.choice([0.0, 1.0], size=r, p=[0.15, 0.85])
        radius = float(rng.uniform(0.1, 3.0))
        v = subproblem.solve_parallel(g, lam, radius)
        assert np.all(np.abs(v) <= radius + 1e-12)
        for i in range(r):
            ours = g[i] * v[i] + 0.5 * lam[i] * v[i] ** 2
            assert ours <= grid_best(g[i], lam[i], radius) + 1e-8


def test_solve_parallel_matches_the_numpy_scalar_loop_bitwise():
    # Each coordinate draws a curvature that is positive, negative, exactly
    # zero or tiny (at most zero_tol, either sign), and a gradient that is
    # random, signed zero or small enough to keep the Newton step inside the
    # radius; both -0.0 and +0.0 reach every branch.
    rng = np.random.default_rng(48)
    zero_tol = 1e-12
    for _ in range(2000):
        r = int(rng.integers(0, 11))
        scale = 10.0 ** rng.uniform(-3, 3, size=r)
        lam = np.choose(
            rng.integers(0, 5, size=r),
            [
                scale * rng.uniform(0.1, 1.0, size=r),
                -scale * rng.uniform(0.1, 1.0, size=r),
                np.zeros(r),
                -np.zeros(r),
                zero_tol * rng.uniform(-1.0, 1.0, size=r),
            ],
        )
        g = np.choose(
            rng.integers(0, 4, size=r),
            [
                rng.standard_normal(r) * 10.0 ** rng.uniform(-3, 3, size=r),
                np.zeros(r),
                -np.zeros(r),
                1e-3 * rng.standard_normal(r),
            ],
        )
        radius = float(10.0 ** rng.uniform(-3, 1))
        got = subproblem.solve_parallel(g, lam, radius, zero_tol)
        want = solve_parallel_numpy_loop(g, lam, radius, zero_tol)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_perpendicular_radial_optimality_grid_scan():
    rng = np.random.default_rng(45)
    for _ in range(50):
        gamma_perp = float(rng.uniform(0.05, 5.0))
        gp_norm = float(rng.uniform(0.0, 4.0))
        radius = float(rng.uniform(0.1, 3.0))
        beta = subproblem.solve_perp_beta(gamma_perp, gp_norm, radius)
        assert abs(beta) * gp_norm <= radius + 1e-12
        ours = beta * gp_norm**2 + 0.5 * gamma_perp * beta**2 * gp_norm**2
        ts = np.linspace(0.0, radius, 100_000)
        best = np.min(-ts * gp_norm + 0.5 * gamma_perp * ts**2)
        assert ours <= best + 1e-8


def test_feasibility_in_shape_changing_norm():
    rng = np.random.default_rng(46)
    n, gamma = 18, 1.3
    buf = fill_buffer(rng, n, 4)
    fac = spectral.factorize(buf, gamma)
    for _ in range(25):
        g = rng.standard_normal(n)
        delta = float(rng.uniform(0.05, 2.0))
        gamma_perp = float(rng.uniform(0.5, 6.0))
        g_par = spectral.apply_P_par_T(fac, buf.vt_dot(g))
        gp_norm = np.sqrt(spectral.perp_norm_sq(float(g @ g), g_par))
        v_par = subproblem.solve_parallel(g_par, fac.lambdas, delta)
        beta = subproblem.solve_perp_beta(gamma_perp, gp_norm, delta)
        p = subproblem.assemble_step(beta, g, g_par, v_par, fac, buf)
        assert spectral.sc_norm(p, fac, buf) <= delta + 1e-10


def test_gamma_perp_sensitivity_at_solution_level():
    rng = np.random.default_rng(47)
    n, gamma, delta = 16, 1.2, 0.8
    buf = fill_buffer(rng, n, 3)
    fac = spectral.factorize(buf, gamma)
    g = rng.standard_normal(n)
    g_par = spectral.apply_P_par_T(fac, buf.vt_dot(g))
    gp_norm = np.sqrt(spectral.perp_norm_sq(float(g @ g), g_par))
    lambdas = fac.lambdas
    v_ref = subproblem.solve_parallel(g_par, lambdas, delta)
    perp_norms = []
    for gamma_perp in (1.0, 2.0, 5.0, 20.0):
        v_par = subproblem.solve_parallel(g_par, lambdas, delta)
        beta = subproblem.solve_perp_beta(gamma_perp, gp_norm, delta)
        assert np.array_equal(v_par, v_ref)  # parallel block untouched
        perp_norms.append(abs(beta) * gp_norm)
    assert all(a >= b - 1e-15 for a, b in zip(perp_norms, perp_norms[1:]))
