import importlib.util
from pathlib import Path

import numpy as np
import pytest

import trlbfgs as t
import trlbfgs.driver as driver
from trlbfgs.driver import (
    ETA1,
    ETA2,
    ETA3,
    ETA4,
    STATUS_CONVERGED,
    STATUS_FAILED,
    STATUS_MAX_ITER,
    STATUS_STALLED,
    TAU1,
    TAU2,
    TAU3,
)

from oracles import fill_buffer


def sphere(n):
    return t.Problem(
        "sphere", n,
        lambda x: 0.5 * float(x @ x),
        lambda x: np.asarray(x, dtype=float),
        np.ones(n),
        f_opt_hint=0.0,
    )


def test_converges_on_sphere():
    prob = sphere(10)
    res = t.minimize(prob, prob.x0)
    assert res.status == STATUS_CONVERGED
    assert np.linalg.norm(res.x_final) <= 1e-9
    assert res.g_norm_final <= 1e-10 * max(1.0, np.linalg.norm(res.x_final))
    assert res.iterations >= 1
    assert res.iterations <= res.total_steps


def test_converges_on_extended_rosenbrock():
    prob = t.get("ext_rosenbrock", 100)
    res = t.minimize(prob, prob.x0)
    assert res.status == STATUS_CONVERGED
    assert res.f_final <= 1e-15


def test_zero_gradient_start_returns_immediately():
    prob = sphere(5)
    res = t.minimize(prob, np.zeros(5))
    assert res.status == STATUS_CONVERGED
    assert res.iterations == 0 and res.total_steps == 0


def test_trust_region_constants_are_ordered():
    assert 0 <= TAU1 < TAU2 < 0.5 < TAU3 < 1
    assert 0 < ETA1 < ETA2 <= 0.5 < ETA3 < 1 < ETA4


def test_radius_update_case_table():
    rng = np.random.default_rng(50)
    for _ in range(500):
        rho = float(rng.uniform(-1.5, 2.0))
        snorm = float(rng.uniform(0.0, 3.0))
        delta = float(rng.uniform(1e-3, 2.0))
        new = t.radius_update(rho, snorm, delta)
        if rho < TAU2:
            assert new == min(ETA1 * delta, ETA2 * snorm)
            assert new <= ETA1 * delta and new <= ETA2 * snorm
        elif rho >= TAU3 and snorm >= ETA3 * delta:
            assert new == ETA4 * delta
        else:
            assert new == delta


def test_rejected_step_shrinks_by_trial_norm():
    # rho below tau2: radius becomes min(eta1*delta, eta2*||s||)
    assert t.radius_update(-0.5, 0.1, 1.0) == pytest.approx(min(0.25, 0.05))
    assert t.radius_update(0.1, 2.0, 1.0) == pytest.approx(0.25)


def test_trace_radius_sequence_is_consistent():
    prob = t.get("tridia", 30)
    cfg = t.SolverConfig(keep_trace=True, max_iter=200)
    res = t.minimize(prob, prob.x0, cfg)
    for prev, cur in zip(res.trace, res.trace[1:]):
        expected = t.radius_update(prev.rho, prev.step_norm, prev.delta)
        assert cur.delta == pytest.approx(expected, rel=1e-15)


def test_step_selection_unconstrained_for_tiny_gradient():
    rng = np.random.default_rng(51)
    buf = fill_buffer(rng, 12, 3)
    gamma, gamma_perp = 1.5, 2.0
    fac = t.factorize(buf, gamma)
    inv = t.build_inverse(buf, gamma, gamma_perp)
    g = 1e-8 * rng.standard_normal(12)
    choice = t.step_selection(buf, fac, inv, g, 1.0, gamma_perp)
    assert choice.used_unconstrained
    assert choice.model_value < 0


def test_step_selection_constrained_when_radius_shrinks():
    rng = np.random.default_rng(52)
    buf = fill_buffer(rng, 12, 3)
    gamma, gamma_perp = 1.5, 2.0
    fac = t.factorize(buf, gamma)
    g = rng.standard_normal(12)
    inv = t.build_inverse(buf, gamma, gamma_perp)
    pu_norm = t.unconstrained_norm(inv, g, buf.vt_dot(g))
    delta = 1e-3 * pu_norm
    choice = t.step_selection(buf, fac, inv, g, delta, gamma_perp)
    assert not choice.used_unconstrained
    # feasibility plus boundary activity in at least one block
    snorm = t.sc_norm(choice.p_star, fac, buf)
    assert snorm <= delta + 1e-10
    assert snorm == pytest.approx(delta, rel=1e-9)


def test_step_selection_everywhere_toggle_identical_when_scales_equal():
    # lam = 0 makes gamma_perp equal gamma, so the toggle must not matter
    prob = t.get("tridia", 30)
    results = [
        t.minimize(prob, prob.x0, t.SolverConfig(lam=0.0, dense_everywhere=everywhere))
        for everywhere in (True, False)
    ]
    assert results[0].status == STATUS_CONVERGED
    assert results[0].total_steps == results[1].total_steps
    assert results[0].x_final.tobytes() == results[1].x_final.tobytes()


def test_small_matrices_refresh_once_per_accepted_pair(monkeypatch):
    calls = {"factorize": 0, "build_inverse": 0}

    def counting(name):
        original = getattr(driver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(driver, name, counting(name))
    prob = t.get("ext_powell", 40)
    res = t.minimize(prob, prob.x0)
    assert res.status == STATUS_CONVERGED
    assert res.iterations < res.total_steps  # some steps were rejected
    assert calls["build_inverse"] == calls["factorize"]
    assert 0 < calls["build_inverse"] < res.total_steps


def _load_references():
    """``solverbench/references.py``, which checks answers from each problem's formula."""
    path = Path(__file__).resolve().parents[1] / "solverbench" / "references.py"
    spec = importlib.util.spec_from_file_location("solverbench_references", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [5, 50])
@pytest.mark.parametrize("conventional", [False, True], ids=["dense", "conventional"])
def test_stalled_run_stops_with_its_own_status(conventional, n):
    # The gradient is off by a constant vector, so near its false stationary
    # point every predicted decrease fails to materialize and the radius
    # shrinks until the stall stop fires (28 steps at n = 5, 31 at n = 50).
    prob = t.Problem(
        "biased_sphere", n,
        lambda x: 0.5 * float(x @ x),
        lambda x: np.asarray(x, dtype=float) + 0.5,
        np.ones(n),
    )
    res = t.minimize(prob, prob.x0, t.SolverConfig(conventional=conventional))
    assert res.status == STATUS_STALLED
    assert np.all(np.isfinite(res.x_final)) and np.isfinite(res.f_final)
    assert res.total_steps <= 40


@pytest.mark.parametrize(
    "name, n, config",
    [
        ("cosine_mixture", 1000, t.SolverConfig(conventional=True)),
        ("trigonometric", 20, t.SolverConfig()),
        ("cosine_mixture", 20, t.SolverConfig(c=2.0, lam=1.0)),
    ],
)
def test_decrease_below_the_resolution_of_f_does_not_stall(name, n, config):
    # These runs stalled when rho compared decreases lost in round-off;
    # the shifted ratio lets them reach the stop test.
    prob = t.get(name, n)
    res = t.minimize(prob, prob.x0, config)
    assert res.status == STATUS_CONVERGED
    assert _load_references().failures(prob, prob.x0, res, config.epsilon) == []


def test_initial_step_full_on_quadratic():
    prob = sphere(4)
    x0 = np.zeros(4)
    x0[0] = 1.0
    step = t.initial_point_step(prob, x0)
    # t = 1 along -g/||g|| lands at the origin
    assert np.abs(step.x1).max() <= 1e-15
    assert step.f_evals == 1


def test_initial_step_halves_on_cliff():
    def f(x):
        return float(x[0] ** 2 + 10.0 * x[0] ** 4)

    def g(x):
        return np.array([2.0 * x[0] + 40.0 * x[0] ** 3])

    prob = t.Problem("cliff", 1, f, g, np.array([0.5]))
    step = t.initial_point_step(prob, prob.x0)
    assert step.f_evals == 2  # t = 1 fails (even function), t = 1/2 lands at 0
    assert abs(step.x1[0]) <= 1e-15


def test_initial_step_rejects_zero_gradient():
    with pytest.raises(ValueError):
        t.initial_point_step(sphere(3), np.zeros(3))


def test_line_search_failure_is_numerical_failure():
    # gradient claims descent, function grows linearly in every direction;
    # the slope keeps the increase representable through all 50 halvings
    prob = t.Problem(
        "liar", 2,
        lambda x: float(1.0 + 1000.0 * np.linalg.norm(x)),
        lambda x: np.array([1.0, 1.0]) + 0 * x,
        np.zeros(2),
    )
    res = t.minimize(prob, prob.x0)
    assert res.status == STATUS_FAILED
    assert np.array_equal(res.x_final, np.zeros(2))
    assert res.iterations == 0


def test_monotone_acceptance():
    prob = t.get("tridia", 30)
    cfg = t.SolverConfig(keep_trace=True)
    res = t.minimize(prob, prob.x0, cfg)
    assert res.status == STATUS_CONVERGED
    fs = [r.f for r in res.trace if r.accepted]
    assert all(b < a for a, b in zip(fs, fs[1:]))


def test_non_finite_function_fails_at_last_good_iterate():
    def f(x):
        return float("nan") if x[0] > 5.0 else float((x[0] - 10.0) ** 2)

    def g(x):
        return np.array([2.0 * (x[0] - 10.0)])

    prob = t.Problem("wall", 1, f, g, np.array([0.0]))
    res = t.minimize(prob, prob.x0)
    assert res.status == STATUS_FAILED
    assert np.isfinite(res.f_final)
    assert res.x_final[0] <= 5.0


def test_max_iter_status():
    prob = t.get("gen_rosenbrock", 60)
    res = t.minimize(prob, prob.x0, t.SolverConfig(max_iter=5))
    assert res.status == STATUS_MAX_ITER
    assert res.total_steps == 5


def test_hypothesis_observables_reported():
    prob = t.get("ext_rosenbrock", 60)
    res = t.minimize(prob, prob.x0)
    assert res.status == STATUS_CONVERGED
    assert 0 < res.max_gamma < np.inf
    assert 0 < res.max_gamma_perp < np.inf
    assert res.pair_violations == 0


def test_config_validation():
    with pytest.raises(ValueError):
        t.SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        t.SolverConfig(c=0.2)


def test_eval_counters_consistent():
    prob = t.get("ext_rosenbrock", 40)
    res = t.minimize(prob, prob.x0)
    # one f per trial step plus the start and line search; one g per accepted
    # step plus the start and the seed point
    assert res.f_evals >= res.total_steps + 2
    assert res.g_evals == res.iterations + 2


def test_large_dimension_smoke():
    # an n-by-n allocation at this size would be 3 GB; finishing quickly is
    # evidence the production path stays O(m n)
    prob = sphere(20000)
    res = t.minimize(prob, prob.x0)
    assert res.status == STATUS_CONVERGED
    assert res.total_steps < 50
