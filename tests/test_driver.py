import importlib.util
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

import trlbfgs as t
import trlbfgs.driver as driver
from trlbfgs.denseinit import GAMMA0_PERP
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

import fingerprint
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
    inv = t.build_inverse(buf, gamma, gamma_perp)
    g = 1e-8 * rng.standard_normal(12)

    def no_factors():
        raise AssertionError("the full step needs no spectral factorization")

    choice = t.step_selection(buf, no_factors, inv, g, buf.vt_dot(g), float(g @ g), 1.0, gamma_perp)
    assert choice.used_unconstrained
    assert choice.model_value < 0
    assert choice.full_norm == pytest.approx(np.linalg.norm(choice.p_star), rel=1e-12)


def test_step_selection_constrained_when_radius_shrinks():
    rng = np.random.default_rng(52)
    buf = fill_buffer(rng, 12, 3)
    gamma, gamma_perp = 1.5, 2.0
    fac = t.factorize(buf, gamma)
    g = rng.standard_normal(12)
    inv = t.build_inverse(buf, gamma, gamma_perp)
    u, gg = buf.vt_dot(g), float(g @ g)
    pu_norm = t.unconstrained_norm(inv, gg, u, inv.M_hat @ u)
    delta = 1e-3 * pu_norm
    choice = t.step_selection(buf, lambda: fac, inv, g, u, gg, delta, gamma_perp)
    assert not choice.used_unconstrained
    assert choice.full_norm == pu_norm
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
    # Each call is tagged with the number of pairs stored so far, which
    # names the pair state it works on.  The compact inverse is built once
    # for every state a step is taken in; the spectral factorization at most
    # once per state, and only where a constrained step or a norm needs it.
    pushes = 0
    states = {"step_selection": [], "factorize": [], "build_inverse": []}
    real_push = t.PairBuffer.try_push

    def counting_push(self, s, y):
        nonlocal pushes
        stored = real_push(self, s, y)
        pushes += stored
        return stored

    def recording(name):
        original = getattr(driver, name)

        def wrapper(*args, **kwargs):
            states[name].append(pushes)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(t.PairBuffer, "try_push", counting_push)
    for name in states:
        monkeypatch.setattr(driver, name, recording(name))
    prob = t.get("ext_powell", 40)
    res = t.minimize(prob, prob.x0)
    assert res.status == STATUS_CONVERGED
    assert res.iterations < res.total_steps  # some steps were rejected
    assert states["build_inverse"] == sorted(set(states["step_selection"]))
    assert len(states["build_inverse"]) < res.total_steps
    assert len(set(states["factorize"])) == len(states["factorize"])
    assert set(states["factorize"]) <= set(states["build_inverse"])
    assert 0 < len(states["factorize"]) < len(states["build_inverse"])


def test_v_transpose_g_is_formed_once_per_gradient_and_buffer_state(monkeypatch):
    # g and the pairs change only when a step is accepted, so a rejected
    # step reuses V^T g; the only other product is sc_norm's, once per step.
    vt_dots = 0
    real_vt_dot = t.PairBuffer.vt_dot

    def counting_vt_dot(self, x):
        nonlocal vt_dots
        vt_dots += 1
        return real_vt_dot(self, x)

    gradients = []  # held, so that no two states share an id
    real_select = driver.step_selection

    def recording_select(buffer, factors, inv, g, *args, **kwargs):
        gradients.append(g)
        return real_select(buffer, factors, inv, g, *args, **kwargs)

    norms_with_basis = 0
    real_sc_norm = driver.sc_norm

    def counting_sc_norm(p, fac, buffer):
        nonlocal norms_with_basis
        norms_with_basis += fac.rank > 0  # at rank 0 sc_norm needs no V^T p
        return real_sc_norm(p, fac, buffer)

    monkeypatch.setattr(t.PairBuffer, "vt_dot", counting_vt_dot)
    monkeypatch.setattr(driver, "step_selection", recording_select)
    monkeypatch.setattr(driver, "sc_norm", counting_sc_norm)
    prob = t.get("ext_powell", 40)
    res = t.minimize(prob, prob.x0)
    assert res.status == STATUS_CONVERGED
    assert res.iterations < res.total_steps == len(gradients)
    states = len({id(g) for g in gradients})
    assert states < res.total_steps
    assert vt_dots == states + norms_with_basis


@pytest.mark.parametrize("n", [20, 200])
@pytest.mark.parametrize("conventional", [False, True], ids=["dense", "conventional"])
def test_a_full_step_norm_is_skipped_only_where_it_leaves_the_radius(monkeypatch, conventional, n):
    # A full step's shape-changing norm is taken only when the radius
    # update can read it: rho < TAU2, or rho >= TAU3 with the two-norm from
    # the cheap test at least ETA3*delta.  A trace takes every norm, so
    # each step the rule skips can be checked with its real norm.
    full_norms = []
    real_select = driver.step_selection

    def recording_select(*args, **kwargs):
        choice = real_select(*args, **kwargs)
        full_norms.append(choice.full_norm)
        return choice

    monkeypatch.setattr(driver, "step_selection", recording_select)
    skipped = 0
    for name in t.PROBLEM_NAMES:
        full_norms.clear()
        prob = t.get(name, n)
        res = t.minimize(prob, prob.x0, t.SolverConfig(conventional=conventional, keep_trace=True))
        assert res.status == STATUS_CONVERGED
        assert len(res.trace) == len(full_norms) == res.total_steps
        for rec, full_norm in zip(res.trace, full_norms):
            if rec.step_type != "unconstrained":
                continue
            # ||p||_sc <= ||p||_2, up to round-off.
            assert rec.step_norm <= full_norm * (1.0 + 1e-12)
            if not (rec.rho < TAU2 or (rec.rho >= TAU3 and full_norm >= ETA3 * rec.delta)):
                skipped += 1
                assert t.radius_update(rec.rho, rec.step_norm, rec.delta) == rec.delta
    assert skipped > 0


def test_accepted_trial_point_is_the_iterate_its_gradient_is_taken_at():
    # eval_g at an accepted step sees the very array eval_f just saw: x + p
    # is formed once per step and becomes x.
    prob = t.get("ext_rosenbrock", 20)
    last_f_arg = []
    same = []

    def f(x):
        last_f_arg[:] = [x]
        return prob.eval_f(x)

    def g(x):
        same.append(x is last_f_arg[0])
        return prob.eval_g(x)

    res = t.minimize(t.Problem("tracked", prob.n, f, g, prob.x0), prob.x0)
    assert res.status == STATUS_CONVERGED and res.iterations > 0
    assert len(same) == res.g_evals and all(same)


def test_no_trial_point_outlives_its_step(monkeypatch):
    # When a step is selected, the current iterate is the only earlier
    # argument of eval_f still alive.  A rejected trial point or the seed
    # point kept any longer would add an n-vector to the peak memory.
    prob = t.get("ext_powell", 40)
    f_args = []
    most_alive = 0
    real_select = driver.step_selection

    def f(x):
        f_args.append(weakref.ref(x))
        return prob.eval_f(x)

    def counting_select(*args, **kwargs):
        nonlocal most_alive
        most_alive = max(most_alive, sum(ref() is not None for ref in f_args))
        return real_select(*args, **kwargs)

    monkeypatch.setattr(driver, "step_selection", counting_select)
    res = t.minimize(t.Problem("tracked", prob.n, f, prob.eval_g, prob.x0), prob.x0)
    assert res.status == STATUS_CONVERGED
    assert res.iterations < res.total_steps  # some trial points were rejected
    assert most_alive == 1


def test_step_selection_reuses_u_and_gg_bitwise():
    # The driver passes one u = V^T g and gg = g^T g to every step at the
    # same iterate, with the radius shrinking after each rejection.  Each
    # step must equal one computed from freshly formed u and gg, and u must
    # come back unchanged.
    rng = np.random.default_rng(53)
    buf = fill_buffer(rng, 12, 3)
    gamma, gamma_perp = 1.5, 2.0
    fac = t.factorize(buf, gamma)
    inv = t.build_inverse(buf, gamma, gamma_perp)
    g = rng.standard_normal(12)
    u, gg = buf.vt_dot(g), float(g @ g)
    u_bytes = u.tobytes()
    pu_norm = t.unconstrained_norm(inv, gg, u, inv.M_hat @ u)
    kinds = set()
    for delta in 4.0 * pu_norm * 0.25 ** np.arange(8):
        reused = t.step_selection(buf, lambda: fac, inv, g, u, gg, delta, gamma_perp)
        fresh = t.step_selection(buf, lambda: fac, inv, g, buf.vt_dot(g), float(g @ g), delta, gamma_perp)
        assert reused.p_star.tobytes() == fresh.p_star.tobytes()
        assert reused[1:] == fresh[1:]
        kinds.add(reused.used_unconstrained)
    assert kinds == {True, False}
    assert u.tobytes() == u_bytes


def test_fingerprint_sweep_prints_identical_lines_twice(capsys):
    # The registry at n = 20 under every spec of the reference sweep; the
    # full sweep (n up to 10^6) is run by hand to compare two checkouts.
    # The second sweep keeps a trace, which takes the shape-changing norm
    # of every step and so the factorization of every pair state; the
    # results must not move.
    args = ["--sizes", "20", "--no-large"]
    fingerprint.main(args)
    first = capsys.readouterr().out.splitlines()
    fingerprint.main(args + ["--keep-trace"])
    assert capsys.readouterr().out.splitlines() == first
    assert len(first) == len(t.PROBLEM_NAMES) * len(fingerprint.SPECS) == 44
    assert all(len(line.split()) == 13 for line in first)


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


@pytest.mark.parametrize("conventional", [False, True], ids=["dense", "conventional"])
def test_steps_before_the_first_stored_pair_use_the_fallback_scale(conventional):
    # The seed pair of sum(cos(x)) from x = 0.1 has negative curvature and is
    # rejected, so the first steps (3 of 8) are taken with no pair stored.
    n = 10
    prob = t.Problem(
        "cosines", n,
        lambda x: float(np.cos(x).sum()),
        lambda x: -np.sin(x),
        np.full(n, 0.1),
    )
    res = t.minimize(prob, prob.x0, t.SolverConfig(conventional=conventional, keep_trace=True))
    assert res.status == STATUS_CONVERGED
    assert np.abs(res.x_final - np.pi).max() <= 1e-12
    assert res.pair_rejections >= 1
    empty = [rec for rec in res.trace if rec.rank == 0]
    assert empty
    assert all(rec.gamma == rec.gamma_perp == GAMMA0_PERP for rec in empty)
    # max_gamma ranges over the stored pairs only, not over the fallback.
    assert res.max_gamma == max(rec.gamma for rec in res.trace if rec.rank > 0) < GAMMA0_PERP


def test_gamma_is_the_curvature_ratio_of_the_newest_pair(monkeypatch):
    checked = []
    real = driver.build_inverse

    def checking(buffer, gamma, gamma_perp):
        s, y = buffer.S[:, -1], buffer.Y[:, -1]
        checked.append(gamma == pytest.approx(float(y @ y) / float(s @ y), rel=1e-14))
        return real(buffer, gamma, gamma_perp)

    monkeypatch.setattr(driver, "build_inverse", checking)
    prob = t.get("ext_rosenbrock", 40)
    res = t.minimize(prob, prob.x0)
    assert res.status == STATUS_CONVERGED
    assert len(checked) > 1 and all(checked)


def test_gamma_perp_follows_the_running_max_of_gamma():
    # With c = 2 and lambda = 1, gamma_perp is 2*gamma_max, so every step
    # shows which maximum the run kept.
    prob = t.get("ext_rosenbrock", 40)
    res = t.minimize(prob, prob.x0, t.SolverConfig(c=2.0, lam=1.0, keep_trace=True))
    assert res.status == STATUS_CONVERGED
    gamma_max = 0.0
    below_max = 0
    for rec in res.trace:
        gamma_max = max(gamma_max, rec.gamma)
        below_max += rec.gamma < gamma_max
        assert rec.gamma_perp == t.perp_scale(2.0, 1.0, rec.gamma, gamma_max)
    assert below_max > 0
    assert res.max_gamma == gamma_max


def test_config_validation():
    with pytest.raises(ValueError):
        t.SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        t.SolverConfig(c=0.2)
    with pytest.raises(ValueError):
        t.SolverConfig(lam=-0.1)
    with pytest.raises(ValueError):
        t.SolverConfig(lam=1.5)


@pytest.mark.parametrize(
    "field,value",
    [("epsilon", math.nan), ("epsilon", math.inf), ("c", math.nan), ("c", math.inf), ("lam", math.nan)],
)
def test_config_rejects_non_finite_values(field, value):
    # epsilon=nan never lets the stop test pass, and c=nan makes every
    # gamma_perp NaN; neither may reach a solve.
    with pytest.raises(ValueError):
        t.SolverConfig(**{field: value})


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
