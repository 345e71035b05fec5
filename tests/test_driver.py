import dataclasses
import importlib.util
import math
import os
import re
import subprocess
import sys
import threading
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import trlbfgs as t
import trlbfgs.denseinit as denseinit
import trlbfgs.driver as driver
import trlbfgs.pairs as pairs
import trlbfgs.spectral as spectral
from trlbfgs.bench import parse_solver_spec
from trlbfgs.driver import (
    ETA1,
    ETA2,
    ETA3,
    ETA4,
    GAMMA0_PERP,
    MAX_HALVINGS,
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
    )


def force_overlap(monkeypatch):
    """Compute f on a second thread while g is formed at every trial point."""
    monkeypatch.setattr(pairs, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(driver, "OVERLAP_MIN_S", 0.0)


def record_choices(monkeypatch) -> list:
    """The StepChoice of every trial step the driver takes, in order."""
    choices = []
    real_select = driver.step_selection

    def recording_select(*args, **kwargs):
        choices.append(real_select(*args, **kwargs))
        return choices[-1]

    monkeypatch.setattr(driver, "step_selection", recording_select)
    return choices


def force_threads(monkeypatch):
    """Split every pass over the pairs as well."""
    force_overlap(monkeypatch)
    monkeypatch.setattr(pairs, "SPLIT_MIN_N", 1)


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


@pytest.mark.parametrize("shape", [(), (1, 1), (2, 2)])
def test_a_start_that_is_not_one_dimensional_is_rejected_before_any_evaluation(shape):
    # A 0-d start used to fail inside the solve in matmul, and a 2-d one
    # with a TypeError from converting an array to a scalar.
    def never(x):
        pytest.fail("a rejected start was evaluated")

    prob = t.Problem("never", math.prod(shape), never, never, np.ones(shape))
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        t.minimize(prob, prob.x0)


@pytest.mark.parametrize("x0", [[1.0, -2.0, 3.0], np.array([1, -2, 3])], ids=["list", "integer"])
def test_a_one_dimensional_list_or_integer_start_still_solves(x0):
    res = t.minimize(sphere(3), x0)
    assert res.status == STATUS_CONVERGED
    assert np.linalg.norm(res.x_final) <= 1e-9


def test_trust_region_constants_are_ordered():
    assert 0 <= TAU1 < TAU2 < 0.5 < TAU3 < 1
    assert 0 < ETA1 < ETA2 <= 0.5 < ETA3 < 1 < ETA4


def test_radius_update_case_table():
    rng = np.random.default_rng(50)
    for _ in range(500):
        rho = float(rng.uniform(-1.5, 2.0))
        snorm = float(rng.uniform(0.0, 3.0))
        delta = float(rng.uniform(1e-3, 2.0))
        new = driver.radius_update(rho, snorm, delta)
        if rho < TAU2:
            assert new == min(ETA1 * delta, ETA2 * snorm)
            assert new <= ETA1 * delta and new <= ETA2 * snorm
        elif rho >= TAU3 and snorm >= ETA3 * delta:
            assert new == ETA4 * delta
        else:
            assert new == delta


def test_rejected_step_shrinks_by_trial_norm():
    # rho below tau2: radius becomes min(eta1*delta, eta2*||s||)
    assert driver.radius_update(-0.5, 0.1, 1.0) == pytest.approx(min(0.25, 0.05))
    assert driver.radius_update(0.1, 2.0, 1.0) == pytest.approx(0.25)


def test_trace_radius_sequence_is_consistent(monkeypatch):
    # Each radius follows the rule of the driver's module docstring from
    # the step before it, bit for bit: the step's StepChoice.norm where the
    # rule picks it (every constrained step, and a full step whose two-norm
    # decides the radius), else its measured norm.
    choices = record_choices(monkeypatch)
    prob = t.get("tridia", 30)
    cfg = t.SolverConfig(keep_trace=True, max_iter=200)
    res = t.minimize(prob, prob.x0, cfg)
    assert len(choices) == len(res.trace)
    seen = set()  # (step type, picked) of the steps checked
    for prev, cur, choice in zip(res.trace, res.trace[1:], choices):
        rho, delta = prev.rho, prev.delta
        decides = TAU2 <= rho < TAU3 or (rho >= TAU3 and choice.norm < ETA3 * delta)
        picked = not choice.used_unconstrained or decides
        assert cur.delta == driver.radius_update(rho, choice.norm if picked else prev.step_norm, delta)
        seen.add((prev.step_type, picked))
    assert {("constrained", True), ("unconstrained", True), ("unconstrained", False)} <= seen


def test_step_selection_unconstrained_for_tiny_gradient():
    rng = np.random.default_rng(51)
    buf = fill_buffer(rng, 12, 3)
    gamma, gamma_perp = 1.5, 2.0
    inv = denseinit.build_inverse(buf, gamma, gamma_perp)
    g = 1e-8 * rng.standard_normal(12)

    def no_factors():
        raise AssertionError("the full step needs no spectral factorization")

    choice = driver.step_selection(buf, no_factors, inv, g, buf.vt_dot(g), float(g @ g), 1.0)
    assert choice.used_unconstrained
    assert choice.model_value < 0
    assert choice.norm == pytest.approx(np.linalg.norm(choice.p_star), rel=1e-12)


def test_step_selection_constrained_when_radius_shrinks():
    rng = np.random.default_rng(52)
    buf = fill_buffer(rng, 12, 3)
    gamma, gamma_perp = 1.5, 2.0
    fac = spectral.factorize(buf, gamma)
    g = rng.standard_normal(12)
    inv = denseinit.build_inverse(buf, gamma, gamma_perp)
    u, gg = buf.vt_dot(g), float(g @ g)
    pu_norm = denseinit.unconstrained_norm(inv, gg, u, inv.M_hat @ u)
    delta = 1e-3 * pu_norm
    choice = driver.step_selection(buf, lambda: fac, inv, g, u, gg, delta)
    assert not choice.used_unconstrained
    # feasibility plus boundary activity in at least one block
    snorm = spectral.sc_norm(choice.p_star, fac, buf)
    assert snorm <= delta + 1e-10
    assert snorm == pytest.approx(delta, rel=1e-9)
    # The closed form max(||v_par||_inf, |beta| ||g_perp||) is on the boundary.
    assert choice.norm == pytest.approx(delta, rel=1e-14)


def test_step_selection_with_no_pair_stored_takes_the_scaled_identity_step():
    # With no pair stored B is GAMMA0_PERP*I: the full step -g/GAMMA0_PERP
    # when it fits, else the steepest-descent step to the boundary.
    buf = pairs.PairBuffer(6, 3)
    g = np.array([0.3, -1.2, 0.5, 2.0, -0.7, 0.1])
    gg = float(g @ g)
    g_norm = float(np.linalg.norm(g))

    def no_factors():
        raise AssertionError("with no pair stored there is nothing to factorize")

    full_norm = g_norm / GAMMA0_PERP
    for delta in (2.0 * full_norm, full_norm, 0.5 * full_norm, 1e-3):
        choice = driver.step_selection(buf, no_factors, None, g, buf.vt_dot(g), gg, delta)
        fits = full_norm <= delta
        expected = -g / GAMMA0_PERP if fits else (-delta / g_norm) * g
        assert choice.p_star.tobytes() == expected.tobytes()
        assert choice.used_unconstrained == fits
        assert choice.norm == (full_norm if fits else pytest.approx(delta, rel=1e-15))
        p = choice.p_star
        assert choice.model_value == pytest.approx(g @ p + 0.5 * GAMMA0_PERP * (p @ p), rel=1e-14)


def test_conventional_is_an_alias_for_lambda_zero():
    # lam = 0 makes gamma_perp equal gamma, so the conventional method is
    # one point of the two-scale family and the alias stores nothing.
    assert t.SolverConfig(conventional=True) == t.SolverConfig(lam=0.0)
    fields = [f.name for f in dataclasses.fields(t.SolverConfig)]
    assert fields == ["m", "epsilon", "c", "lam", "max_iter", "keep_trace"]
    configs = [t.SolverConfig(**parse_solver_spec(spec)[1]) for spec in ("conventional", "dense:lambda=0")]
    assert configs[0] == configs[1] == t.SolverConfig(lam=0.0)


def test_small_matrices_refresh_once_per_accepted_pair(monkeypatch):
    # Each call is tagged with the number of pairs stored so far, which
    # names the pair state it works on.  The compact inverse is built once
    # for every state a step is taken in; the spectral factorization at most
    # once per state, and only where a constrained step or a norm needs it.
    pushes = 0
    states = {"step_selection": [], "factorize": [], "build_inverse": []}
    real_push = pairs.PairBuffer.try_push

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

    monkeypatch.setattr(pairs.PairBuffer, "try_push", counting_push)
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
    real_vt_dot = pairs.PairBuffer.vt_dot

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

    monkeypatch.setattr(pairs.PairBuffer, "vt_dot", counting_vt_dot)
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
    # the cheap test at least ETA3*delta.  A constrained step's radius reads
    # its closed form, so its norm is never taken without a trace.  A trace
    # takes every norm, so each full step the rule skips can be checked with
    # its real norm, and the same solve without a trace must measure exactly
    # the norms the rule keeps.
    choices = record_choices(monkeypatch)
    measured = []  # the index of the step each sc_norm call measured
    real_sc_norm = driver.sc_norm

    def counting_sc_norm(*args):
        measured.append(len(choices) - 1)
        return real_sc_norm(*args)

    monkeypatch.setattr(driver, "sc_norm", counting_sc_norm)
    skipped = constrained = 0
    for name in t.PROBLEM_NAMES:
        choices.clear()
        prob = t.get(name, n)
        res = t.minimize(prob, prob.x0, t.SolverConfig(conventional=conventional, keep_trace=True))
        assert res.status == STATUS_CONVERGED
        assert len(res.trace) == len(choices) == res.total_steps
        kept = []  # steps left to sc_norm; rank 0 marks a step with no pair stored
        for k, (rec, choice) in enumerate(zip(res.trace, choices)):
            norm = choice.norm
            if rec.step_type != "unconstrained":
                constrained += 1
                continue
            # ||p||_sc <= ||p||_2, up to round-off.
            assert rec.step_norm <= norm * (1.0 + 1e-12)
            if not (rec.rho < TAU2 or (rec.rho >= TAU3 and norm >= ETA3 * rec.delta)):
                skipped += 1
                assert driver.radius_update(rec.rho, rec.step_norm, rec.delta) == rec.delta
            elif rec.rank > 0:
                kept.append(k)
        choices.clear()
        measured.clear()
        untraced = t.minimize(prob, prob.x0, t.SolverConfig(conventional=conventional))
        assert untraced.total_steps == res.total_steps
        assert all(choices[k].used_unconstrained for k in measured)
        assert measured == kept
    assert skipped > 0
    assert constrained > 0


@pytest.mark.parametrize(
    "spec,solves",
    [(spec, [(name, 20) for name in t.PROBLEM_NAMES]) for spec in fingerprint.SPECS]
    + [("dense:c=2,lambda=1", [("ext_powell", 1000)])],
    ids=[*fingerprint.SPECS, "dense:c=2,lambda=1-ext_powell-1000"],
)
def test_a_constrained_step_radius_reads_its_closed_form_norm(monkeypatch, spec, solves):
    # The radius after a constrained step is radius_update(rho, norm, delta)
    # with the step's closed form, bit for bit, also under a trace, which
    # measures the norm as well.  ext_powell at n = 1000 holds a step
    # (rho < TAU2, norm about 0.48*delta) whose closed form and measured
    # norm differ in their low bits.
    choices = record_choices(monkeypatch)
    _, overrides = parse_solver_spec(spec)
    constrained = 0
    for name, n in solves:
        choices.clear()
        prob = t.get(name, n)
        res = t.minimize(prob, prob.x0, t.SolverConfig(**overrides, keep_trace=True))
        assert res.status == STATUS_CONVERGED
        assert len(res.trace) == len(choices) == res.total_steps
        for rec, following, choice in zip(res.trace, res.trace[1:], choices):
            if rec.step_type == "constrained":
                constrained += 1
                assert following.delta == driver.radius_update(rec.rho, choice.norm, rec.delta)
    assert constrained > 0


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


def _most_alive_at_step_selection(monkeypatch, overlap):
    """Solve ext_powell at n = 40; the most earlier arguments of eval_f and
    values of eval_g alive when a step is selected, and the eval_g calls."""
    prob = t.get("ext_powell", 40)
    f_args = []
    g_values = []
    most_alive = [0, 0]
    real_select = driver.step_selection

    def f(x):
        f_args.append(weakref.ref(x))
        return prob.eval_f(x)

    def g(x):
        out = prob.eval_g(x)
        g_values.append(weakref.ref(out))
        return out

    def counting_select(*args, **kwargs):
        for i, refs in enumerate((f_args, g_values)):
            most_alive[i] = max(most_alive[i], sum(ref() is not None for ref in refs))
        return real_select(*args, **kwargs)

    monkeypatch.setattr(driver, "step_selection", counting_select)
    if overlap:
        force_overlap(monkeypatch)
    res = t.minimize(t.Problem("tracked", prob.n, f, g, prob.x0), prob.x0)
    assert res.status == STATUS_CONVERGED
    assert res.iterations < res.total_steps  # some trial points were rejected
    return most_alive, len(g_values), res


def test_no_trial_point_outlives_its_step(monkeypatch):
    # When a step is selected, the current iterate is the only earlier
    # argument of eval_f still alive.  A rejected trial point or the seed
    # point kept any longer would add an n-vector to the peak memory.
    most_alive, g_calls, res = _most_alive_at_step_selection(monkeypatch, overlap=False)
    assert most_alive == [1, 1] and g_calls == res.g_evals


def test_no_gradient_formed_beside_f_outlives_its_step(monkeypatch):
    # With f beside g, g is formed at every trial point; a gradient formed
    # at a rejected one kept any longer would add an n-vector too.
    most_alive, g_calls, res = _most_alive_at_step_selection(monkeypatch, overlap=True)
    assert most_alive == [1, 1] and g_calls == 2 + res.total_steps


def test_step_selection_reuses_u_and_gg_bitwise():
    # The driver passes one u = V^T g and gg = g^T g to every step at the
    # same iterate, with the radius shrinking after each rejection.  Each
    # step must equal one computed from freshly formed u and gg, and u must
    # come back unchanged.
    rng = np.random.default_rng(53)
    buf = fill_buffer(rng, 12, 3)
    gamma, gamma_perp = 1.5, 2.0
    fac = spectral.factorize(buf, gamma)
    inv = denseinit.build_inverse(buf, gamma, gamma_perp)
    g = rng.standard_normal(12)
    u, gg = buf.vt_dot(g), float(g @ g)
    u_bytes = u.tobytes()
    pu_norm = denseinit.unconstrained_norm(inv, gg, u, inv.M_hat @ u)
    kinds = set()
    for delta in 4.0 * pu_norm * 0.25 ** np.arange(8):
        reused = driver.step_selection(buf, lambda: fac, inv, g, u, gg, delta)
        fresh = driver.step_selection(buf, lambda: fac, inv, g, buf.vt_dot(g), float(g @ g), delta)
        assert reused.p_star.tobytes() == fresh.p_star.tobytes()
        assert reused[1:] == fresh[1:]
        kinds.add(reused.used_unconstrained)
    assert kinds == {True, False}
    assert u.tobytes() == u_bytes


def test_fingerprint_sweep_prints_identical_lines_twice(capsys, monkeypatch):
    # The registry at n = 20 under every spec of the reference sweep; the
    # full sweep (n up to 10^6) is run by hand to compare two checkouts.
    # The second sweep keeps a trace, which takes the shape-changing norm
    # of every step and so the factorization of every pair state; the
    # results must not move, and each is followed by its trace's hash.  The
    # third splits every pass over the pairs across two threads and
    # computes f on a second thread while g is formed, which must move
    # neither the results, their evaluation counts nor the traces; the
    # threads that ran f and the S halves show that both were handed off.
    args = ["--sizes", "20", "--no-large"]
    fingerprint.main(args)
    first = capsys.readouterr().out.splitlines()
    fingerprint.main(args + ["--keep-trace"])
    traced = capsys.readouterr().out.splitlines()
    assert traced[0::2] == first
    assert all(line.startswith("trace ") and len(line.split()) == 3 for line in traced[1::2])
    force_threads(monkeypatch)
    ran = {"f": set(), "S": set()}
    for module, what in ((driver, "f"), (pairs, "S")):
        def spy(worker, a, b, real=module.concurrently, threads=ran[what]):
            return real(worker, lambda: threads.add(threading.current_thread()) or a(), b)

        monkeypatch.setattr(module, "concurrently", spy)
    fingerprint.main(args + ["--keep-trace"])
    assert capsys.readouterr().out.splitlines() == traced
    here = threading.current_thread()
    assert ran["f"] and ran["S"] and here not in ran["f"] | ran["S"]
    assert len(first) == (len(t.PROBLEM_NAMES) + len(fingerprint.COSINE_STARTS)) * len(fingerprint.SPECS) == 45
    assert len(traced) == 2 * len(first)
    assert all(len(line.split()) == 13 for line in first)


@pytest.mark.parametrize(
    "threads,code",
    [({}, 2), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "1"}, 0)],
    ids=["unset", "two", "one"],
)
def test_fingerprint_script_runs_only_with_one_blas_thread(threads, code):
    # Step counts move with the BLAS thread count, so run as a script the
    # sweep refuses to print a fingerprint that another host could not match.
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(t.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, fingerprint.__file__, "--sizes", "20", "--no-large"],
        capture_output=True,
        text=True,
        env={**env, **threads},
        timeout=300,
    )
    assert proc.returncode == code
    if code:
        assert "OPENBLAS_NUM_THREADS=1" in proc.stderr and proc.stdout == ""
    else:
        assert len(proc.stdout.splitlines()) == (len(t.PROBLEM_NAMES) + len(fingerprint.COSINE_STARTS)) * len(fingerprint.SPECS)


@pytest.mark.parametrize(
    "raises", ["", "pairs", "f", "g"], ids=["returns", "raises", "f_raises_on_the_worker", "g_raises_on_the_caller"]
)
def test_no_thread_outlives_a_split_solve(monkeypatch, raises):
    force_threads(monkeypatch)
    real_dot = np.dot
    calls = [0]
    f_threads = []
    dot_threads = set()

    def dot(*args, **kwargs):
        calls[0] += 1
        dot_threads.add(threading.current_thread())
        if raises == "pairs" and calls[0] > 40:
            raise FloatingPointError("a pass over the pairs fails")
        return real_dot(*args, **kwargs)

    monkeypatch.setattr(pairs.np, "dot", dot)
    base = t.get("ext_rosenbrock", 20)

    def f(x):
        f_threads.append(threading.current_thread())
        if raises == "f" and len(f_threads) > 10:
            raise FloatingPointError("f fails on the worker")
        return base.eval_f(x)

    g_threads = []

    def g(x):
        g_threads.append(threading.current_thread())
        # Raised at the first accepted step after the 10th gradient.
        if raises == "g" and len(g_threads) > 10:
            raise FloatingPointError("g fails on the caller")
        return base.eval_g(x)

    prob = t.Problem("tracked", base.n, f, g, base.x0)
    start = threading.active_count()
    if raises:
        with pytest.raises(FloatingPointError, match="fails"):
            t.minimize(prob, prob.x0)
    else:
        assert t.minimize(prob, prob.x0).status == STATUS_CONVERGED
    assert calls[0] > 40
    assert threading.active_count() == start
    # f(x0) and the seed search run here, every trial point's f on the
    # worker, and one worker serves every handoff of the solve.
    here = threading.current_thread()
    assert f_threads[0] is here and f_threads[-1] is not here
    workers = {thread for thread in f_threads if thread is not here}
    assert len(workers) == 1 and dot_threads == workers | {here}
    assert set(g_threads) == {here}
    (worker,) = workers
    assert not worker.is_alive()


def test_a_solve_with_one_usable_cpu_builds_no_worker(monkeypatch):
    # Every pass would split and f would move to a worker, had the solve one.
    base = t.get("ext_rosenbrock", 20)
    serial = t.minimize(base, base.x0)
    force_threads(monkeypatch)
    monkeypatch.setattr(pairs, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(driver, "Worker", lambda *_, **__: pytest.fail("a worker was built"))
    _assert_same_solve(serial, t.minimize(base, base.x0))


def test_a_solve_that_never_hands_off_starts_no_thread(monkeypatch):
    # Two usable CPUs give the solve a worker, but n = 1000 is below
    # SPLIT_MIN_N and f and g cost nothing on a clock that never moves, so
    # no handoff is made and the worker's thread is never started.
    base = t.get("ext_rosenbrock", 1000)
    serial = t.minimize(base, base.x0)
    monkeypatch.setattr(pairs, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(driver, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    monkeypatch.setattr(threading, "Thread", lambda *_, **__: pytest.fail("a thread was started"))
    built = []
    monkeypatch.setattr(driver, "Worker", lambda: built.append(pairs.Worker()) or built[-1])
    _assert_same_solve(serial, t.minimize(base, base.x0))
    assert len(built) == 1 and serial.total_steps > 0


def _assert_same_solve(a, b):
    assert a.x_final.tobytes() == b.x_final.tobytes()
    assert (a.status, a.total_steps, a.iterations, a.f_final, a.f_evals, a.g_evals) == (
        b.status, b.total_steps, b.iterations, b.f_final, b.f_evals, b.g_evals
    )
    assert a.trace == b.trace


def test_overlapped_solve_counts_only_the_gradients_it_uses(monkeypatch):
    # With f beside g, g is formed at every trial point, rejected ones too,
    # but g_evals counts only those the method used, as the serial run does.
    base = t.get("ext_powell", 40)
    g_calls = []
    prob = t.Problem("counted", base.n, base.eval_f, lambda x: g_calls.append(x) or base.eval_g(x), base.x0)
    config = t.SolverConfig(keep_trace=True)
    serial = t.minimize(prob, prob.x0, config)
    assert len(g_calls) == serial.g_evals
    assert serial.iterations < serial.total_steps  # some trial points were rejected
    g_calls.clear()
    force_overlap(monkeypatch)
    overlapped = t.minimize(prob, prob.x0, config)
    _assert_same_solve(serial, overlapped)
    # g(x0), g at the seed point, then one per trial step.
    assert len(g_calls) == 2 + overlapped.total_steps > overlapped.g_evals


def test_a_gradient_that_raises_counts_only_where_its_step_is_accepted(monkeypatch):
    # At a rejected trial point the serial run never forms g, so its
    # exception is dropped; at an accepted one it reaches the caller.
    base = t.get("ext_powell", 40)
    config = t.SolverConfig(keep_trace=True)
    serial = t.minimize(base, base.x0, config)
    rejected = next(r.k for r in serial.trace if not r.accepted)
    accepted = next(r.k for r in serial.trace if r.accepted and r.k > rejected)
    force_overlap(monkeypatch)
    for k in (rejected, accepted):
        calls = [0]

        def g(x, k=k):
            calls[0] += 1
            # g(x0) and g at the seed point come first, then one per trial step.
            if calls[0] == 2 + k:
                raise FloatingPointError(f"g fails at step {k}")
            return base.eval_g(x)

        prob = t.Problem("raising", base.n, base.eval_f, g, base.x0)
        if k == rejected:
            _assert_same_solve(serial, t.minimize(prob, prob.x0, config))
        else:
            with pytest.raises(FloatingPointError, match=f"step {k}"):
                t.minimize(prob, prob.x0, config)


def test_a_non_finite_f_drops_the_gradient_and_its_exception(monkeypatch):
    def f(x):
        return float("nan") if x[0] > 5.0 else float((x[0] - 10.0) ** 2)

    def g(x):
        if x[0] > 5.0:
            raise FloatingPointError("g past the wall")
        return np.array([2.0 * (x[0] - 10.0)])

    prob = t.Problem("wall", 1, f, g, np.array([0.0]))
    serial = t.minimize(prob, prob.x0)
    force_overlap(monkeypatch)
    overlapped = t.minimize(prob, prob.x0)
    assert overlapped.status == STATUS_FAILED
    _assert_same_solve(serial, overlapped)


def test_the_callers_errstate_governs_f_on_the_worker(monkeypatch):
    # f overflows past the wall.  Under np.errstate(over="raise") the serial
    # run raises there, and so must the run that computes f on a worker.
    f_threads = []

    def f(x):
        f_threads.append(threading.current_thread())
        if x[0] > 5.0:
            return float(np.exp(np.array([1000.0]))[0])
        return float((x[0] - 10.0) ** 2)

    prob = t.Problem("overflow", 1, f, lambda x: np.array([2.0 * (x[0] - 10.0)]), np.array([0.0]))
    force_overlap(monkeypatch)
    with np.errstate(over="ignore"):
        assert t.minimize(prob, prob.x0).status == STATUS_FAILED  # f is inf past the wall
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        t.minimize(prob, prob.x0)
    assert f_threads[-1] is not threading.current_thread()


@pytest.mark.parametrize(
    "f_cost,g_cost,cpus,overlaps",
    [(1.0, 1.0, 2, True), (0.99, 5.0, 2, False), (5.0, 0.99, 2, False), (5.0, 5.0, 1, False), (0.0, 0.0, 2, False)],
    ids=["both_at_the_constant", "f_cheaper", "g_cheaper", "one_cpu", "both_free"],
)
def test_f_moves_to_a_worker_only_when_both_evaluations_at_x0_cost_a_thread(monkeypatch, f_cost, g_cost, cpus, overlaps):
    # A fake clock that only the evaluations advance, in units of the
    # constant, so the rule is tested without timing anything.
    clock = [0.0]
    base = t.get("ext_rosenbrock", 20)

    def costing(cost, fn):
        def evaluate(x):
            clock[0] += cost * driver.OVERLAP_MIN_S
            return fn(x)

        return evaluate

    prob = t.Problem("costed", base.n, costing(f_cost, base.eval_f), costing(g_cost, base.eval_g), base.x0)
    serial = t.minimize(base, base.x0)
    monkeypatch.setattr(driver, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(pairs, "_usable_cpus", lambda: cpus)
    if not overlaps:
        monkeypatch.setattr(threading, "Thread", lambda *_, **__: pytest.fail("f moved to a worker"))
    overlapped = []
    real = driver.concurrently
    monkeypatch.setattr(driver, "concurrently", lambda worker, a, b: overlapped.append(1) or real(worker, a, b))
    _assert_same_solve(serial, t.minimize(prob, prob.x0))
    assert len(overlapped) == (serial.total_steps if overlaps else 0)


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
    step = driver.initial_point_step(prob, x0, prob.eval_f(x0), prob.eval_g(x0))
    # t = 1 along -g/||g|| lands at the origin
    assert np.abs(step.x1).max() <= 1e-15
    assert step.f_evals == 1


def test_initial_step_halves_on_cliff():
    def f(x):
        return float(x[0] ** 2 + 10.0 * x[0] ** 4)

    def g(x):
        return np.array([2.0 * x[0] + 40.0 * x[0] ** 3])

    prob = t.Problem("cliff", 1, f, g, np.array([0.5]))
    step = driver.initial_point_step(prob, prob.x0, prob.eval_f(prob.x0), prob.eval_g(prob.x0))
    assert step.f_evals == 2  # t = 1 fails (even function), t = 1/2 lands at 0
    assert abs(step.x1[0]) <= 1e-15


def test_initial_step_rejects_zero_gradient():
    with pytest.raises(ValueError):
        driver.initial_point_step(sphere(3), np.zeros(3), 0.0, np.zeros(3))


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
    # f at x0 and at each of the MAX_HALVINGS + 1 trial points; g at x0 only.
    assert (res.f_evals, res.g_evals) == (MAX_HALVINGS + 2, 1)


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

    # g is NaN at the point the initial search finds, so no pair is seeded
    # and the run ends at x0.
    def g_nan_past_x0(x):
        return g(x) if x[0] == 0.0 else np.array([math.nan])

    prob = t.Problem("nan_seed_gradient", 1, f, g_nan_past_x0, np.array([0.0]))
    res = t.minimize(prob, prob.x0)
    assert res.status == STATUS_FAILED
    assert (res.x_final[0], res.f_final) == (0.0, 100.0)
    assert (res.iterations, res.total_steps, res.g_evals) == (0, 0, 2)


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
def test_steps_before_the_first_stored_pair_use_the_fallback_scale(monkeypatch, conventional):
    # The seed pair of sum(cos(x)) from x = 0.1 has negative curvature and is
    # rejected, so the first steps (3 of 8) are taken with no pair stored.
    # perp_scale runs once for each stored pair, on its gamma.
    scales = []  # (gamma, gamma_perp) of each stored pair
    real_perp_scale = driver.perp_scale

    def recording_perp_scale(c, lam, gamma, gamma_max):
        scales.append((gamma, real_perp_scale(c, lam, gamma, gamma_max)))
        return scales[-1][1]

    monkeypatch.setattr(driver, "perp_scale", recording_perp_scale)
    prob = fingerprint.cosine_sum(10, 0.1)
    res = t.minimize(prob, prob.x0, t.SolverConfig(conventional=conventional, keep_trace=True))
    assert res.status == STATUS_CONVERGED
    assert np.abs(res.x_final - np.pi).max() <= 1e-12
    assert res.pair_rejections >= 1
    empty = [rec for rec in res.trace if rec.rank == 0]
    assert empty
    assert all(rec.gamma == rec.gamma_perp == GAMMA0_PERP for rec in empty)
    assert {(rec.gamma, rec.gamma_perp) for rec in res.trace if rec.rank > 0} <= set(scales)
    # Both maxima range over the stored pairs, the last one included, and
    # not over the fallback.
    assert res.max_gamma == max(gamma for gamma, _ in scales) < GAMMA0_PERP
    assert res.max_gamma_perp == max(gamma_perp for _, gamma_perp in scales) < GAMMA0_PERP


def test_a_solve_that_stops_after_its_seed_step_reports_the_seed_pair():
    # From e1 the seed step lands on the minimizer of 0.5*||x||^2, so the
    # solve stops before its first trust-region step with one pair stored.
    prob = sphere(4)
    res = t.minimize(prob, np.eye(4)[0])
    assert res.status == STATUS_CONVERGED
    assert res.total_steps == res.iterations == res.pair_rejections == 0
    assert res.max_gamma == res.max_gamma_perp == 1.0


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
        assert rec.gamma_perp == denseinit.perp_scale(2.0, 1.0, rec.gamma, gamma_max)
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
    [("m", 2.5), ("m", math.nan), ("m", 0), ("m", True), ("max_iter", 7.5), ("max_iter", 0), ("max_iter", "8")],
)
def test_config_rejects_a_count_that_is_not_an_integer_of_at_least_one(field, value):
    # m = 2.5 used to run with m = 2 and max_iter = 7.5 with 8 steps;
    # m = nan failed only inside PairBuffer.
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
        t.SolverConfig(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = t.SolverConfig(m=np.int64(3), max_iter=np.int32(7))
    assert (cfg.m, cfg.max_iter) == (3, 7)


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
