"""Tests of the benchmark's own checks: a wrong answer must count as failed.

Run with ``python3 -m pytest solverbench`` from the root of the repository.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import references
import run
import workloads
from tracing import LAYERS, Tracer
from workloads import EPSILON, import_trlbfgs, solver_config

trlbfgs = import_trlbfgs()
N = 40


def _result(x, status="converged"):
    return SimpleNamespace(status=status, x_final=np.asarray(x, dtype=float))


def _exact(name, n):
    i = np.arange(1.0, n + 1.0)
    return {
        "quad_diag": np.zeros(n),
        "tridia": 2.0 ** (1.0 - i),
        "ext_rosenbrock": np.ones(n),
        "gen_rosenbrock": np.ones(n),
        "penalty": references._penalty_star(n),
        "broyden_tridiag": references._broyden_star(n),
        "arwhead": np.r_[np.ones(n - 1), 0.0],
        "ext_powell": np.zeros(n),
        "dqrtic": i / n,
    }[name]


@pytest.mark.parametrize(
    "name",
    ["quad_diag", "tridia", "ext_rosenbrock", "gen_rosenbrock", "penalty", "broyden_tridiag", "arwhead"],
)
def test_perturbed_minimizer_fails(name):
    problem = trlbfgs.get(name, N)
    x_star = _exact(name, N)
    assert np.allclose(problem.eval_g(x_star), 0.0, atol=1e-12)
    assert references.failures(problem, problem.x0, _result(x_star), EPSILON) == []
    wrong = x_star.copy()
    wrong[N // 2] += 1e-2
    assert references.failures(problem, problem.x0, _result(wrong), EPSILON)


@pytest.mark.parametrize("name", ["ext_powell", "dqrtic"])
def test_singular_problems_compare_f(name):
    problem = trlbfgs.get(name, N)
    x_star = _exact(name, N)
    assert references.failures(problem, problem.x0, _result(x_star), EPSILON) == []
    assert references.failures(problem, problem.x0, _result(x_star + 1e-2), EPSILON)


def test_status_other_than_converged_fails():
    problem = trlbfgs.get("quad_diag", N)
    reasons = references.failures(problem, problem.x0, _result(np.zeros(N), "max_iter"), EPSILON)
    assert reasons == ["status max_iter"]


def test_cosine_mixture_checks_each_coordinate():
    problem = trlbfgs.get("cosine_mixture", N)
    t = 0.37
    for _ in range(50):  # Newton on h(t) = 2t + 0.5 pi sin(5 pi t)
        t -= (2 * t + 0.5 * np.pi * np.sin(5 * np.pi * t)) / (2 + 2.5 * np.pi**2 * np.cos(5 * np.pi * t))
    x = np.full(N, t)
    assert abs(t - 0.3689) < 1e-4
    assert references.failures(problem, problem.x0, _result(x), EPSILON) == []
    x[3] += 1e-3
    assert references.failures(problem, problem.x0, _result(x), EPSILON)


def test_trigonometric_solve_passes_and_perturbed_fails():
    problem = trlbfgs.get("trigonometric", N)
    result = trlbfgs.minimize(problem, problem.x0, solver_config(trlbfgs, "dense"))
    assert references.failures(problem, problem.x0, result, EPSILON) == []
    result.x_final[0] += 1e-4
    assert references.failures(problem, problem.x0, result, EPSILON)


def test_summary_counts_wrong_answers_as_failed():
    outcome = {"solve": "dense/quad_diag", "status": "converged", "steps": 5, "iterations": 4}
    rounds = [
        {"seconds": 1.0, "traced": False, "outcomes": [{**outcome, "failures": []}, {**outcome, "failures": ["x off"]}]}
        for _ in range(3)
    ]
    summary = run.summarize({"rounds": rounds, "peak_rss_mb": 50.0}, [0.4, 0.5, 0.3], trace=0)
    assert (summary["correct"], summary["attempted"], summary["failed"]) == (True, 6, 3)
    assert summary["metrics"]["setup_s"]["value"] == 0.4
    assert summary["metrics"]["steps"]["value"] == 10

    rounds[1]["outcomes"][0] = {**outcome, "steps": 6, "failures": []}
    assert run.summarize({"rounds": rounds, "peak_rss_mb": 50.0}, [0.4], trace=0)["correct"] is False


def test_tracer_counts_every_layer_and_restores():
    originals = {name: getattr(trlbfgs.driver, name) for name in ("factorize", "build_inverse", "step_selection")}
    tracer = Tracer()
    problem = trlbfgs.get("ext_powell", N)
    with tracer.installed():
        result = trlbfgs.driver.minimize(tracer.wrap_problem(problem), problem.x0, solver_config(trlbfgs, "dense"))
    for name, fn in originals.items():
        assert getattr(trlbfgs.driver, name) is fn
    metrics = tracer.metrics(rounds=1)
    for layer, fns in LAYERS.items():
        for fn in fns:
            assert metrics[f"{layer}.{fn}.calls"][0] > 0, f"{layer}.{fn}"
    steps = metrics["driver.unconstrained_steps"][0] + metrics["driver.constrained_steps"][0]
    assert steps == result.total_steps
    assert metrics["driver.rejected_steps"][0] == result.total_steps - result.iterations
    assert metrics["pairs.rejected"][0] == result.pair_rejections
    inclusive = metrics["driver.minimize.us"][0] * 1e-6
    assert sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS) == pytest.approx(inclusive, rel=1e-9)


def test_tracer_reports_a_removed_function_with_zero_calls(monkeypatch):
    monkeypatch.delattr(trlbfgs.denseinit, "build_inverse")
    tracer = Tracer()
    problem = trlbfgs.get("quad_diag", N)
    with tracer.installed():
        trlbfgs.driver.minimize(tracer.wrap_problem(problem), problem.x0, solver_config(trlbfgs, "dense"))
    metrics = tracer.metrics(rounds=1)
    assert metrics["denseinit.build_inverse.calls"] == (0.0, "count")
    assert metrics["denseinit.build_inverse.us"] == (0.0, "us")
    assert metrics["spectral.factorize.calls"][0] > 0


def test_seed_orders_solves_and_perturbs_starts_only_when_asked():
    powell = trlbfgs.get("ext_powell", N)
    assert np.array_equal(workloads.starting_point(powell, 3, 0.0), powell.x0)
    assert np.array_equal(workloads.starting_point(powell, 0, 1e-3), powell.x0)
    moved = workloads.starting_point(powell, 3, 1e-3)
    nonzero = powell.x0 != 0
    scale = moved[nonzero] / powell.x0[nonzero]
    assert np.allclose(scale, scale[0]) and 0 < abs(scale[0] - 1) <= 1e-3
    assert np.array_equal(workloads.starting_point(powell, 3, 1e-3), moved)
    cosine = trlbfgs.get("cosine_mixture", N)
    assert np.array_equal(workloads.starting_point(cosine, 3, 1e-3), cosine.x0)

    registry = [s.label for s in workloads.build(trlbfgs, "registry-1k", 0, 0.0)]
    assert registry[:2] == ["dense/quad_diag", "conventional/quad_diag"] and len(registry) == 22
    shuffled = [s.label for s in workloads.build(trlbfgs, "registry-1k", 5, 0.0)]
    assert shuffled != registry and sorted(shuffled) == sorted(registry)
