"""Workload definitions: which problems are solved, from where, and how.

Every operation is one call to ``minimize`` from a registry starting point
with ``m = 5`` and ``epsilon = 1e-10`` under the relative two-norm stop.
A workload's solves, run once in order, make one round.
"""

import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

M = 5
EPSILON = 1e-10
# Dimension of the untimed warm-up solve done during set-up.
WARMUP_N = 100

REGISTRY = (
    "quad_diag",
    "tridia",
    "ext_rosenbrock",
    "gen_rosenbrock",
    "ext_powell",
    "trigonometric",
    "penalty",
    "cosine_mixture",
    "broyden_tridiag",
    "arwhead",
    "dqrtic",
)

# Starting points are never perturbed here: at a relative perturbation of
# 1e-3 the stall that ends in numerical_failure moves between inits from
# seed to seed, so the count of failed solves would depend on the seed.
UNPERTURBED = ("cosine_mixture",)


@dataclass(frozen=True)
class Workload:
    n: int
    problems: tuple
    inits: tuple


WORKLOADS = {
    "registry-1k": Workload(1000, REGISTRY, ("dense", "conventional")),
    "rosenbrock-1m": Workload(10**6, ("ext_rosenbrock",), ("dense",)),
    "powell-100k": Workload(10**5, ("ext_powell",), ("dense",)),
}


@dataclass(frozen=True)
class Solve:
    problem: object
    init: str
    x0: np.ndarray
    config: object

    @property
    def label(self) -> str:
        return f"{self.init}/{self.problem.name}"


def import_trlbfgs():
    """Import the solver from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import trlbfgs

    if not Path(trlbfgs.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"trlbfgs was imported from {trlbfgs.__file__}, not from {SRC}")
    return trlbfgs


def solver_config(trlbfgs, init: str):
    if init == "dense":
        return trlbfgs.SolverConfig(m=M, epsilon=EPSILON, c=1.0, lam=0.5)
    if init == "conventional":
        return trlbfgs.SolverConfig(m=M, epsilon=EPSILON, conventional=True)
    raise ValueError(f"unknown init {init!r}")


def starting_point(problem, seed: int, perturb: float) -> np.ndarray:
    """The registry's ``x0``, scaled by ``1 + perturb*u`` with u in [-1, 1) drawn from the seed.

    One scale per problem keeps the block structure of ``x0``, so a
    perturbed ``ext_rosenbrock`` or ``ext_powell`` stays as cheap as the
    registry start.  Seed 0 and ``perturb = 0`` give the registry's ``x0``.
    """
    if seed == 0 or perturb == 0.0 or problem.name in UNPERTURBED:
        return problem.x0.copy()
    u = np.random.default_rng([seed, REGISTRY.index(problem.name)]).uniform(-1.0, 1.0)
    return problem.x0 * (1.0 + perturb * u)


def build(trlbfgs, name: str, seed: int, perturb: float) -> list[Solve]:
    """The solves of one round, in the order the seed gives.

    Seed 0 keeps registry order; other seeds shuffle it.  Solves are
    independent, so the order changes no result.
    """
    try:
        workload = WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; available: {', '.join(WORKLOADS)}") from None
    solves = []
    for pname in workload.problems:
        problem = trlbfgs.get(pname, workload.n)
        x0 = starting_point(problem, seed, perturb)
        for init in workload.inits:
            solves.append(Solve(problem, init, x0, solver_config(trlbfgs, init)))
    if seed != 0:
        random.Random(seed).shuffle(solves)
    return solves


def warmup(trlbfgs, name: str) -> None:
    """One untimed small solve that loads every lazily imported module."""
    workload = WORKLOADS[name]
    problem = trlbfgs.get(workload.problems[0], WARMUP_N)
    trlbfgs.minimize(problem, problem.x0, solver_config(trlbfgs, workload.inits[0]))
