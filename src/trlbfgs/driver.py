"""Trust-region driver.

Each iteration first checks whether the full quasi-Newton step fits inside
the trust region, using an O(m^2) norm formula that never forms the step.
If it fits it is the exact subproblem solution (by norm equivalence) and is
taken directly; otherwise the subproblem is solved exactly in decoupled
closed form.  Acceptance and radius updates follow the classical ratio
test, with the step measured in the shape-changing norm.

Everything that depends only on the stored pairs (the scales gamma and
gamma_perp, the spectral factorization and the compact inverse) is rebuilt
once per accepted pair, not once per step.  A run whose radius falls below
the resolution of x, ``eps*max(1, ||x||)``, stops with status ``stalled``.

The ratio ``rho`` of actual to predicted decrease is computed with both
shifted by ``10*eps*|f|`` (Conn, Gould & Toint, *Trust-Region Methods*,
2000, section 17.4.2), so a step whose decrease is below the resolution of
``f`` reads as agreeing with the model instead of as noise.

The trust-region constants are fixed, because every caller uses one value:

- ``TAU1``, ``TAU2``, ``TAU3`` (tau_1, tau_2, tau_3): a step is accepted
  when ``rho >= TAU1``; the radius shrinks when ``rho < TAU2`` and may grow
  when ``rho >= TAU3``.  They satisfy ``0 <= TAU1 < TAU2 < 0.5 < TAU3 < 1``.
- ``ETA1`` .. ``ETA4`` (eta_1 .. eta_4): the shrink factors on the radius
  and on the step length, the fraction of the radius a step must reach
  before the radius grows, and the growth factor.  They satisfy
  ``0 < ETA1 < ETA2 <= 0.5 < ETA3 < 1 < ETA4``.
- ``DELTA0`` (delta_0): the radius of the first trust-region step.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .denseinit import InitPolicy, build_inverse, unconstrained_norm, unconstrained_step
from .errors import LineSearchError
from .pairs import PairBuffer
from .spectral import apply_P_par_T, factorize, perp_norm_sq, sc_norm
from .subproblem import assemble_step, model_reduction, solve_parallel, solve_perp_beta

__all__ = [
    "SolverConfig",
    "SolverResult",
    "IterationRecord",
    "StepChoice",
    "minimize",
    "step_selection",
    "initial_point_step",
    "radius_update",
]

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_FAILED = "numerical_failure"
STATUS_STALLED = "stalled"

TAU1, TAU2, TAU3 = 0.0, 0.25, 0.75
ETA1, ETA2, ETA3, ETA4 = 0.25, 0.5, 0.8, 2.0
DELTA0 = 1.0
# Halvings the initial backtracking search tries before it gives up.
MAX_HALVINGS = 50


@dataclass
class SolverConfig:
    """Driver parameters.

    ``m`` is the memory, ``c`` and ``lam`` select the two-scale
    initialization, and a run stops when ``||g||_2 <= epsilon*max(1, ||x||_2)``.
    ``dense_everywhere`` controls whether the two-scale initialization is
    also used for the full quasi-Newton step or only inside the constrained
    solve; ``conventional`` pins the perpendicular scale to gamma itself,
    which reproduces the single-scale method exactly.
    """

    m: int = 5
    epsilon: float = 1e-10
    c: float = 1.0
    lam: float = 0.5
    max_iter: int = 10000
    dense_everywhere: bool = True
    conventional: bool = False
    keep_trace: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.c < 1 or not 0 <= self.lam <= 1:
            raise ValueError("need c >= 1 and lambda in [0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    delta: float
    rho: float
    step_type: str
    gamma: float
    gamma_perp: float
    rank: int
    accepted: bool
    f: float
    g_norm: float
    step_norm: float


@dataclass
class SolverResult:
    """Outcome of :func:`minimize`; ``g_norm_final`` is the two-norm of the final gradient."""

    x_final: np.ndarray
    f_final: float
    g_norm_final: float
    iterations: int
    total_steps: int
    f_evals: int
    g_evals: int
    status: str
    max_gamma: float
    max_gamma_perp: float
    pair_violations: int
    pair_rejections: int
    trace: list[IterationRecord] = field(default_factory=list)


class StepChoice(NamedTuple):
    p_star: np.ndarray
    used_unconstrained: bool
    model_value: float


class InitialStep(NamedTuple):
    x1: np.ndarray
    g1: np.ndarray
    f1: float
    f_evals: int


def _stopped(x_norm: float, g: np.ndarray, config: SolverConfig) -> bool:
    return np.linalg.norm(g) <= config.epsilon * max(1.0, x_norm)


def radius_update(rho: float, step_norm: float, delta: float) -> float:
    """Next radius from the ratio and the step length in the shape-changing norm."""
    if rho < TAU2:
        return min(ETA1 * delta, ETA2 * step_norm)
    if rho >= TAU3 and step_norm >= ETA3 * delta:
        return ETA4 * delta
    return delta


def initial_point_step(
    problem,
    x0,
    armijo: float = 1e-4,
    max_halvings: int = MAX_HALVINGS,
    f0: float | None = None,
    g0: np.ndarray | None = None,
) -> InitialStep:
    """Backtracking step along the normalized steepest-descent direction.

    Halves the step from t = 1 until the sufficient-decrease inequality
    holds, producing the point that seeds the first curvature pair.
    ``f0``/``g0`` may carry already-computed values at ``x0``; the returned
    ``f_evals`` counts only the trial evaluations performed here.
    """
    x0 = np.asarray(x0, dtype=float)
    if f0 is None:
        f0 = float(problem.eval_f(x0))
    if g0 is None:
        g0 = np.asarray(problem.eval_g(x0), dtype=float)
    gnorm = float(np.linalg.norm(g0))
    if gnorm == 0.0:
        raise ValueError("initial gradient is zero; no descent direction exists")
    d = -g0 / gnorm
    t = 1.0
    f_evals = 0
    for _ in range(max_halvings + 1):
        x1 = x0 + t * d
        f1 = float(problem.eval_f(x1))
        f_evals += 1
        if math.isfinite(f1) and f1 <= f0 - armijo * t * gnorm:
            g1 = np.asarray(problem.eval_g(x1), dtype=float)
            return InitialStep(x1=x1, g1=g1, f1=f1, f_evals=f_evals)
        t *= 0.5
    raise LineSearchError(
        f"no sufficient decrease along steepest descent after {max_halvings} halvings"
    )


def step_selection(
    buffer: PairBuffer,
    fac,
    inv,
    g: np.ndarray,
    delta: float,
    gamma_perp: float,
) -> StepChoice:
    """Pick the trial step: full quasi-Newton step if it fits, else exact solve.

    ``fac`` is the spectral factorization and ``inv`` the compact inverse of
    the current pairs.  The cheap test and the full step use ``inv``, whose
    perpendicular scale the caller chose (gamma itself when the two-scale
    initialization is confined to the constrained branch); the constrained
    branch applies ``gamma_perp``.  ``V^T g`` is formed once and serves both.
    """
    u = buffer.vt_dot(g)
    pu_norm = unconstrained_norm(inv, g, u)
    if pu_norm <= delta:
        p = unconstrained_step(inv, buffer, g, u)
        # Exact model value of the unconstrained minimizer: -0.5 g^T B^{-1} g.
        return StepChoice(p, True, 0.5 * float(g @ p))

    g_par = apply_P_par_T(fac, u)
    gp_norm = float(np.sqrt(perp_norm_sq(g, g_par)))
    lambdas = fac.lam_hat + fac.gamma
    zero_tol = 1e-12 * max(1.0, abs(fac.gamma))
    v_par = solve_parallel(g_par, lambdas, delta, zero_tol)
    beta = solve_perp_beta(gamma_perp, gp_norm, delta)
    p = assemble_step(beta, g, g_par, v_par, fac, buffer)
    q = model_reduction(v_par, beta, g_par, gp_norm, lambdas, gamma_perp)
    return StepChoice(p, False, q)


def minimize(problem, x0, config: SolverConfig | None = None) -> SolverResult:
    """Run the trust-region method from ``x0``.

    ``problem`` must expose ``eval_f(x) -> float`` and ``eval_g(x) -> array``.
    The first move is a backtracking steepest-descent step that seeds the
    curvature history; every following iteration is a trust-region step.
    Non-finite function or gradient values terminate the run with status
    ``numerical_failure`` at the last good iterate; a radius below
    ``eps*max(1, ||x||)`` terminates it with status ``stalled``.
    """
    config = config if config is not None else SolverConfig()
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    buffer = PairBuffer(n, config.m)
    policy = InitPolicy(c=config.c, lam=config.lam)

    trace: list[IterationRecord] = []
    max_gamma = 0.0
    max_gamma_perp = 0.0

    def result(status, fx, g, iterations, total_steps, f_evals, g_evals):
        return SolverResult(
            x_final=x,
            f_final=fx,
            g_norm_final=float(np.linalg.norm(g)),
            iterations=iterations,
            total_steps=total_steps,
            f_evals=f_evals,
            g_evals=g_evals,
            status=status,
            max_gamma=max_gamma,
            max_gamma_perp=max_gamma_perp,
            pair_violations=buffer.violations(),
            pair_rejections=buffer.rejected,
            trace=trace,
        )

    fx = float(problem.eval_f(x))
    g = np.asarray(problem.eval_g(x), dtype=float)
    f_evals = g_evals = 1
    if not (math.isfinite(fx) and np.all(np.isfinite(g))):
        return result(STATUS_FAILED, fx, g, 0, 0, f_evals, g_evals)
    # ||x|| changes only when a step is accepted; the stop test and the
    # stall test share it.
    x_norm = float(np.linalg.norm(x))
    if _stopped(x_norm, g, config):
        return result(STATUS_CONVERGED, fx, g, 0, 0, f_evals, g_evals)

    # Seed the history with a backtracking steepest-descent step.
    try:
        x1, g1, f1, ls_evals = initial_point_step(problem, x, f0=fx, g0=g)
    except LineSearchError:
        return result(STATUS_FAILED, fx, g, 0, 0, f_evals + MAX_HALVINGS + 1, g_evals)
    f_evals += ls_evals
    g_evals += 1
    if not np.all(np.isfinite(g1)):
        return result(STATUS_FAILED, fx, g, 0, 0, f_evals, g_evals)
    if buffer.try_push(x1 - x, g1 - g):
        policy.update_gamma(buffer.gram_SY[-1, -1], buffer.gram_YY[-1, -1])
    x, fx, g = x1, f1, g1
    x_norm = float(np.linalg.norm(x))

    delta = DELTA0
    iterations = 0
    total_steps = 0
    status = STATUS_MAX_ITER
    eps = np.finfo(float).eps
    factors_stale = True

    while total_steps < config.max_iter:
        if _stopped(x_norm, g, config):
            status = STATUS_CONVERGED
            break
        if factors_stale:
            # Everything below depends only on the stored pairs.
            # Before any pair is stored both scales fall back to one value.
            gamma = policy.gamma if policy.gamma is not None else policy.gamma_perp()
            gamma_perp = gamma if config.conventional else policy.gamma_perp()
            max_gamma = max(max_gamma, gamma)
            max_gamma_perp = max(max_gamma_perp, gamma_perp)
            fac = factorize(buffer, gamma)
            inv = build_inverse(buffer, gamma, gamma_perp if config.dense_everywhere else gamma)
            factors_stale = False

        total_steps += 1
        delta_used = delta
        p, used_unconstrained, q = step_selection(buffer, fac, inv, g, delta, gamma_perp)
        step_norm = sc_norm(p, fac, buffer)

        f_trial = float(problem.eval_f(x + p))
        f_evals += 1
        if not math.isfinite(f_trial):
            status = STATUS_FAILED
            break
        # Shift both decreases by the resolution of f, so that a decrease
        # lost in round-off does not read as a failed step.
        shift = 10.0 * eps * abs(fx)
        rho = (f_trial - fx - shift) / (q - shift) if q < 0 else -math.inf
        if not math.isfinite(rho):
            rho = -math.inf

        accepted = rho >= TAU1
        if accepted:
            x_new = x + p
            g_new = np.asarray(problem.eval_g(x_new), dtype=float)
            g_evals += 1
            if not np.all(np.isfinite(g_new)):
                status = STATUS_FAILED
                break
            if buffer.try_push(p, g_new - g):
                policy.update_gamma(buffer.gram_SY[-1, -1], buffer.gram_YY[-1, -1])
                factors_stale = True
            x, fx, g = x_new, f_trial, g_new
            x_norm = float(np.linalg.norm(x))
            iterations += 1

        delta = radius_update(rho, step_norm, delta)
        if not delta >= eps * max(1.0, x_norm):
            # No step this short can move x (this also catches a NaN radius).
            status = STATUS_STALLED
            break

        if config.keep_trace:
            trace.append(
                IterationRecord(
                    k=total_steps,
                    delta=delta_used,
                    rho=rho,
                    step_type="unconstrained" if used_unconstrained else "constrained",
                    gamma=gamma,
                    gamma_perp=gamma_perp,
                    rank=fac.rank,
                    accepted=accepted,
                    f=fx,
                    g_norm=float(np.linalg.norm(g)),
                    step_norm=step_norm,
                )
            )

    return result(status, fx, g, iterations, total_steps, f_evals, g_evals)
