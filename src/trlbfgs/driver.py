"""Trust-region driver.

Each iteration first checks whether the full quasi-Newton step fits inside
the trust region, using an O(m^2) norm formula that never forms the step.
If it fits it is the exact subproblem solution (by norm equivalence) and is
taken directly; otherwise the subproblem is solved exactly in decoupled
closed form.  Acceptance and radius updates follow the classical ratio
test, with the step measured in the shape-changing norm.
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

STOP_RELATIVE = "relative-two-norm"
STOP_ABSOLUTE = "absolute-inf-norm"


@dataclass
class SolverConfig:
    """Driver parameters.

    The ratio thresholds must satisfy ``0 <= tau1 < tau2 < 0.5 < tau3 < 1``
    and the radius factors ``0 < eta1 < eta2 <= 0.5 < eta3 < 1 < eta4``.
    ``dense_everywhere`` controls whether the two-scale initialization is
    also used for the full quasi-Newton step or only inside the constrained
    solve; ``conventional`` pins the perpendicular scale to gamma itself,
    which reproduces the single-scale method exactly.
    """

    m: int = 5
    epsilon: float = 1e-10
    c3: float = 1e-8
    eps_r: float = 1e-14
    tau1: float = 0.0
    tau2: float = 0.25
    tau3: float = 0.75
    eta1: float = 0.25
    eta2: float = 0.5
    eta3: float = 0.8
    eta4: float = 2.0
    delta0: float = 1.0
    c: float = 1.0
    lam: float = 0.5
    gamma0_perp: float = 1.0
    max_iter: int = 10000
    stop_rule: str = STOP_RELATIVE
    dense_everywhere: bool = True
    conventional: bool = False
    keep_trace: bool = False
    keep_iterates: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        for name in ("epsilon", "eps_r", "delta0", "gamma0_perp"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.c3 < 1:
            raise ValueError("c3 must lie in (0, 1)")
        if not 0 <= self.tau1 < self.tau2 < 0.5 < self.tau3 < 1:
            raise ValueError("need 0 <= tau1 < tau2 < 0.5 < tau3 < 1")
        if not 0 < self.eta1 < self.eta2 <= 0.5 < self.eta3 < 1 < self.eta4:
            raise ValueError("need 0 < eta1 < eta2 <= 0.5 < eta3 < 1 < eta4")
        if self.c < 1 or not 0 <= self.lam <= 1:
            raise ValueError("need c >= 1 and lambda in [0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.stop_rule not in (STOP_RELATIVE, STOP_ABSOLUTE):
            raise ValueError(f"unknown stop_rule {self.stop_rule!r}")


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
    iterates: list[np.ndarray] = field(default_factory=list)


class StepChoice(NamedTuple):
    p_star: np.ndarray
    used_unconstrained: bool
    model_value: float


class InitialStep(NamedTuple):
    x1: np.ndarray
    g1: np.ndarray
    f1: float
    f_evals: int


def _stopped(x: np.ndarray, g: np.ndarray, config: SolverConfig) -> bool:
    if config.stop_rule == STOP_RELATIVE:
        return np.linalg.norm(g) <= config.epsilon * max(1.0, np.linalg.norm(x))
    return np.max(np.abs(g)) <= config.epsilon


def _g_norm(g: np.ndarray, config: SolverConfig) -> float:
    if config.stop_rule == STOP_RELATIVE:
        return float(np.linalg.norm(g))
    return float(np.max(np.abs(g))) if g.size else 0.0


def radius_update(rho: float, step_norm: float, delta: float, config: SolverConfig) -> float:
    """Next radius from the ratio and the step length in the shape-changing norm."""
    if rho < config.tau2:
        return min(config.eta1 * delta, config.eta2 * step_norm)
    if rho >= config.tau3 and step_norm >= config.eta3 * delta:
        return config.eta4 * delta
    return delta


def initial_point_step(
    problem,
    x0,
    armijo: float = 1e-4,
    max_halvings: int = 50,
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
    g: np.ndarray,
    delta: float,
    config: SolverConfig,
    gamma: float,
    gamma_perp: float,
) -> StepChoice:
    """Pick the trial step: full quasi-Newton step if it fits, else exact solve.

    With ``dense_everywhere`` off, the cheap test and the full step use the
    single-scale inverse (perpendicular scale = gamma) while the constrained
    branch still applies the two-scale initialization.
    """
    unc_perp = gamma_perp if config.dense_everywhere else gamma
    inv = build_inverse(buffer, gamma, unc_perp)
    u = None
    if buffer.count:
        u = np.concatenate([buffer.S.T @ g, buffer.Y.T @ g])
    pu_norm = unconstrained_norm(inv, buffer, g, u)
    if pu_norm <= delta:
        p = unconstrained_step(inv, buffer, g, u)
        # Exact model value of the unconstrained minimizer: -0.5 g^T B^{-1} g.
        return StepChoice(p, True, 0.5 * float(g @ p))

    g_par = apply_P_par_T(fac, buffer, gamma, g)
    gp_norm = float(np.sqrt(perp_norm_sq(g, g_par)))
    lambdas = fac.lam_hat + gamma
    zero_tol = 1e-12 * max(1.0, abs(gamma))
    v_par = solve_parallel(g_par, lambdas, delta, zero_tol)
    beta = solve_perp_beta(gamma_perp, gp_norm, delta)
    p = assemble_step(beta, g, g_par, v_par, fac, buffer, gamma)
    q = model_reduction(v_par, beta, g_par, gp_norm, lambdas, gamma_perp)
    return StepChoice(p, False, q)


def minimize(problem, x0, config: SolverConfig | None = None) -> SolverResult:
    """Run the trust-region method from ``x0``.

    ``problem`` must expose ``eval_f(x) -> float`` and ``eval_g(x) -> array``.
    The first move is a backtracking steepest-descent step that seeds the
    curvature history; every following iteration is a trust-region step.
    Non-finite function or gradient values terminate the run with status
    ``numerical_failure`` at the last good iterate.
    """
    config = config if config is not None else SolverConfig()
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    buffer = PairBuffer(n, config.m)
    policy = InitPolicy(c=config.c, lam=config.lam, gamma0_perp=config.gamma0_perp)

    trace: list[IterationRecord] = []
    iterates: list[np.ndarray] = []
    max_gamma = 0.0
    max_gamma_perp = 0.0

    def result(status, fx, g, iterations, total_steps, f_evals, g_evals):
        return SolverResult(
            x_final=x,
            f_final=fx,
            g_norm_final=_g_norm(g, config),
            iterations=iterations,
            total_steps=total_steps,
            f_evals=f_evals,
            g_evals=g_evals,
            status=status,
            max_gamma=max_gamma,
            max_gamma_perp=max_gamma_perp,
            pair_violations=buffer.violations(config.c3),
            pair_rejections=buffer.rejected,
            trace=trace,
            iterates=iterates,
        )

    fx = float(problem.eval_f(x))
    g = np.asarray(problem.eval_g(x), dtype=float)
    f_evals = g_evals = 1
    if not (math.isfinite(fx) and np.all(np.isfinite(g))):
        return result(STATUS_FAILED, fx, g, 0, 0, f_evals, g_evals)
    if _stopped(x, g, config):
        return result(STATUS_CONVERGED, fx, g, 0, 0, f_evals, g_evals)

    # Seed the history with a backtracking steepest-descent step.
    max_halvings = 50
    try:
        x1, g1, f1, ls_evals = initial_point_step(
            problem, x, max_halvings=max_halvings, f0=fx, g0=g
        )
    except LineSearchError:
        return result(STATUS_FAILED, fx, g, 0, 0, f_evals + max_halvings + 1, g_evals)
    f_evals += ls_evals
    g_evals += 1
    if not np.all(np.isfinite(g1)):
        return result(STATUS_FAILED, fx, g, 0, 0, f_evals, g_evals)
    if buffer.try_push(x1 - x, g1 - g, config.c3):
        policy.update_gamma(buffer.gram_SY[-1, -1], buffer.gram_YY[-1, -1])
    x, fx, g = x1, f1, g1

    delta = config.delta0
    iterations = 0
    total_steps = 0
    status = STATUS_MAX_ITER
    factors_stale = True
    fac = None

    while total_steps < config.max_iter:
        if _stopped(x, g, config):
            status = STATUS_CONVERGED
            break
        gamma = policy.gamma if policy.gamma is not None else policy.gamma0_perp
        gamma_perp = gamma if config.conventional else policy.gamma_perp()
        max_gamma = max(max_gamma, gamma)
        max_gamma_perp = max(max_gamma_perp, gamma_perp)
        if factors_stale:
            fac = factorize(buffer, gamma, config.eps_r)
            factors_stale = False

        total_steps += 1
        delta_used = delta
        p, used_unconstrained, q = step_selection(
            buffer, fac, g, delta, config, gamma, gamma_perp
        )
        step_norm = sc_norm(p, fac, buffer, gamma)

        f_trial = float(problem.eval_f(x + p))
        f_evals += 1
        if not math.isfinite(f_trial):
            status = STATUS_FAILED
            break
        rho = (f_trial - fx) / q if q < 0 else -math.inf
        if not math.isfinite(rho):
            rho = -math.inf

        accepted = rho >= config.tau1
        if accepted:
            x_new = x + p
            g_new = np.asarray(problem.eval_g(x_new), dtype=float)
            g_evals += 1
            if not np.all(np.isfinite(g_new)):
                status = STATUS_FAILED
                break
            if buffer.try_push(p, g_new - g, config.c3):
                policy.update_gamma(buffer.gram_SY[-1, -1], buffer.gram_YY[-1, -1])
                factors_stale = True
            x, fx, g = x_new, f_trial, g_new
            iterations += 1

        delta = radius_update(rho, step_norm, delta, config)
        if not delta > 0.0:
            # Radius underflowed: progress is below machine resolution.
            status = STATUS_FAILED
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
        if config.keep_iterates:
            iterates.append(x.copy())

    return result(status, fx, g, iterations, total_steps, f_evals, g_evals)
