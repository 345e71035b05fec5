"""Trust-region driver.

Each iteration first checks whether the full quasi-Newton step fits inside
the trust region, using an O(m^2) norm formula that never forms the step.
If it fits it is the exact subproblem solution (by norm equivalence) and is
taken directly; otherwise the subproblem is solved exactly in decoupled
closed form.  Acceptance and radius updates follow the classical ratio
test, with the step measured in the shape-changing norm.

Each quantity is computed at most once per state it depends on.  What
depends only on the stored pairs is refreshed when a pair is accepted: the
scales gamma and gamma_perp and the compact inverse at once, because the
cheap test of every step reads them, and the spectral factorization on its
first need, because only the constrained solve and the shape-changing norm
read it.  gamma comes from the newest pair's Gram entries, and its one
running maximum is both the formula's ``gamma_max`` and the result's
``max_gamma``.  What depends on the gradient as well, ``g^T g`` and
``V^T g``, is formed once per accepted step and reused by every rejected
step that follows; the trial point ``x + p`` is formed once and becomes x on
acceptance.  A run whose radius falls below the resolution of x,
``eps*max(1, ||x||)``, stops with status ``stalled``.

The radius update reads a step's shape-changing norm only when ``rho <
TAU2``, or when ``rho >= TAU3`` and the norm reaches ``ETA3*delta``.  With
``P = [P_par P_perp]`` orthogonal that norm is at most the two-norm, which
the cheap test already gives for the full quasi-Newton step.  So a full
step whose two-norm decides the radius on its own is not measured in the
shape-changing norm; a constrained step always is.

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
from typing import Callable, NamedTuple

import numpy as np

from .denseinit import GAMMA0_PERP, InverseRep, build_inverse, perp_scale, unconstrained_norm, unconstrained_step
from .pairs import PairBuffer
from .spectral import SpectralFactorization, apply_P_par_T, factorize, perp_norm_sq, sc_norm
from .subproblem import assemble_step, model_reduction, solve_parallel, solve_perp_beta

__all__ = [
    "SolverConfig",
    "SolverResult",
    "IterationRecord",
    "StepChoice",
    "LineSearchError",
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
# Sufficient-decrease constant and halving budget of the initial backtracking search.
ARMIJO = 1e-4
MAX_HALVINGS = 50


class LineSearchError(RuntimeError):
    """The initial backtracking search found no decrease within the halving budget."""


@dataclass
class SolverConfig:
    """Driver parameters.

    ``m`` is the memory, ``c`` and ``lam`` select the two-scale
    initialization, and a run stops when ``||g||_2 <= epsilon*max(1, ||x||_2)``.
    ``dense_everywhere`` controls whether the two-scale initialization is
    also used for the full quasi-Newton step or only inside the constrained
    solve; ``conventional`` pins the perpendicular scale to gamma itself,
    which reproduces the single-scale method exactly.  ``keep_trace``
    records one :class:`IterationRecord` per trial step; to fill in its
    ``step_norm`` and ``rank`` it takes the shape-changing norm of every
    step, and so the factorization after every accepted pair, which costs
    time but changes no result.
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
        # Each check is written so that NaN fails it.
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (math.isfinite(self.c) and self.c >= 1 and 0 <= self.lam <= 1):
            raise ValueError(f"need finite c >= 1 and lambda in [0, 1], got c={self.c}, lambda={self.lam}")
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
    """Outcome of :func:`minimize`; ``g_norm_final`` is the two-norm of the final gradient.

    ``max_gamma`` is the largest ``gamma`` of a stored pair, 0.0 if no pair is stored.
    """

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
    pair_rejections: int
    trace: list[IterationRecord] = field(default_factory=list)


class StepChoice(NamedTuple):
    """A trial step, whether it is the full quasi-Newton step, its model
    value, and ``full_norm``, the two-norm of the full step that the cheap
    test compared with the radius (so ``p_star``'s own when
    ``used_unconstrained``)."""

    p_star: np.ndarray
    used_unconstrained: bool
    model_value: float
    full_norm: float


class InitialStep(NamedTuple):
    x1: np.ndarray
    g1: np.ndarray
    f1: float
    f_evals: int


def _stopped(x_norm: float, gg: float, config: SolverConfig) -> bool:
    # np.linalg.norm(g) is sqrt(g.dot(g)), so this is the same test on ||g||.
    return math.sqrt(gg) <= config.epsilon * max(1.0, x_norm)


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
    f0: float | None = None,
    g0: np.ndarray | None = None,
) -> InitialStep:
    """Backtracking step along the normalized steepest-descent direction.

    Halves the step from t = 1, at most ``MAX_HALVINGS`` times, until
    ``f(x0 + t*d) <= f0 - ARMIJO*t*||g0||`` holds, producing the point that
    seeds the first curvature pair.
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
    for _ in range(MAX_HALVINGS + 1):
        x1 = x0 + t * d
        f1 = float(problem.eval_f(x1))
        f_evals += 1
        if math.isfinite(f1) and f1 <= f0 - ARMIJO * t * gnorm:
            g1 = np.asarray(problem.eval_g(x1), dtype=float)
            return InitialStep(x1=x1, g1=g1, f1=f1, f_evals=f_evals)
        t *= 0.5
    raise LineSearchError(
        f"no sufficient decrease along steepest descent after {MAX_HALVINGS} halvings"
    )


def step_selection(
    buffer: PairBuffer,
    factors: Callable[[], SpectralFactorization],
    inv: InverseRep,
    g: np.ndarray,
    u: np.ndarray,
    gg: float,
    delta: float,
    gamma_perp: float,
) -> StepChoice:
    """Pick the trial step: full quasi-Newton step if it fits, else exact solve.

    ``inv`` is the compact inverse of the current pairs, and ``factors()``
    returns their spectral factorization; it is called only on the
    constrained branch, so a caller can build the factorization there on
    first need.  The cheap test and the full step use ``inv``, whose
    perpendicular scale the caller chose (gamma itself when the two-scale
    initialization is confined to the constrained branch); the constrained
    branch applies ``gamma_perp``.  ``u = V^T g`` and ``gg = g^T g`` serve
    both branches and change only with g or the pairs, so the caller forms
    them once per accepted step; ``w = M_hat u`` is formed here once and
    serves both the norm test and the full step.
    """
    w = inv.M_hat @ u
    pu_norm = unconstrained_norm(inv, gg, u, w)
    if pu_norm <= delta:
        p = unconstrained_step(inv, buffer, g, w)
        # Exact model value of the unconstrained minimizer: -0.5 g^T B^{-1} g.
        return StepChoice(p, True, 0.5 * float(g @ p), pu_norm)

    fac = factors()
    g_par = apply_P_par_T(fac, u)
    gp_norm = math.sqrt(perp_norm_sq(gg, g_par))
    v_par = solve_parallel(g_par, fac.lambdas, delta, fac.zero_tol)
    beta = solve_perp_beta(gamma_perp, gp_norm, delta)
    p = assemble_step(beta, g, g_par, v_par, fac, buffer)
    q = model_reduction(v_par, beta, g_par, gp_norm, fac.lambdas, gamma_perp)
    return StepChoice(p, False, q, pu_norm)


def minimize(problem, x0, config: SolverConfig | None = None) -> SolverResult:
    """Run the trust-region method from ``x0``.

    ``problem`` must expose ``eval_f(x) -> float`` and ``eval_g(x) -> array``.
    The first move is a backtracking steepest-descent step that seeds the
    curvature history; every following iteration is a trust-region step.
    The compact inverse is rebuilt after each accepted pair; the spectral
    factorization is built at most once per pair state, when a constrained
    step or a shape-changing norm first needs it.
    Non-finite function or gradient values terminate the run with status
    ``numerical_failure`` at the last good iterate; a radius below
    ``eps*max(1, ||x||)`` terminates it with status ``stalled``.
    """
    config = config if config is not None else SolverConfig()
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    buffer = PairBuffer(n, config.m)

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
    if _stopped(x_norm, float(g @ g), config):
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
    buffer.try_push(x1 - x, g1 - g)
    x, fx, g = x1, f1, g1
    # From here on the seed point lives only as x and g, which later steps
    # replace; names kept for the whole run would hold two n-vectors.
    del x1, g1
    x_norm = float(np.linalg.norm(x))
    # g^T g and V^T g change only when a step is accepted (u also when a
    # pair is pushed, which only happens then); u is formed on first use.
    gg = float(g @ g)
    u = None

    delta = DELTA0
    iterations = 0
    total_steps = 0
    status = STATUS_MAX_ITER
    eps = float(np.finfo(float).eps)
    factors_stale = True
    fac = None

    def factors() -> SpectralFactorization:
        # The spectral factorization of the current pairs, built on first need.
        nonlocal fac
        if fac is None:
            fac = factorize(buffer, gamma)
        return fac

    while total_steps < config.max_iter:
        if _stopped(x_norm, gg, config):
            status = STATUS_CONVERGED
            break
        if factors_stale:
            # Everything below depends only on the stored pairs; max_gamma,
            # the largest pair gamma so far, is the formula's gamma_max.
            if buffer.count:
                gamma = float(buffer.gram_YY[-1, -1]) / float(buffer.gram_SY[-1, -1])
                max_gamma = max(max_gamma, gamma)
                gamma_perp = gamma if config.conventional else perp_scale(config.c, config.lam, gamma, max_gamma)
            else:
                gamma = gamma_perp = GAMMA0_PERP
            max_gamma_perp = max(max_gamma_perp, gamma_perp)
            fac = None
            inv = build_inverse(buffer, gamma, gamma_perp if config.dense_everywhere else gamma)
            factors_stale = False
        if u is None:
            u = buffer.vt_dot(g)

        total_steps += 1
        delta_used = delta
        p, used_unconstrained, q, full_norm = step_selection(
            buffer, factors, inv, g, u, gg, delta, gamma_perp
        )

        x_trial = x + p
        f_trial = float(problem.eval_f(x_trial))
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
        # The radius update reads the norm only when rho < TAU2, or when
        # rho >= TAU3 and the norm reaches ETA3*delta.  Below that reach a
        # full step's two-norm, which bounds its shape-changing norm, leaves
        # the radius where the shape-changing norm would.  The norm is taken
        # before an accepted pair changes the factorization.
        if (
            config.keep_trace
            or not used_unconstrained
            or rho < TAU2
            or (rho >= TAU3 and full_norm >= ETA3 * delta)
        ):
            step_norm = sc_norm(p, factors(), buffer)
        else:
            step_norm = full_norm

        accepted = rho >= TAU1
        if accepted:
            g_new = np.asarray(problem.eval_g(x_trial), dtype=float)
            g_evals += 1
            if not np.isfinite(g_new).all():
                status = STATUS_FAILED
                break
            # The refresh at the top of the loop cleared the flag.
            factors_stale = buffer.try_push(p, g_new - g)
            x, fx, g = x_trial, f_trial, g_new
            x_norm = math.sqrt(float(x @ x))
            gg = float(g @ g)
            u = None
            iterations += 1
        # A rejected trial point must not live on into the next step, where
        # it would raise the peak memory by one n-vector.
        del x_trial

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
                    g_norm=math.sqrt(gg),
                    step_norm=step_norm,
                )
            )

    return result(status, fx, g, iterations, total_steps, f_evals, g_evals)
