"""Trust-region driver.

Each iteration first checks whether the full quasi-Newton step fits inside
the trust region, using an O(m^2) norm formula that never forms the step.
If it fits it is the exact subproblem solution (by norm equivalence) and is
taken directly; otherwise the subproblem is solved exactly in decoupled
closed form.  Acceptance and radius updates follow the classical ratio
test, with the step measured in the shape-changing norm.

Each quantity is computed at most once per state it depends on.  What
depends only on the stored pairs is refreshed when a pair is stored: the
scales gamma and gamma_perp at once, the compact inverse before the next
step, because the cheap test of every step reads it, and the spectral
factorization on its first need, because only the constrained solve and
the shape-changing norm read it.  Until the first pair is stored B is
``GAMMA0_PERP*I``, and the step and its norm are taken without either.
gamma comes from the newest pair's Gram entries, and its one running
maximum is both the formula's ``gamma_max`` and the result's
``max_gamma``.  What depends on the gradient
as well, ``g^T g`` and ``V^T g``, is formed once per accepted step and
reused by every rejected step that follows; the trial point ``x + p`` is
formed once and becomes x on acceptance.  A run whose radius falls below the resolution of x,
``eps*max(1, ||x||)``, stops with status ``stalled``.

The radius update reads a step's shape-changing norm when ``rho < TAU2``
or ``rho >= TAU3``, never in between.  A constrained step's radius reads
``StepChoice.norm``, its norm in the closed form ``max(||v_par||_inf,
|beta| ||g_perp||)``.  A full step's ``norm`` is its two-norm from the
cheap test, an upper bound on the shape-changing norm (``P = [P_par
P_perp]`` is orthogonal), which decides the radius when ``rho >= TAU3`` and
it is below ``ETA3*delta``.  Where it cannot, ``sc_norm`` measures the
norm (the two-norm with no pair stored).  A trace measures every step's norm into
``IterationRecord.step_norm``, but the radius never reads a norm that only
the trace measured, so a traced solve takes the same steps.

When f and g at ``x0``, as ``minimize`` times them, each take at least
``OVERLAP_MIN_S`` and the solve has a second thread, f at each trial point
runs on it while g is formed at the same point on the calling thread.  g is
used only if the step is accepted; at a rejected step, or where f is not
finite, it and any exception it raised are dropped, so every result, count
and trace is the one the serial path gives.  The constant, 1.5 ms, is about
70 handoffs to the second thread (about 0.02 ms each on a 2-CPU host, see
the ``pairs`` docstring) and sits between ``ext_powell`` at n = 10^5, f(x0)
about 0.3 ms, and ``ext_rosenbrock`` and ``broyden_tridiag`` at n = 10^6,
f(x0) 6 to 22 ms, where the overlap pays (about 18% a step on the latter).
With the handoff this cheap, a constant of 0.2 ms, which overlaps
``ext_powell`` at n = 10^5 too, showed no clear gain there, so it stays.  f,
not g, goes to the second thread because g allocates more: 213 against
221 MB peak RSS on ``ext_rosenbrock`` at n = 10^6.

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
import numbers
import time
from dataclasses import InitVar, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .denseinit import InverseRep, build_inverse, perp_scale, unconstrained_norm, unconstrained_step
from . import pairs
from .pairs import PairBuffer, Worker, concurrently
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
# Both scales while no pair is stored, when B is GAMMA0_PERP*I.
GAMMA0_PERP = 1.0
# Sufficient-decrease constant and halving budget of the initial backtracking search.
ARMIJO = 1e-4
MAX_HALVINGS = 50
# Time that f(x0) and g(x0) must each take before f runs on a second
# thread while g is formed (module docstring).
OVERLAP_MIN_S = 1.5e-3


class LineSearchError(RuntimeError):
    """The initial backtracking search found no decrease within the halving budget."""


@dataclass
class SolverConfig:
    """Driver parameters.

    ``m`` is the memory, and a run stops when ``||g||_2 <= epsilon*max(1,
    ||x||_2)``, or with status ``max_iter`` after ``max_iter`` trial steps
    (``SolverResult.total_steps``), rejected ones included.  ``c`` and
    ``lam`` select the perpendicular scale ``gamma_perp = lam*c*gamma_max +
    (1-lam)*gamma``, which every step uses; ``lam = 0`` gives gamma itself,
    the conventional single-scale method.  ``conventional=True`` is an
    alias that sets ``lam`` to 0; it is not stored.  ``keep_trace``
    records one :class:`IterationRecord` per trial step; to fill in its
    ``step_norm`` and ``rank`` it measures the shape-changing norm of every
    step, and so builds the factorization after every accepted pair.  That
    costs time but changes no result, because the radius never reads a
    norm that only the trace measured.
    """

    m: int = 5
    epsilon: float = 1e-10
    c: float = 1.0
    lam: float = 0.5
    max_iter: int = 10000
    keep_trace: bool = False
    conventional: InitVar[bool] = False

    def __post_init__(self, conventional):
        if conventional:
            self.lam = 0.0
        for name in ("m", "max_iter"):
            value = getattr(self, name)
            # bool is an Integral; 2.5 and NaN are not.
            if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        # Each check is written so that NaN fails it.
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (math.isfinite(self.c) and self.c >= 1 and 0 <= self.lam <= 1):
            raise ValueError(f"need finite c >= 1 and lambda in [0, 1], got c={self.c}, lambda={self.lam}")


@dataclass(frozen=True)
class IterationRecord:
    """One trial step of a traced solve.

    ``delta`` is the radius the step was taken in, and ``rank`` the rank of
    the spectral factorization, 0 for a step with no pair stored.
    ``step_norm`` is the step's measured shape-changing norm, or its
    two-norm with no pair stored; the radius reads it only for a full step
    whose two-norm cannot decide it (module docstring).  ``f`` and
    ``g_norm`` are at the iterate after the step.
    """

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
    """Outcome of :func:`minimize`.

    ``x_final``, ``f_final`` and ``g_norm_final`` are the last iterate, f
    there and the two-norm of g there.  ``iterations`` counts the accepted
    trust-region steps and ``total_steps`` every trial step, rejected ones
    included; neither counts the seed step.  ``f_evals`` and ``g_evals``
    count the evaluations, those at ``x0`` and in the seed search included;
    a gradient formed at a rejected trial point, beside f on a second
    thread, is not counted.  ``status`` says why the run stopped:
    ``converged``, ``max_iter``, ``stalled`` or ``numerical_failure``.
    ``max_gamma`` and ``max_gamma_perp`` are the largest ``gamma`` and
    ``gamma_perp`` of a pair stored in the run, evicted ones included, each
    taken when its pair is stored; both are 0.0 if no pair was stored.
    ``pair_rejections`` counts the pairs that failed the buffer's
    acceptance test, and ``trace`` holds one :class:`IterationRecord` per
    trial step under ``keep_trace``, else nothing.
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
    value, and ``norm``: a constrained step's shape-changing norm, in the
    closed form ``max(||v_par||_inf, |beta| ||g_perp||)``, or a full step's
    two-norm from the cheap test, an upper bound on it (module docstring)."""

    p_star: np.ndarray
    used_unconstrained: bool
    model_value: float
    norm: float


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


def initial_point_step(problem, x0, f0: float, g0: np.ndarray) -> InitialStep:
    """Backtracking step along the normalized steepest-descent direction.

    Halves the step from t = 1, at most ``MAX_HALVINGS`` times, until
    ``f(x0 + t*d) <= f0 - ARMIJO*t*||g0||`` holds, producing the point that
    seeds the first curvature pair.  ``f0`` and ``g0`` are f and g at
    ``x0``; the returned ``f_evals`` counts only the trial evaluations
    performed here.
    """
    x0 = np.asarray(x0, dtype=float)
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


def _captured(fn, x):
    """``(fn(x) as a float array, None)``, or ``(None, exception)`` if it raises."""
    try:
        return np.asarray(fn(x), dtype=float), None
    except Exception as exc:
        return None, exc


def _identity_step(g: np.ndarray, gg: float, delta: float, gamma0: float) -> StepChoice:
    """Trial step for ``B = gamma0*I``, the matrix while no pair is stored.

    The full step ``-g/gamma0`` when its two-norm fits the radius, else the
    radial solve's ``beta*g`` on the boundary.  With no stored pair the
    whole space is the perpendicular block, so that solve and its model
    value are the subproblem's with an empty parallel block.
    """
    g_norm = math.sqrt(gg)
    full_norm = g_norm / gamma0
    if full_norm <= delta:
        p = -g / gamma0
        return StepChoice(p, True, 0.5 * float(g @ p), full_norm)
    beta = solve_perp_beta(gamma0, g_norm, delta)
    empty = np.empty(0)
    q = model_reduction(empty, beta, empty, g_norm, empty, gamma0)
    return StepChoice(beta * g, False, q, abs(beta) * g_norm)


def step_selection(
    buffer: PairBuffer,
    factors: Callable[[], SpectralFactorization],
    inv: InverseRep | None,
    g: np.ndarray,
    u: np.ndarray,
    gg: float,
    delta: float,
) -> StepChoice:
    """Pick the trial step: full quasi-Newton step if it fits, else exact solve.

    ``inv`` is the compact inverse of the current pairs, and ``factors()``
    returns their spectral factorization; it is called only on the
    constrained branch, so a caller can build the factorization there on
    first need.  Both branches take the perpendicular scale from
    ``inv.gamma_perp``: the cheap test and the full step through ``inv``,
    the constrained solve directly.  ``u = V^T g`` and ``gg = g^T g`` serve
    both branches and change only with g or the pairs, so the caller forms
    them once per accepted step; ``w = M_hat u`` is formed here once and
    serves both the norm test and the full step.  While no pair is stored
    B is ``GAMMA0_PERP*I``, and ``inv``, ``factors`` and ``u`` go unread.
    """
    if not buffer.count:
        return _identity_step(g, gg, delta, GAMMA0_PERP)
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
    beta = solve_perp_beta(inv.gamma_perp, gp_norm, delta)
    p = assemble_step(beta, g, g_par, v_par, fac, buffer)
    q = model_reduction(v_par, beta, g_par, gp_norm, fac.lambdas, inv.gamma_perp)
    closed_norm = max(abs(beta) * gp_norm, *map(abs, v_par.tolist()))
    return StepChoice(p, False, q, closed_norm)


def minimize(problem, x0, config: SolverConfig | None = None) -> SolverResult:
    """Run the trust-region method from ``x0``.

    ``problem`` must expose ``eval_f(x) -> float`` and ``eval_g(x) -> array``.
    The two may run at the same time on two threads, on the same trial
    point (see the module docstring), so neither may write to its ``x``.
    Where the process may run on two CPUs or more, the solve has one second
    thread, started on first need and joined before this returns.
    The first move is a backtracking steepest-descent step that seeds the
    curvature history; every following iteration is a trust-region step.
    The compact inverse is rebuilt after each accepted pair; the spectral
    factorization is built at most once per pair state, when a constrained
    step or a shape-changing norm first needs it.
    Non-finite function or gradient values terminate the run with status
    ``numerical_failure`` at the last good iterate; a radius below
    ``eps*max(1, ||x||)`` terminates it with status ``stalled``.
    """
    # One second thread serves the whole solve, when a second CPU is
    # usable (see the pairs docstring).
    if pairs._usable_cpus() < 2:
        return _minimize(problem, x0, config, None)
    with Worker() as worker:
        return _minimize(problem, x0, config, worker)


def _minimize(problem, x0, config: SolverConfig | None, worker: Worker | None) -> SolverResult:
    config = config if config is not None else SolverConfig()
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1:
        raise ValueError(f"x0 must be one-dimensional, got shape {x.shape}")
    n = x.size
    buffer = PairBuffer(n, config.m, worker)

    trace: list[IterationRecord] = []
    # Both scales are GAMMA0_PERP until a pair is stored; the maxima range
    # over the stored pairs only.
    gamma = gamma_perp = GAMMA0_PERP
    max_gamma = max_gamma_perp = 0.0

    def push(s, y) -> bool:
        # buffer.try_push(s, y), and the scales of a pair it stores.
        nonlocal gamma, gamma_perp, max_gamma, max_gamma_perp
        stored = buffer.try_push(s, y)
        if stored:
            gamma = float(buffer.gram_YY[-1, -1]) / float(buffer.gram_SY[-1, -1])
            max_gamma = max(max_gamma, gamma)
            gamma_perp = perp_scale(config.c, config.lam, gamma, max_gamma)
            max_gamma_perp = max(max_gamma_perp, gamma_perp)
        return stored

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

    t0 = time.perf_counter()
    fx = float(problem.eval_f(x))
    t1 = time.perf_counter()
    g = np.asarray(problem.eval_g(x), dtype=float)
    # f at each trial point runs on the worker's thread while g is formed
    # here, when both evaluations cost well more than a handoff to it.
    overlap = worker is not None and min(t1 - t0, time.perf_counter() - t1) >= OVERLAP_MIN_S
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
    push(x1 - x, g1 - g)
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
            # The compact inverse now, the factorization on first need.
            inv = build_inverse(buffer, gamma, gamma_perp) if buffer.count else None
            fac = None
            factors_stale = False
        if u is None:
            u = buffer.vt_dot(g)

        total_steps += 1
        # What the step is taken with; an accepted pair changes the scales.
        delta_used, gamma_used, gamma_perp_used = delta, gamma, gamma_perp
        p, used_unconstrained, q, norm = step_selection(buffer, factors, inv, g, u, gg, delta)

        x_trial = x + p
        if overlap:
            # (g, exception) at x_trial; used only if the step is accepted.
            f_trial, g_trial = concurrently(
                worker, lambda: float(problem.eval_f(x_trial)), lambda: _captured(problem.eval_g, x_trial)
            )
        else:
            f_trial, g_trial = float(problem.eval_f(x_trial)), None
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
        # The radius rule (module docstring): where picked, StepChoice.norm
        # decides the radius.  A norm is measured before an accepted pair
        # changes the factorization, and with no pair stored it is the
        # two-norm.
        picked = not used_unconstrained or TAU2 <= rho < TAU3 or (rho >= TAU3 and norm < ETA3 * delta)
        if config.keep_trace or not picked:
            step_norm = sc_norm(p, factors(), buffer) if buffer.count else float(np.linalg.norm(p))

        accepted = rho >= TAU1
        if accepted:
            if g_trial is None:
                g_new = np.asarray(problem.eval_g(x_trial), dtype=float)
            else:
                g_new, error = g_trial
                if error is not None:
                    raise error
            g_evals += 1
            # A non-finite entry makes the square sum non-finite, so only
            # then is g scanned; a finite g whose square sum overflows goes on.
            gg_new = float(g_new @ g_new)
            if not math.isfinite(gg_new) and not np.isfinite(g_new).all():
                status = STATUS_FAILED
                break
            # The refresh at the top of the loop cleared the flag.
            factors_stale = push(p, g_new - g)
            x, fx, g, gg = x_trial, f_trial, g_new, gg_new
            x_norm = math.sqrt(float(x @ x))
            u = None
            iterations += 1
        # A rejected trial point, or the gradient formed there, must not
        # live on into the next step, where it would raise the peak memory
        # by one n-vector.
        del x_trial, g_trial

        delta = radius_update(rho, norm if picked else step_norm, delta)
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
                    gamma=gamma_used,
                    gamma_perp=gamma_perp_used,
                    # fac is None only for a step taken with no pair stored.
                    rank=0 if fac is None else fac.rank,
                    accepted=accepted,
                    f=fx,
                    g_norm=math.sqrt(gg),
                    step_norm=step_norm,
                )
            )

    return result(status, fx, g, iterations, total_steps, f_evals, g_evals)
