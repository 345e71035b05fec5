"""Per-layer timers wrapped around the calls into each solver module.

The wrappers live here, not in the solver: ``Tracer.installed`` patches each
listed function where its callers look it up (module globals of
``trlbfgs.driver``, ``trlbfgs.spectral``, ``trlbfgs.subproblem`` and the
``PairBuffer`` class) and restores the originals on exit.  A function that
no longer exists is skipped and reported with zero calls.  Each call records
its inclusive time; a layer's self time is its wrapped time minus the time
its wrapped child calls cover.
"""

import importlib
import inspect
import time
from contextlib import contextmanager

# Layer (module of trlbfgs) -> functions timed in that layer.
LAYERS = {
    "problems": ("eval_f", "eval_g"),
    "pairs": ("try_push",),
    "spectral": ("factorize", "apply_P_par_T", "apply_P_par", "sc_norm"),
    "denseinit": ("build_inverse", "unconstrained_norm", "unconstrained_step"),
    "subproblem": ("solve_parallel", "assemble_step", "model_reduction"),
    "driver": ("minimize", "step_selection"),
}
# Layers whose module globals hold the names their functions call; each is
# also where those of its own functions that are timed are defined.
CALLER_MODULES = ("driver", "spectral", "subproblem", "denseinit")
# A trial step exceeds its radius when ||p||_sc > delta * (1 + RADIUS_RTOL).
RADIUS_RTOL = 1e-8

COUNTS = (
    "driver.unconstrained_steps",
    "driver.constrained_steps",
    "driver.rejected_steps",
    "driver.radius_violations",
    "pairs.rejected",
)


class _Stat:
    __slots__ = ("calls", "seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0


class Tracer:
    def __init__(self):
        self.stats = {f"{layer}.{fn}": _Stat() for layer, fns in LAYERS.items() for fn in fns}
        self.self_seconds = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.rank_sum = 0
        self._stack = []
        self._pending_delta = None
        self._delta_index = None
        self._hooks = {
            "driver.minimize": self._after_minimize,
            "driver.step_selection": self._after_step_selection,
            "spectral.sc_norm": self._after_sc_norm,
            "spectral.factorize": self._after_factorize,
            "pairs.try_push": self._after_try_push,
        }

    def wrap(self, key, fn):
        """``fn`` timed under ``key`` (``layer.function``)."""
        stat = self.stats[key]
        layer = key.partition(".")[0]
        hook = self._hooks.get(key)
        stack = self._stack
        self_seconds = self.self_seconds
        if key == "driver.step_selection":
            names = list(inspect.signature(fn).parameters)
            self._delta_index = names.index("delta") if "delta" in names else None

        def timed(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.seconds += elapsed
                self_seconds[layer] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(args, kwargs, out)
            return out

        timed.__wrapped__ = fn
        return timed

    def wrap_problem(self, problem):
        return _TracedProblem(
            problem,
            self.wrap("problems.eval_f", problem.eval_f),
            self.wrap("problems.eval_g", problem.eval_g),
        )

    @contextmanager
    def installed(self):
        """Patch every listed function that trlbfgs still has; restore on exit."""
        modules = [importlib.import_module(f"trlbfgs.{name}") for name in CALLER_MODULES]
        saved = []
        for layer, module in zip(CALLER_MODULES, modules):
            for fn in LAYERS[layer]:
                original = getattr(module, fn, None)
                if original is None:
                    continue
                timed = self.wrap(f"{layer}.{fn}", original)
                for caller in modules:
                    if getattr(caller, fn, None) is original:
                        saved.append((caller, fn, original))
                        setattr(caller, fn, timed)
        buffer_cls = getattr(importlib.import_module("trlbfgs.pairs"), "PairBuffer", None)
        if buffer_cls is not None and "try_push" in vars(buffer_cls):
            original = vars(buffer_cls)["try_push"]
            saved.append((buffer_cls, "try_push", original))
            buffer_cls.try_push = self.wrap("pairs.try_push", original)
        try:
            yield
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # Hooks run after the timed call, outside its span.

    def _after_minimize(self, args, kwargs, result):
        steps = getattr(result, "total_steps", 0)
        self.counts["driver.rejected_steps"] += steps - getattr(result, "iterations", steps)

    def _after_step_selection(self, args, kwargs, choice):
        i = self._delta_index
        self._pending_delta = kwargs.get("delta", args[i] if i is not None and i < len(args) else None)
        unconstrained = getattr(choice, "used_unconstrained", None)
        if unconstrained is True:
            self.counts["driver.unconstrained_steps"] += 1
        elif unconstrained is False:
            self.counts["driver.constrained_steps"] += 1

    def _after_sc_norm(self, args, kwargs, norm):
        # The first norm taken after a step selection is the trial step's.
        delta, self._pending_delta = self._pending_delta, None
        if delta is not None and norm > delta * (1.0 + RADIUS_RTOL):
            self.counts["driver.radius_violations"] += 1

    def _after_factorize(self, args, kwargs, fac):
        self.rank_sum += getattr(fac, "rank", 0)

    def _after_try_push(self, args, kwargs, stored):
        if stored is False:
            self.counts["pairs.rejected"] += 1

    def metrics(self, rounds: int) -> dict:
        """Per-round calls, counts and self times, and mean microseconds per call."""
        out = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = (stat.calls / rounds, "count")
            out[f"{key}.us"] = (stat.seconds / stat.calls * 1e6 if stat.calls else 0.0, "us")
        for layer, seconds in self.self_seconds.items():
            out[f"{layer}.self_s"] = (seconds / rounds, "s")
        for key, value in self.counts.items():
            out[key] = (value / rounds, "count")
        factorizations = self.stats["spectral.factorize"].calls
        out["spectral.rank_mean"] = (self.rank_sum / factorizations if factorizations else 0.0, "count")
        return out


class _TracedProblem:
    """A problem whose ``eval_f``/``eval_g`` are timed; other attributes pass through."""

    def __init__(self, problem, eval_f, eval_g):
        self._problem = problem
        self.eval_f = eval_f
        self.eval_g = eval_g

    def __getattr__(self, name):
        return getattr(self._problem, name)
