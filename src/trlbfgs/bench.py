"""Benchmark harness: configuration sweeps, performance profiles, file output.

The ``bench`` command line has two subcommands.  ``bench run`` executes a
matrix of solver configurations over registry problems, repeating each cell
for timing (the first runs are discarded as warm-up) and writing the records
as CSV and JSON.  ``bench profile`` reads ``records.json``, leaves it as
it is, and writes performance-profile curves to ``profile_<metric>.tsv``:
for each problem the metric is divided by the best value any solver
achieved, and a curve reports the fraction of problems a solver solved
within factor tau of the best.

Solver specifications use the grammar
``dense:c=1,lambda=0.5,everywhere=true`` or ``conventional``.

Step counts, not only times, depend on the BLAS thread count, because the
threads change the rounding of the dense products: ``ext_rosenbrock`` at
n = 10^6 takes 50 steps with one OpenBLAS thread and 74 with two.  The
count is fixed when numpy loads, so set ``OPENBLAS_NUM_THREADS`` (or
``OMP_NUM_THREADS``/``MKL_NUM_THREADS``) before starting ``bench``.
``bench run`` records these variables, the library versions and the CPU
count in the ``meta`` of ``records.json``.
"""

import argparse
import json
import os
import platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

from .driver import STATUS_CONVERGED, SolverConfig, minimize
from .problems import PROBLEM_NAMES, Problem, get

__all__ = [
    "RunRecord",
    "ProfileCurve",
    "run_suite",
    "profile_ratios",
    "rho_at",
    "performance_profile",
    "emit",
    "load_records",
    "split_solver_specs",
    "parse_solver_spec",
    "main",
]

DEFAULT_OUT_DIR = "bench_out"
CSV_COLUMNS = (
    "problem",
    "n",
    "solver_id",
    "iterations",
    "total_steps",
    "time_seconds",
    "status",
    "f_final",
    "g_norm_final",
)
METRIC_FIELDS = {"iter": "iterations", "time": "time_seconds"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Log grid for the profile curves; tau = 1 is the first point.
TAU_GRID = np.logspace(0.0, 6.0, num=200, base=2.0)


@dataclass(frozen=True)
class RunRecord:
    problem: str
    n: int
    solver_id: str
    iterations: int
    total_steps: int
    time_seconds: float
    status: str
    f_final: float
    g_norm_final: float


@dataclass(frozen=True)
class ProfileCurve:
    solver_id: str
    metric: str
    taus: tuple
    rhos: tuple


def split_solver_specs(text: str) -> list[str]:
    """Split a comma-joined solver list, keeping commas inside each spec.

    A new spec starts at a token whose head is a known solver name, so
    ``dense:c=1,lambda=0.5,conventional`` splits into two specs.
    """
    specs: list[str] = []
    for token in (t.strip() for t in text.split(",")):
        if not token:
            continue
        head = token.split(":", 1)[0].split("=", 1)[0]
        if head in ("dense", "conventional"):
            specs.append(token)
        elif specs:
            specs[-1] += "," + token
        else:
            raise ValueError(f"solver list must start with a solver name, got {token!r}")
    if not specs:
        raise ValueError("no solver specifications given")
    return specs


def parse_solver_spec(spec: str) -> tuple[str, dict]:
    """Parse one solver spec into (solver_id, SolverConfig overrides)."""
    spec = spec.strip()
    if spec == "conventional":
        return "conventional", {"conventional": True}
    if spec == "dense" or spec.startswith("dense:"):
        c, lam, everywhere = 1.0, 0.5, True
        body = spec[len("dense:"):] if spec.startswith("dense:") else ""
        for item in (s for s in body.split(",") if s):
            key, _, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "c":
                c = float(value)
            elif key == "lambda":
                lam = float(value)
            elif key == "everywhere":
                if value.lower() not in ("true", "false"):
                    raise ValueError(f"everywhere must be true or false, got {value!r}")
                everywhere = value.lower() == "true"
            else:
                raise ValueError(f"unknown solver option {key!r} in {spec!r}")
        solver_id = f"dense(c={c:g},lambda={lam:g},everywhere={str(everywhere).lower()})"
        return solver_id, {"c": c, "lam": lam, "dense_everywhere": everywhere}
    raise ValueError(f"unknown solver spec {spec!r}")


def run_suite(
    configs: list[tuple[str, SolverConfig]],
    problems: list[Problem],
    repetitions: int = 10,
    discard: int = 2,
) -> list[RunRecord]:
    """Run every (solver, problem) cell ``repetitions`` times.

    Iteration counts come from the deterministic solver and are asserted
    identical across repetitions; the reported time is the mean after
    dropping the first ``discard`` warm-up runs (never dropping all of
    them).  A failing run yields a record with its status; it does not
    abort the suite.
    """
    if not configs or not problems:
        raise ValueError("need at least one solver config and one problem")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    records = []
    for solver_id, config in configs:
        for prob in problems:
            times = []
            results = []
            failed = None
            for _ in range(repetitions):
                t0 = time.perf_counter()
                try:
                    res = minimize(prob, prob.x0, config)
                except Exception as exc:  # capture, never abort the suite
                    failed = exc
                    times.append(time.perf_counter() - t0)
                    break
                times.append(time.perf_counter() - t0)
                results.append(res)
            if failed is not None or not results:
                records.append(
                    RunRecord(
                        problem=prob.name,
                        n=prob.n,
                        solver_id=solver_id,
                        iterations=0,
                        total_steps=0,
                        time_seconds=float(np.mean(times)),
                        status="numerical_failure",
                        f_final=float("nan"),
                        g_norm_final=float("nan"),
                    )
                )
                continue
            iters = {r.iterations for r in results}
            if len(iters) != 1:
                raise RuntimeError(
                    f"nondeterministic iteration counts {sorted(iters)} on "
                    f"{prob.name} with {solver_id}"
                )
            keep = times[min(discard, repetitions - 1):]
            res = results[-1]
            records.append(
                RunRecord(
                    problem=prob.name,
                    n=prob.n,
                    solver_id=solver_id,
                    iterations=res.iterations,
                    total_steps=res.total_steps,
                    time_seconds=float(np.mean(keep)),
                    status=res.status,
                    f_final=res.f_final,
                    g_norm_final=res.g_norm_final,
                )
            )
    return records


def profile_ratios(records: list[RunRecord], metric: str):
    """Per-problem metric ratios against the best solver.

    Returns (problem_keys, solver_ids, pi) where ``pi[p, s]`` is the ratio
    for problem p and solver s; failed or missing runs carry +inf.
    """
    try:
        field = METRIC_FIELDS[metric]
    except KeyError:
        raise ValueError(f"metric must be one of {sorted(METRIC_FIELDS)}, got {metric!r}") from None
    problem_keys: list[tuple[str, int]] = []
    solver_ids: list[str] = []
    for r in records:
        key = (r.problem, r.n)
        if key not in problem_keys:
            problem_keys.append(key)
        if r.solver_id not in solver_ids:
            solver_ids.append(r.solver_id)
    values = np.full((len(problem_keys), len(solver_ids)), np.inf)
    seen = set()
    for r in records:
        cell = (r.problem, r.n, r.solver_id)
        if cell in seen:
            raise ValueError(f"duplicate record for {cell}")
        seen.add(cell)
        if r.status != STATUS_CONVERGED:
            continue
        v = float(getattr(r, field))
        if v == 0.0:
            v = np.finfo(float).tiny
        values[problem_keys.index((r.problem, r.n)), solver_ids.index(r.solver_id)] = v
    pi = np.full_like(values, np.inf)
    for i in range(values.shape[0]):
        best = values[i].min()
        if np.isfinite(best):
            pi[i] = values[i] / best
    return problem_keys, solver_ids, pi


def rho_at(pi: np.ndarray, tau: float) -> np.ndarray:
    """Fraction of problems within factor tau of the best, per solver."""
    return (pi <= tau).sum(axis=0) / pi.shape[0]


def performance_profile(
    records: list[RunRecord], metric: str, taus: np.ndarray | None = None
) -> list[ProfileCurve]:
    """Profile curves over a log-spaced tau grid (denominator: all problems)."""
    taus = TAU_GRID if taus is None else np.asarray(taus, dtype=float)
    _, solver_ids, pi = profile_ratios(records, metric)
    rho = np.stack([rho_at(pi, t) for t in taus])  # (len(taus), n_solvers)
    return [
        ProfileCurve(
            solver_id=sid,
            metric=metric,
            taus=tuple(float(t) for t in taus),
            rhos=tuple(float(r) for r in rho[:, j]),
        )
        for j, sid in enumerate(solver_ids)
    ]


def _record_to_row(r: RunRecord) -> list[str]:
    return [
        r.problem,
        str(r.n),
        r.solver_id,
        str(r.iterations),
        str(r.total_steps),
        repr(r.time_seconds),
        r.status,
        repr(r.f_final),
        repr(r.g_norm_final),
    ]


def emit(
    records: list[RunRecord],
    curves: list[ProfileCurve],
    fmt: str,
    out_dir,
    meta: dict | None = None,
) -> list[Path]:
    """Write records/curves in one of the supported formats; returns the paths.

    csv: the run records, fixed column order.  json: records plus the full
    configuration for reproducibility.  tsv-profile: plot-ready rows of tau
    and one rho column per solver.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if fmt == "csv":
            path = out_dir / "records.csv"
            lines = [",".join(CSV_COLUMNS)]
            lines += [",".join(_record_to_row(r)) for r in records]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return [path]
        if fmt == "json":
            path = out_dir / "records.json"
            payload = {
                "meta": meta or {},
                "records": [asdict(r) for r in records],
            }
            path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
            return [path]
        if fmt == "tsv-profile":
            if not curves:
                raise ValueError("tsv-profile needs at least one curve")
            path = out_dir / f"profile_{curves[0].metric}.tsv"
            header = "tau\t" + "\t".join(c.solver_id for c in curves)
            lines = [header]
            for i, tau in enumerate(curves[0].taus):
                lines.append(
                    "\t".join([repr(tau)] + [repr(c.rhos[i]) for c in curves])
                )
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return [path]
    except OSError as exc:
        raise OSError(f"cannot write benchmark output under {out_dir}: {exc}") from exc
    raise ValueError(f"unknown format {fmt!r}")


def load_records(path) -> tuple[list[RunRecord], dict]:
    """Read back records.json written by ``emit``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    records = [RunRecord(**r) for r in payload["records"]]
    return records, payload.get("meta", {})


def _environment() -> dict:
    """What step counts and times depend on besides the code; unset variables are None."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def _cmd_run(args) -> int:
    names = list(PROBLEM_NAMES) if args.problems == "all" else [
        s.strip() for s in args.problems.split(",") if s.strip()
    ]
    problems = [get(name, args.n) for name in names]
    base = dict(m=args.m, epsilon=args.epsilon, max_iter=args.max_iter)
    configs = []
    for spec in split_solver_specs(args.solvers):
        solver_id, solver_overrides = parse_solver_spec(spec)
        configs.append((solver_id, SolverConfig(**base, **solver_overrides)))

    records = run_suite(configs, problems, repetitions=args.reps, discard=args.discard)
    meta = {
        "n": args.n,
        "repetitions": args.reps,
        "discard": args.discard,
        "problems": names,
        "solver_specs": split_solver_specs(args.solvers),
        "solver_config_base": base,
        "environment": _environment(),
    }
    paths = emit(records, [], "csv", args.out)
    paths += emit(records, [], "json", args.out, meta=meta)
    for r in records:
        print(
            f"{r.solver_id} {r.problem} n={r.n}: {r.status}, "
            f"iter={r.iterations}, time={r.time_seconds:.4f}s"
        )
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_profile(args) -> int:
    in_dir = Path(args.in_dir)
    records, _ = load_records(in_dir / "records.json")
    curves = performance_profile(records, args.metric)
    paths = emit(records, curves, "tsv-profile", args.out or in_dir)
    for p in paths:
        print(f"wrote {p}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark the trust-region solver over the problem registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a solver/problem sweep")
    run_p.add_argument("--problems", default="all", help="'all' or comma-separated names")
    run_p.add_argument("--n", type=int, default=1000, help="problem dimension")
    run_p.add_argument(
        "--solvers",
        default="dense:c=1,lambda=0.5,everywhere=true,conventional",
        help="solver specs, e.g. 'dense:c=1,lambda=0.5,everywhere=true,conventional'",
    )
    run_p.add_argument("--reps", type=int, default=10)
    run_p.add_argument("--discard", type=int, default=2, help="warm-up runs dropped from timing")
    run_p.add_argument("--out", default=DEFAULT_OUT_DIR, help="output directory")
    run_p.add_argument("--epsilon", type=float, default=1e-10)
    run_p.add_argument("--m", type=int, default=5)
    run_p.add_argument("--max-iter", type=int, default=10000, dest="max_iter")
    run_p.set_defaults(func=_cmd_run)

    prof_p = sub.add_parser("profile", help="compute performance profiles from records")
    prof_p.add_argument("--metric", choices=sorted(METRIC_FIELDS), default="iter")
    prof_p.add_argument("--in", dest="in_dir", required=True, help="directory with records.json")
    prof_p.add_argument("--out", default=None, help="output directory (defaults to --in)")
    prof_p.set_defaults(func=_cmd_profile)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
