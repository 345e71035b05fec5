"""Benchmark harness: configuration sweeps, performance profiles, file output.

The ``bench`` command line has two subcommands.  ``bench run`` executes a
matrix of solver configurations over registry problems, repeating each cell
for timing (the first runs are discarded as warm-up), and writes
``records.csv``, whose fields are quoted when they contain commas, and
``records.json``.  ``bench profile`` reads ``records.json``, leaves it as it
is, and writes ``profile_<metric>.tsv``: for each problem the metric is
divided by the best value any solver achieved, and a solver's column reports
the fraction of problems it solved within factor tau of the best.

``--solvers`` and ``--problems`` take lists, as in ``bench run --solvers
dense:c=2,lambda=1 conventional --problems ext_powell tridia``.  A solver
spec is ``conventional`` or ``dense[:c=...,lambda=...,everywhere=...]``, and
``--problems`` defaults to the whole registry.  Bad arguments, and a
``records.json`` that ``bench profile`` cannot read or profile, are usage
errors (exit status 2) reported before anything is solved or written.

Step counts, not only times, depend on the BLAS thread count, because the
threads change the rounding of the dense products: ``ext_rosenbrock`` at
n = 10^6 takes 50 steps with one OpenBLAS thread and 74 with two.  The
count is fixed when numpy loads, so set ``OPENBLAS_NUM_THREADS`` (or
``OMP_NUM_THREADS``/``MKL_NUM_THREADS``) before starting ``bench``.
``bench run`` records these variables, the library versions and the CPU
count in the ``meta`` of ``records.json``.
"""

import argparse
import csv
import json
import os
import platform
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from .driver import STATUS_CONVERGED, SolverConfig, minimize
from .problems import PROBLEM_NAMES, Problem, get

__all__ = [
    "RunRecord",
    "run_suite",
    "profile_ratios",
    "write_records",
    "write_profile",
    "load_records",
    "parse_solver_spec",
    "main",
]

DEFAULT_OUT_DIR = "bench_out"
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


def _check_repetitions(repetitions: int, discard: int) -> None:
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    if discard < 0:
        raise ValueError(f"discard must be at least 0, got {discard}")


# What a cell whose solve raised reports in place of a SolverResult.
_FAILED_RUN = SimpleNamespace(
    iterations=0, total_steps=0, status="numerical_failure", f_final=np.nan, g_norm_final=np.nan
)


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
    them).  A run that raises ends its cell with a ``numerical_failure``
    record, timed over the runs made; it does not abort the suite.
    """
    if not configs or not problems:
        raise ValueError("need at least one solver config and one problem")
    _check_repetitions(repetitions, discard)
    records = []
    for solver_id, config in configs:
        for prob in problems:
            times, results = [], []
            for _ in range(repetitions):
                t0 = time.perf_counter()
                try:
                    results.append(minimize(prob, prob.x0, config))
                except Exception:  # capture, never abort the suite
                    results.clear()
                    break
                finally:
                    times.append(time.perf_counter() - t0)
            res = _FAILED_RUN
            if results:
                iters = {r.iterations for r in results}
                if len(iters) != 1:
                    raise RuntimeError(
                        f"nondeterministic iteration counts {sorted(iters)} on "
                        f"{prob.name} with {solver_id}"
                    )
                res = results[-1]
                times = times[min(discard, repetitions - 1):]
            records.append(
                RunRecord(
                    problem=prob.name,
                    n=prob.n,
                    solver_id=solver_id,
                    iterations=res.iterations,
                    total_steps=res.total_steps,
                    time_seconds=float(np.mean(times)),
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
    problem_keys = list(dict.fromkeys((r.problem, r.n) for r in records))
    solver_ids = list(dict.fromkeys(r.solver_id for r in records))
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
            # Against a clamped 0 (tiny) a ratio can exceed the largest
            # float; it is then inf, which lies beyond TAU_GRID either way.
            with np.errstate(over="ignore"):
                pi[i] = values[i] / best
    return problem_keys, solver_ids, pi


def write_records(records: list[RunRecord], out_dir, meta: dict) -> list[Path]:
    """Write ``records.csv``, a column per ``RunRecord`` field, and ``records.json`` to out_dir."""
    out_dir = Path(out_dir)
    csv_path = out_dir / "records.csv"
    json_path = out_dir / "records.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(f.name for f in fields(RunRecord))
        writer.writerows(astuple(r) for r in records)
    payload = {"meta": meta, "records": [asdict(r) for r in records]}
    json_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return [csv_path, json_path]


def write_profile(records: list[RunRecord], metric: str, out_dir) -> Path:
    """Write ``profile_<metric>.tsv``, the profile of ``records`` over ``TAU_GRID``."""
    if not records:
        raise ValueError("no records to profile")
    _, solver_ids, pi = profile_ratios(records, metric)
    lines = ["\t".join(["tau", *solver_ids])]
    for tau in TAU_GRID:
        rho = (pi <= tau).sum(axis=0) / pi.shape[0]
        lines.append("\t".join(repr(float(v)) for v in (tau, *rho)))
    out_dir = Path(out_dir)
    path = out_dir / f"profile_{metric}.tsv"
    out_dir.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_records(path) -> list[RunRecord]:
    """Read back the records of a records.json written by ``write_records``; its meta is not read.

    A file that does not hold such records raises ValueError.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        return [RunRecord(**r) for r in payload["records"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a list of bench records: {exc!r}") from None


def _environment() -> dict:
    """What step counts and times depend on besides the code; unset variables are None."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def _solver_config(spec: str, base: dict) -> tuple[str, SolverConfig]:
    """``(solver_id, config)`` for one solver spec; a ValueError names the spec."""
    try:
        solver_id, overrides = parse_solver_spec(spec)
        return solver_id, SolverConfig(**base, **overrides)
    except ValueError as exc:
        raise ValueError(f"invalid solver spec {spec!r}: {exc}") from None


def _cmd_run(args) -> int:
    base = dict(m=args.m, epsilon=args.epsilon, max_iter=args.max_iter)
    try:
        configs = [_solver_config(spec, base) for spec in args.solvers]
        problems = [get(name, args.n) for name in args.problems]
        _check_repetitions(args.reps, args.discard)
        # profile_ratios rejects a second record of the same cell.
        for given in ([solver_id for solver_id, _ in configs], args.problems):
            if len(set(given)) < len(given):
                raise ValueError(f"each solver and problem can be given once, got {given}")
    except ValueError as exc:
        args.usage_error(str(exc))

    records = run_suite(configs, problems, repetitions=args.reps, discard=args.discard)
    meta = {
        "n": args.n,
        "repetitions": args.reps,
        "discard": args.discard,
        "problems": args.problems,
        "solver_specs": args.solvers,
        "solver_config_base": base,
        "environment": _environment(),
    }
    paths = write_records(records, args.out, meta)
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
    path = in_dir / "records.json"
    try:
        out = write_profile(load_records(path), args.metric, args.out or in_dir)
    except (OSError, ValueError) as exc:
        args.usage_error(f"cannot profile {path}: {exc}")
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark the trust-region solver over the problem registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a solver/problem sweep")
    run_p.add_argument(
        "--problems",
        nargs="+",
        choices=PROBLEM_NAMES,
        default=list(PROBLEM_NAMES),
        metavar="NAME",
        help="registry problems (default: all of them)",
    )
    run_p.add_argument("--n", type=int, default=1000, help="problem dimension")
    run_p.add_argument(
        "--solvers",
        nargs="+",
        default=["dense:c=1,lambda=0.5,everywhere=true", "conventional"],
        metavar="SPEC",
        help="solver specs, e.g. dense:c=2,lambda=1 conventional",
    )
    run_p.add_argument("--reps", type=int, default=10)
    run_p.add_argument("--discard", type=int, default=2, help="warm-up runs dropped from timing")
    run_p.add_argument("--out", default=DEFAULT_OUT_DIR, help="output directory")
    run_p.add_argument("--epsilon", type=float, default=1e-10)
    run_p.add_argument("--m", type=int, default=5)
    run_p.add_argument("--max-iter", type=int, default=10000, dest="max_iter")
    run_p.set_defaults(func=_cmd_run, usage_error=run_p.error)

    prof_p = sub.add_parser("profile", help="compute performance profiles from records")
    prof_p.add_argument("--metric", choices=sorted(METRIC_FIELDS), default="iter")
    prof_p.add_argument("--in", dest="in_dir", required=True, help="directory with records.json")
    prof_p.add_argument("--out", default=None, help="output directory (defaults to --in)")
    prof_p.set_defaults(func=_cmd_profile, usage_error=prof_p.error)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
