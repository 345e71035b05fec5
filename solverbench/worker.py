"""One benchmark process: set up a workload, solve it in rounds, print one JSON line.

``run.py`` starts this script with the BLAS thread count already pinned in
its environment, so numpy never sees another setting.  With
``--setup-only`` it stops once it is ready to solve and reports only its
set-up time.  Otherwise it runs whole rounds of the workload's solves until
the next round would end after ``--seconds``, at least one round.  With
``--trace 1`` it alternates untraced and traced rounds.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

from references import failures
from run import PINNED
from workloads import EPSILON, build, import_trlbfgs, warmup


def environment(np, scipy) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in PINNED},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def solve_round(trlbfgs, solves, tracer=None) -> dict:
    """Run every solve once; time only the ``minimize`` calls."""
    seconds = 0.0
    outcomes = []
    for solve in solves:
        problem = solve.problem if tracer is None else tracer.wrap_problem(solve.problem)
        t0 = time.perf_counter()
        result = trlbfgs.driver.minimize(problem, solve.x0, solve.config)
        seconds += time.perf_counter() - t0
        outcomes.append(
            {
                "solve": solve.label,
                "status": result.status,
                "steps": result.total_steps,
                "iterations": result.iterations,
                "f": result.f_final,
                "failures": failures(solve.problem, solve.x0, result, EPSILON),
            }
        )
    return {"seconds": seconds, "traced": tracer is not None, "outcomes": outcomes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--perturb", type=float, default=0.0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if any(os.environ.get(k) != v for k, v in PINNED.items()):
        parser.error(f"start this through run.py, which sets {', '.join(PINNED)} to 1")

    import numpy as np
    import scipy

    trlbfgs = import_trlbfgs()
    solves = build(trlbfgs, args.workload, args.seed, args.perturb)
    warmup(trlbfgs, args.workload)
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds = []
    start = time.monotonic()
    passes = 0
    while True:
        rounds.append(solve_round(trlbfgs, solves))
        if tracer is not None:
            with tracer.installed():
                rounds.append(solve_round(trlbfgs, solves, tracer))
        passes += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / passes > args.seconds:
            break

    record = {
        "setup_s": setup_s,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(np, scipy),
    }
    if tracer is not None:
        traced = sum(r["traced"] for r in rounds)
        record["layers"] = tracer.metrics(traced)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
