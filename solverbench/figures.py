"""Regenerate the reference figures in README.md.

    python3 solverbench/figures.py --seeds 0-9 --seconds 40

For each workload it runs ``run.py`` once per seed with ``--trace 0`` and
prints, for every end-to-end metric, the median of the runs, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance
as a share of the median.  Then it makes one traced run per workload and
prints the per-layer metrics.  ``--noise S`` first times a fixed small solve
back to back for S seconds, to show how much the host's speed drifts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import HERE, PINNED, ROOT
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def noise_probe(seconds: float) -> None:
    """Time a fixed gen_rosenbrock solve at n = 200 back to back."""
    from workloads import import_trlbfgs, solver_config

    trlbfgs = import_trlbfgs()
    problem = trlbfgs.get("gen_rosenbrock", 200)
    config = solver_config(trlbfgs, "dense")
    trlbfgs.minimize(problem, problem.x0, config)
    times = []
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        t0 = time.perf_counter()
        trlbfgs.minimize(problem, problem.x0, config)
        times.append(time.perf_counter() - t0)
    q1, med, q3 = statistics.quantiles(times, n=4)
    print(f"host noise: {len(times)} solves of gen_rosenbrock n=200, "
          f"min {min(times):.3f} s, quartiles {q1:.3f} / {med:.3f} / {q3:.3f} s, max {max(times):.3f} s, "
          f"IQR/median {(q3 - q1) / med:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-9", help="a range such as 0-9, or a list such as 1,5,7")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--noise", type=float, default=0.0, help="seconds of host-noise probe first")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--noise-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.noise_probe is not None:
        noise_probe(args.noise_probe)
        return 0
    if args.noise:
        subprocess.run([sys.executable, __file__, "--noise-probe", repr(args.noise)],
                       cwd=ROOT, env={**os.environ, **PINNED}, check=True)

    for workload in args.workloads.split(","):
        values = {}
        shares = set()
        correct = True
        for seed in parse_seeds(args.seeds):
            result = bench(workload, seed, args.seconds, 0)
            shares.add(f"{result['failed']}/{result['attempted']}")
            correct = correct and result["correct"]
            summary = ", ".join(f"{k} {m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"  seed {seed}: {summary}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        print(f"{workload}: failed/attempted per run {sorted(shares)}, correct {correct}", flush=True)
        for name, (unit, vals) in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            print(f"  {name:12s} median {med:12.4f} {unit:5s} Q1 {q1:12.4f} Q3 {q3:12.4f} "
                  f"IQR/median {(q3 - q1) / med:.4f}  (n = {len(vals)})", flush=True)
        if not args.no_trace:
            result = bench(workload, 0, args.seconds, 1)
            for name, metric in result["metrics"].items():
                print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
