"""Solver benchmark: time a workload's solves and check every answer.

Usage, from the root of the repository:

    python3 solverbench/run.py --workload registry-1k --seed 0 --seconds 40 --trace 0

Workloads are ``registry-1k``, ``rosenbrock-1m`` and ``powell-100k`` (see
``workloads.py`` and ``README.md``).  This script imports no numpy: it starts
each process that solves with ``OPENBLAS_NUM_THREADS=1`` (and the OpenMP and
MKL equivalents) in its environment, so BLAS is pinned to one thread before
numpy is imported.  With ``--trace 0`` it runs ``SETUP_SAMPLES - 1``
processes that only set up, then one that sets up and solves, and reports
the end-to-end metrics.  With ``--trace 1`` one process alternates untraced
and traced rounds and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record of
the run, with the environment and every solve's outcome, is written to
``solverbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
# Every worker is killed if the whole run would otherwise pass this mark.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def worker(args, deadline: float, *extra: str) -> dict:
    """Run ``worker.py`` to completion and return its JSON line."""
    started = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--perturb", repr(args.perturb),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--started", repr(started),
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env={**os.environ, **PINNED},
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker passed the {DEADLINE_S:.0f} s deadline and was killed") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_sha():
    """HEAD of this checkout, or None when it is no git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def signature(outcome) -> tuple:
    return (outcome["solve"], outcome["status"], outcome["steps"], outcome["iterations"], bool(outcome["failures"]))


def summarize(record, setup_samples, trace: int):
    rounds = record["rounds"]
    first = rounds[0]["outcomes"]
    # Every round solves the same inputs; a round that disagrees makes the run incorrect.
    correct = all(
        [signature(o) for o in r["outcomes"]] == [signature(o) for o in first] for r in rounds
    )
    attempted = sum(len(r["outcomes"]) for r in rounds)
    failed = sum(bool(o["failures"]) for r in rounds for o in r["outcomes"])

    untraced = [r["seconds"] for r in rounds if not r["traced"]]
    solve_s = statistics.median(untraced)
    if trace:
        traced = statistics.median(r["seconds"] for r in rounds if r["traced"])
        metrics = dict(record["layers"])
        metrics["trace.overhead"] = (traced / solve_s, "ratio")
    else:
        steps = sum(o["steps"] for o in first)
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "solve_s": (solve_s, "s"),
            "step_ms": (solve_s * 1e3 / steps, "ms"),
            "steps": (steps, "count"),
            "iterations": (sum(o["iterations"] for o in first), "count"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="0 keeps registry order; others shuffle it")
    parser.add_argument(
        "--perturb", type=float, default=0.0,
        help="with a nonzero seed, scale each x0 by 1 + perturb*u, u uniform in [-1, 1)",
    )
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_samples.append(worker(args, deadline, "--setup-only")["setup_s"])
        record = worker(args, deadline)
    except WorkerError as exc:
        print(f"solverbench: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(record["setup_s"])

    result = summarize(record, setup_samples, args.trace)
    env = {**record["env"], "git_sha": git_sha()}
    for outcome in record["rounds"][0]["outcomes"]:
        if outcome["failures"]:
            print(f"failed {outcome['solve']}: {'; '.join(outcome['failures'])}")
    print("env " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump({**record, "args": vars(args), "env": env, "setup_samples": setup_samples, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
