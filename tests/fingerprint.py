"""Print a bitwise fingerprint of every solve in the reference sweep.

Usage, from the root of the repository:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/fingerprint.py > after.txt

The sweep is the registry at n = 20, 200 and 1000 and ``sum(cos x)`` from
four constant starts (``COSINE_STARTS``), each under three solver specs
(``SPECS``), plus ``ext_powell`` at n = 10^5 and ``ext_rosenbrock`` at
n = 10^6: 113 solves.  The ``sum(cos x)`` solves reject their seed pair and
take their first 3 or 4 steps with no pair stored, which no other solve of
the sweep does.  Each line gives the solve, its status, total steps,
accepted iterations, ``f_final.hex()``, the sha1 of ``x_final``'s bytes, the
function and gradient evaluation counts, the rejected pairs, and
``max_gamma.hex()`` and ``max_gamma_perp.hex()``, so two checkouts solve
identically exactly when their outputs are equal (``diff before.txt
after.txt``).  Step counts move with round-off, so a comparison is only
meaningful with one BLAS thread on both sides: run as a script, it exits
with status 2 unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is 1.
``--sizes`` picks the registry sizes and ``--no-large`` drops the two large
solves; the ``sum(cos x)`` solves run in every sweep.  ``--keep-trace``
solves with a trace, which takes the shape-changing norm of every step and
so the factorization of every pair state.  Each solve's line is then
followed by a ``trace`` line with the number of its ``IterationRecord``
entries and the sha1 of all their fields (floats as ``float.hex``), so the
check covers ``rho``, ``step_norm``, ``rank`` and ``accepted`` as well.
Without its ``trace`` lines that output must equal the output without the
flag.  ``--header`` first prints ``# key value`` lines naming the
environment that rounded the sweep (``trlbfgs.bench.environment``).

``fingerprint_n20.txt`` beside this file records the n = 20 sweep with its
trace lines and that header, made with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/fingerprint.py --sizes 20 --no-large --keep-trace --header > tests/fingerprint_n20.txt

and ``test_fingerprint.py`` compares the sweep with it.  A change that moves
round-off rewrites the file in its own diff, where the solves that moved
can be read.  pytest does not collect this file; ``test_driver.py`` and
``test_fingerprint.py`` run it at n = 20.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

import trlbfgs as t
from trlbfgs.bench import environment, parse_solver_spec

SPECS = ("dense", "conventional", "dense:c=2,lambda=1")
SIZES = (20, 200, 1000)
# (n, x0) of the sum(cos x) solves, each from the constant start x0.
COSINE_STARTS = ((10, 0.1), (10, 0.05), (50, 0.2), (7, -0.3))
LARGE = (("ext_powell", 10**5), ("ext_rosenbrock", 10**6))
RECORDED = Path(__file__).with_name("fingerprint_n20.txt")


def cosine_sum(n: int, x0: float) -> t.Problem:
    """``sum(cos x)`` from ``x = x0``; its name carries the start."""
    return t.Problem(f"cos_sum@{x0}", n, lambda x: float(np.cos(x).sum()), lambda x: -np.sin(x), np.full(n, x0))


def solves(sizes=SIZES, large=True):
    """(spec, problem) of every solve in the sweep, in print order, each problem built when reached."""
    for n in sizes:
        for name in t.PROBLEM_NAMES:
            for spec in SPECS:
                yield spec, t.get(name, n)
    for n, x0 in COSINE_STARTS:
        for spec in SPECS:
            yield spec, cosine_sum(n, x0)
    if large:
        for name, n in LARGE:
            yield "dense", t.get(name, n)


def trace_digest(trace) -> str:
    """sha1 of every field of every record, one line per record, floats as ``float.hex``."""
    digest = hashlib.sha1()
    for record in trace:
        fields = (v.hex() if isinstance(v, float) else str(v) for v in dataclasses.astuple(record))
        digest.update((" ".join(fields) + "\n").encode())
    return digest.hexdigest()


def fingerprint(spec: str, problem: t.Problem, keep_trace: bool = False) -> str:
    """The solve's line, and with ``keep_trace`` its ``trace`` line after it."""
    _, overrides = parse_solver_spec(spec)
    res = t.minimize(problem, problem.x0, t.SolverConfig(**overrides, keep_trace=keep_trace))
    digest = hashlib.sha1(res.x_final.tobytes()).hexdigest()
    line = (
        f"{spec} {problem.name} {problem.n} {res.status} {res.total_steps} {res.iterations} "
        f"{float(res.f_final).hex()} {digest} {res.f_evals} {res.g_evals} {res.pair_rejections} "
        f"{float(res.max_gamma).hex()} {float(res.max_gamma_perp).hex()}"
    )
    if keep_trace:
        line += f"\ntrace {len(res.trace)} {trace_digest(res.trace)}"
    return line


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES, help="registry dimensions")
    parser.add_argument("--no-large", dest="large", action="store_false", help="skip the n = 10^5 and 10^6 solves")
    parser.add_argument("--keep-trace", action="store_true", help="solve with SolverConfig(keep_trace=True)")
    parser.add_argument("--header", action="store_true", help="first print the environment as '# key value' lines")
    args = parser.parse_args(argv)
    if args.header:
        for key, value in environment().items():
            print(f"# {key} {value}")
    for solve in solves(args.sizes, args.large):
        print(fingerprint(*solve, keep_trace=args.keep_trace), flush=True)


if __name__ == "__main__":
    if "1" not in (os.environ.get("OPENBLAS_NUM_THREADS"), os.environ.get("OMP_NUM_THREADS")):
        print(
            "fingerprint.py: set OPENBLAS_NUM_THREADS=1 (or OMP_NUM_THREADS=1);"
            " step counts move with the BLAS thread count",
            file=sys.stderr,
        )
        raise SystemExit(2)
    main()
