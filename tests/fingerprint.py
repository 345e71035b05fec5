"""Print a bitwise fingerprint of every solve in the reference sweep.

Usage, from the root of the repository:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/fingerprint.py > after.txt

The sweep is the registry at n = 20, 200 and 1000 under four solver specs
(``SPECS``), plus ``ext_powell`` at n = 10^5 and ``ext_rosenbrock`` at
n = 10^6: 134 solves.  Each line gives the solve, its status, total steps,
accepted iterations, ``f_final.hex()``, the sha1 of ``x_final``'s bytes, the
function and gradient evaluation counts, the rejected pairs, and
``max_gamma.hex()`` and ``max_gamma_perp.hex()``, so two checkouts solve
identically exactly when their outputs are equal (``diff before.txt
after.txt``).  Step counts move with round-off, so a comparison is only
meaningful with one BLAS thread on both sides.
``--sizes`` picks the registry sizes and ``--no-large`` drops the two large
solves.  ``--keep-trace`` solves with a trace, which takes the shape-changing
norm of every step and so the factorization of every pair state; its output
must equal the output without it.

pytest does not collect this file; ``test_driver.py`` runs it at n = 20.
"""

import argparse
import hashlib

import trlbfgs as t
from trlbfgs.bench import parse_solver_spec

SPECS = ("dense", "conventional", "dense:everywhere=false", "dense:c=2,lambda=1")
SIZES = (20, 200, 1000)
LARGE = (("ext_powell", 10**5), ("ext_rosenbrock", 10**6))


def solves(sizes=SIZES, large=True):
    """(spec, problem name, n) of every solve in the sweep, in print order."""
    for n in sizes:
        for name in t.PROBLEM_NAMES:
            for spec in SPECS:
                yield spec, name, n
    if large:
        for name, n in LARGE:
            yield "dense", name, n


def fingerprint(spec: str, name: str, n: int, keep_trace: bool = False) -> str:
    _, overrides = parse_solver_spec(spec)
    problem = t.get(name, n)
    res = t.minimize(problem, problem.x0, t.SolverConfig(**overrides, keep_trace=keep_trace))
    digest = hashlib.sha1(res.x_final.tobytes()).hexdigest()
    return (
        f"{spec} {name} {n} {res.status} {res.total_steps} {res.iterations} "
        f"{float(res.f_final).hex()} {digest} {res.f_evals} {res.g_evals} {res.pair_rejections} "
        f"{float(res.max_gamma).hex()} {float(res.max_gamma_perp).hex()}"
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES, help="registry dimensions")
    parser.add_argument("--no-large", dest="large", action="store_false", help="skip the n = 10^5 and 10^6 solves")
    parser.add_argument("--keep-trace", action="store_true", help="solve with SolverConfig(keep_trace=True)")
    args = parser.parse_args(argv)
    for solve in solves(args.sizes, args.large):
        print(fingerprint(*solve, keep_trace=args.keep_trace), flush=True)


if __name__ == "__main__":
    main()
