"""Limited-memory BFGS trust-region solver with a two-scale dense initialization.

The solver separates the search space into the low-dimensional subspace where
curvature pairs have been observed and its orthogonal complement, assigns each
its own curvature scale, and solves shape-changing-norm trust-region
subproblems in closed form.  A benchmark harness compares initialization
policies via performance profiles.

The package exports what a caller needs to build a problem, solve it and read
the result.  The kernels stay in their modules (``trlbfgs.pairs``,
``trlbfgs.spectral``, ``trlbfgs.denseinit``, ``trlbfgs.subproblem`` and
``trlbfgs.driver``), each with its own ``__all__``.
"""

from .driver import IterationRecord, SolverConfig, SolverResult, minimize
from .problems import PROBLEM_NAMES, Problem, fd_check, get, registry

__version__ = "0.1.0"

__all__ = [
    "minimize",
    "SolverConfig",
    "SolverResult",
    "IterationRecord",
    "Problem",
    "registry",
    "get",
    "fd_check",
    "PROBLEM_NAMES",
    "__version__",
]
