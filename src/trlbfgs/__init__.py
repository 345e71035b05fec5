"""Limited-memory BFGS trust-region solver with a two-scale dense initialization.

The solver separates the search space into the low-dimensional subspace where
curvature pairs have been observed and its orthogonal complement, assigns each
its own curvature scale, and solves shape-changing-norm trust-region
subproblems in closed form.  A benchmark harness compares initialization
policies via performance profiles.
"""

from .denseinit import (
    InitPolicy,
    InverseRep,
    build_inverse,
    unconstrained_norm,
    unconstrained_step,
)
from .driver import (
    IterationRecord,
    SolverConfig,
    SolverResult,
    initial_point_step,
    minimize,
    radius_update,
    step_selection,
)
from .errors import DegenerateFactorizationError, EmptyHistoryError, LineSearchError
from .pairs import PairBuffer
from .problems import PROBLEM_NAMES, Problem, fd_check, get, registry
from .spectral import (
    SpectralFactorization,
    apply_P_par,
    apply_P_par_T,
    build_middle,
    factorize,
    perp_norm_sq,
    sc_norm,
)
from .subproblem import (
    assemble_step,
    model_reduction,
    solve_parallel,
    solve_perp_beta,
)

__version__ = "0.1.0"

__all__ = [
    "PairBuffer",
    "SpectralFactorization",
    "build_middle",
    "factorize",
    "apply_P_par",
    "apply_P_par_T",
    "perp_norm_sq",
    "sc_norm",
    "InitPolicy",
    "InverseRep",
    "build_inverse",
    "unconstrained_step",
    "unconstrained_norm",
    "solve_parallel",
    "solve_perp_beta",
    "assemble_step",
    "model_reduction",
    "SolverConfig",
    "SolverResult",
    "IterationRecord",
    "minimize",
    "step_selection",
    "initial_point_step",
    "radius_update",
    "Problem",
    "registry",
    "get",
    "fd_check",
    "PROBLEM_NAMES",
    "EmptyHistoryError",
    "DegenerateFactorizationError",
    "LineSearchError",
    "__version__",
]
