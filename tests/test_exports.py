import ast
import importlib
import inspect
from pathlib import Path

import pytest

import trlbfgs

SUBMODULES = ("bench", "denseinit", "driver", "pairs", "problems", "spectral", "subproblem")
# Modules that run once per step or once per accepted pair.
STEP_MODULES = ("denseinit", "pairs", "spectral", "subproblem")
# scipy's validating wrappers and numpy's general assembly helpers; at
# n = 10^3 their overhead outweighs the 2m'-dimensional work they wrap.
WRAPPERS = ("solve_triangular", "cholesky", "block", "tril", "triu")
# The LAPACK routines numpy lacks.  Everything else comes from numpy: scipy
# bundles another OpenBLAS build, whose routines can round differently (see
# the spectral module's docstring).
SCIPY_LAPACK = ("dpstrf", "dtrtrs", "dpotrf")


@pytest.mark.parametrize("name", ["trlbfgs"] + [f"trlbfgs.{m}" for m in SUBMODULES])
def test_every_public_name_exists(name):
    # A name left in __all__ after its definition was deleted fails here, not at a caller.
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def _called_names():
    """Names called anywhere in the package: ``f(...)`` and ``mod.f(...)`` both count as ``f``."""
    called = set()
    for path in Path(trlbfgs.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return called


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_class_is_constructed_or_raised(name):
    # An exported type that nothing in the package builds is dead weight;
    # a raise calls its exception class, so it counts.
    module = importlib.import_module(f"trlbfgs.{name}")
    classes = [attr for attr in module.__all__ if inspect.isclass(getattr(module, attr))]
    assert [cls for cls in classes if cls not in _called_names()] == []


@pytest.mark.parametrize("name", STEP_MODULES)
def test_step_path_calls_no_wrapper(name):
    # Code only: docstrings may name the wrappers they replace.
    tree = ast.parse(inspect.getsource(importlib.import_module(f"trlbfgs.{name}")))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in WRAPPERS:
            found.append(ast.unparse(node))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [alias.name for alias in node.names if alias.name.split(".")[-1] in WRAPPERS]
    assert found == []


@pytest.mark.parametrize("name", STEP_MODULES)
def test_step_path_takes_from_scipy_only_the_lapack_numpy_lacks(name):
    tree = ast.parse(inspect.getsource(importlib.import_module(f"trlbfgs.{name}")))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if node.module != "scipy.linalg.lapack" or alias.name not in SCIPY_LAPACK
            ]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "scipy"]
    assert found == []
