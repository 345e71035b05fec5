import importlib

import pytest

SUBMODULES = ("bench", "denseinit", "driver", "pairs", "problems", "spectral", "subproblem")


@pytest.mark.parametrize("name", ["trlbfgs"] + [f"trlbfgs.{m}" for m in SUBMODULES])
def test_every_public_name_exists(name):
    # A name left in __all__ after its definition was deleted fails here, not at a caller.
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
