import zlib

import numpy as np
import pytest

import trlbfgs as t
from trlbfgs.problems import PROBLEM_NAMES, fd_check


REQUIRED = {
    "quad_diag",
    "ext_rosenbrock",
    "gen_rosenbrock",
    "ext_powell",
    "trigonometric",
    "penalty",
    "cosine_mixture",
}

# Central-difference step that balances truncation, O(h^2), against
# roundoff, about eps*|f|/h (Nocedal & Wright, section 8.1).
FD_STEP = np.finfo(float).eps ** (1 / 3)


def test_registry_contents():
    probs = t.registry(40)
    assert len(probs) >= 10
    names = {p.name for p in probs}
    assert REQUIRED <= names
    for p in probs:
        assert p.n == 40
        assert p.x0.shape == (40,)


def test_quad_diag_default_spectrum():
    prob = t.get("quad_diag", 5)
    # A = diag(1..n): f(ones) = (1+2+3+4+5)/2
    assert prob.eval_f(np.ones(5)) == pytest.approx(7.5)
    assert np.allclose(prob.eval_g(np.ones(5)), [1, 2, 3, 4, 5])
    assert prob.f_opt_hint == 0.0
    assert prob.eval_f(np.zeros(5)) == 0.0


def test_ext_rosenbrock_minimizer():
    prob = t.get("ext_rosenbrock", 6)
    assert prob.eval_f(np.ones(6)) == 0.0
    assert np.allclose(prob.eval_g(np.ones(6)), 0.0)


def test_penalty_minimum_is_zero():
    prob = t.get("penalty", 30)
    # targets are generated from a feasible point, so some x attains f = 0;
    # verify the generating point itself
    base = 1.0 + np.arange(1.0, 31.0) / 30
    xhat = 0.5 * base / np.linalg.norm(base)
    assert prob.eval_f(xhat) <= 1e-28
    assert np.abs(prob.eval_g(xhat)).max() <= 1e-13


def test_cosine_mixture_optimum_hint():
    prob = t.get("cosine_mixture", 7)
    assert prob.f_opt_hint == pytest.approx(-0.7)
    assert prob.eval_f(np.zeros(7)) == pytest.approx(-0.7)
    assert np.allclose(prob.eval_g(np.zeros(7)), 0.0)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_gradients_match_finite_differences(name):
    n = 20
    prob = t.get(name, n)
    # crc32, unlike hash(), does not change with PYTHONHASHSEED
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(10):
        x = prob.x0 + 0.5 * rng.standard_normal(n)
        assert fd_check(prob, x, FD_STEP) <= 1e-6


def test_fd_check_quadratic_is_exact_to_roundoff():
    # A quadratic has no truncation error at any step, so a large step leaves
    # only roundoff (eps*|f|/h, about 1e-12 here).  At the same step a function
    # with a nonzero third derivative must exceed the bound.
    h = 1e-2
    rng = np.random.default_rng(60)
    x = rng.standard_normal(10)
    assert fd_check(t.get("quad_diag", 10), x, h) <= 1e-9
    for name in ("dqrtic", "gen_rosenbrock", "cosine_mixture"):
        assert fd_check(t.get(name, 10), x, h) > 1e-9


def test_fd_check_flags_broken_gradient():
    good = t.get("gen_rosenbrock", 8)
    broken = t.Problem(
        "broken", 8, good.eval_f, lambda x: 2.0 * good.eval_g(x), good.x0
    )
    x = good.x0 + 0.1
    assert fd_check(broken, x, 1e-6) > 1e-2


def test_fd_check_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_check(t.get("quad_diag", 4), np.ones(4), h=0.0)


def test_problems_are_pure():
    for prob in t.registry(24):
        x = prob.x0 + 0.25
        assert prob.eval_f(x) == prob.eval_f(x)
        assert np.array_equal(prob.eval_g(x), prob.eval_g(x))
        # evaluation must not mutate the input
        before = x.copy()
        prob.eval_f(x)
        prob.eval_g(x)
        assert np.array_equal(x, before)


def test_unknown_name_raises_keyerror():
    with pytest.raises(KeyError):
        t.get("nonexistent", 10)


def test_dimension_constraints_raise():
    with pytest.raises(ValueError, match="got 0"):
        t.get("quad_diag", 0)
    with pytest.raises(ValueError):
        t.get("ext_rosenbrock", 7)
    with pytest.raises(ValueError):
        t.get("ext_powell", 6)
