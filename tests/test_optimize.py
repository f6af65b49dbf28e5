"""The shared quasi-Newton routine on functions whose minimizers are known."""

import numpy as np

from nbodyred import optimize
from nbodyred.optimize import quasi_newton


def half_square(c):
    """f = |x - c|^2 / 2 with its gradient."""
    c = np.asarray(c, dtype=float)
    return lambda x: (0.5 * float((x - c) @ (x - c)), x - c)


def start(fun, x):
    x = np.asarray(x, dtype=float)
    return (fun, x, *fun(x))


def test_quadratic_is_solved_in_two_steps():
    # |g| = 5 > 1: the first step is -g / |g|, after which the one stored
    # pair (s, y = s) scales the recursion to the exact Newton step
    fun = half_square([3.0, 4.0])
    run = quasi_newton(*start(fun, [0.0, 0.0]), 1e-12)
    assert (run.guard, run.nit, run.nfev) == ("converged", 2, 2)
    assert np.abs(run.x - [3.0, 4.0]).max() < 1e-14 and run.gnorm <= 1e-12


def test_metric_gives_the_newton_step_from_the_start():
    # f = sum w_i x_i^2 / 2 - b.x with metric w: with |g| <= 1 the first
    # direction -g / w is the Newton step
    w, b = np.array([1.0, 10.0, 100.0]), np.array([0.3, -0.2, 0.5])

    def fun(x):
        return 0.5 * float(x @ (w * x)) - float(b @ x), w * x - b

    run = quasi_newton(*start(fun, np.zeros(3)), 1e-14, metric=w)
    assert (run.guard, run.nit, run.nfev) == ("converged", 1, 1)
    assert np.abs(run.x - b / w).max() < 1e-16


def test_steps_into_a_wall_are_rejected():
    # f = 2 (x - 1)^2 below x = 1.2 and inf beyond: the first trial point
    # 1.3 lies past the wall, its halves do not
    asked = []

    def fun(x):
        asked.append(float(x[0]))
        if x[0] > 1.2:
            return np.inf, None
        return 2.0 * float((x[0] - 1.0) ** 2), 4.0 * (x - 1.0)

    run = quasi_newton(*start(fun, [0.9]), 1e-12)
    assert run.guard == "converged" and abs(run.x[0] - 1.0) < 1e-12
    assert asked[1] > 1.2 and run.nfev == len(asked) - 1


def test_non_finite_gradient_is_rejected():
    # the gradient of |x - 1|^2 / 2 turns NaN at x >= 0.8: the iterates
    # crowd up to 0.8 until no step is accepted
    def fun(x):
        f, g = half_square([1.0])(x)
        return f, g if x[0] < 0.8 else np.full_like(g, np.nan)

    run = quasi_newton(*start(fun, [0.0]), 1e-12)
    assert run.guard == "stalled" and 0.79 < run.x[0] < 0.8
    assert run.gnorm == abs(run.x[0] - 1.0)


def test_value_flat_to_rounding_accepts_a_step_that_shrinks_the_gradient():
    # every evaluation returns one ulp more than the last, so no step passes
    # the Armijo test, but each that shrinks |g| passes the flat one
    calls = []

    def fun(x):
        calls.append(1)
        return 1.0 + np.spacing(1.0) * len(calls), x.copy()

    run = quasi_newton(*start(fun, [0.3, -0.4]), 1e-12)
    assert run.guard == "converged" and np.abs(run.x).max() <= 1e-12


def test_stop_is_relative_to_the_value():
    fun = lambda x: (1e6 + 0.5 * float(x @ x), x.copy())   # noqa: E731
    x = np.array([3.0, 4.0])
    assert quasi_newton(*start(fun, x), 1e-12, rtol=1e-5).nit == 0          # 5 <= 10
    assert quasi_newton(*start(fun, x), 1e-12, rtol=1e-7).guard == "converged"


def test_uphill_gradient_stalls():
    # g points uphill, so no trial point decreases f
    def fun(x):
        return float(x @ x), -x

    x0 = np.array([0.5, 0.5])
    run = quasi_newton(*start(fun, x0), 1e-12)
    assert (run.guard, run.nit, run.nfev) == ("stalled", 0, 40)
    assert run.x is x0 and run.f == 0.5


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(optimize, "MAX_ITER", 3)

    def rosenbrock(x):
        a, b = x
        f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
        return f, np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])

    run = quasi_newton(*start(rosenbrock, [-1.2, 1.0]), 1e-12)
    assert (run.guard, run.nit) == ("budget", 3)
    assert run.f < 24.2 and run.gnorm > 1e-12


def test_sphere_retraction_finds_the_minimum_of_a_linear_function():
    # min c.x on |x| = 1 is at -c / |c|; the gradient is the tangential part
    c = np.array([0.3, -1.2, 0.4, 2.0])

    def fun(x):
        return float(c @ x), c - (c @ x) * x

    def sphere(x, p, t):
        z = x + t * p
        return z / np.linalg.norm(z)

    x0 = np.ones(4) / 2.0
    run = quasi_newton(*start(fun, x0), 1e-12, step=sphere)
    assert run.guard == "converged"
    assert np.abs(run.x + c / np.linalg.norm(c)).max() < 1e-12
    assert abs(np.linalg.norm(run.x) - 1.0) < 1e-15
