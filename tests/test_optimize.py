"""The shared quasi-Newton routine on functions whose minimizers are known."""

import numpy as np
import pytest

import nbodyred.action
import nbodyred.configurations
from nbodyred import optimize
from nbodyred.action import MinimizeOptions, minimize_action, square_relative_equilibrium_loop, symmetry_by_label
from nbodyred.configurations import find_balanced, find_central
from nbodyred.geometry import MassSystem
from nbodyred.optimize import quasi_newton
from oracles import quasi_newton as quasi_newton_reference


def half_square(c):
    """f = |x - c|^2 / 2 with its gradient."""
    c = np.asarray(c, dtype=float)
    return lambda x: (0.5 * float((x - c) @ (x - c)), x - c)


def start(fun, x):
    x = np.asarray(x, dtype=float)
    return (fun, x, *fun(x))


def rosenbrock(x):
    a, b = x
    f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    return f, np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])


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


# ---------------------------------------------------------------------------
# the live routine against the earlier one, kept verbatim in oracles.py: the
# same points asked of fun and the same Search, bit for bit


def run_both(make):
    """Both routines on make(), a fresh (args, kwargs) for each; returns the
    live Search and the points it asked for, after checking both against
    the reference's."""
    out = []
    for routine in (quasi_newton, quasi_newton_reference):
        (fun, *args), kwargs = make()
        asked = []

        def recorded(x, fun=fun, asked=asked):
            asked.append(np.array(x))
            return fun(x)

        out.append((routine(recorded, *args, **kwargs), asked))
    (run, asked), (ref, ref_asked) = out
    assert [x.tobytes() for x in asked] == [x.tobytes() for x in ref_asked]
    assert np.asarray(run.x).tobytes() == np.asarray(ref.x).tobytes()
    assert np.float64(run.f).tobytes() == np.float64(ref.f).tobytes() and type(run.f) is type(ref.f)
    assert (run.gnorm, run.nit, run.nfev, run.guard) == (ref.gnorm, ref.nit, ref.nfev, ref.guard)
    assert type(run.gnorm) is type(ref.gnorm)
    return run, asked


def searches_of(monkeypatch, module, call):
    """The (args, kwargs) of every quasi_newton call that call() makes through module."""
    seen, live = [], module.quasi_newton

    def capture(*args, **kwargs):
        seen.append((args, kwargs))
        return live(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(module, "quasi_newton", capture)
        call()
    assert seen
    return seen


@pytest.mark.parametrize("label, K, gtol", [("z2z4", 16, 1e-6), ("z2z4", 64, 1e-9), ("italian", 16, 1e-6),
                                            ("z3", 16, 1e-12)])
def test_minimizer_search_repeats_the_reference(monkeypatch, label, K, gtol):
    # the evaluate of minimize_action, with its H^1 metric
    seed = square_relative_equilibrium_loop(2.0 * np.pi, MassSystem([1.0] * 4), K, vertical_kick=0.3)
    for search in searches_of(monkeypatch, nbodyred.action,
                              lambda: minimize_action(seed, symmetry_by_label(label), MinimizeOptions(gtol))):
        assert run_both(lambda: search)[0].guard == "converged"


@pytest.mark.parametrize("masses, d", [([1.0, 2.0, 3.0], 2), ([1.0, 2.0, 3.0], 1), ([1.0, 1.5, 2.0, 2.5, 3.0], 2),
                                       ([1.0] * 4, 3)])
def test_central_search_repeats_the_reference(monkeypatch, masses, d):
    # find_central's sphere step, which normalizes x + t p
    for seed in (1, 7):
        for search in searches_of(monkeypatch, nbodyred.configurations,
                                  lambda: find_central(MassSystem(masses), d, seed=seed)):
            run_both(lambda: search)


@pytest.mark.parametrize("masses, spectrum", [([1.0, 1.0, 1.0], [0.7, 0.3]), ([1.0, 2.0, 3.0], [2.0, 1.0]),
                                              ([1.0, 1.0, 1.0, 1.0], [0.5, 0.3, 0.2])])
def test_balanced_search_repeats_the_reference(monkeypatch, masses, spectrum):
    # find_balanced's Cayley step, whose point x is a rotation matrix
    for seed in (0, 3):
        for search in searches_of(monkeypatch, nbodyred.configurations,
                                  lambda: find_balanced(MassSystem(masses), spectrum, seed=seed)):
            run_both(lambda: search)


def test_failed_searches_repeat_the_reference():
    # Rosenbrock until the 15th call, after which no trial point passes: a
    # wall, a risen value or a NaN gradient in turn.  The search under way
    # fails along the stored pairs, is made again along -g scaled by the
    # metric, fails there too and ends "stalled"
    w2 = np.array([1.0, 4.0])

    def make():
        calls = []

        def fun(x):
            calls.append(1)
            f, g = rosenbrock(x)
            if len(calls) < 15:
                return f, g
            return [(np.inf, None), (f + 10.0, g), (f, np.full_like(g, np.nan))][len(calls) % 3]

        x0 = np.array([-1.2, 1.0])
        return (fun, x0, *fun(x0), 1e-12), {"metric": w2}

    run, asked = run_both(make)
    assert run.guard == "stalled" and run.nit >= 2 and run.nfev > 80
    # each failed search makes 40 trials, the first at t = 1: x + p
    g = rosenbrock(run.x)[1]
    steepest = -g / (w2 * max(np.sqrt(g @ g), 1.0))
    paired, retried = asked[-80] - run.x, asked[-40] - run.x
    assert np.abs(retried - steepest).max() <= 1e-12 * np.abs(steepest).max()
    assert paired @ steepest < (1.0 - 1e-6) * np.sqrt((paired @ paired) * (steepest @ steepest))
