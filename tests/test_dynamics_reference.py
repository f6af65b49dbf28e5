"""The integrators on the bound pair kernel against the code it replaced.

Each reference below is the earlier implementation, kept verbatim as the
oracle: the rk8 right-hand side through `pair_forces` (the earlier
geometry functions `pair_coefficients` and `pair_forces`, copied here),
wrapped by the `counted` budget closure of the DOP853 driver; the stepper
that sliced its stage matrices K[:s].T at every stage; the packed reduced
right-hand side as a method reached through a lambda; and the leapfrog
loop kicking through `pair_forces`.  Samples, work counts and raised
messages must agree with them bit for bit.  The leapfrog now also stops
where its energy strays from the initial one; that check only raises, so
a run it stops is compared with the reference with the check switched off.
The stepper now counts the budget and stops before it would pass it, and
a run that spends it next to a collapse raises CollisionError: where the
reference reduced route crawled into a collapse until its budget ran out,
the run names the collapse at the time the reference named.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest

from conftest import equilateral, squared_distance_table
from nbodyred import dop853, dynamics, geometry
from nbodyred.dop853 import A_ROWS, B, C, D, E3, E5, EPS, Solution, _dense
from nbodyred.errors import CollisionError, StepFailure
from nbodyred.geometry import (
    COLLISION_FLOOR,
    Configuration,
    MassSystem,
    RelativeState,
    State,
    Trajectory,
    _rows_product,
    beta_to_distances,
    centred,
    check_collision_floor,
    pair_kernel,
    squared_distances,
)
from nbodyred.dynamics import _sample_times, integrate_absolute, integrate_reduced, reduced_rhs


# ---------------------------------------------------------------------------
# the references


def pair_coefficients(s, sys, floor2):
    """c_p = 2 m_i m_j Phi'(s_p) of (..., P) squared distances, so that
    dU/dr_i = sum_j c_ij (r_i - r_j) and 2 A M = D^T diag(c) D; raises
    CollisionError below the squared floor floor2 (check_collision_floor)."""
    check_collision_floor(s, floor2)
    if sys.kappa == -0.5:
        return sys.pair_factor / (s * np.sqrt(s))
    return sys.pair_factor * np.power(s, sys.kappa - 1.0)


def pair_forces(r, sys, collision_floor, scatter):
    """Squared distances s, (..., P), and accelerations (x D^T * c) D M^{-1}
    (scatter = sys.DMinv), (..., d, n), of (..., d, n) coordinates; raises
    CollisionError below the collision floor."""
    diff = _rows_product(r, sys.DT)
    s = np.add.reduce(diff * diff, axis=-2)   # sum() would add a Python layer
    c = pair_coefficients(s, sys, collision_floor * collision_floor)
    return s, _rows_product(diff * c[..., None, :], scatter)


def solve_ivp_reference(fun, ts, y0, tol, event):
    rtol, atol = max(tol, 100 * EPS), tol
    times = ts.tolist()   # the step bookkeeping runs on Python floats
    t, t_end = times[0], times[-1]
    y = np.asarray(y0, dtype=float)
    f = fun(t, y)
    scale, root_n = atol + np.abs(y) * rtol, y.size ** 0.5   # first step by Hairer's rule
    d0, d1 = np.linalg.norm(y / scale) / root_n, np.linalg.norm(f / scale) / root_n
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    d2 = np.linalg.norm((fun(t + h0, y + h0 * f) - f) / scale) / root_n / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = float(min(100 * h0, h1, t_end - t))

    nfev, accepted, rejected, filled, status, t_event = 2, 0, 0, 0, None, None
    K = np.empty((16, y.size))
    out = np.empty((len(ts), y.size))
    g = event(t, y)
    while status is None:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected_before = max(h_abs, min_step), rejected
        while True:
            if h_abs < min_step:
                return Solution(out[:filled], nfev, -1, None, accepted, rejected)
            t_new = min(t + h_abs, t_end)
            h_abs = abs(h := t_new - t)
            K[0] = f
            for s in range(1, 12):
                K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A_ROWS[s]) * h)
            y_new = y + h * np.dot(K[:12].T, B)
            K[12] = f_new = fun(t + h, y_new)
            nfev += 12
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5, err3 = np.dot(K[:13].T, E5) / scale, np.dot(K[:13].T, E3) / scale
            # squared norms formed as np.linalg.norm forms a 1-D norm, to the bit
            e5, e3 = float(np.sqrt(err5.dot(err5))) ** 2, float(np.sqrt(err3.dot(err3))) ** 2
            error = 0.0 if e5 == e3 == 0 else h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * y.size)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs *= min(1, factor) if rejected > rejected_before else factor
                accepted += 1
                break
            h_abs *= max(0.2, 0.9 * error ** -0.125)
            rejected += 1
        t_old, y_old, f_old, t, y, f = t, y, f, t_new, y_new, f_new
        status = 0 if t - t_end >= 0 else None
        g_old, g = g, event(t, y)
        crossing = g_old >= 0 >= g
        stop = bisect_right(times, t)
        if crossing or stop > filled:   # the dense output over the step
            for s in range(13, 16):
                K[s] = fun(t_old + C[s] * h, y_old + np.dot(K[:s].T, A_ROWS[s]) * h)
            nfev += 3
            dy = y - y_old
            F = np.vstack([dy, h * f_old - dy, 2 * dy - h * (f + f_old), h * np.dot(D, K)])
        if crossing:   # bisected with event >= 0 at lo, <= 0 at hi
            lo, hi = t_old, t
            while hi - lo > 4 * EPS * (1.0 + abs(hi)):
                mid = 0.5 * (lo + hi)
                above = event(mid, _dense(F, y_old, np.array([[(mid - t_old) / h]]))[0]) > 0
                lo, hi = (mid, hi) if above else (lo, mid)
            t, t_event, status = hi, hi, 1
            stop = bisect_right(times, t)
        if stop > filled:
            out[filled:stop] = _dense(F, y_old, ((ts[filled:stop] - t_old) / h)[:, None])
            filled = stop
    return Solution(out[:filled], nfev, status, t_event, accepted, rejected)


def drive_reference(rhs, u0, ts, tol, min_distance, collision_floor):
    last = [0.0, np.inf]   # (t, min distance) at t0 and every accepted step
    evals = [0]

    def counted(t, u):
        evals[0] += 1
        if evals[0] > dynamics.MAX_RHS_EVALS:
            raise dynamics._budget_exhausted(last[0])
        return rhs(t, u)

    def too_close(t, u):
        last[:] = t, min_distance(u)
        return last[1] - 2.0 * collision_floor

    sol = solve_ivp_reference(counted, ts, u0, tol, too_close)
    if sol.status == 1:
        raise CollisionError(f"collision at t = {sol.t_event:.6g}")
    if sol.status != 0:
        # a stalled step during a near-collapse is a collision, not a
        # generic failure
        t_last, mind = last
        if mind < max(1e3 * collision_floor, 1e-6 * min_distance(u0)):
            raise CollisionError(
                f"collapse at t = {t_last:.6g} (min distance {mind:.3e})"
            )
        raise StepFailure("Required step size is less than spacing between numbers.")
    return sol.y, {"rhs_evals": sol.nfev, "accepted_steps": sol.accepted,
                   "rejected_steps": sol.rejected}


def absolute_rhs_reference(sys, d, n, collision_floor, seen):
    dn = d * n

    def rhs(t, u):
        s, accel = pair_forces(u[:dn].reshape(d, n), sys, collision_floor, sys.DMinv)
        seen[:] = u, s
        return np.concatenate((u[dn:], accel), axis=None)

    return rhs


def leapfrog_reference(z0, sys, ts, dt, collision_floor):
    x = z0.x.r.copy()
    v = z0.y.r.copy()
    out = np.empty((ts.size, 2) + x.shape)
    t = ts[0]
    a = pair_forces(x, sys, collision_floor, sys.DMinv)[1]
    evals = 1
    for k, target in enumerate(ts):
        slack = math.ulp(target) * (1.0 + (target - t) / dt)
        while target - t > slack:
            if evals >= dynamics.MAX_RHS_EVALS:
                raise dynamics._budget_exhausted(t)
            h = min(dt, target - t)
            v += 0.5 * h * a
            x += h * v
            a = pair_forces(x, sys, collision_floor, sys.DMinv)[1]
            evals += 1
            v += 0.5 * h * a
            t += h
        t = target
        out[k] = x, v
    return out, {"rhs_evals": evals}


def integrate_absolute_reference(z0, sys, horizon, tol=1e-10, method="rk8", samples=513,
                                 dt=None):
    collision_floor = geometry.COLLISION_FLOOR
    ts = _sample_times(horizon, samples, tol)
    d, n = z0.d, z0.n
    dn = d * n

    if method == "rk8":
        u0 = np.concatenate([z0.x.r.ravel(), z0.y.r.ravel()])
        seen = [None, None]   # the state rhs last saw and its squared distances
        rhs = absolute_rhs_reference(sys, d, n, collision_floor, seen)

        def min_distance(u):
            # the event after an accepted step sees the state of the step's
            # FSAL slope, whose distances the kernel has just computed
            s = seen[1] if u is seen[0] else squared_distances(u[:dn].reshape(d, n), sys)
            return float(np.sqrt(s.min()))

        us, work = drive_reference(rhs, u0, ts, tol, min_distance, collision_floor)
    else:
        us, work = leapfrog_reference(z0, sys, ts, dt if dt is not None else horizon / 8192.0,
                                      collision_floor)

    return Trajectory(ts, centred(us.reshape(ts.size, 2, d, n), sys), "absolute",
                      {"integrator": method, "tol": tol, **work})


def gram_rhs_reference(gram, u, collision_floor):
    """_GramTable.rhs of the earlier code, self renamed gram."""
    k = gram.k
    left = u[gram.left]
    s_tr = gram.s_rows @ left[:k * k]
    tr, cf2 = s_tr[-1], collision_floor * collision_floor
    floor2 = gram.rounding2 * tr
    if tr * gram.rounding2_min < cf2:   # else no rounding floor is below cf2
        floor2 = np.maximum(floor2, cf2)
    try:
        c = pair_coefficients(s_tr[:-1], gram.sys, floor2)
    except CollisionError:
        beta_to_distances(gram.unpack(u)[0], tol=1e-6)   # a non-Gram b raises
        raise
    z = np.concatenate((u, left.reshape(2 * k, k) @ (c @ gram.WW).reshape(k, k)), axis=None)
    return z[gram.upper[0]] + z[gram.upper[1]]


def integrate_reduced_reference(rel0, sys, horizon, tol=1e-10, samples=513):
    collision_floor = geometry.COLLISION_FLOOR
    ts = _sample_times(horizon, samples, tol)
    gram = dynamics._GramTable(sys)
    us, work = drive_reference(lambda t, u: gram_rhs_reference(gram, u, collision_floor),
                               gram.pack(rel0), ts, tol, gram.min_distance, collision_floor)
    return Trajectory(ts, gram.unpack(us), "reduced", {"integrator": "rk8", "tol": tol, **work})


# ---------------------------------------------------------------------------
# comparison


def outcome(run, *args, **kwargs):
    """The trajectory of a run, or the type and message of what it raised."""
    try:
        return run(*args, **kwargs)
    except (CollisionError, StepFailure) as exc:
        return type(exc), str(exc)


def assert_same(got, ref):
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert isinstance(got, Trajectory), got
    assert np.array_equal(got.times, ref.times)
    assert np.array_equal(got.samples, ref.samples)
    assert got.metadata == ref.metadata


def unresolved(got):
    """Whether a run stopped at the leapfrog's energy check."""
    return isinstance(got, tuple) and got[0] in (CollisionError, StepFailure) \
        and "energy error" in got[1]


def assert_leapfrog_repeats(monkeypatch, z0, sys, horizon, **kwargs):
    """The leapfrog repeats the reference run, or its energy check stops it;
    with the check off it repeats the reference either way."""
    ref = outcome(integrate_absolute_reference, z0, sys, horizon, **kwargs)
    got = outcome(integrate_absolute, z0, sys, horizon, **kwargs)
    if unresolved(got):
        with monkeypatch.context() as m:
            m.setattr(dynamics, "LEAPFROG_ENERGY_BOUND", np.inf)
            got = outcome(integrate_absolute, z0, sys, horizon, **kwargs)
    assert_same(got, ref)
    return got


def spread_state(rng, n, d, kappa, speed=0.3, spacing=1.0):
    """Unequal masses, bodies `spacing` apart or more, small velocities."""
    sys = MassSystem(rng.uniform(0.3, 3.0, n), G=1.3, kappa=kappa)
    r = rng.normal(size=(d, n))
    r *= spacing / np.sqrt(squared_distance_table(r)[np.triu_indices(n, 1)].min())
    return sys, State(Configuration(r, sys), Configuration(speed * rng.normal(size=(d, n)), sys))


CASES = [(n, d, kappa) for n in (2, 3, 4, 5, 6) for d in (1, 2, 3, 4)
         for kappa in (-0.5, -1.0, -0.3)]


@pytest.mark.parametrize("n, d, kappa", CASES)
def test_rk8_right_hand_side_matches_the_pair_forces_closure(monkeypatch, n, d, kappa):
    rng = np.random.default_rng(1000 * n + 10 * d + int(-10 * kappa))
    sys, z0 = spread_state(rng, n, d, kappa)
    funs = []

    def capture(fun, ts, y0, tol, event, budget):
        funs.append(fun)
        return dop853.solve_ivp(fun, ts, y0, tol, event, budget)

    monkeypatch.setattr(dynamics, "solve_ivp", capture)
    integrate_absolute(z0, sys, 1e-3, samples=2)
    (fun,) = funs
    ref = absolute_rhs_reference(sys, d, n, COLLISION_FLOOR, [None, None])
    for _ in range(100):
        u = rng.normal(size=2 * d * n)
        assert np.array_equal(fun(0.0, u), ref(0.0, u))


@pytest.mark.parametrize("n, d, kappa", CASES)
def test_packed_reduced_rhs_matches_the_method(n, d, kappa):
    rng = np.random.default_rng(2000 * n + 10 * d + int(-10 * kappa))
    for _ in range(20):
        sys, z = spread_state(rng, n, d, kappa, speed=1.0)
        rel = RelativeState.from_state(z)
        tables = np.array([rel.beta, rel.gamma, rel.delta, rel.rho])
        gram = dynamics._GramTable(sys)
        ref = gram.unpack(gram_rhs_reference(gram, gram.pack(RelativeState(*tables)),
                                             COLLISION_FLOOR))
        assert np.array_equal(reduced_rhs(tables, sys), ref)


# the cases whose reference reduced run at horizon 1.2 crawls into a collapse
# until its budget runs out; the absolute route stalls there with a collapse
BUDGET_COLLAPSES = {(3, 1, -0.3), (4, 1, -0.5), (5, 3, -1.0), (5, 4, -1.0), (6, 1, -0.5),
                    (6, 2, -1.0)}


def assert_names_the_collapse(got, ref):
    """got names the collapse at the time where the reference spent its budget."""
    assert ref[0] is StepFailure and got[0] is CollisionError, (got, ref)
    t = ref[1].split("exhausted at t = ")[1]
    assert got[1].startswith(f"collapse at t = {t} (min distance "), (got, ref)


@pytest.mark.parametrize("n, d, kappa", CASES)
def test_integrators_repeat_the_reference_runs(monkeypatch, n, d, kappa):
    # samples and work counts of every route, or the same raised message; a
    # few runs meet a collapse, which the reference reduced route crawls
    # into until its budget, here cut to 20,000 evaluations, runs out, and
    # which the reduced route now names as the absolute route does
    monkeypatch.setattr(dynamics, "MAX_RHS_EVALS", 20_000)
    rng = np.random.default_rng(3000 * n + 10 * d + int(-10 * kappa))
    sys, z0 = spread_state(rng, n, d, kappa, spacing=2.0)
    rel0 = RelativeState.from_state(z0)
    for horizon, tol in ((0.4, 1e-10), (1.2, 1e-8)):
        got = outcome(integrate_absolute, z0, sys, horizon, tol=tol, samples=17)
        assert_same(got, outcome(integrate_absolute_reference, z0, sys, horizon, tol=tol,
                                 samples=17))
        reduced = outcome(integrate_reduced, rel0, sys, horizon, tol=tol, samples=17)
        ref = outcome(integrate_reduced_reference, rel0, sys, horizon, tol=tol, samples=17)
        if horizon == 1.2 and (n, d, kappa) in BUDGET_COLLAPSES:
            assert got[0] is CollisionError
            assert_names_the_collapse(reduced, ref)
        else:
            assert_same(reduced, ref)
        assert_leapfrog_repeats(monkeypatch, z0, sys, horizon, method="leapfrog", samples=17,
                                dt=horizon / 250.0)


def homothetic_collapse():
    sys = MassSystem([1.0, 1.0, 1.0])
    return sys, State(equilateral(sys), Configuration(np.zeros((2, 3)), sys))


def raised_floor_collapse():
    sys = MassSystem([1.0, 2.0, 3.0], kappa=-1.0)
    return sys, State(Configuration([[0.0, 1.0, 0.3], [0.0, 0.1, 0.9]], sys),
                      Configuration(np.zeros((2, 3)), sys))


@pytest.mark.parametrize("case, floor", [("homothetic", COLLISION_FLOOR),
                                         ("raised-floor", 1e-3)])
def test_collisions_repeat_the_reference(monkeypatch, case, floor):
    monkeypatch.setattr(geometry, "COLLISION_FLOOR", floor)
    sys, z0 = {"homothetic": homothetic_collapse, "raised-floor": raised_floor_collapse}[case]()
    rel0 = RelativeState.from_state(z0)
    kwargs = dict(tol=1e-10, samples=33)
    got = outcome(integrate_absolute, z0, sys, 5.0, **kwargs)
    assert got[0] is CollisionError
    assert got == outcome(integrate_absolute_reference, z0, sys, 5.0, **kwargs)
    got = outcome(integrate_reduced, rel0, sys, 5.0, **kwargs)
    assert got[0] is CollisionError
    assert got == outcome(integrate_reduced_reference, rel0, sys, 5.0, **kwargs)
    # the reference leapfrog steps through the collapse; the energy check stops it
    assert unresolved(outcome(integrate_absolute, z0, sys, 5.0, method="leapfrog", samples=33,
                              dt=1e-3))
    assert_leapfrog_repeats(monkeypatch, z0, sys, 5.0, method="leapfrog", samples=33, dt=1e-3)


def test_rounding_collisions_repeat_the_reference():
    # body 1 within 1e-12 of body 0: the absolute kernel meets the collision
    # floor, the reduced one the rounding floor of its table
    rng = np.random.default_rng(0)
    for _ in range(20):
        sys = MassSystem(rng.uniform(0.5, 1.5, 3))
        r = rng.normal(size=(2, 3))
        r[:, 1] = r[:, 0] + 1e-12 * rng.normal(size=2)
        z0 = State(Configuration(r, sys), Configuration(np.zeros((2, 3)), sys))
        rel0 = RelativeState.from_state(z0)
        got = outcome(integrate_absolute, z0, sys, 1.0, samples=2)
        assert got[0] is CollisionError
        assert got == outcome(integrate_absolute_reference, z0, sys, 1.0, samples=2)
        got = outcome(integrate_reduced, rel0, sys, 1.0, samples=2)
        assert got[0] is CollisionError
        assert got == outcome(integrate_reduced_reference, rel0, sys, 1.0, samples=2)


# evaluations made within each budget: rk8 makes the first step's two, then
# stops before a step attempt (12) or dense output (3) that would pass it
CALLS = {"rk8": {1: 2, 2: 2, 3: 2, 14: 14, 200: 194, 1000: 998},
         "reduced": {1: 2, 2: 2, 3: 2, 14: 14, 200: 200, 1000: 989},
         "leapfrog": {budget: budget for budget in (1, 2, 3, 14, 200, 1000)}}


@pytest.mark.parametrize("budget", [1, 2, 3, 14, 200, 1000])
@pytest.mark.parametrize("route", ["rk8", "reduced", "leapfrog"])
def test_budget_repeats_the_reference(monkeypatch, route, budget):
    # the run stops naming the same time as the reference, which raised at
    # call number budget + 1: rk8 before the evaluations that would pass
    # the budget, leapfrog before the step that would need one more
    monkeypatch.setattr(dynamics, "MAX_RHS_EVALS", budget)
    sys, z0 = spread_state(np.random.default_rng(5), 4, 3, -0.5, speed=1.0)
    calls = [0]

    def counting(fun, ts, y0, tol, event, budget):
        def counted(t, u):
            calls[0] += 1
            return fun(t, u)
        return dop853.solve_ivp(counted, ts, y0, tol, event, budget)

    def counting_kernel(sys, *args):
        c, accelerations = pair_kernel(sys, *args)

        def counted(r, out):
            calls[0] += 1
            return accelerations(r, out)
        return c, counted

    if route == "leapfrog":
        monkeypatch.setattr(dynamics, "pair_kernel", counting_kernel)
    else:
        monkeypatch.setattr(dynamics, "solve_ivp", counting)
    if route == "reduced":
        rel0 = RelativeState.from_state(z0)
        got = outcome(integrate_reduced, rel0, sys, 3.0, tol=1e-12)
        ref = outcome(integrate_reduced_reference, rel0, sys, 3.0, tol=1e-12)
    else:
        kwargs = dict(tol=1e-12, method=route, dt=1e-3)
        got = outcome(integrate_absolute, z0, sys, 3.0, **kwargs)
        ref = outcome(integrate_absolute_reference, z0, sys, 3.0, **kwargs)
    assert got[0] is StepFailure
    assert got == ref
    assert calls[0] == CALLS[route][budget] <= max(budget, 2)
