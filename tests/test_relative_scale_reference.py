"""The drifts and residuals on `relative_scale` against the rules it replaced.

Each reference below is the earlier scale rule, kept verbatim as the
oracle: max(|H0|, 1e-30) for the energy drift and the leapfrog's energy
check (whose energy subtracted p^2 / M), max |C0| with a fallback to
sqrt(I0 K0) below 1e-9 of it for the momentum drift, max(|2 I H - J^2|_0,
1e-30) for the scaling-integral drift, and max |acc| or else max |2 x A|
for verify_loop's EOM residual.  On states whose reference is above 1e-9
of its natural scale the drifts, the residual and the leapfrog's samples,
work counts and raised messages must agree with them bit for bit.
"""

import math

import numpy as np
import pytest

from conftest import squared_distance_table
from nbodyred import action, dynamics
from nbodyred.action import Loop, italian, verify_loop
from nbodyred.errors import CollisionError, StepFailure
from nbodyred.geometry import (
    Configuration,
    MassSystem,
    State,
    Trajectory,
    centred,
    pair_kernel,
    potential_from_s,
    squared_distances,
)
from nbodyred.dynamics import _sample_times, audit_invariants, integrate_absolute


# ---------------------------------------------------------------------------
# the references


def drifts_reference(traj, sys):
    """(energy_drift, momentum_drift, scaling_integral_drift) as the audit
    measured them before."""
    I, J, K, U, H, c_tables, normC = dynamics._invariants(traj.samples[:, 0],
                                                          traj.samples[:, 1], sys)
    h_scale = max(abs(H[0]), 1e-30)
    energy_drift = float(np.max(np.abs(H - H[0])) / h_scale)
    c0 = c_tables[0]
    # for zero-momentum runs measure against the natural scale sqrt(I K)
    natural = np.sqrt(I[0] * K[0])
    c_scale = np.abs(c0).max()
    if c_scale <= 1e-9 * natural:
        c_scale = max(natural, 1e-30)
    momentum_drift = float(np.max(np.abs(c_tables - c0)) / c_scale)
    scaling_drift = None
    if abs(sys.kappa + 1.0) < 1e-14:
        G2 = 2.0 * I * H - J ** 2
        scaling_drift = float(np.max(np.abs(G2 - G2[0])) / max(abs(G2[0]), 1e-30))
    return energy_drift, momentum_drift, scaling_drift


def leapfrog_reference(z0, sys, ts, dt):
    accelerations = pair_kernel(sys)[1]
    m, M = sys.m, sys.M
    x, v = z0.x.r.copy(), z0.y.r.copy()
    out = np.empty((ts.size, 2) + x.shape)
    t = ts[0]
    s = accelerations(x, a := np.empty_like(x))

    def energy(v, s):
        p = v.dot(m)
        return 0.5 * (m.dot(np.add.reduce(v * v, axis=0)) - p.dot(p) / M) - potential_from_s(s, sys)

    H0 = energy(v, s)
    h_scale = max(abs(H0), 1e-30)
    evals = 1
    for k, target in enumerate(ts):
        slack = math.ulp(target) * (1.0 + (target - t) / dt)
        while target - t > slack:
            if evals >= dynamics.MAX_RHS_EVALS:
                raise dynamics._budget_exhausted(t)
            h = min(dt, target - t)
            v += 0.5 * h * a
            x += h * v
            s = accelerations(x, a)
            evals += 1
            v += 0.5 * h * a
            t += h
        t = target
        if not (err := abs(energy(v, s) - H0) / h_scale) <= dynamics.LEAPFROG_ENERGY_BOUND:
            raise unfollowed_reference(dt, t, err, s, squared_distances(z0.x.r, sys))
        out[k] = x, v
    return out, {"rhs_evals": evals}


def unfollowed_reference(dt, t, err, s, s0):
    where = f"energy error {err:.3e} of |H| at t = {t:.6g}"
    closest = s.min()
    if closest < 0.25 * s0.min():
        return CollisionError(f"leapfrog step {dt:.3g} does not follow the encounter of the "
                              f"closest pair (distance {math.sqrt(closest):.3e}): {where}")
    return StepFailure(f"leapfrog step {dt:.3g} does not follow the motion: {where}")


def eom_residual_reference(loop):
    sys = loop.sys
    n_quad = max(256, 8 * loop.n_modes)
    (_, _, acc), s, f, S, _ = action._node_action(loop, n_quad, pair_kernel(sys)[0], order=2)
    pulled = f / sys.m[:, None]
    return float(np.abs(acc - pulled).max() / (np.abs(acc).max() or np.abs(pulled).max()))


# ---------------------------------------------------------------------------
# comparison


def outcome(run, *args):
    """The trajectory of a run, or the type and message of what it raised."""
    try:
        return run(*args)
    except (CollisionError, StepFailure) as exc:
        return type(exc), str(exc)


def leapfrog_run_reference(z0, sys, horizon, samples, dt):
    ts = _sample_times(horizon, samples)
    us, work = leapfrog_reference(z0, sys, ts, dt)
    return Trajectory(ts, centred(us.reshape(ts.size, 2, z0.d, z0.n), sys), "absolute",
                      {"integrator": "leapfrog", "tol": 1e-10, **work})


def leapfrog_run(z0, sys, horizon, samples, dt):
    return integrate_absolute(z0, sys, horizon, method="leapfrog", samples=samples, dt=dt)


def spread_state(rng, n, d, kappa):
    """Unequal masses, bodies 2 apart or more, velocities of unit size."""
    sys = MassSystem(rng.uniform(0.3, 3.0, n), G=1.3, kappa=kappa)
    r = rng.normal(size=(d, n))
    r *= 2.0 / np.sqrt(squared_distance_table(r)[np.triu_indices(n, 1)].min())
    return sys, State(Configuration(r, sys), Configuration(rng.normal(size=(d, n)), sys))


CASES = [(n, d, kappa) for n in (2, 3, 4, 5, 6) for d in (1, 2, 3, 4)
         for kappa in (-0.5, -1.0, -0.3)]

# steps per unit time: the coarse ones stray past the leapfrog's energy bound
STEPS = (2, 8, 32, 256)


@pytest.mark.parametrize("n, d, kappa", CASES)
def test_leapfrog_and_drifts_repeat_the_earlier_scales(n, d, kappa):
    rng = np.random.default_rng(5000 * n + 10 * d + int(-10 * kappa))
    sys, z0 = spread_state(rng, n, d, kappa)
    K0 = sys.m.dot((z0.y.r * z0.y.r).sum(axis=0))
    U0 = float(potential_from_s(squared_distances(z0.x.r, sys), sys))
    assert abs(0.5 * K0 - U0) > 1e-9 * (0.5 * K0 + U0)   # the leapfrog's check
    for steps in STEPS:
        got = outcome(leapfrog_run, z0, sys, 1.0, 17, 1.0 / steps)
        ref = outcome(leapfrog_run_reference, z0, sys, 1.0, 17, 1.0 / steps)
        if isinstance(ref, tuple):
            assert got == ref
            continue
        assert np.array_equal(got.samples, ref.samples) and got.metadata == ref.metadata
        report = audit_invariants(got, sys)
        series = report.series
        I0, H0, J0 = series["I"][0], series["H"][0], series["J"][0]
        e_star = 0.5 * series["K"][0] + series["U"][0]
        assert abs(H0) > 1e-9 * e_star
        if d > 1:   # on a line C vanishes, and both rules read 0
            c0 = dynamics._invariants(got.samples[:1, 0], got.samples[:1, 1], sys)[5][0]
            assert np.abs(c0).max() > 1e-9 * np.sqrt(2.0 * I0 * e_star)
        if kappa == -1.0:
            assert abs(2.0 * I0 * H0 - J0 ** 2) > 1e-9 * 2.0 * I0 * e_star
        assert (report.energy_drift, report.momentum_drift,
                report.scaling_integral_drift) == drifts_reference(got, sys)


def random_loop(rng, n, d, kappa, n_modes=8):
    """Bodies 2 apart or more at their mean positions, moving on random
    harmonics of decaying size."""
    sys = MassSystem(rng.uniform(0.3, 3.0, n), kappa=kappa)
    base = rng.normal(size=(d, n))
    base *= 2.0 / np.sqrt(squared_distance_table(base)[np.triu_indices(n, 1)].min())
    decay = 0.3 / np.arange(1, n_modes + 2) ** 2
    cos_modes, sin_modes = (decay * rng.normal(size=(d, n, n_modes + 1)) for _ in range(2))
    cos_modes[:, :, 0] = base
    return Loop(2.0 * np.pi, cos_modes, sin_modes, sys)


@pytest.mark.parametrize("n, d, kappa", CASES)
def test_eom_residual_repeats_the_earlier_scale(n, d, kappa):
    rng = np.random.default_rng(6000 * n + 10 * d + int(-10 * kappa))
    loop = random_loop(rng, n, d, kappa)
    xv, _, f, _, _ = action._node_action(loop, 256, pair_kernel(loop.sys)[0], order=2)
    assert np.abs(xv[2]).max() > 1e-9 * np.abs(f / loop.sys.m[:, None]).max()
    assert verify_loop(loop, italian(n, d)).eom_residual == eom_residual_reference(loop)
