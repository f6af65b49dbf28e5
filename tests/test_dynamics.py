import tracemalloc

import numpy as np
import pytest

from conftest import (
    equilateral,
    figure_eight,
    interaction_table_oracle,
    isosceles,
    newton_acceleration_oracle,
    random_state,
    squared_distance_table,
    stronger_eight,
    tame_scenario,
)
from nbodyred import dop853, dynamics, geometry
from nbodyred.errors import (
    CollisionError,
    NegativeSquaredDistance,
    StepFailure,
    ValidationError,
)
from nbodyred.geometry import (
    COLLISION_FLOOR,
    REDUCED_SIGNS,
    _bare,
    Configuration,
    MassSystem,
    RelativeState,
    State,
    Trajectory,
    beta_to_distances,
    centred,
    gram_form,
    mass_dot,
    pair_kernel,
    reduced_tables,
    squared_distances,
)
from nbodyred.motions import relative_equilibrium
from nbodyred.dynamics import (
    audit_invariants,
    integrate_absolute,
    integrate_reduced,
    scalar_invariants,
    spline_slopes,
)
from oracles import (
    Bivector,
    InvalidStructure,
    angular_momentum,
    bivector_norm_and_frequencies,
    complex_schwarz_gap,
    dziobek_ranks,
    hermitian_from_bivector,
    matrix_rank,
    reduced_rhs,
    saari_decomposition,
    sundman_function,
    sundman_gap,
    wintner_conley,
)

SYS2 = MassSystem([1.0, 1.0])


def circular_two_body():
    x = Configuration([[-0.5, 0.5], [0.0, 0.0]], SYS2)
    y = Configuration([[0.0, 0.0], [-np.sqrt(0.5), np.sqrt(0.5)]], SYS2)
    return State(x, y)


CIRC_PERIOD = 2.0 * np.pi / np.sqrt(2.0)  # separation 1, G M = 2
EIGHT_PERIOD = 6.32591398


# ---------------------------------------------------------------------------
# absolute integration


def test_circular_orbit_closes():
    z0 = circular_two_body()
    traj = integrate_absolute(z0, SYS2, CIRC_PERIOD, tol=1e-12, samples=65)
    zf = traj.states[-1]
    assert np.abs(zf.x.r - z0.x.r).max() < 1e-8
    assert np.abs(zf.y.r - z0.y.r).max() < 1e-8


def test_center_of_mass_stays_fixed():
    rng = np.random.default_rng(0)
    sys, z0 = tame_scenario(rng, 4, 3, 5.0)
    traj = integrate_absolute(z0, sys, 5.0, tol=1e-10, samples=33)
    for z in traj.states:
        assert np.abs(z.x.r @ sys.m).max() < 1e-12
        assert np.abs(z.y.r @ sys.m).max() < 1e-12


def test_homothetic_release_stays_homothetic():
    sys = MassSystem([1.0, 1.0, 1.0])
    x0 = equilateral(sys)
    z0 = State(x0, Configuration(np.zeros((2, 3)), sys))
    # released at rest; collapse time ~ 0.64 for I=1, U=3
    traj = integrate_absolute(z0, sys, 0.5, tol=1e-12, samples=21)
    for z in traj.states:
        nu = mass_dot(z.x.r, x0.r, sys.m)  # I(x0) = 1
        assert np.abs(z.x.r - nu * x0.r).max() < 1e-9
    assert traj.states[-1].x.r[0, 0] / x0.r[0, 0] < 1.0  # shrinking


def test_homothetic_release_collides():
    sys = MassSystem([1.0, 1.0, 1.0])
    z0 = State(equilateral(sys), Configuration(np.zeros((2, 3)), sys))
    with pytest.raises(CollisionError):
        integrate_absolute(z0, sys, 2.0, tol=1e-10, samples=33)
    with pytest.raises(CollisionError):
        integrate_reduced(RelativeState.from_state(z0), sys, 2.0, tol=1e-10, samples=33)


def test_radial_infall_j_decreasing():
    x = Configuration([[-1.0, 1.0], [0.0, 0.0]], SYS2)
    z0 = State(x, Configuration(np.zeros((2, 2)), SYS2))
    traj = integrate_absolute(z0, SYS2, 1.0, tol=1e-10, samples=33)
    J = [scalar_invariants(z, SYS2)[1] for z in traj.states]
    assert np.all(np.diff(J) < 0.0)


def test_leapfrog_energy_bounded():
    z0 = circular_two_body()
    traj = integrate_absolute(z0, SYS2, 5 * CIRC_PERIOD, method="leapfrog",
                              dt=1e-3, samples=65)
    H = np.array([scalar_invariants(z, SYS2)[4] for z in traj.states])
    assert np.abs(H - H[0]).max() < 1e-5 * abs(H[0])


def test_lyapunov_j_increasing_for_nonnegative_energy():
    # kappa > -1 and H >= 0 force J to increase along the flow
    rng = np.random.default_rng(1)
    for _ in range(5):
        sys, z0 = tame_scenario(rng, 3, 3, 6.0)
        if scalar_invariants(z0, sys)[4] < 0.0:
            continue
        traj = integrate_absolute(z0, sys, 6.0, tol=1e-10, samples=65)
        J = [scalar_invariants(z, sys)[1] for z in traj.states]
        assert np.all(np.diff(J) > 0.0)


# ---------------------------------------------------------------------------
# reduced system


def tables(rel):
    return np.array([rel.beta, rel.gamma, rel.delta, rel.rho])


def test_reduced_rhs_relative_equilibrium_fixed_point():
    sys = MassSystem([1.0, 1.0, 1.0])
    x = isosceles(sys)
    beta = gram_form(x)
    A = wintner_conley(x, sys)
    rel = RelativeState(beta, np.zeros((3, 3)), -2.0 * beta @ A, np.zeros((3, 3)))
    drv = RelativeState(*reduced_rhs(tables(rel), sys))
    for a in (drv.beta, drv.gamma, drv.delta, drv.rho):
        assert np.abs(a).max() < 1e-13


def test_reduced_rhs_matches_absolute_flow_differences():
    rng = np.random.default_rng(2)
    sys, z0 = tame_scenario(rng, 3, 3, 0.1)
    rel0 = RelativeState.from_state(z0)
    drv = RelativeState(*reduced_rhs(tables(rel0), sys))
    h = 1e-5
    plus = integrate_absolute(z0, sys, h, tol=1e-13, samples=2).states[-1]
    minus_traj = integrate_absolute(
        State(z0.x, Configuration(-z0.y.r, sys)), sys, h, tol=1e-13, samples=2)
    minus = minus_traj.states[-1]  # time reversal
    rel_p = RelativeState.from_state(plus)
    rel_m = RelativeState.from_state(
        State(minus.x, Configuration(-minus.y.r, sys)))
    for field in ("beta", "gamma", "delta", "rho"):
        fd = (getattr(rel_p, field) - getattr(rel_m, field)) / (2.0 * h)
        assert np.abs(fd - getattr(drv, field)).max() < 1e-6


def test_reduced_rhs_scaled_beta_only():
    sys = MassSystem([1.0, 1.0, 1.0])
    beta = 1.7**2 * gram_form(equilateral(sys))
    zero = np.zeros((3, 3))
    drv = RelativeState(*reduced_rhs(tables(RelativeState(beta, zero, zero, zero)), sys))
    assert np.abs(drv.beta).max() == 0.0  # beta_dot = 2 gamma = 0


def reduced_rhs_oracle(tables, sys):
    """The reduced right-hand side on (4, n, n) tables, written with the
    interaction table A (the formula before the packed Gram flow)."""
    beta, gamma, delta, rho = 0.5 * (tables + REDUCED_SIGNS * np.swapaxes(tables, -1, -2))
    A = interaction_table_oracle(beta_to_distances(beta, tol=1e-6), sys)
    At = A.T
    return np.array([
        2.0 * gamma,
        At @ beta + beta @ A + delta,
        2.0 * (At @ gamma + gamma @ A) - 2.0 * (At @ rho - rho @ A),
        At @ beta - beta @ A,
    ])


@pytest.mark.parametrize("kappa", [-0.5, -1.0])
@pytest.mark.parametrize("n, d", [(2, 2), (3, 3), (5, 4)])
def test_packed_reduced_rhs_matches_table_formula(n, d, kappa):
    rng = np.random.default_rng(100 * n + d)
    for _ in range(5):
        sys, z = random_state(rng, n, d)
        sys = MassSystem(sys.m, kappa=kappa)
        t = tables(RelativeState.from_state(z))
        ref = reduced_tables(reduced_rhs_oracle(t, sys))
        got = reduced_rhs(t, sys)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n, d", [(2, 2), (3, 3), (5, 4)])
def test_gram_table_pack_unpack_round_trip(n, d):
    rng = np.random.default_rng(n + d)
    sys, z = random_state(rng, n, d)
    gram = dynamics._GramTable(sys)
    rel = RelativeState.from_state(z)
    t = tables(rel)
    u = gram.pack(rel)
    assert u.shape == ((n - 1) * (2 * n - 1),)   # 10 numbers at n = 3, 36 at n = 5
    assert np.abs(gram.unpack(u) - t).max() <= 1e-14 * np.abs(t).max()
    # any representative of the forms on D* packs to the same state
    shift = rng.normal(size=n)[:, None] * np.ones(n)
    other = _bare(RelativeState, t + np.array([shift + shift.T, shift + shift.T,
                                               shift + shift.T, shift - shift.T]))
    assert np.abs(gram.pack(other) - u).max() <= 1e-13 * np.abs(u).max()
    # a batch unpacks row by row
    us = np.stack([u, 2.0 * u])
    assert np.array_equal(gram.unpack(us)[1], gram.unpack(2.0 * u))


@pytest.mark.parametrize("n", [3, 6])
def test_unpack_expands_block_by_block_bitwise(n):
    # on either side of each block boundary, and for one state, the tables
    # are bit for bit those of expanding the whole stack at once
    rng = np.random.default_rng(30 + n)
    gram = dynamics._GramTable(MassSystem(rng.uniform(0.5, 2.0, n)))
    block = dynamics.UNPACK_BLOCK
    us = rng.normal(size=(8 * block + 1, gram.iu[0].size))

    def at_once(u):
        return reduced_tables(gram.Q @ u[..., gram.blocks] @ gram.Q.T)

    for q in (1, block - 1, block, block + 1, 8 * block + 1):
        got, ref = gram.unpack(us[:q]), at_once(us[:q])
        assert got.shape == (q, 4, n, n) and got.tobytes() == ref.tobytes()
    got, ref = gram.unpack(us[0]), at_once(us[0])
    assert got.shape == (4, n, n) and got.tobytes() == ref.tobytes()


def test_unpack_peak_memory_stays_below_twice_its_result():
    # the temporaries scale with one block of samples, not with the run
    gram = dynamics._GramTable(MassSystem(np.ones(20)))
    us = np.random.default_rng(40).normal(size=(513, gram.iu[0].size))
    tracemalloc.start()
    try:
        out = gram.unpack(us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes


def test_reduced_rhs_rejects_non_gram_beta_and_collisions():
    sys = MassSystem([1.0, 1.0, 1.0])
    zero = np.zeros((3, 3))
    beta = -gram_form(equilateral(sys))   # negative squared distances
    with pytest.raises(NegativeSquaredDistance):
        reduced_rhs(np.array([beta, zero, zero, zero]), sys)
    # every mutual distance 1e-11, below the collision floor
    beta = gram_form(equilateral(sys, side=1e-11))
    with pytest.raises(CollisionError):
        reduced_rhs(np.array([beta, zero, zero, zero]), sys)


def test_reduced_rhs_raises_at_the_rounding_of_its_table():
    # body 1 within 1e-12 of body 0: s_01 is about 1e-24, but the Gram table
    # resolves it only to its rounding, so below a few times that rounding
    # the reduced route raises CollisionError as the absolute route does
    rng = np.random.default_rng(0)
    eps = np.finfo(float).eps
    worst = 0.0
    for _ in range(200):
        sys = MassSystem(rng.uniform(0.5, 1.5, 3))
        r = rng.normal(size=(2, 3))
        r[:, 1] = r[:, 0] + 1e-12 * rng.normal(size=2)
        z = State(Configuration(r, sys), Configuration(np.zeros((2, 3)), sys))
        rel = RelativeState.from_state(z)
        with pytest.raises(CollisionError):
            integrate_absolute(z, sys, 1.0, samples=2)
        with pytest.raises(CollisionError):
            reduced_rhs(tables(rel), sys)
        # pair (0, 1): the table's s_01 is its rounding alone
        gram = dynamics._GramTable(sys)
        u = gram.pack(rel)
        s_01 = (gram.WW @ u[gram.left[:gram.k ** 2]])[0]
        level = eps * (1.0 / sys.m[0] + 1.0 / sys.m[1]) * mass_dot(z.x.r, z.x.r, sys.m)   # tr b = I
        worst = max(worst, abs(s_01 - squared_distance_table(z.x.r)[0, 1]) / level)
    assert worst <= 1.0   # a quarter of the floor


@pytest.mark.parametrize("n", [2, 5])
def test_gram_table_stores_its_pair_rows_once(n):
    # WW, P x (n - 1)^2, is a view of s_rows, which adds the row of tr b
    gram = dynamics._GramTable(MassSystem(np.arange(1.0, n + 1.0)))
    assert np.shares_memory(gram.WW, gram.s_rows)
    assert gram.WW.shape == (n * (n - 1) // 2, (n - 1) ** 2)
    assert np.array_equal(gram.s_rows[-1], np.eye(n - 1).ravel())


def test_reduced_matches_absolute_run():
    rng = np.random.default_rng(3)
    sys, z0 = tame_scenario(rng, 3, 3, 5.0)
    ta = integrate_absolute(z0, sys, 5.0, tol=1e-12, samples=41)
    tr = integrate_reduced(RelativeState.from_state(z0), sys, 5.0,
                           tol=1e-12, samples=41)
    err = 0.0
    for za, rel in zip(ta.states, tr.states):
        ra = RelativeState.from_state(za)
        for field in ("beta", "gamma", "delta", "rho"):
            err = max(err, np.abs(getattr(ra, field) - getattr(rel, field)).max())
    assert err < 1e-6


@pytest.mark.parametrize("n, d", [(2, 2), (5, 4)])
def test_reduced_matches_absolute_run_one_and_four_dimensional_hyperplanes(n, d):
    rng = np.random.default_rng(30 + n)
    sys, z0 = tame_scenario(rng, n, d, 3.0)
    ta = integrate_absolute(z0, sys, 3.0, tol=1e-12, samples=25)
    tr = integrate_reduced(RelativeState.from_state(z0), sys, 3.0, tol=1e-12, samples=25)
    ref = np.array([tables(RelativeState.from_state(z)) for z in ta.states])
    assert np.abs(tr.samples - ref).max() < 1e-6 * np.abs(ref).max()


def test_reduced_circular_beta_constant():
    rel0 = RelativeState.from_state(circular_two_body())
    traj = integrate_reduced(rel0, SYS2, CIRC_PERIOD, tol=1e-12, samples=33)
    for rel in traj.states:
        assert np.abs(rel.beta - rel0.beta).max() < 1e-8


def test_reduced_relative_equilibrium_is_fixed_point():
    sys = MassSystem([1.0, 1.0, 1.0])
    x = isosceles(sys)
    beta = gram_form(x)
    A = wintner_conley(x, sys)
    rel0 = RelativeState(beta, np.zeros((3, 3)), -2.0 * beta @ A, np.zeros((3, 3)))
    traj = integrate_reduced(rel0, sys, 3.0, tol=1e-12, samples=17)
    for rel in traj.states:
        for field in ("beta", "gamma", "delta", "rho"):
            assert np.abs(getattr(rel, field) - getattr(rel0, field)).max() < 1e-9


# ---------------------------------------------------------------------------
# work counts and the evaluation budget


def test_trajectories_report_rhs_evaluations():
    z0 = circular_two_body()
    rk8 = integrate_absolute(z0, SYS2, 1.0, tol=1e-10, samples=5)
    red = integrate_reduced(RelativeState.from_state(z0), SYS2, 1.0, tol=1e-10, samples=5)
    assert rk8.metadata["rhs_evals"] > 0 and red.metadata["rhs_evals"] > 0
    # leapfrog: one acceleration per step, 16 steps per sample interval, plus the first
    lf = integrate_absolute(z0, SYS2, 1.0, method="leapfrog", dt=1.0 / 64.0, samples=5)
    assert lf.metadata["rhs_evals"] == 4 * 16 + 1


@pytest.mark.parametrize("period", [EIGHT_PERIOD, 2.0 * np.pi])
def test_leapfrog_takes_no_sliver_steps(period):
    # three periods at dt = period / 4096 and 513 samples: 24 steps per
    # interval, whose sum misses the sample time by a few ulps; such a
    # remainder used to cost one more step of about 4e-15 (12,666
    # evaluations at the figure-eight's period)
    sys, z0 = figure_eight()
    lf = integrate_absolute(z0, sys, 3.0 * period, method="leapfrog", dt=period / 4096.0,
                            samples=513)
    assert lf.metadata["rhs_evals"] == 12288 + 1
    # a remainder that is real time is still stepped: 4096 / 3 steps per interval
    lf = integrate_absolute(z0, sys, period, method="leapfrog", dt=3.0 / 4096.0 * period,
                            samples=3)
    assert lf.metadata["rhs_evals"] == 2 * 683 + 1


def test_leapfrog_stops_at_the_collapse():
    # the equilateral kappa = -1 collapse from rest: the leapfrog used to step
    # through it and return energy drift 2.8e5 at the default step
    sys = MassSystem([1.0, 1.0, 1.0], kappa=-1.0)
    z0 = State(equilateral(sys), Configuration(np.zeros((2, 3)), sys))
    with pytest.raises(CollisionError, match="does not follow the encounter"):
        integrate_absolute(z0, sys, 5.0, method="leapfrog")
    with pytest.raises(CollisionError):
        integrate_absolute(z0, sys, 5.0)


def kepler_pass(e, nu):
    """Two unit masses on the ellipse a = 1 of eccentricity e, at true anomaly
    -nu, and the time to reach +nu, passing the pericentre."""
    p = 1.0 - e * e
    r = p / (1.0 + e * np.cos(nu))
    rel = r * np.array([np.cos(nu), -np.sin(nu)])
    vel = np.sqrt(2.0 / p) * np.array([np.sin(nu), e + np.cos(nu)])
    E = 2.0 * np.arctan(np.sqrt((1.0 - e) / (1.0 + e)) * np.tan(nu / 2.0))
    x = Configuration(np.stack([-rel / 2.0, rel / 2.0], axis=1), SYS2)
    y = Configuration(np.stack([-vel / 2.0, vel / 2.0], axis=1), SYS2)
    return State(x, y), 2.0 * (E - e * np.sin(E)) / np.sqrt(2.0)


@pytest.mark.parametrize("e, nu", [(0.9, 3.0), (0.9, 1.5), (0.99, 2.5), (0.99, 1.5)])
def test_leapfrog_completes_a_kepler_pass_accurately_or_raises(e, nu):
    # over steps from far beyond the pericentre time to a fraction of it
    z0, horizon = kepler_pass(e, nu)
    outcomes = []
    for steps in 2 ** np.arange(7, 15):
        try:
            traj = integrate_absolute(z0, SYS2, horizon, method="leapfrog", dt=horizon / steps,
                                      samples=65)
        except (CollisionError, StepFailure):
            outcomes.append(None)
            continue
        outcomes.append(audit_invariants(traj, SYS2).energy_drift)
        assert outcomes[-1] <= 1e-3
    # coarse steps raise, fine steps complete
    assert outcomes[0] is None and outcomes[-1] is not None


def test_leapfrog_follows_the_figure_eight_at_coarse_steps():
    # three periods at P/256, coarser than any step the benchmark takes (its
    # tiny input names P/256 but steps at its samples, P/1280 apart),
    # and 100 time units at the default step horizon / 8192: both complete
    # within half the energy bound
    sys, z0 = figure_eight()
    for horizon, dt in ((3.0 * EIGHT_PERIOD, EIGHT_PERIOD / 256.0), (100.0, None)):
        traj = integrate_absolute(z0, sys, horizon, method="leapfrog", dt=dt)
        assert audit_invariants(traj, sys).energy_drift < dynamics.LEAPFROG_ENERGY_BOUND / 2.0


def test_leapfrog_too_coarse_for_the_whole_motion_fails_as_a_step():
    # P/64 on the figure-eight, the default step at horizon 1000: the energy
    # strays past the bound with no encounter closer than the start's spacing
    sys, z0 = figure_eight()
    with pytest.raises(StepFailure, match="does not follow the motion"):
        integrate_absolute(z0, sys, EIGHT_PERIOD, method="leapfrog", dt=EIGHT_PERIOD / 64.0,
                           samples=17)


@pytest.mark.parametrize("dt", [np.nan, 0.0, -1e-3, np.inf])
def test_leapfrog_rejects_a_step_outside_zero_to_infinity(monkeypatch, dt):
    # before any evaluation: NaN used to freeze the run at its initial state,
    # 0 to warn and freeze, a negative step to burn the whole budget, and inf
    # to step once per sample interval
    def no_kernel(*args):
        raise AssertionError("the kernel was built")

    monkeypatch.setattr(dynamics, "pair_kernel", no_kernel)
    with pytest.raises(ValidationError, match="dt must be finite and positive"):
        integrate_absolute(circular_two_body(), SYS2, 1.0, method="leapfrog", dt=dt, samples=5)


@pytest.mark.parametrize("route", ["rk8", "leapfrog", "reduced"])
def test_rhs_budget_stops_the_run(monkeypatch, route):
    monkeypatch.setattr(dynamics, "MAX_RHS_EVALS", 200)
    circ = circular_two_body()
    z0 = State(circ.x, Configuration(0.8 * circ.y.r, SYS2))   # eccentric: the reduced state moves
    with pytest.raises(StepFailure, match=r"budget of 200 evaluations exhausted at t = "):
        if route == "reduced":
            integrate_reduced(RelativeState.from_state(z0), SYS2, CIRC_PERIOD, tol=1e-12)
        else:
            integrate_absolute(z0, SYS2, CIRC_PERIOD, tol=1e-12, method=route, dt=1e-3)


def test_both_rk8_routes_name_the_collapse_of_the_stronger_eight():
    # the figure-eight's state under kappa = -1, G = 1.7 falls into a
    # collapse: the absolute step stalls there after 5,282 evaluations, and
    # the reduced right-hand side meets its floor after 3,523; both name the
    # same collapse, at the shipped budget
    sys, z0 = stronger_eight()
    for run, start in ((integrate_absolute, z0), (integrate_reduced, RelativeState.from_state(z0))):
        with pytest.raises(CollisionError, match=r"^collapse at t = 0\.345668 \(min distance "):
            run(start, sys, 2.0)


def test_reduced_floor_lies_1e3_rounding_levels_deep(monkeypatch):
    # the squared floor of a Gram table's right-hand side is (1e3)^2 times
    # the rounding level 4 eps |w_p|^2 tr b, the collision floor where that is higher
    sys, z0 = figure_eight()
    gram, rel = dynamics._GramTable(sys), RelativeState.from_state(z0)
    tr = np.trace(rel.beta)
    w2 = 2.0   # |w_p|^2 = 1/m_i + 1/m_j of every pair
    floors = []

    def recorded(sys, *args):   # the kernel of the right-hand side, its floors recorded
        c, accelerations = pair_kernel(sys, *args)

        def recording(s, floor2):
            floors.append(floor2)
            return c(s, floor2)
        return recording, accelerations

    def floor():   # the floor of a right-hand side built now, at the state rel
        gram.rhs()(0.0, gram.pack(rel))
        return np.sqrt(floors[-1])

    monkeypatch.setattr(dynamics, "pair_kernel", recorded)
    assert np.allclose(floor(), 1e3 * np.sqrt(4.0 * np.finfo(float).eps * w2 * tr), rtol=1e-12)
    monkeypatch.setattr(geometry, "COLLISION_FLOOR", 1e-3)
    assert np.array_equal(floor(), np.full(3, 1e-3))


@pytest.mark.parametrize("route", ["rk8", "reduced"])
def test_rk8_reports_steps(route):
    # per step 12 evaluations, 3 more when it carries samples; 2 for the first step
    sys, z0 = figure_eight()
    if route == "rk8":
        traj = integrate_absolute(z0, sys, EIGHT_PERIOD, tol=1e-10, samples=129)
    else:
        traj = integrate_reduced(RelativeState.from_state(z0), sys, EIGHT_PERIOD, tol=1e-10,
                                 samples=129)
    meta = traj.metadata
    steps = meta["accepted_steps"] + meta["rejected_steps"]
    assert meta["accepted_steps"] > 0
    assert 2 + 12 * steps <= meta["rhs_evals"] <= 2 + 15 * steps


@pytest.mark.parametrize("kappa", [-0.5, -1.0, -0.3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_integrator_right_hand_sides_match_pair_loop(monkeypatch, n, d, kappa):
    # the rk8 right-hand side handed to the stepper, and every acceleration
    # that leapfrog kicks with, at unequal masses against the pair loop
    rng = np.random.default_rng(100 * n + 10 * d + int(-10 * kappa))
    sys = MassSystem(rng.uniform(0.3, 3.0, n), G=1.3, kappa=kappa)
    r = rng.normal(size=(d, n))
    r /= np.sqrt(squared_distance_table(r)[np.triu_indices(n, 1)].min())   # bodies 1 apart or more
    z0 = State(Configuration(r, sys), Configuration(np.zeros((d, n)), sys))
    funs, kicks = [], []

    def capture(fun, ts, y0, tol, event, budget):
        funs.append(fun)
        return dop853.solve_ivp(fun, ts, y0, tol, event, budget)

    def recorded(sys, *args):   # the kernel of the run, its kicks recorded
        c, accelerations = pair_kernel(sys, *args)

        def recording(r, out):
            s = accelerations(r, out)
            kicks.append((r.copy(), out.copy()))
            return s
        return c, recording

    def close(got, r):
        ref = newton_acceleration_oracle(r, sys)
        return np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    monkeypatch.setattr(dynamics, "solve_ivp", capture)
    integrate_absolute(z0, sys, 1e-3, samples=2)
    (fun,) = funs
    dn = d * n
    for _ in range(3):
        u = rng.normal(size=2 * dn)
        du = fun(0.0, u)
        assert np.array_equal(du[:dn], u[dn:])
        assert close(du[dn:].reshape(d, n), u[:dn].reshape(d, n))

    monkeypatch.setattr(dynamics, "pair_kernel", recorded)
    integrate_absolute(z0, sys, 1e-3, method="leapfrog", samples=2, dt=2.5e-4)
    assert len(kicks) == 5
    for r, accel in kicks:
        assert close(accel, r)


# ---------------------------------------------------------------------------
# the DOP853 stepper against scipy's


@pytest.fixture
def against_scipy(monkeypatch):
    """Every stepper run of the integrators, repeated by scipy's DOP853 with
    the same right-hand side and event; (ours, scipy's) per run."""
    from scipy.integrate import solve_ivp

    runs = []

    def both(fun, ts, y0, tol, event, budget):
        ours = dop853.solve_ivp(fun, ts, y0, tol, event, budget)

        def crossing(t, y):
            return event(t, y)
        crossing.terminal, crossing.direction = True, -1
        runs.append((ours, solve_ivp(fun, (ts[0], ts[-1]), y0, method="DOP853", t_eval=ts,
                                     rtol=tol, atol=tol, events=crossing)))
        return ours

    monkeypatch.setattr(dynamics, "solve_ivp", both)
    return runs


def _kappa_minus_one_orbit():
    rng = np.random.default_rng(11)
    sys, z0 = tame_scenario(rng, 3, 2, 2.0, kappa=-1.0)
    return sys, z0, 2.0


def _lagrange_triangle():
    sys = MassSystem([1.0, 2.0, 3.0])
    x = equilateral(sys)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    return sys, State(x, Configuration(0.8 * rot @ x.r, sys)), 3.0


@pytest.mark.parametrize("case, route", [
    ("eight", "rk8"), ("triangle", "reduced"), ("kappa-1", "rk8"), ("kappa-1", "reduced"),
])
def test_stepper_reproduces_scipy_dop853(against_scipy, case, route):
    sys, z0, horizon = {"eight": lambda: figure_eight() + (EIGHT_PERIOD,),
                        "triangle": _lagrange_triangle,
                        "kappa-1": _kappa_minus_one_orbit}[case]()
    if route == "rk8":
        integrate_absolute(z0, sys, horizon, tol=1e-10, samples=129)
    else:
        integrate_reduced(RelativeState.from_state(z0), sys, horizon, tol=1e-10, samples=129)
    (ours, ref), = against_scipy
    assert ref.status == ours.status == 0
    assert ours.nfev == ref.nfev
    assert ours.y.shape == ref.y.T.shape
    assert np.abs(ours.y - ref.y.T).max() <= 1e-14 * np.abs(ref.y).max()


def test_stepper_locates_a_terminal_collision_like_scipy(monkeypatch, against_scipy):
    # a kappa = -1 collapse from rest meets a raised floor before the step stalls
    monkeypatch.setattr(geometry, "COLLISION_FLOOR", 1e-3)
    sys = MassSystem([1.0, 2.0, 3.0], kappa=-1.0)
    z0 = State(Configuration([[0.0, 1.0, 0.3], [0.0, 0.1, 0.9]], sys),
               Configuration(np.zeros((2, 3)), sys))
    with pytest.raises(CollisionError, match="collision at t = "):
        integrate_absolute(z0, sys, 5.0, tol=1e-10, samples=33)
    (ours, ref), = against_scipy
    assert ref.status == ours.status == 1
    assert ours.nfev == ref.nfev
    assert abs(ours.t_event - ref.t_events[0][0]) <= 1e-12


def test_solution_carries_the_last_accepted_step():
    # y' = -y from 1: a run to its end stops on its last time, and a run that
    # an event stops keeps the accepted step over which the event crossed
    ts = np.linspace(0.0, 2.0, 5)

    def decay(t, y, out):
        return np.negative(y, out=out)

    full = dop853.solve_ivp(decay, ts, [1.0], 1e-10, lambda t, y: 1.0, 1000)
    assert full.status == 0 and full.t_last == 2.0
    assert abs(full.y_last[0] - np.exp(-2.0)) <= 1e-9
    half = dop853.solve_ivp(decay, ts, [1.0], 1e-10, lambda t, y: y[0] - 0.5, 1000)
    assert half.status == 1 and abs(half.t_event - np.log(2.0)) <= 1e-9
    assert half.t_last > half.t_event and half.y_last[0] < 0.5
    assert abs(half.y_last[0] - np.exp(-half.t_last)) <= 1e-9


@pytest.mark.parametrize("case", ["eight", "collision"])
def test_collision_event_equals_recomputed_distance(monkeypatch, case):
    # after an accepted step the event reads the squared distances of the
    # step's FSAL evaluation; every value it returns, at the steps and in the
    # bisection on the dense output, is the one recomputed from the state,
    # to the bit
    if case == "eight":
        (sys, z0), horizon, floor = figure_eight(), EIGHT_PERIOD, COLLISION_FLOOR
    else:
        sys = MassSystem([1.0, 2.0, 3.0], kappa=-1.0)
        z0 = State(Configuration([[0.0, 1.0, 0.3], [0.0, 0.1, 0.9]], sys),
                   Configuration(np.zeros((2, 3)), sys))
        horizon, floor = 5.0, 1e-3
        monkeypatch.setattr(geometry, "COLLISION_FLOOR", floor)
    dn = z0.d * z0.n
    values, recomputed = [], []

    def recompute(r, sys):
        recomputed.append(None)
        return squared_distances(r, sys)

    def checked(fun, ts, y0, tol, event, budget):
        def compared(t, u):
            g = event(t, u)
            s = squared_distances(u[:dn].reshape(z0.d, z0.n), sys)
            values.append((g, float(np.sqrt(s.min())) - 2.0 * floor))
            return g
        return dop853.solve_ivp(fun, ts, y0, tol, compared, budget)

    monkeypatch.setattr(dynamics, "solve_ivp", checked)
    monkeypatch.setattr(dynamics, "squared_distances", recompute)
    if case == "eight":
        traj = integrate_absolute(z0, sys, horizon, tol=1e-10, samples=33)
        assert len(values) == traj.metadata["accepted_steps"] + 1
        assert len(recomputed) == 1   # the event at t0 only
    else:
        with pytest.raises(CollisionError, match="collision at t = "):
            integrate_absolute(z0, sys, horizon, tol=1e-10, samples=33)
        assert len(recomputed) > 1   # the bisection's dense states
    assert all(g == ref for g, ref in values)


@pytest.mark.parametrize("q", [5, 9, 513])
@pytest.mark.parametrize("grid", ["uniform", "nonuniform"])
def test_spline_slopes_match_scipy_cubic_spline(q, grid):
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(q)
    x = np.linspace(0.0, 3.0, q)
    if grid == "nonuniform":
        x = np.sort(np.concatenate([[0.0, 3.0], rng.uniform(0.0, 3.0, q - 2)]))
    y = np.sin(2.0 * x) + 0.1 * rng.normal(size=q)
    ref = CubicSpline(x, y).derivative()(x)
    assert np.abs(spline_slopes(x, y) - ref).max() <= 1e-13 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# audits


def test_audit_drifts_small():
    rng = np.random.default_rng(4)
    sys, z0 = tame_scenario(rng, 4, 3, 10.0)
    traj = integrate_absolute(z0, sys, 10.0, tol=1e-10, samples=101)
    rep = audit_invariants(traj, sys)
    assert rep.energy_drift < 1e-8
    assert rep.momentum_drift < 1e-8
    assert np.isfinite(rep.lagrange_jacobi_residual)


def test_audit_scaling_integral_kappa_minus_one():
    rng = np.random.default_rng(5)
    sys, z0 = tame_scenario(rng, 3, 3, 8.0, kappa=-1.0)
    traj = integrate_absolute(z0, sys, 8.0, tol=1e-11, samples=101)
    rep = audit_invariants(traj, sys)
    assert rep.scaling_integral_drift is not None
    assert rep.scaling_integral_drift < 1e-8


def test_audit_lagrange_jacobi_residual():
    rng = np.random.default_rng(6)
    for kappa in (-0.5, -1.0, -2.0 / 3.0):
        sys, z0 = tame_scenario(rng, 3, 3, 4.0, kappa=kappa)
        traj = integrate_absolute(z0, sys, 4.0, tol=1e-11, samples=1601)
        rep = audit_invariants(traj, sys)
        assert rep.lagrange_jacobi_residual < 1e-6


def test_audit_homothetic_motion_sundman_zero():
    sys = MassSystem([1.0, 1.0, 1.0])
    z0 = State(equilateral(sys), Configuration(np.zeros((2, 3)), sys))
    traj = integrate_absolute(z0, sys, 0.5, tol=1e-12, samples=33)
    for z in traj.states:
        I, J, K, _, _ = scalar_invariants(z, sys)
        assert bivector_norm_and_frequencies(angular_momentum(z, sys))[0] < 1e-12
        assert abs(I * K - J * J) < 1e-10 * max(I * K, 1.0)


@pytest.mark.parametrize("kappa", [-0.5, -1.0])
@pytest.mark.parametrize("n, d", [(2, 2), (3, 3), (5, 4)])
def test_audit_series_match_per_sample_invariants(n, d, kappa):
    # the audit and the one-state functions share one batched implementation
    rng = np.random.default_rng(10 * n + d)
    sys = MassSystem(rng.uniform(0.5, 2.0, n), kappa=kappa)
    samples = centred(rng.normal(size=(9, 2, d, n)), sys)
    traj = Trajectory(np.linspace(0.0, 1.0, 9), samples, "absolute", {})
    series = audit_invariants(traj, sys).series
    if d == 4:
        assert matrix_rank(angular_momentum(traj.states[0], sys).c) == 4
    for k, z in enumerate(traj.states):
        for name, value in zip("IJKUH", scalar_invariants(z, sys)):
            assert series[name][k] == value
        assert series["normC"][k] == bivector_norm_and_frequencies(angular_momentum(z, sys))[0]
        assert series["sundman_gap"][k] == sundman_gap(z, sys)
        assert series["sundman_function"][k] == sundman_function(z, sys)


def test_trajectory_states_view_reproduces_rows():
    rng = np.random.default_rng(11)
    sys, z0 = tame_scenario(rng, 3, 2, 1.0)
    ta = integrate_absolute(z0, sys, 1.0, samples=5)
    tr = integrate_reduced(RelativeState.from_state(z0), sys, 1.0, samples=5)
    assert ta.samples.shape == (5, 2, 2, 3) and tr.samples.shape == (5, 4, 3, 3)
    assert not ta.samples.flags.writeable and not tr.samples.flags.writeable
    assert len(ta.states) == len(tr.states) == 5
    for k in range(5):
        z, rel = ta.states[k], tr.states[k]
        assert np.array_equal(z.x.r, ta.samples[k, 0]) and np.array_equal(z.y.r, ta.samples[k, 1])
        for i, name in enumerate(("beta", "gamma", "delta", "rho")):
            assert np.array_equal(getattr(rel, name), tr.samples[k, i])
    with pytest.raises(ValidationError):
        audit_invariants(tr, sys)


def test_audit_raises_below_collision_floor():
    sys = MassSystem([1.0, 1.0, 1.0])
    samples = np.zeros((3, 2, 2, 3))
    samples[:, 0] = equilateral(sys).r
    samples[1, 0, 0, 1] = samples[1, 0, 0, 0] + 0.5 * COLLISION_FLOOR
    samples[1, 0, 1, 1] = samples[1, 0, 1, 0]
    with pytest.raises(CollisionError):
        audit_invariants(Trajectory(np.arange(3.0), samples, "absolute", {}), sys)


def test_sundman_function_formula():
    rng = np.random.default_rng(7)
    sys, z = random_state(rng, 4, 3)
    I, J, K, _, H = scalar_invariants(z, sys)
    normC, _ = bivector_norm_and_frequencies(angular_momentum(z, sys))
    expected = (J * J + normC**2) / np.sqrt(I) - 2.0 * np.sqrt(I) * H
    assert sundman_function(z, sys) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Sundman and Schwarz gaps


def test_sundman_gap_homothetic_zero():
    rng = np.random.default_rng(8)
    sys, z = random_state(rng, 4, 3)
    zh = State(z.x, Configuration(0.6 * z.x.r, sys))
    I, _, K, _, _ = scalar_invariants(zh, sys)
    assert abs(sundman_gap(zh, sys)) < 1e-12 * I * K


def test_sundman_gap_nonnegative_random():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n, d = rng.integers(2, 6), rng.integers(1, 5)
        sys, z = random_state(rng, n, d)
        I, _, K, _, _ = scalar_invariants(z, sys)
        assert sundman_gap(z, sys) >= -1e-12 * I * K


def test_sundman_equality_complex_homothetic():
    # planar state with y = (J/I + i c/I) x under the quarter turn
    sys = MassSystem([1.0, 2.0, 3.0])
    x = Configuration(np.random.default_rng(10).normal(size=(2, 3)), sys)
    Jq = np.array([[0.0, -1.0], [1.0, 0.0]])
    y = Configuration(0.3 * x.r + 0.8 * (Jq @ x.r), sys)
    z = State(x, y)
    I, _, K, _, _ = scalar_invariants(z, sys)
    assert abs(sundman_gap(z, sys)) < 1e-12 * I * K


def test_schwarz_gap_with_omega_c_is_sundman():
    rng = np.random.default_rng(11)
    sys, z = random_state(rng, 4, 4)
    C = angular_momentum(z, sys)
    omega_c, _ = hermitian_from_bivector(C)
    out = complex_schwarz_gap(z, Bivector(omega_c), sys)
    assert out.gap == pytest.approx(sundman_gap(z, sys), rel=1e-10)


def test_schwarz_gap_zero_omega():
    rng = np.random.default_rng(12)
    sys, z = random_state(rng, 4, 3)
    I, J, K, _, _ = scalar_invariants(z, sys)
    out = complex_schwarz_gap(z, Bivector(np.zeros((3, 3))), sys)
    assert out.gap == pytest.approx(I * K - J * J, rel=1e-12)
    assert out.gap >= 0.0


def test_schwarz_gap_dominates_sundman():
    rng = np.random.default_rng(13)
    for _ in range(50):
        sys, z = random_state(rng, 4, 4)
        w = Bivector(rng.normal(size=(4, 4)))
        omega, _ = hermitian_from_bivector(w)  # a valid structure
        out = complex_schwarz_gap(z, Bivector(omega), sys)
        assert out.gap >= sundman_gap(z, sys) - 1e-10 * abs(out.gap)


def test_schwarz_equality_recovers_omega_c():
    rng = np.random.default_rng(14)
    sys = MassSystem([1.0, 1.5, 2.0, 0.7])
    seed = Bivector(rng.normal(size=(4, 4)))
    J, _ = hermitian_from_bivector(seed)
    x = Configuration(J @ (-J @ rng.normal(size=(4, 4))), sys)  # columns in Im J
    y = Configuration(0.4 * x.r + 1.1 * (J @ x.r), sys)
    z = State(x, y)
    out = complex_schwarz_gap(z, Bivector(J), sys)
    assert out.equality
    assert out.omega_mismatch is not None and out.omega_mismatch < 1e-10


def test_schwarz_invalid_structure_rejected():
    rng = np.random.default_rng(15)
    sys, z = random_state(rng, 3, 3)
    with pytest.raises(InvalidStructure):
        complex_schwarz_gap(z, Bivector(2.0 * np.array(
            [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])), sys)
    skew = np.array([[0.0, -0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(InvalidStructure):
        complex_schwarz_gap(z, Bivector(skew), sys)  # Omega^2 != -Id on image


# ---------------------------------------------------------------------------
# Saari decomposition


def test_saari_rigid_rotation():
    rng = np.random.default_rng(16)
    sys, z = random_state(rng, 4, 3)
    w = np.array([[0.0, 0.4, -0.1], [-0.4, 0.0, 0.7], [0.1, -0.7, 0.0]])
    zr = State(z.x, Configuration(w @ z.x.r, sys))
    y_h, y_r, y_d = saari_decomposition(zr, sys)
    assert np.abs(y_h).max() < 1e-12
    assert np.abs(y_d).max() < 1e-10


def test_saari_homothetic():
    rng = np.random.default_rng(17)
    sys, z = random_state(rng, 4, 3)
    zh = State(z.x, Configuration(0.9 * z.x.r, sys))
    y_h, y_r, y_d = saari_decomposition(zh, sys)
    assert np.abs(y_r).max() < 1e-10
    assert np.abs(y_d).max() < 1e-10


def test_saari_pythagoras_and_rotational_bound():
    rng = np.random.default_rng(18)
    for _ in range(100):
        n, d = rng.integers(2, 6), rng.integers(2, 5)
        sys, z = random_state(rng, n, d)
        y_h, y_r, y_d = saari_decomposition(z, sys)
        I, _, K, _, _ = scalar_invariants(z, sys)
        total = sum(mass_dot(v, v, sys.m) for v in (y_h, y_r, y_d))
        assert total == pytest.approx(K, rel=1e-12)
        assert np.abs(y_h + y_r + y_d - z.y.r).max() < 1e-12 * max(1.0, np.abs(z.y.r).max())
        normC, _ = bivector_norm_and_frequencies(angular_momentum(z, sys))
        assert mass_dot(y_r, y_r, sys.m) >= normC**2 / I - 1e-12 * K


# ---------------------------------------------------------------------------
# rank estimates


def test_dziobek_rank_inequalities():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        n, d = rng.integers(2, 6), rng.integers(1, 5)
        sys, z = random_state(rng, n, d)
        rank_c, rank_e = dziobek_ranks(z, sys)
        assert rank_c <= rank_e <= rank_c / 2 + n - 1


def test_zero_momentum_three_bodies_stay_planar():
    rng = np.random.default_rng(20)
    sys = MassSystem(rng.uniform(0.5, 1.5, 3))
    r = rng.normal(size=(3, 3)) * 2.0
    x = Configuration(r, sys)
    y = Configuration(x.r * np.array([0.3, 0.2, 0.25]), sys)  # v_k parallel r_k
    z0 = State(x, y)
    assert bivector_norm_and_frequencies(angular_momentum(z0, sys))[0] < 1e-12
    traj = integrate_absolute(z0, sys, 10.0, tol=1e-10, samples=101)
    for z in traj.states:
        _, rank_e = dziobek_ranks(z, sys)
        assert rank_e <= 2


def test_audit_zero_momentum_run_reports_sane_drift():
    rng = np.random.default_rng(21)
    sys = MassSystem(rng.uniform(0.5, 1.5, 3))
    x = Configuration(rng.normal(size=(3, 3)) * 2.0, sys)
    y = Configuration(x.r * np.array([0.25, 0.2, 0.3]), sys)
    traj = integrate_absolute(State(x, y), sys, 2.0, tol=1e-10, samples=33)
    rep = audit_invariants(traj, sys)
    assert rep.momentum_drift < 1e-8  # noise over the sqrt(I K) scale, not 1/eps


# ---------------------------------------------------------------------------
# zero references: every drift falls back to its natural scale


def kappa_minus_one_relative_equilibrium():
    """The isosceles relative equilibrium under kappa = -1, whose energy is 0."""
    sys = MassSystem([1.0, 1.0, 1.0], kappa=-1.0)
    return sys, relative_equilibrium(isosceles(sys), sys).state(0.0)


def release_from_rest():
    sys = MassSystem([1.0, 2.0, 3.0])
    return sys, State(equilateral(sys), Configuration(np.zeros((2, 3)), sys))


def test_zero_energy_relative_equilibrium_audits_at_rounding():
    # H0 = -2.7e-15: measured against |H0| both drifts read 6.4e5
    sys, z0 = kappa_minus_one_relative_equilibrium()
    assert abs(scalar_invariants(z0, sys)[4]) < 1e-14
    rep = audit_invariants(integrate_absolute(z0, sys, 5.0), sys)
    assert rep.energy_drift <= 1e-9
    assert rep.scaling_integral_drift <= 1e-9


def test_leapfrog_runs_a_zero_energy_relative_equilibrium():
    # it used to stop at t = 0.00977 with an energy error of 0.6 of |H|
    sys, z0 = kappa_minus_one_relative_equilibrium()
    rep = audit_invariants(integrate_absolute(z0, sys, 5.0, method="leapfrog"), sys)
    assert rep.energy_drift <= 1e-9
    # a step too coarse for the rotation is refused on the natural scale
    with pytest.raises(StepFailure, match=r"energy error .* of K0/2 \+ U0 at t = "):
        integrate_absolute(z0, sys, 5.0, method="leapfrog", dt=0.5, samples=11)


@pytest.mark.parametrize("method", ["rk8", "leapfrog"])
def test_release_from_rest_audits_momentum_at_rounding(method):
    # C0 = 0: measured against max |C0| the momentum drift read 7.2e14 (rk8)
    # and 6.1e15 (leapfrog)
    sys, z0 = release_from_rest()
    rep = audit_invariants(integrate_absolute(z0, sys, 0.3, method=method), sys)
    assert rep.momentum_drift <= 1e-12
