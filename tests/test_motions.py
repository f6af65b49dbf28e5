import time

import numpy as np
import pytest

from conftest import equilateral, isosceles
from nbodyred.errors import NotBalanced, NotCentral, ValidationError
from nbodyred.geometry import (
    Configuration,
    MassSystem,
    State,
    gram_form,
)
from nbodyred.dynamics import audit_invariants, integrate_absolute, scalar_invariants
from nbodyred.configurations import classify, find_balanced, find_central
from nbodyred.motions import (
    HomographicMotion,
    KeplerOrbit,
    kepler_anomaly,
    kepler_state,
    relative_equilibrium,
)
from oracles import (
    kepler_radius_true_anomaly,
    relative_equilibrium_by_similarity,
    similarity_interaction_table,
    sundman_gap,
    wintner_conley,
)

SYS_EQ = MassSystem([1.0, 1.0, 1.0])


def bisection_anomaly(e, l, iters=120):
    """Independent solver for u - e sin u = l by pure bisection."""
    turns = np.floor((l + np.pi) / (2 * np.pi))
    lw = l - 2 * np.pi * turns
    lo, hi = -np.pi, np.pi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid - e * np.sin(mid) - lw >= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi) + 2 * np.pi * turns


# ---------------------------------------------------------------------------
# Kepler anomaly


def test_anomaly_circular():
    for l in (0.0, 0.3, np.pi, 5.9, -2.0, 13.0):
        assert kepler_anomaly(0.0, l) == pytest.approx(l, abs=1e-15)


def test_anomaly_apoapsis():
    for e in (0.1, 0.5, 0.9, 0.99):
        assert kepler_anomaly(e, np.pi) == pytest.approx(np.pi, abs=1e-13)


def test_anomaly_frozen_oracle_value():
    u = kepler_anomaly(0.5, np.pi / 2)
    oracle = bisection_anomaly(0.5, np.pi / 2)
    assert u == pytest.approx(oracle, abs=1e-13)
    assert u == pytest.approx(2.0209799380, abs=1e-9)


def test_anomaly_residual_grid():
    ls = np.linspace(0.0, 2 * np.pi, 721, endpoint=False)
    for e in np.arange(0.0, 0.95, 0.1):
        u = kepler_anomaly(e, ls)
        assert np.abs(u - e * np.sin(u) - ls).max() < 1e-13


def test_anomaly_monotone_continuous():
    ls = np.linspace(-7.0, 13.0, 4001)
    u = kepler_anomaly(0.8, ls)
    du = np.diff(u)
    assert np.all(du > 0.0)
    assert du.max() < 0.06  # no jumps at the wrapping seams


def test_anomaly_inverse_identity():
    us = np.linspace(0.0, 2 * np.pi, 101, endpoint=False)
    for e in (0.2, 0.7):
        ls = us - e * np.sin(us)
        assert np.abs(kepler_anomaly(e, ls) - us).max() < 1e-13


@pytest.mark.parametrize("e", [1.0 - 1e-6, 1.0 - 1e-9])
def test_anomaly_near_pericentre_at_high_eccentricity(e):
    # where 1 - e cos u is tiny a residual of 1e-14 is no root: the anomaly
    # agrees with bisection relative to its own size
    ls = np.geomspace(1e-20, 1e-2, 200)
    for l in np.concatenate([ls, -ls]):
        oracle = bisection_anomaly(e, l)
        assert abs(kepler_anomaly(e, l) - oracle) <= 1e-6 * abs(oracle)


@pytest.mark.parametrize("e", [0.3, 0.9, 0.999999])
def test_anomaly_is_odd_to_the_bit(e):
    ls = np.linspace(-np.pi, np.pi, 20001)[1:-1]
    assert np.array_equal(kepler_anomaly(e, -ls), -kepler_anomaly(e, ls))


def test_kepler_state_mirrors_at_opposite_times():
    # the pericentre is at t = 0: xi even and eta odd in t, their rates the other way
    orb = KeplerOrbit(2.0, 0.7, 0.9)
    ts = np.linspace(0.0, 0.45 * orb.period, 301)
    (xi, eta), (xi_dot, eta_dot) = kepler_state(orb, ts)
    (xi_m, eta_m), (xi_dot_m, eta_dot_m) = kepler_state(orb, -ts)
    assert np.array_equal(xi_m, xi) and np.array_equal(eta_m, -eta)
    assert np.array_equal(xi_dot_m, -xi_dot) and np.array_equal(eta_dot_m, eta_dot)


def test_anomaly_at_the_largest_eccentricity_below_one():
    e = np.nextafter(1.0, 0.0)
    ls = np.concatenate([np.linspace(-7.0, 7.0, 200001), [0.0, np.pi, -np.pi]])
    start = time.perf_counter()
    u = kepler_anomaly(e, ls)
    assert time.perf_counter() - start < 2.0
    assert np.abs(u - e * np.sin(u) - ls).max() <= 1e-14
    order = np.argsort(ls, kind="stable")
    assert np.all(np.diff(u[order]) >= 0.0)


def test_anomaly_rejects_hyperbolic():
    with pytest.raises(ValidationError):
        kepler_anomaly(1.0, 0.3)


# ---------------------------------------------------------------------------
# Kepler states


def test_orbit_relation_enforced():
    # the angular momentum c of the motion obeys k^2 - c^2/a = k^2 e^2
    orb = KeplerOrbit(2.0, 0.7, 0.5)
    zeta, zdot = kepler_state(orb, np.linspace(0.0, orb.period, 7))
    c = zeta[0] * zdot[1] - zeta[1] * zdot[0]
    assert np.abs(orb.k**2 - c**2 / orb.a - (orb.k * orb.e) ** 2).max() < 1e-14 * orb.k**2


def test_circular_radius_constant():
    orb = KeplerOrbit(1.5, 0.8, 0.0)
    ts = np.linspace(0.0, orb.period, 17)
    zeta, _ = kepler_state(orb, ts)
    r = np.hypot(zeta[0], zeta[1])
    assert np.allclose(r, orb.k * orb.a, atol=1e-12)


def test_orbit_closes_after_period():
    orb = KeplerOrbit(1.0, 1.3, 0.5)
    z0, v0 = kepler_state(orb, 0.0)
    z1, v1 = kepler_state(orb, orb.period)
    assert np.abs(z1 - z0).max() < 1e-10
    assert np.abs(v1 - v0).max() < 1e-10


def test_energy_at_random_times():
    rng = np.random.default_rng(0)
    orb = KeplerOrbit(2.0, 0.9, 0.65)
    ts = rng.uniform(0.0, 3.0 * orb.period, 100)
    zeta, zdot = kepler_state(orb, ts)
    r = np.hypot(zeta[0], zeta[1])
    H = 0.5 * (zdot**2).sum(axis=0) - orb.k / r
    assert np.abs(H + 0.5 / orb.a).max() < 1e-12


def test_radius_formulas_agree():
    orb = KeplerOrbit(1.0, 1.0, 0.6)
    ts = np.linspace(0.0, orb.period, 50, endpoint=False)
    zeta, _ = kepler_state(orb, ts)
    r_xy = np.hypot(zeta[0], zeta[1])
    v = np.arctan2(zeta[1], zeta[0])  # true anomaly: origin is the focus
    assert np.abs(r_xy - kepler_radius_true_anomaly(orb, v)).max() < 1e-10


def test_kepler_ode_by_finite_differences():
    orb = KeplerOrbit(1.7, 0.8, 0.45)
    for t in np.linspace(0.1, orb.period, 7):
        z0 = kepler_state(orb, t)[0]
        # step scaled by the local dynamical time to control truncation
        h = 3e-4 * orb.period * (np.linalg.norm(z0) / (orb.k * orb.a)) ** 1.5
        stencil = [kepler_state(orb, t + k * h)[0] for k in (-2, -1, 0, 1, 2)]
        acc = (-stencil[0] + 16 * stencil[1] - 30 * stencil[2]
               + 16 * stencil[3] - stencil[4]) / (12 * h**2)
        z = stencil[2]
        expected = -orb.k * z / np.linalg.norm(z) ** 3
        assert np.abs(acc - expected).max() < 1e-8 * max(np.linalg.norm(expected), 1.0)


def test_kepler_sundman_identity():
    # I K - J^2 - C^2 = 0 identically for the planar Kepler motion
    orb = KeplerOrbit(1.0, 1.0, 0.3)
    for t in np.linspace(0.0, orb.period, 13):
        zeta, zdot = kepler_state(orb, t)
        I = zeta @ zeta
        J = zeta @ zdot
        K = zdot @ zdot
        C = zeta[0] * zdot[1] - zeta[1] * zdot[0]
        assert abs(I * K - J * J - C * C) < 1e-12 * I * K
        assert C == pytest.approx(orb.k * np.sqrt(orb.a * (1.0 - orb.e**2)), rel=1e-12)


# ---------------------------------------------------------------------------
# homographic motions


def test_homographic_rigid_when_circular():
    hm = HomographicMotion(equilateral(SYS_EQ), SYS_EQ, e=0.0)
    b0 = gram_form(hm.state(0.0).x)
    for t in np.linspace(0.0, hm.period, 9):
        assert np.abs(gram_form(hm.state(t).x) - b0).max() < 1e-12


def fit_conic_eccentricity(points):
    """Best-fit conic with focus at the origin: r = p / (1 + e cos(v - v0))."""
    x, y = points
    r = np.hypot(x, y)
    # 1/r = 1/p + (e/p) cos v cos v0 + (e/p) sin v sin v0: linear lsq
    A = np.column_stack([np.ones_like(r), x / r, y / r])
    coef, res, *_ = np.linalg.lstsq(A, 1.0 / r, rcond=None)
    inv_p, c1, c2 = coef
    resid = np.abs(A @ coef - 1.0 / r).max()
    return np.hypot(c1, c2) / inv_p, resid


def test_homographic_bodies_on_similar_conics():
    hm = HomographicMotion(equilateral(SYS_EQ), SYS_EQ, e=0.5)
    ts = np.linspace(0.0, hm.period, 200, endpoint=False)
    states = hm.sample(ts).states
    for body in range(3):
        pts = np.array([[z.x.r[0, body], z.x.r[1, body]] for z in states]).T
        ecc, resid = fit_conic_eccentricity(pts)
        assert resid < 1e-8
        assert ecc == pytest.approx(0.5, abs=1e-8)


def test_homographic_satisfies_equations_of_motion():
    # integrate from the analytic state and compare downstream (robust at
    # any eccentricity, unlike plain finite differences)
    for e in (0.0, 0.5, 0.9):
        hm = HomographicMotion(equilateral(SYS_EQ), SYS_EQ, e=e)
        t0, t1 = 0.15 * hm.period, 0.55 * hm.period
        traj = integrate_absolute(hm.state(t0), SYS_EQ, t1 - t0, tol=1e-12, samples=2)
        za = hm.state(t1)
        scale = np.abs(za.x.r).max()
        assert np.abs(traj.states[-1].x.r - za.x.r).max() < 1e-9 * scale
        assert np.abs(traj.states[-1].y.r - za.y.r).max() < 1e-8 * scale


def test_homographic_euler_collinear_high_eccentricity():
    sys = MassSystem([1.0, 2.0, 3.0])
    x0 = find_central(sys, 1, seed=0)
    hm = HomographicMotion(x0, sys, e=0.9)
    assert hm.state(0.0).x.d == 2  # odd rank is doubled
    t0, t1 = 0.15 * hm.period, 0.5 * hm.period
    traj = integrate_absolute(hm.state(t0), sys, t1 - t0, tol=1e-12, samples=2)
    za = hm.state(t1)
    scale = np.abs(za.x.r).max()
    assert np.abs(traj.states[-1].x.r - za.x.r).max() < 1e-8 * scale


def test_homographic_sundman_equality():
    hm = HomographicMotion(equilateral(SYS_EQ), SYS_EQ, e=0.5)
    for t in np.linspace(0.0, hm.period, 33):
        z = hm.state(t)
        I, _, K, _, _ = scalar_invariants(z, SYS_EQ)
        assert abs(sundman_gap(z, SYS_EQ)) < 1e-10 * I * K


def test_homographic_rejects_non_central():
    with pytest.raises(NotCentral):
        HomographicMotion(isosceles(SYS_EQ), SYS_EQ, e=0.3)


def moved_to_residual(x, sys, residual, target):
    """x moved along a fixed random direction until residual(x) is about
    target: a residual off a zero grows linearly with the step."""
    direction = np.random.default_rng(0).normal(size=x.r.shape)
    probe = residual(Configuration(x.r + 1e-6 * direction, sys))
    return Configuration(x.r + (1e-6 * target / probe) * direction, sys)


@pytest.mark.parametrize("target, accepted", [(1e-9, True), (1e-7, False)])
def test_one_tolerance_for_classify_and_the_motions(target, accepted):
    # classify, HomographicMotion and relative_equilibrium share one
    # tolerance, 1e-8: a residual of 1e-9 is central (balanced) to all
    # three, one of 1e-7 to none
    sys = MassSystem([1.0, 2.0, 3.0])
    x = moved_to_residual(equilateral(sys), sys, lambda y: classify(y, sys).central_residual,
                          target)
    cls = classify(x, sys)
    assert 0.5 * target < cls.central_residual < 2.0 * target
    assert (cls.kind == "central") == accepted
    if accepted:
        assert HomographicMotion(x, sys, e=0.3).period > 0.0
    else:
        with pytest.raises(NotCentral):
            HomographicMotion(x, sys, e=0.3)

    # a balanced configuration of unequal masses, far from central
    xb = moved_to_residual(find_balanced(sys, [0.7, 0.3], seed=0), sys,
                           lambda y: classify(y, sys).balanced_residual, target)
    cls = classify(xb, sys)
    assert 0.5 * target < cls.balanced_residual < 2.0 * target and cls.central_residual > 1e-2
    assert cls.kind == ("balanced" if accepted else "neither")
    if accepted:
        assert relative_equilibrium(xb, sys).x0.d == 4
    else:
        with pytest.raises(NotBalanced):
            relative_equilibrium(xb, sys)


# ---------------------------------------------------------------------------
# relative equilibria


def test_relative_equilibrium_two_bodies_kepler_frequency():
    sys = MassSystem([1.0, 3.0])
    x = Configuration([[-1.5, 0.5]], sys)  # separation 2
    re = relative_equilibrium(x, sys)
    assert re.x0.d == 2
    assert re.frequencies[0] == pytest.approx(np.sqrt(sys.G * sys.M / 8.0), rel=1e-12)


def test_relative_equilibrium_central_single_frequency():
    re = relative_equilibrium(equilateral(SYS_EQ), SYS_EQ)
    assert re.x0.d == 4  # 2 rank(beta)
    assert re.frequencies[0] == pytest.approx(re.frequencies[1], rel=1e-10)
    assert re.frequencies[0] == pytest.approx(np.sqrt(3.0), rel=1e-10)  # U/I = 3


def test_relative_equilibrium_isosceles_two_frequencies():
    re = relative_equilibrium(isosceles(SYS_EQ), SYS_EQ)
    assert re.x0.d == 4
    assert re.frequencies[0] > re.frequencies[1] * (1.0 + 1e-6)
    # defining property: Omega^2 x0 = 2 x0 A
    A = wintner_conley(re.x0, SYS_EQ)
    W = re.Omega
    resid = np.abs(W @ W @ re.x0.r - 2.0 * re.x0.r @ A).max()
    assert resid < 1e-10 * np.abs(re.x0.r @ A).max()
    # same relative configuration as the input
    assert np.allclose(gram_form(re.x0), gram_form(isosceles(SYS_EQ)), atol=1e-12)


def test_one_rotation_table_turns_both_motions():
    # Omega of a balanced configuration: exactly antisymmetric, +-omega_i on
    # the plane pairs (2i, 2i + 1) in the order of the frequencies, read-only
    sys = MassSystem([1.0, 1.3, 0.8, 1.1])
    for x0, s in ((isosceles(SYS_EQ), SYS_EQ), (find_balanced(sys, [0.5, 0.3, 0.2], seed=5), sys)):
        re = relative_equilibrium(x0, s)
        W, om = re.Omega, re.frequencies
        assert np.array_equal(W, -W.T)
        i = 2 * np.arange(len(om))
        assert W[i, i + 1].tolist() == [-w for w in om] and W[i + 1, i].tolist() == om
        assert np.count_nonzero(W) == 2 * len(om)
        assert not W.flags.writeable
    # J of a homographic motion: a quarter-turn, J^2 = -Id, on an even-rank
    # image (the plane, a regular 4-simplex) and on a doubled odd-rank one
    # (the line, the regular tetrahedron)
    sys4, sys5 = MassSystem([1.0] * 4), MassSystem([1.0, 2.0, 3.0, 4.0, 5.0])
    h = 0.5**0.5
    tetra = [[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0], [-h, -h, h, h]]
    for r, s, dim in (([[0.0, 1.0, 0.5], [0.0, 0.0, 3**0.5 / 2]], SYS_EQ, 2), (np.eye(5), sys5, 4),
                      ([[0.0, 1.0, 2.0]], SYS_EQ, 2), (tetra, sys4, 6)):
        J = HomographicMotion(Configuration(r, s), s, e=0.3).quarter_turn
        assert J.shape == (dim, dim)
        assert np.array_equal(J @ J, -np.eye(dim))


BALANCED_OUTPUTS = {   # find_balanced's (masses, spectrum, seed)
    "123": ([1.0, 2.0, 3.0], [2.0, 1.0], 1),
    "1234": ([1.0, 2.0, 3.0, 4.0], [0.5, 0.3, 0.2], 5),
    "four-equal": ([1.0] * 4, [0.6, 0.4], 2),
}


@pytest.mark.parametrize("case", BALANCED_OUTPUTS)
def test_relative_equilibrium_reads_the_interaction_table_as_one_product(monkeypatch, case):
    # M^{-1/2} A M^{1/2} = -1/2 F^T F is exactly symmetric and equals the
    # symmetrized similarity transform of A; the frequencies and x0 are those
    # of the similarity transform
    import nbodyred.motions

    masses, spectrum, seed = BALANCED_OUTPUTS[case]
    sys = MassSystem(masses)
    x = find_balanced(sys, spectrum, seed=seed)
    exact, tables = nbodyred.motions._simultaneous_eigh, []

    def recorded(B, A):
        tables.append(A)
        return exact(B, A)

    monkeypatch.setattr(nbodyred.motions, "_simultaneous_eigh", recorded)
    re = relative_equilibrium(x, sys)
    (a_sym,) = tables
    assert np.array_equal(a_sym, a_sym.T)
    ref = similarity_interaction_table(x, sys)
    assert np.abs(a_sym - ref).max() <= 1e-14 * np.abs(ref).max()
    omega, x0 = relative_equilibrium_by_similarity(x, sys)
    assert np.abs(np.array(re.frequencies) - omega).max() <= 1e-13 * omega.max()
    assert np.abs(re.x0.r - x0).max() <= 1e-13 * np.abs(x0).max()


def test_relative_equilibrium_rigid_under_integration():
    re = relative_equilibrium(isosceles(SYS_EQ), SYS_EQ)
    z0 = re.state(0.0)
    T = 10.0 * re.slow_period
    traj = integrate_absolute(z0, SYS_EQ, T, tol=1e-12, samples=101)
    b0 = gram_form(z0.x)
    drift = max(np.abs(gram_form(z.x) - b0).max() for z in traj.states)
    assert drift < 1e-7 * np.abs(b0).max()
    # the analytic sampler agrees with the integrated flow
    zT = re.state(traj.times[-1])
    assert np.abs(traj.states[-1].x.r - zT.x.r).max() < 1e-6


def test_relative_equilibrium_rejects_unbalanced():
    x = Configuration([[-0.7, 0.5, 0.1], [0.0, 0.0, 0.9]], SYS_EQ)
    with pytest.raises(NotBalanced):
        relative_equilibrium(x, SYS_EQ)


def test_homographic_circular_matches_relative_equilibrium():
    # relative_equilibrium places the image beside an orthogonal copy of
    # itself; the homographic motion realized the same way, zeta(t) moving
    # the image into its copy, agrees after orthogonal Procrustes with no
    # phase offset (the planar realization is no isometric image of it)
    sys = MassSystem([1.0, 2.0, 3.0])
    x0 = find_central(sys, 2, seed=0)
    re = relative_equilibrium(x0, sys)
    hm = HomographicMotion(x0, sys, e=0.0, scale=1.0)
    assert hm.period == pytest.approx(2 * np.pi / re.frequencies[0], rel=1e-10)
    ts = np.linspace(0.0, hm.period, 25)
    zeta, zdot = kepler_state(hm.orbit, ts)
    image = hm.x0.r   # the planar image at I = 1
    A = np.hstack([np.vstack([xi * image, eta * image]) for xi, eta in np.hstack([zeta, zdot]).T])
    B = np.hstack([re.state(t).x.r for t in ts] + [re.state(t).y.r for t in ts])
    u, _, vt = np.linalg.svd(B @ A.T)
    q = u @ vt
    assert np.abs(q @ A - B).max() < 1e-9


def test_sundman_profile_motions():
    # homographic: identically zero; balanced non-central: constant positive
    hm = HomographicMotion(equilateral(SYS_EQ), SYS_EQ, e=0.5)
    ts = np.linspace(0.0, hm.period, 33)
    traj_h = hm.sample(ts)
    prof_h = audit_invariants(traj_h, SYS_EQ).series["sundman_gap"]
    scale = max(scalar_invariants(hm.state(t), SYS_EQ)[0] *
                scalar_invariants(hm.state(t), SYS_EQ)[2] for t in ts)
    assert np.abs(prof_h).max() < 1e-9 * scale

    re = relative_equilibrium(isosceles(SYS_EQ), SYS_EQ)
    traj_r = re.sample(ts)
    prof_r = audit_invariants(traj_r, SYS_EQ).series["sundman_gap"]
    assert prof_r.min() > 0.0
    assert (prof_r.max() - prof_r.min()) < 1e-8 * prof_r.max()

    # homothetic collapse: zero momentum and IK = J^2
    sys = SYS_EQ
    z0 = State(equilateral(sys), Configuration(np.zeros((2, 3)), sys))
    traj_c = integrate_absolute(z0, sys, 0.5, tol=1e-12, samples=17)
    prof_c = audit_invariants(traj_c, sys).series["sundman_gap"]
    assert np.abs(prof_c).max() < 1e-10


def test_per_body_kepler_energies_coincide():
    # all bodies of a non-circular homographic motion share one energy scale
    hm = HomographicMotion(equilateral(SYS_EQ), SYS_EQ, e=0.4)
    ts = np.linspace(0.0, hm.period, 400, endpoint=False)
    states = hm.sample(ts).states
    ratios = []
    for body in range(3):
        pts = np.array([[z.x.r[0, body], z.x.r[1, body]] for z in states]).T
        vel = np.array([[z.y.r[0, body], z.y.r[1, body]] for z in states]).T
        r = np.hypot(pts[0], pts[1])
        v2 = (vel**2).sum(axis=0)
        # H_b = v^2/2 - k_b / r must be constant: fit k_b, check spread
        Amat = np.column_stack([np.ones_like(r), 1.0 / r])
        coef, *_ = np.linalg.lstsq(Amat, 0.5 * v2, rcond=None)
        Hb, kb = coef[0], coef[1]
        ratios.append(-2.0 * Hb / kb**2 * (kb**2))  # energy after fit
        assert np.abs(0.5 * v2 - kb / r - Hb).max() < 1e-8 * max(abs(Hb), 1.0)
    # semi-major parameter a_b = -1/(2 H_b) equal across bodies up to scale of k_b
    # (equal-mass equilateral: identical orbits)
    assert np.ptp(ratios) < 1e-8 * max(abs(r) for r in ratios)


def test_generic_four_body_balanced_needs_six_dimensions():
    # a balanced 4-body configuration of full spectrum rank carries its
    # uniform rotation in R^6, with three distinct frequencies
    sys = MassSystem([1.0, 1.3, 0.8, 1.1])
    from nbodyred.configurations import find_balanced

    xb = find_balanced(sys, [0.5, 0.3, 0.2], seed=5)
    re = relative_equilibrium(xb, sys)
    assert re.x0.d == 6
    assert len(set(round(f, 6) for f in re.frequencies)) == 3
    z0 = re.state(0.0)
    traj = integrate_absolute(z0, sys, 2.0 * re.slow_period, tol=1e-11, samples=33)
    b0 = gram_form(z0.x)
    drift = max(np.abs(gram_form(z.x) - b0).max() for z in traj.states)
    assert drift < 1e-8 * np.abs(b0).max()
