"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import time

import numpy as np
from scipy.optimize import brentq

from conftest import (
    dense_basis,
    equilateral,
    isosceles,
    random_state,
    squared_distance_table,
    tame_scenario,
    triangle_table,
)
from nbodyred.geometry import (
    Configuration,
    MassSystem,
    RelativeState,
    State,
    gram_form,
)
from nbodyred.dynamics import (
    audit_invariants,
    integrate_absolute,
    integrate_reduced,
    scalar_invariants,
)
from nbodyred.configurations import (
    classify,
    find_balanced,
    find_central,
)
from nbodyred.motions import (
    HomographicMotion,
    KeplerOrbit,
    kepler_anomaly,
    kepler_state,
    relative_equilibrium,
)
from nbodyred.action import (
    MinimizeOptions,
    action_value_and_gradient,
    hiphop_z2z4,
    invariant_basis,
    minimize_action,
    square_relative_equilibrium_loop,
    verify_loop,
)
from oracles import (
    angular_momentum,
    balanced_residuals_pijk,
    bivector_norm_and_frequencies,
    characteristic_coefficients,
    dziobek_ranks,
    elementary_symmetric,
    inertia_table,
    sundman_gap,
)


def report(line):
    print(f"\n[acceptance] {line}")


# 1 ------------------------------------------------------------------------


def test_criterion_1_conservation_suite():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst_e, worst_c = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(2, 5))
        sys, z0 = tame_scenario(rng, n, d, 10.0)
        traj = integrate_absolute(z0, sys, 10.0, tol=1e-10, samples=101)
        rep = audit_invariants(traj, sys)
        worst_e = max(worst_e, rep.energy_drift)
        worst_c = max(worst_c, rep.momentum_drift)
    elapsed = time.time() - t0
    report(f"criterion 1: energy drift {worst_e:.2e}, momentum drift {worst_c:.2e}, "
           f"{elapsed:.1f} s -> {'PASS' if worst_e < 1e-8 and worst_c < 1e-8 and elapsed < 60 else 'FAIL'}")
    assert worst_e < 1e-8
    assert worst_c < 1e-8
    assert elapsed < 60.0


# 2 ------------------------------------------------------------------------


def test_criterion_2_reduced_absolute_equivalence():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for trial in range(10):
        n = 3 if trial % 2 == 0 else 4
        d = int(rng.integers(2, 5))
        sys, z0 = tame_scenario(rng, n, d, 5.0)
        ta = integrate_absolute(z0, sys, 5.0, tol=1e-12, samples=41)
        tr = integrate_reduced(RelativeState.from_state(z0), sys, 5.0,
                               tol=1e-12, samples=41)
        for za, rel in zip(ta.states, tr.states):
            ra = RelativeState.from_state(za)
            for field in ("beta", "gamma", "delta", "rho"):
                worst = max(worst, np.abs(getattr(ra, field) - getattr(rel, field)).max())
    report(f"criterion 2: reduced/absolute sup difference {worst:.2e} -> "
           f"{'PASS' if worst < 1e-6 else 'FAIL'}")
    assert worst < 1e-6


# 3 ------------------------------------------------------------------------


def test_criterion_3_lagrange_jacobi():
    rng = np.random.default_rng(1003)
    worst_lj = 0.0
    g_drift = None
    for kappa in (-0.5, -1.0, -2.0 / 3.0):
        sys, z0 = tame_scenario(rng, 3, 3, 5.0, kappa=kappa)
        traj = integrate_absolute(z0, sys, 5.0, tol=1e-11, samples=2001)
        rep = audit_invariants(traj, sys)
        worst_lj = max(worst_lj, rep.lagrange_jacobi_residual)
        if kappa == -1.0:
            g_drift = rep.scaling_integral_drift
    ok = worst_lj < 1e-6 and g_drift is not None and g_drift < 1e-8
    report(f"criterion 3: |J_dot - virial| {worst_lj:.2e}, "
           f"scaling-integral drift {g_drift:.2e} -> {'PASS' if ok else 'FAIL'}")
    assert worst_lj < 1e-6
    assert g_drift < 1e-8


# 4 ------------------------------------------------------------------------


def test_criterion_4_sundman_audit():
    rng = np.random.default_rng(1004)
    worst_ratio = 0.0
    for _ in range(1000):
        n, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        sys, z = random_state(rng, n, d)
        I, _, K, _, _ = scalar_invariants(z, sys)
        worst_ratio = min(worst_ratio, sundman_gap(z, sys) / (I * K))
    assert worst_ratio >= -1e-12

    sys3 = MassSystem([1.0, 1.0, 1.0])
    hm = HomographicMotion(equilateral(sys3), sys3, e=0.5)
    worst_eq = 0.0
    for t in np.linspace(0.0, hm.period, 64):
        z = hm.state(t)
        I, _, K, _, _ = scalar_invariants(z, sys3)
        worst_eq = max(worst_eq, abs(sundman_gap(z, sys3)) / (I * K))
    assert worst_eq < 1e-9

    re = relative_equilibrium(isosceles(sys3), sys3)
    traj = integrate_absolute(re.state(0.0), sys3, 3.0 * re.slow_period,
                              tol=1e-12, samples=65)
    gaps = np.array([sundman_gap(z, sys3) for z in traj.states])
    spread = (gaps.max() - gaps.min()) / gaps.max()
    ok = gaps.min() > 0.0 and spread < 1e-8
    report(f"criterion 4: random gap >= {worst_ratio:.1e}*IK, homographic gap "
           f"{worst_eq:.1e}*IK, rigid gap spread {spread:.1e} (min {gaps.min():.3e}) -> "
           f"{'PASS' if ok else 'FAIL'}")
    assert gaps.min() > 0.0
    assert spread < 1e-8


# 5 ------------------------------------------------------------------------


def test_criterion_5_dziobek_ranks():
    rng = np.random.default_rng(1005)
    for _ in range(1000):
        n, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        sys, z = random_state(rng, n, d)
        rank_c, rank_e = dziobek_ranks(z, sys)
        assert rank_c <= rank_e <= rank_c / 2 + n - 1

    worst_rank = 0
    for trial in range(3):
        sys = MassSystem(rng.uniform(0.5, 1.5, 3))
        x = Configuration(rng.normal(size=(3, 3)) * 2.0, sys)
        y = Configuration(x.r * rng.uniform(0.1, 0.3, 3), sys)  # v_k || r_k
        z0 = State(x, y)
        assert bivector_norm_and_frequencies(angular_momentum(z0, sys))[0] < 1e-12
        traj = integrate_absolute(z0, sys, 10.0, tol=1e-10, samples=101)
        worst_rank = max(worst_rank, max(dziobek_ranks(z, sys)[1] for z in traj.states))
    report(f"criterion 5: rank inequalities on 1000 states, zero-momentum max "
           f"rank(E) {worst_rank} -> {'PASS' if worst_rank <= 2 else 'FAIL'}")
    assert worst_rank <= 2


# 6 ------------------------------------------------------------------------


def euler_ratio_oracle(sys, order):
    """Collinear central gap ratio by 1-D bracketing (independent of Newton)."""
    i, j, k = order

    def residual(rho):
        pos = np.zeros(3)
        pos[i], pos[j], pos[k] = 0.0, 1.0, 1.0 + rho
        x = Configuration(pos[None, :], sys)
        from nbodyred.geometry import potential_and_gradient

        _, grad = potential_and_gradient(x, sys)
        return grad[0, i] * x.r[0, k] - grad[0, k] * x.r[0, i]

    grid = np.geomspace(1e-3, 1e3, 200)
    vals = [residual(g) for g in grid]
    for a, b, va, vb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if va * vb < 0:
            return brentq(residual, a, b, xtol=1e-14, rtol=1e-15)
    raise AssertionError("no bracket")


def test_criterion_6_central_configurations():
    rng = np.random.default_rng(1006)
    worst_res, worst_spread = 0.0, 0.0
    for seed in range(5):
        sys = MassSystem(rng.uniform(0.5, 2.0, 3))
        x = find_central(sys, 2, seed=seed)
        worst_res = max(worst_res, classify(x, sys).central_residual)
        r = np.sqrt(squared_distance_table(x.r))
        dists = sorted([r[0, 1], r[0, 2], r[1, 2]])
        worst_spread = max(worst_spread, dists[-1] - dists[0])
    assert worst_res < 1e-10
    assert worst_spread < 1e-10

    sys = MassSystem([1.0, 2.0, 3.0])
    worst_euler = 0.0
    for order in ((0, 1, 2), (1, 0, 2), (0, 2, 1)):
        rho_star = euler_ratio_oracle(sys, order)
        i, j, k = order
        pos = np.zeros(3)
        pos[i], pos[j], pos[k] = 0.0, 1.0, 1.0 + rho_star
        x = find_central(sys, 1, seed=0, x0=Configuration(pos[None, :], sys))
        r = np.sqrt(squared_distance_table(x.r))
        worst_euler = max(worst_euler, abs(r[j, k] / r[i, j] - rho_star))
    report(f"criterion 6: equilateral residual {worst_res:.1e}, distance spread "
           f"{worst_spread:.1e}, Euler-vs-oracle {worst_euler:.1e} -> "
           f"{'PASS' if worst_euler < 1e-10 else 'FAIL'}")
    assert worst_euler < 1e-10


# 7 ------------------------------------------------------------------------


def test_criterion_7_balanced_configurations():
    sys = MassSystem([1.0, 1.0, 1.0])
    worst_iso, worst_res = 0.0, 0.0
    for spec in ([0.7, 0.3], [0.6, 0.4], [0.8, 0.2], [0.55, 0.45], [0.9, 0.1]):
        x = find_balanced(sys, spec, seed=0)
        worst_res = max(worst_res, classify(x, sys).balanced_residual)
        r = np.sort(np.sqrt(squared_distance_table(x.r))[np.triu_indices(3, 1)])
        worst_iso = max(worst_iso, min(r[1] - r[0], r[2] - r[1]))
    assert worst_iso < 1e-7
    assert worst_res < 1e-8

    # vanishing locus of P_123 against the commutator criterion on a sweep:
    # both must vanish exactly at the two isosceles shapes and nowhere else
    s12, s13 = 1.0, 1.21
    sweep = np.linspace(0.6, 2.2, 100)
    p_vals, c_vals = [], []
    for s23 in sweep:
        res = balanced_residuals_pijk(triangle_table(s12, s13, s23), sys)
        p_vals.append(res.P[(0, 1, 2)])
        c_vals.append(res.commutator_residual)
    p_vals, c_vals = np.array(p_vals), np.array(c_vals)

    def p_at(s23):
        return balanced_residuals_pijk(
            triangle_table(s12, s13, s23), sys).P[(0, 1, 2)]

    roots = [brentq(p_at, a, b, xtol=1e-13)
             for a, b, va, vb in zip(sweep[:-1], sweep[1:], p_vals[:-1], p_vals[1:])
             if va * vb < 0]
    iso_loci = sorted((s12, s13))
    locus_err = max(abs(r - l) for r, l in zip(sorted(roots), iso_loci))
    # the commutator residual vanishes at the same loci and only there
    comm_at_roots = max(
        balanced_residuals_pijk(
            triangle_table(s12, s13, r), sys).commutator_residual
        for r in roots)
    away = np.abs(sweep[:, None] - np.array(iso_loci)[None, :]).min(axis=1) > 0.05
    comm_floor_away = c_vals[away].min()
    ok = (len(roots) == 2 and locus_err < 1e-9 and comm_at_roots < 1e-9
          and comm_floor_away > 1e-4)
    report(f"criterion 7: isosceles gap {worst_iso:.1e}, balance residual "
           f"{worst_res:.1e}, P roots {[round(r, 6) for r in roots]} vs isosceles "
           f"loci {iso_loci}, commutator at roots {comm_at_roots:.1e} -> "
           f"{'PASS' if ok else 'FAIL'}")
    assert len(roots) == 2
    assert locus_err < 1e-9
    assert comm_at_roots < 1e-9
    assert comm_floor_away > 1e-4


# 8 ------------------------------------------------------------------------


def test_criterion_8_relative_equilibrium():
    sys = MassSystem([1.0, 1.0, 1.0])
    re = relative_equilibrium(isosceles(sys), sys)
    assert re.x0.d % 2 == 0
    assert re.x0.d == 4
    z0 = re.state(0.0)
    traj = integrate_absolute(z0, sys, 10.0 * re.slow_period, tol=1e-12, samples=101)
    b0 = gram_form(z0.x)
    drift = max(np.abs(gram_form(z.x) - b0).max() for z in traj.states) / np.abs(b0).max()
    report(f"criterion 8: beta drift {drift:.2e} over 10 slow periods in R^4 -> "
           f"{'PASS' if drift < 1e-7 else 'FAIL'}")
    assert drift < 1e-7


# 9 ------------------------------------------------------------------------


def test_criterion_9_kepler():
    worst = 0.0
    ls = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    for e in np.arange(0.0, 0.95, 0.1):
        u = kepler_anomaly(e, ls)
        worst = max(worst, np.abs(u - e * np.sin(u) - ls).max())
    assert worst < 1e-13

    worst_ode = 0.0
    for e in (0.0, 0.3, 0.6, 0.9):
        orb = KeplerOrbit(1.7, 0.8, e)
        for l in np.linspace(0.5, 2.0 * np.pi - 0.5, 9):
            t = l * orb.k * orb.a**1.5
            z0 = kepler_state(orb, t)[0]
            h = 3e-4 * orb.period * (np.linalg.norm(z0) / (orb.k * orb.a)) ** 1.5
            st = [kepler_state(orb, t + k * h)[0] for k in (-2, -1, 0, 1, 2)]
            acc = (-st[0] + 16 * st[1] - 30 * st[2] + 16 * st[3] - st[4]) / (12 * h**2)
            expected = -orb.k * st[2] / np.linalg.norm(st[2]) ** 3
            worst_ode = max(worst_ode, np.abs(acc - expected).max() / np.linalg.norm(expected))
    assert worst_ode < 1e-8

    orb = KeplerOrbit(1.0, 1.3, 0.5)
    z0, v0 = kepler_state(orb, 0.0)
    z1, v1 = kepler_state(orb, orb.period)
    closure = max(np.abs(z1 - z0).max(), np.abs(v1 - v0).max())
    report(f"criterion 9: anomaly residual {worst:.1e}, ODE residual {worst_ode:.1e}, "
           f"closure {closure:.1e} -> {'PASS' if closure < 1e-10 else 'FAIL'}")
    assert closure < 1e-10


# 10 -----------------------------------------------------------------------


def test_criterion_10_hiphop():
    t0 = time.time()
    sys = MassSystem([1.0] * 4)
    T = 2.0 * np.pi
    sym = hiphop_z2z4()
    seed = square_relative_equilibrium_loop(T, sys, 16, vertical_kick=0.3)
    loop = minimize_action(seed, sym, MinimizeOptions(gtol=1e-6))

    Z = dense_basis(invariant_basis(sym, sys, 16), 16)
    _, g = action_value_and_gradient(loop)
    gnorm = np.linalg.norm(Z.T @ g)
    assert gnorm < 1e-6

    rep = verify_loop(loop, sym=sym)
    assert rep.planarity > 0.05  # non-planar
    assert len(rep.square_events) == 2
    assert len(rep.tetra_events) == 2
    assert rep.eom_residual < 1e-3

    S_hip, _ = action_value_and_gradient(loop)
    S_sq, _ = action_value_and_gradient(square_relative_equilibrium_loop(T, sys, 16))
    elapsed = time.time() - t0
    ok = S_hip < S_sq and elapsed < 600
    report(f"criterion 10: gradient {gnorm:.1e}, events {len(rep.square_events)}+"
           f"{len(rep.tetra_events)}, EOM {rep.eom_residual:.1e}, action {S_hip:.6f} < "
           f"square {S_sq:.6f}, {elapsed:.1f} s -> {'PASS' if ok else 'FAIL'}")
    assert S_hip < S_sq
    assert elapsed < 600.0


# 11 -----------------------------------------------------------------------


def cayley_menger_parallelotope_sq(s, subset):
    k = len(subset)
    cm = np.ones((k + 1, k + 1))
    cm[0, 0] = 0.0
    for a, i in enumerate(subset):
        for b, j in enumerate(subset):
            cm[a + 1, b + 1] = s[i, j]
    return (-1.0) ** k * np.linalg.det(cm) / 2.0 ** (k - 1)


def test_criterion_11_characteristic_coefficients():
    rng = np.random.default_rng(1011)
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(3, 6)), int(rng.integers(2, 5))
        sys, z = random_state(rng, n, d)
        eta_b = characteristic_coefficients(z.x, sys)
        S = inertia_table(z.x, sys)
        eta_s = elementary_symmetric(np.linalg.eigvalsh(S), n - 1)
        scale = max(abs(v) for v in eta_b) + 1e-30
        worst = max(worst, max(abs(a - b) for a, b in zip(eta_b, eta_s)) / scale)
    assert worst < 1e-10

    sys3 = MassSystem([1.0, 1.0, 1.0])
    x = equilateral(sys3)
    eta = characteristic_coefficients(x, sys3)
    s = squared_distance_table(x.r)
    oracle_eta2 = sum(
        np.prod(sys3.m[list(sub)]) * cayley_menger_parallelotope_sq(s, sub)
        for sub in itertools.combinations(range(3), 3)) / sys3.M
    ok = (abs(eta[0] - 1.0) < 1e-10 and abs(eta[1] - 0.25) < 1e-10
          and abs(eta[1] - oracle_eta2) < 1e-10)
    report(f"criterion 11: B/S coefficient agreement {worst:.1e}, equilateral "
           f"(eta1, eta2) = ({eta[0]:.12f}, {eta[1]:.12f}) -> {'PASS' if ok else 'FAIL'}")
    assert abs(eta[0] - 1.0) < 1e-10
    assert abs(eta[1] - 0.25) < 1e-10
    assert abs(eta[1] - oracle_eta2) < 1e-10
