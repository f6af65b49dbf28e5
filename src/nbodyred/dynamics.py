"""Time integration and invariant audits.

Two routes are integrated: the absolute equations  x_dot = y, y_dot = 2 x A
on coordinates, and the reduced system on the quadruple (beta, gamma, delta,
rho), where A is recomputed from beta at every evaluation.  Audits check
energy, angular momentum, the virial (Lagrange-Jacobi) relation and the
Sundman gap I K - J^2 - |C|^2.

scipy is imported on first use (`solve_ivp` by the integrators,
`CubicSpline` by the audit), so importing this module does not load it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    CollisionError,
    DegenerateConfiguration,
    InvalidStructure,
    StepFailure,
    ValidationError,
)
from .geometry import (
    COLLISION_FLOOR,
    REDUCED_SIGNS,
    Trajectory,
    angular_momentum,
    angular_momentum_tables,
    beta_to_distances,
    bivector_component,
    centred,
    checked_potential,
    closest_distance,
    hermitian_from_bivector,
    interaction_matrix_from_s,
    mass_dot,
    matrix_rank,
    reduced_tables,
    squared_distances,
)


@dataclass
class InvariantReport:
    energy_drift: float
    momentum_drift: float
    lagrange_jacobi_residual: float
    sundman_min_gap: float
    scaling_integral_drift: float | None  # 2IH - J^2, kappa = -1 only
    series: dict


# ---------------------------------------------------------------------------
# sample grid, DOP853 run and collision rule shared by both integrators


def _sample_times(horizon, samples, tol=1.0):
    """`samples` equally spaced times on [0, horizon], after checking the run's
    inputs (so that NaN fails): finite positive horizon and tol, samples >= 2."""
    if not 0.0 < horizon < np.inf:
        raise ValidationError("horizon (or period) must be finite and positive")
    if not 0.0 < tol < np.inf:
        raise ValidationError("tol must be finite and positive")
    if samples < 2:
        raise ValidationError("need at least two samples")
    return np.linspace(0.0, float(horizon), int(samples))


def _drive(rhs, u0, ts, tol, min_distance, collision_floor):
    """DOP853 states at the times ts, one row per sample.

    Raises CollisionError when min_distance(u) falls below twice the collision
    floor, or when a step stalls with the minimal distance at the last accepted
    step below max(1e3 floor, 1e-6 initial); any other stall is a StepFailure.
    """
    from scipy.integrate import solve_ivp

    last = [0.0, np.inf]   # (t, min distance) at t0 and every accepted step

    def too_close(t, u):
        last[:] = t, min_distance(u)
        return last[1] - 2.0 * collision_floor
    too_close.terminal = True
    too_close.direction = -1

    sol = solve_ivp(rhs, (0.0, ts[-1]), u0, method="DOP853", t_eval=ts,
                    rtol=tol, atol=tol, events=too_close)
    if sol.status == 1:
        raise CollisionError(f"collision at t = {sol.t_events[0][0]:.6g}")
    if sol.status != 0:
        # a stalled step during a near-collapse is a collision, not a
        # generic failure
        t_last, mind = last
        if mind < max(1e3 * collision_floor, 1e-6 * min_distance(u0)):
            raise CollisionError(
                f"collapse at t = {t_last:.6g} (min distance {mind:.3e})"
            )
        raise StepFailure(sol.message)
    return sol.y.T


# ---------------------------------------------------------------------------
# absolute integration


def _acceleration(xr, sys, collision_floor):
    """x_ddot = 2 x A."""
    return 2.0 * (xr @ interaction_matrix_from_s(squared_distances(xr), sys, collision_floor))


def integrate_absolute(z0, sys, horizon, tol=1e-10, method="rk8", samples=513,
                       dt=None, collision_floor=COLLISION_FLOOR):
    """Integrate x_dot = y, y_dot = 2 x A over [0, horizon].

    method "rk8" uses the adaptive 8(5,3) Runge-Kutta pair with relative and
    absolute tolerance `tol`; "leapfrog" is a fixed-step kick-drift-kick
    scheme (step `dt`, default horizon/8192) for long conservation audits.
    Raises CollisionError when a mutual distance falls below the collision
    floor, StepFailure when the step size underflows.
    """
    ts = _sample_times(horizon, samples, tol)
    d, n = z0.d, z0.n
    dn = d * n

    if method == "rk8":
        u0 = np.concatenate([z0.x.r.ravel(), z0.y.r.ravel()])

        def rhs(t, u):
            accel = _acceleration(u[:dn].reshape(d, n), sys, collision_floor)
            return np.concatenate([u[dn:], accel.ravel()])

        def min_distance(u):
            return closest_distance(squared_distances(u[:dn].reshape(d, n)), sys)

        us = _drive(rhs, u0, ts, tol, min_distance, collision_floor)
    elif method == "leapfrog":
        us = _leapfrog(z0, sys, ts, dt if dt is not None else horizon / 8192.0,
                       collision_floor)
    else:
        raise ValidationError(f"unknown integrator {method!r}")

    return Trajectory(ts, centred(us.reshape(ts.size, 2, d, n), sys), "absolute",
                      {"integrator": method, "tol": tol})


def _leapfrog(z0, sys, ts, dt, collision_floor):
    """Fixed-step kick-drift-kick between the requested sample times."""
    x = z0.x.r.copy()
    v = z0.y.r.copy()
    out = np.empty((ts.size, 2) + x.shape)
    t = ts[0]
    a = _acceleration(x, sys, collision_floor)
    for k, target in enumerate(ts):
        while t < target - 1e-15:
            h = min(dt, target - t)
            v += 0.5 * h * a
            x += h * v
            a = _acceleration(x, sys, collision_floor)
            v += 0.5 * h * a
            t += h
        out[k] = x, v
    return out


# ---------------------------------------------------------------------------
# reduced integration


def reduced_rhs(tables, sys, collision_floor=COLLISION_FLOOR):
    """Right-hand side of the reduced system on the stacked (4, n, n) tables
    (beta, gamma, delta, rho), returned stacked the same way.

    beta_dot = 2 gamma, gamma_dot = A^T beta + beta A + delta,
    delta_dot = 2 (A^T gamma + gamma A) - 2 (A^T rho - rho A),
    rho_dot = A^T beta - beta A,
    with A recomputed from beta through the squared distances.  The tables
    are first made exactly (anti)symmetric.  The class of the result on the
    mean-zero hyperplane evolves autonomously (A kills the mass vector on
    one side and the ones vector on the other); RelativeState(*result) is
    its double-centred representative.
    """
    beta, gamma, delta, rho = 0.5 * (tables + REDUCED_SIGNS * np.swapaxes(tables, -1, -2))
    A = interaction_matrix_from_s(beta_to_distances(beta, tol=1e-6), sys, collision_floor)
    At = A.T
    return np.array([
        2.0 * gamma,
        At @ beta + beta @ A + delta,
        2.0 * (At @ gamma + gamma @ A) - 2.0 * (At @ rho - rho @ A),
        At @ beta - beta @ A,
    ])


def integrate_reduced(rel0, sys, horizon, tol=1e-10, samples=513,
                      collision_floor=COLLISION_FLOOR):
    """Integrate the reduced quadruple; same contract as integrate_absolute."""
    ts = _sample_times(horizon, samples, tol)
    n = rel0.n
    u0 = np.array([rel0.beta, rel0.gamma, rel0.delta, rel0.rho]).ravel()

    def rhs(t, u):
        return reduced_rhs(u.reshape(4, n, n), sys, collision_floor).ravel()

    def min_distance(u):
        return closest_distance(beta_to_distances(u[:n * n].reshape(n, n), tol=1e-6), sys)

    us = _drive(rhs, u0, ts, tol, min_distance, collision_floor)
    return Trajectory(ts, reduced_tables(us.reshape(ts.size, 4, n, n)), "reduced",
                      {"integrator": "rk8", "tol": tol})


# ---------------------------------------------------------------------------
# invariants


def _invariants(x, y, sys):
    """(I, J, K, U, H, C, |C|) of (..., d, n) positions x and velocities y, one
    value (C: one d x d angular-momentum table) per leading index; |C| is half
    the sum of the singular values.  Raises CollisionError below the floor."""
    I = np.einsum("i,...ci,...ci->...", sys.m, x, x)
    J = np.einsum("i,...ci,...ci->...", sys.m, x, y)
    K = np.einsum("i,...ci,...ci->...", sys.m, y, y)
    U = checked_potential(squared_distances(x), sys)
    C = angular_momentum_tables(x, y, sys)
    normC = np.linalg.svd(C, compute_uv=False).sum(axis=-1) / 2.0
    return I, J, K, U, 0.5 * K - U, C, normC


def _sundman(I, J, K, U, H, C, normC):
    """Sundman's gap I K - J^2 - |C|^2 and function I^{-1/2}(J^2 + |C|^2) - 2 I^{1/2} H."""
    return (I * K - J * J - normC * normC,
            (J * J + normC * normC) / np.sqrt(I) - 2.0 * np.sqrt(I) * H)


def scalar_invariants(z, sys):
    """(I, J, K, U, H) of an absolute state."""
    return tuple(float(v) for v in _invariants(z.x.r, z.y.r, sys)[:5])


def sundman_gap(z, sys):
    """I K - J^2 - |C|^2 (nonnegative; zero exactly for complex-homothetic states)."""
    return float(_sundman(*_invariants(z.x.r, z.y.r, sys))[0])


def sundman_function(z, sys):
    """Sundman's function I^{-1/2}(J^2 + |C|^2) - 2 I^{1/2} H."""
    return float(_sundman(*_invariants(z.x.r, z.y.r, sys))[1])


def audit_invariants(traj, sys):
    """Drift and residual report along an absolute trajectory.

    Reports the max relative drift of H and of the angular momentum table,
    the sup-norm residual of  J_dot - (2H + 2(kappa+1)U)  with J
    differentiated by cubic spline, the minimum Sundman gap, and for
    kappa = -1 the drift of the scaling integral 2 I H - J^2.
    """
    from scipy.interpolate import CubicSpline

    if traj.kind != "absolute":
        raise ValidationError("audit expects an absolute trajectory")
    invariants = _invariants(traj.samples[:, 0], traj.samples[:, 1], sys)
    I, J, K, U, H, c_tables, normC = invariants
    gap, Sfun = _sundman(*invariants)

    h_scale = max(abs(H[0]), 1e-30)
    energy_drift = float(np.max(np.abs(H - H[0])) / h_scale)
    c0 = c_tables[0]
    # for zero-momentum runs measure against the natural scale sqrt(I K)
    natural = np.sqrt(I[0] * K[0])
    c_scale = np.abs(c0).max()
    if c_scale <= 1e-9 * natural:
        c_scale = max(natural, 1e-30)
    momentum_drift = float(np.max(np.abs(c_tables - c0)) / c_scale)

    jdot = CubicSpline(traj.times, J).derivative()(traj.times)
    virial = 2.0 * H + 2.0 * (sys.kappa + 1.0) * U
    interior = slice(2, -2) if traj.times.size > 8 else slice(None)
    lj_residual = float(np.max(np.abs(jdot - virial)[interior]))

    sundman_min_gap = float(gap.min())

    scaling_drift = None
    if abs(sys.kappa + 1.0) < 1e-14:
        G2 = 2.0 * I * H - J ** 2
        scaling_drift = float(np.max(np.abs(G2 - G2[0])) / max(abs(G2[0]), 1e-30))

    series = {"t": traj.times.copy(), "I": I, "J": J, "K": K, "U": U, "H": H,
              "normC": normC, "sundman_gap": gap, "sundman_function": Sfun}
    return InvariantReport(energy_drift, momentum_drift, lj_residual,
                           sundman_min_gap, scaling_drift, series)


# ---------------------------------------------------------------------------
# Schwarz / Sundman machinery


@dataclass
class SchwarzGap:
    gap: float
    equality: bool
    omega_mismatch: float | None  # ||Omega - Omega_C|| on the fixed space, when equality


def _check_degenerate_hermitian(omega, tol=1e-10):
    """Omega must satisfy ||Omega v|| <= ||v|| and Omega^2 = -Id on Im Omega."""
    c = omega.c
    sv = np.linalg.svd(c, compute_uv=False)
    if sv.size and sv[0] > 1.0 + tol:
        raise InvalidStructure(f"largest singular value {sv[0]:.3e} exceeds 1")
    _, F = hermitian_from_bivector(omega)
    if F.shape[1]:
        resid = np.abs(c @ c @ F + F).max()
        if resid > tol:
            raise InvalidStructure(
                f"Omega^2 differs from -Id on its image by {resid:.3e}"
            )


def complex_schwarz_gap(z, omega, sys, equality_tol=1e-10):
    """Gap  I K - J^2 - (1/4) <C, Omega>^2  for a degenerate hermitian Omega.

    The gap is minimal (and equals the Sundman gap) for Omega = Omega_C.
    When the gap vanishes to equality_tol * I K, the equality flag is set
    and Omega is compared against Omega_C on the fixed space.
    """
    _check_degenerate_hermitian(omega)
    I, J, K, _, _ = scalar_invariants(z, sys)
    C = angular_momentum(z, sys)
    comp = bivector_component(C, omega)  # already (1/2) <C, Omega>
    gap = I * K - J * J - comp * comp
    equality = bool(gap <= equality_tol * max(I * K, 1e-300))
    mismatch = None
    if equality:
        omega_c, F = hermitian_from_bivector(C)
        if F.shape[1]:
            mismatch = float(np.abs(F.T @ (omega.c - omega_c) @ F).max())
        else:
            mismatch = 0.0
    return SchwarzGap(float(gap), equality, mismatch)


def saari_decomposition(z, sys):
    """Split a velocity into homothetic, rotational and deformation parts.

    y = y_h + y_r + y_d, mutually orthogonal for the mass metric;
    y_h = (J/I) x and y_r is the projection of y - y_h onto the tangent of
    the rotation orbit {W x : W antisymmetric}.
    """
    xr, yr = z.x.r, z.y.r
    d = z.d
    I = mass_dot(xr, xr, sys.m)
    if I < 1e-300:
        raise DegenerateConfiguration("total collision")
    J = mass_dot(xr, yr, sys.m)
    y_h = (J / I) * xr
    resid = yr - y_h

    # basis of the rotation-orbit tangent: (E_ab - E_ba) x, a < b
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    basis = np.empty((len(pairs), d, z.n))
    for k, (a, b) in enumerate(pairs):
        w = np.zeros((d, d))
        w[a, b] = 1.0
        w[b, a] = -1.0
        basis[k] = w @ xr
    gram = np.einsum("i,kci,lci->kl", sys.m, basis, basis)
    rhs = np.einsum("i,kci,ci->k", sys.m, basis, resid)
    coef, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    y_r = np.einsum("k,kci->ci", coef, basis)
    y_d = resid - y_r
    return y_h, y_r, y_d


def dziobek_ranks(z, sys, rtol=1e-9):
    """(rank C, rank E) with the singular-value threshold rtol * sigma_max."""
    rank_c = matrix_rank(angular_momentum(z, sys).c, rtol)
    rank_e = matrix_rank(np.hstack([z.x.r, z.y.r]), rtol)
    return rank_c, rank_e
