"""Time integration and invariant audits.

The absolute equations x_dot = y, y_dot = 2 x A are integrated on
coordinates, with the accelerations summed over the pair list.  The reduced
system is integrated on D*, the mean-zero hyperplane: with x_hat = x M Q
(Q = M^{-1/2} V, V from `hyperplane_basis`, k = n - 1 columns) the state is
the upper triangle of the 2k x 2k Gram table G = [[b, g - r], [g + r, e]]
of (x_hat, y_hat), the forms (beta, gamma, delta, rho) on D*, and

    G_dot = L^T G + G L,   L = [[0, 2 A_hat], [I, 0]],   2 A_hat = W^T diag(c) W,

with W = D Q, c_p = 2 m_i m_j Phi'(s_p) and s_p = w_p^T b w_p.  Samples are
stored as double-centred n x n tables.  The right-hand sides and the
leapfrog kicks call a `pair_kernel` bound per run.  The stepper counts the
evaluations, and no rk8 or leapfrog run passes MAX_RHS_EVALS; each reports
`rhs_evals`, rk8 runs also `accepted_steps` and `rejected_steps`.
Audits check energy, angular momentum, the virial (Lagrange-Jacobi)
relation and the Sundman gap I K - J^2 - |C|^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dop853 import solve_ivp
from .errors import (
    CollisionError,
    DegenerateConfiguration,
    InvalidStructure,
    StepFailure,
    ValidationError,
)
from . import geometry
from .geometry import (
    RelativeState,
    Trajectory,
    angular_momentum,
    angular_momentum_tables,
    beta_to_distances,
    bivector_component,
    centred,
    check_collision_floor,
    hermitian_from_bivector,
    hyperplane_basis,
    mass_dot,
    matrix_rank,
    pair_kernel,
    potential_from_s,
    reduced_tables,
    squared_distances,
)

MAX_RHS_EVALS = 250_000   # over ten times the largest run in the tests and the benchmark
LEAPFROG_ENERGY_BOUND = 1e-3   # largest relative energy error a leapfrog run returns


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


def _budget_exhausted(t):
    return StepFailure(f"right-hand side budget of {MAX_RHS_EVALS} evaluations "
                       f"exhausted at t = {t:.6g}")


def _drive(rhs, u0, ts, tol, min_distance, resolution):
    """DOP853 states at the times ts, one row per sample, and the work counts
    (rhs_evals, accepted_steps, rejected_steps), rhs_evals <= MAX_RHS_EVALS.

    Raises CollisionError when min_distance(u) falls below twice the collision
    floor (geometry.COLLISION_FLOOR, read here as in pair_kernel, so that one
    name sets both).  A run that cannot go on, its step stalled or its
    budget spent, raises CollisionError if the closest pair at the last
    accepted step u is under max(1e3 resolution(u), 1e-6 initial), where
    resolution(u) is the largest distance the route cannot tell from a
    collision, and StepFailure otherwise.
    """
    collision_floor = geometry.COLLISION_FLOOR
    last = []   # t, u and min distance at t0 and every accepted step

    def too_close(t, u):
        last[:] = t, u, min_distance(u)
        return last[2] - 2.0 * collision_floor

    sol = solve_ivp(rhs, ts, u0, tol, too_close, MAX_RHS_EVALS)
    if sol.status == 1:
        raise CollisionError(f"collision at t = {sol.t_event:.6g}")
    if sol.status != 0:
        t_last, u_last, mind = last
        if mind < max(1e3 * resolution(u_last), 1e-6 * min_distance(u0)):
            raise CollisionError(f"collapse at t = {t_last:.6g} (min distance {mind:.3e})")
        if sol.status == -2:
            raise _budget_exhausted(t_last)
        raise StepFailure("Required step size is less than spacing between numbers.")
    return sol.y, {"rhs_evals": sol.nfev, "accepted_steps": sol.accepted,
                   "rejected_steps": sol.rejected}


# ---------------------------------------------------------------------------
# absolute integration


def integrate_absolute(z0, sys, horizon, tol=1e-10, method="rk8", samples=513, dt=None):
    """Integrate x_dot = y, y_dot = 2 x A over [0, horizon].

    method "rk8" uses the adaptive 8(5,3) Runge-Kutta pair with relative and
    absolute tolerance `tol`; "leapfrog" is a fixed-step kick-drift-kick
    scheme (step `dt`, default horizon/8192) for long conservation audits.
    Raises CollisionError when a mutual distance falls below the collision
    floor or an rk8 run stalls or spends MAX_RHS_EVALS next to a collapse
    (_drive), StepFailure when any other run stalls or spends them,
    ValidationError unless 0 < dt < inf; a leapfrog run whose energy strays
    by more than LEAPFROG_ENERGY_BOUND of |H| raises CollisionError or
    StepFailure (see _leapfrog).  The metadata hold the integrator, tol and
    rhs_evals (acceleration evaluations for leapfrog; rk8 adds its step counts).
    """
    ts = _sample_times(horizon, samples, tol)
    d, n = z0.d, z0.n
    dn = d * n

    if method == "rk8":
        u0 = np.concatenate([z0.x.r.ravel(), z0.y.r.ravel()])
        accelerations = pair_kernel(sys)[1]
        seen = [None, None]   # the state rhs last saw and its squared distances

        def rhs(t, u):
            du = np.empty(2 * dn)
            du[:dn] = u[dn:]
            seen[:] = u, accelerations(u[:dn].reshape(d, n), du[dn:].reshape(d, n))
            return du

        def min_distance(u):
            # the event after an accepted step sees the state of the step's
            # FSAL slope, whose distances the kernel has just computed
            s = seen[1] if u is seen[0] else squared_distances(u[:dn].reshape(d, n), sys)
            return float(np.sqrt(s.min()))

        us, work = _drive(rhs, u0, ts, tol, min_distance, lambda u: geometry.COLLISION_FLOOR)
    elif method == "leapfrog":
        dt = horizon / 8192.0 if dt is None else dt
        if not 0.0 < dt < np.inf:   # written so that NaN fails it
            raise ValidationError("leapfrog dt must be finite and positive")
        us, work = _leapfrog(z0, sys, ts, dt)
    else:
        raise ValidationError(f"unknown integrator {method!r}")

    return Trajectory(ts, centred(us.reshape(ts.size, 2, d, n), sys), "absolute",
                      {"integrator": method, "tol": tol, **work})


def _leapfrog(z0, sys, ts, dt):
    """Fixed-step kick-drift-kick between the requested sample times; the
    states and the number of acceleration evaluations (as rhs_evals).

    Each t += h rounds by at most half an ulp of the sample time, so a
    remainder within one ulp per step of the interval is rounding, not time
    left: the sample is reached without a sliver step.

    At each sample the energy of the centred motion (from the squared
    distances the kernel has just returned) may differ from the initial H0
    by at most LEAPFROG_ENERGY_BOUND |H0|, the measure of energy_drift in
    audit_invariants: a run that strays further raises instead of returning
    samples its step no longer follows.  The error is CollisionError when
    the closest pair is then under half the initial closest distance (the
    step fails on an encounter, as into a collapse), StepFailure when it
    fails on the motion as a whole, or when the samples are too far apart
    to catch the run before it has passed the encounter."""
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
            if evals >= MAX_RHS_EVALS:
                raise _budget_exhausted(t)
            h = min(dt, target - t)
            v += 0.5 * h * a
            x += h * v
            s = accelerations(x, a)
            evals += 1
            v += 0.5 * h * a
            t += h
        t = target
        if not (err := abs(energy(v, s) - H0) / h_scale) <= LEAPFROG_ENERGY_BOUND:   # NaN too
            raise _unfollowed(dt, t, err, s, squared_distances(z0.x.r, sys))
        out[k] = x, v
    return out, {"rhs_evals": evals}


def _unfollowed(dt, t, err, s, s0):
    """The error of a leapfrog run whose energy strayed by err of |H0| at the
    sample t, with squared distances s there and s0 at the start."""
    where = f"energy error {err:.3e} of |H| at t = {t:.6g}"
    closest = s.min()
    if closest < 0.25 * s0.min():
        return CollisionError(f"leapfrog step {dt:.3g} does not follow the encounter of the "
                              f"closest pair (distance {math.sqrt(closest):.3e}): {where}")
    return StepFailure(f"leapfrog step {dt:.3g} does not follow the motion: {where}")


# ---------------------------------------------------------------------------
# reduced integration


class _GramTable:
    """The reduced state as the packed upper triangle u of the Gram table G
    on D* (module docstring)."""

    def __init__(self, sys):
        self.sys, self.k = sys, sys.n - 1
        k = self.k
        Q = hyperplane_basis(sys) / np.sqrt(sys.m)[:, None]
        # x_hat = x M Q and x = x_hat Q^T, for positions and velocities alike
        self.Q, self.MQ2 = Q, np.kron(np.eye(2), sys.m[:, None] * Q)
        iu = np.triu_indices(2 * k)
        self.index = np.empty((2 * k, 2 * k), dtype=int)   # G = u[index]
        self.index[iu] = self.index[iu[::-1]] = np.arange(iu[0].size)
        self.flat = [np.ravel_multi_index(ij, self.index.shape) for ij in (iu, iu[::-1])]
        self.blocks = np.stack([self.index[:k, :k], self.index[:k, k:],   # u[..., blocks]: the
                                self.index[k:, k:], self.index[k:, :k]])  # b, g - r, e, g + r of G
        self.b = self.index[:k, :k].ravel()   # u[b] = b.ravel()
        self.left = self.index[:, :k].ravel()   # u[left] = G[:, :k].ravel(), b.ravel() first
        # X = G L = [G[:, k:], Y] with Y = G[:, :k] 2 A_hat is z[X] of
        # z = (u, Y.ravel()); upper holds X at (i, j) and (j, i), i <= j
        X = np.concatenate([self.index[:, k:],
                            iu[0].size + np.arange(2 * k * k).reshape(2 * k, k)], axis=1)
        self.upper = X[iu], X[iu[::-1]]
        # rows w_p (x) w_p of W = D Q and, last, the row of tr b: s_rows u[b]
        # holds s and tr b, and 2 A_hat = c WW.  The P (n - 1)^2 numbers of
        # WW (0.5 MB at n = 20, 49 MB at n = 60) are stored once and suit few bodies
        W = sys.D @ Q
        self.s_rows = np.empty((len(W) + 1, k * k))
        np.multiply(W[:, :, None], W[:, None, :], out=self.s_rows[:-1].reshape(-1, k, k))
        self.s_rows[-1] = np.eye(k).ravel()
        self.WW = self.s_rows[:-1]
        # s_p is rounded by up to about 0.32 eps |w_p|^2 tr b, |w_p|^2 =
        # 1/m_i + 1/m_j, and below four times that level (the squared floor
        # rounding2 tr b) a collision cannot be told from rounding
        self.rounding2 = 4.0 * np.finfo(float).eps * (W * W).sum(axis=1)
        self.rounding2_min = float(self.rounding2.min())

    def _upper_of_sum(self, X):
        """Upper triangle of X + X^T."""
        X = X.ravel()
        return X[self.flat[0]] + X[self.flat[1]]

    def pack(self, rel):
        """u of a RelativeState (of any representatives of its forms on D*)."""
        return 0.5 * self._upper_of_sum(self.MQ2.T @ rel.block_matrix() @ self.MQ2)

    def unpack(self, u):
        """Double-centred (..., 4, n, n) tables of packed states u."""
        return reduced_tables(self.Q @ u[..., self.blocks] @ self.Q.T)

    def min_distance(self, u):
        return float(np.sqrt(max((self.WW @ u[self.b]).min(), 0.0)))

    def floor2(self, tr):
        """Squared floors of the pairs at tr b = tr: rounding2 tr b, raised to
        the squared collision floor (geometry.COLLISION_FLOOR, read here)."""
        cf2 = geometry.COLLISION_FLOOR * geometry.COLLISION_FLOOR
        floor2 = self.rounding2 * tr
        # no rounding floor is below cf2 unless the least one is
        return np.maximum(floor2, cf2) if tr * self.rounding2_min < cf2 else floor2

    def resolution(self, u):
        """The largest distance that the table of u cannot tell from a collision."""
        return float(np.sqrt(self.floor2(self.s_rows[-1].dot(u[self.b])).max()))

    def rhs(self):
        """rhs(t, u), the packed X + X^T with X = G L, its index maps bound;
        raises CollisionError where a squared distance is below its floor2."""
        k, kk, (upper0, upper1), left_of = self.k, self.k ** 2, self.upper, self.left
        pair_c, z = pair_kernel(self.sys)[0], np.empty(k * (2 * k + 1) + 2 * kk)
        z_u, Y = z[:-2 * kk], z[-2 * kk:].reshape(2 * k, k)   # z = (u, Y.ravel()) as above

        def rhs(t, u):
            left = u[left_of]
            s_tr = self.s_rows.dot(left[:kk])
            try:
                c = pair_c(s_tr[:-1], self.floor2(s_tr[-1]))
            except CollisionError:
                beta_to_distances(self.unpack(u)[0], tol=1e-6)   # a non-Gram b raises
                raise
            z_u[:] = u
            left.reshape(2 * k, k).dot(c.dot(self.WW).reshape(k, k), out=Y)
            return z[upper0] + z[upper1]

        return rhs


def reduced_rhs(tables, sys):
    """Right-hand side of the reduced system on the stacked (4, n, n) tables
    (beta, gamma, delta, rho), returned as double-centred tables.

    The packed flow G_dot = L^T G + G L of the module docstring, read from
    and written to tables; on D* it is
    beta_dot = 2 gamma, gamma_dot = A^T beta + beta A + delta,
    delta_dot = 2 (A^T gamma + gamma A) - 2 (A^T rho - rho A),
    rho_dot = A^T beta - beta A.
    """
    gram = _GramTable(sys)
    return gram.unpack(gram.rhs()(0.0, gram.pack(RelativeState(*tables))))


def integrate_reduced(rel0, sys, horizon, tol=1e-10, samples=513):
    """Integrate the reduced system on the packed Gram table; same contract
    as integrate_absolute, with double-centred (beta, gamma, delta, rho)
    samples."""
    ts = _sample_times(horizon, samples, tol)
    gram = _GramTable(sys)
    us, work = _drive(gram.rhs(), gram.pack(rel0), ts, tol, gram.min_distance, gram.resolution)
    return Trajectory(ts, gram.unpack(us), "reduced", {"integrator": "rk8", "tol": tol, **work})


# ---------------------------------------------------------------------------
# invariants


def _invariants(x, y, sys):
    """(I, J, K, U, H, C, |C|) of (..., d, n) positions x and velocities y, one
    value (C: one d x d angular-momentum table) per leading index; |C| is half
    the sum of the singular values.  Raises CollisionError below the floor."""
    I = np.einsum("i,...ci,...ci->...", sys.m, x, x)
    J = np.einsum("i,...ci,...ci->...", sys.m, x, y)
    K = np.einsum("i,...ci,...ci->...", sys.m, y, y)
    s = squared_distances(x, sys)
    check_collision_floor(s, geometry.COLLISION_FLOOR * geometry.COLLISION_FLOOR)
    U = potential_from_s(s, sys)
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


def spline_slopes(x, y):
    """Knot slopes of the not-a-knot cubic spline through (x, y) by one Thomas
    sweep of its tridiagonal system; through 2 or 3 knots, of the line or parabola."""
    h, m = np.diff(x), np.diff(y) / np.diff(x)   # steps and secant slopes
    if x.size < 4:
        return m[0] + (m[-1] - m[0]) / (x[-1] - x[0]) * (2 * x - x[0] - x[1])
    # row i: lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = b[i]
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower = np.concatenate([[0.0], h[1:], [d1]]).tolist()
    diag = np.concatenate([[h[1]], 2 * (h[:-1] + h[1:]), [h[-2]]]).tolist()
    upper = np.concatenate([[d0], h[:-1]]).tolist()
    b = np.concatenate([[((h[0] + 2 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0],
                        3 * (h[1:] * m[:-1] + h[:-1] * m[1:]),
                        [(h[-1] ** 2 * m[-2] + (2 * d1 + h[-1]) * h[-2] * m[-1]) / d1]]).tolist()
    for i in range(1, x.size):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        b[i] -= w * b[i - 1]
    b[-1] /= diag[-1]
    for i in range(x.size - 2, -1, -1):
        b[i] = (b[i] - upper[i] * b[i + 1]) / diag[i]
    return np.array(b)


def audit_invariants(traj, sys):
    """Drift and residual report along an absolute trajectory.

    Reports the max relative drift of H and of the angular momentum table,
    the sup-norm residual of  J_dot - (2H + 2(kappa+1)U)  with J
    differentiated by the not-a-knot cubic spline, the minimum Sundman gap, and for
    kappa = -1 the drift of the scaling integral 2 I H - J^2.
    """
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

    jdot = spline_slopes(traj.times, J)
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


STRUCTURE_TOL = 1e-10   # defect of a degenerate hermitian structure that still counts as one
SUNDMAN_EQUALITY_TOL = 1e-10   # a Schwarz gap below this fraction of I K is an equality


@dataclass
class SchwarzGap:
    gap: float
    equality: bool
    omega_mismatch: float | None  # ||Omega - Omega_C|| on the fixed space, when equality


def _check_degenerate_hermitian(omega):
    """Omega must satisfy ||Omega v|| <= ||v|| and Omega^2 = -Id on Im Omega,
    each to STRUCTURE_TOL."""
    c = omega.c
    sv = np.linalg.svd(c, compute_uv=False)
    if sv.size and sv[0] > 1.0 + STRUCTURE_TOL:
        raise InvalidStructure(f"largest singular value {sv[0]:.3e} exceeds 1")
    _, F = hermitian_from_bivector(omega)
    if F.shape[1]:
        resid = np.abs(c @ c @ F + F).max()
        if resid > STRUCTURE_TOL:
            raise InvalidStructure(f"Omega^2 differs from -Id on its image by {resid:.3e}")


def complex_schwarz_gap(z, omega, sys):
    """Gap  I K - J^2 - (1/4) <C, Omega>^2  for a degenerate hermitian Omega.

    The gap is minimal (and equals the Sundman gap) for Omega = Omega_C.
    When the gap vanishes to SUNDMAN_EQUALITY_TOL * I K, the equality flag is set
    and Omega is compared against Omega_C on the fixed space.
    """
    _check_degenerate_hermitian(omega)
    I, J, K, _, _ = scalar_invariants(z, sys)
    C = angular_momentum(z, sys)
    comp = bivector_component(C, omega)  # already (1/2) <C, Omega>
    gap = I * K - J * J - comp * comp
    equality = bool(gap <= SUNDMAN_EQUALITY_TOL * max(I * K, 1e-300))
    mismatch = None
    if equality:
        omega_c, F = hermitian_from_bivector(C)
        mismatch = float(np.abs(F.T @ (omega.c - omega_c) @ F).max()) if F.shape[1] else 0.0
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
        w[a, b], w[b, a] = 1.0, -1.0
        basis[k] = w @ xr
    gram = np.einsum("i,kci,lci->kl", sys.m, basis, basis)
    rhs = np.einsum("i,kci,ci->k", sys.m, basis, resid)
    coef, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    y_r = np.einsum("k,kci->ci", coef, basis)
    y_d = resid - y_r
    return y_h, y_r, y_d


def dziobek_ranks(z, sys):
    """(rank C, rank E) with the singular-value threshold RANK_RTOL * sigma_max."""
    rank_c = matrix_rank(angular_momentum(z, sys).c)
    rank_e = matrix_rank(np.hstack([z.x.r, z.y.r]))
    return rank_c, rank_e
