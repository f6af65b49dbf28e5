"""Time integration and invariant audits.

The absolute equations x_dot = y, y_dot = 2 x A are integrated on
coordinates, with the accelerations summed over the pair list.  The reduced
system is integrated on D*, the mean-zero hyperplane: with x_hat = x M Q
(Q = M^{-1/2} V from `hyperplane_basis`, k = n - 1 columns) the state is
the upper triangle of the 2k x 2k Gram table G = [[b, g - r], [g + r, e]]
of (x_hat, y_hat), the forms (beta, gamma, delta, rho) on D*, and

    G_dot = L^T G + G L,   L = [[0, 2 A_hat], [I, 0]],   2 A_hat = W^T diag(c) W,

with W = D Q, c_p = 2 m_i m_j Phi'(s_p) and s_p = w_p^T b w_p.  Samples are
stored as double-centred n x n tables.  A right-hand side rhs(t, u, out)
writes u' into out, the stepper's stage row (dop853.solve_ivp), and
returns it; rhs(t, u) returns a new array.  The right-hand sides and the
leapfrog kicks call a `pair_kernel` bound per run; the reduced one names a
collapse where a pair is under 1e3 sqrt(4 eps (1/m_i + 1/m_j) tr b), 1e3
times what its table tells from rounding, or the collision floor.  The
stepper counts the evaluations, and no rk8 or leapfrog run passes
MAX_RHS_EVALS; each reports `rhs_evals`, rk8 runs also `accepted_steps`
and `rejected_steps`.
Audits check energy, angular momentum, the virial (Lagrange-Jacobi)
relation and the Sundman gap I K - J^2 - |C|^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dop853 import solve_ivp
from .errors import CollisionError, StepFailure, ValidationError
from . import geometry
from .geometry import (
    Trajectory,
    angular_momentum_tables,
    beta_to_distances,
    centred,
    check_collision_floor,
    hyperplane_basis,
    pair_kernel,
    potential_from_s,
    reduced_tables,
    relative_scale,
    squared_distances,
)

MAX_RHS_EVALS = 250_000   # over ten times the largest run in the tests and the benchmark
LEAPFROG_ENERGY_BOUND = 1e-3   # largest relative energy error a leapfrog run returns
SUNDMAN_EQUALITY_TOL = 1e-10   # a Sundman gap below this fraction of I K is an equality
UNPACK_BLOCK = 64   # reduced samples expanded to n x n tables at once


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


def _drive(rhs, u0, ts, tol, min_distance):
    """DOP853 states at the times ts, one row per sample, and the work counts
    (rhs_evals, accepted_steps, rejected_steps), rhs_evals <= MAX_RHS_EVALS.

    Raises CollisionError when min_distance(u) falls below twice the collision
    floor (geometry.COLLISION_FLOOR, read here as in pair_kernel, so that one
    name sets both).  A run that cannot go on, its step stalled or its
    budget spent, raises CollisionError if the closest pair at the last
    accepted step u is under max(1e3 collision floor, 1e-6 initial), and
    StepFailure otherwise.  The reduced route names a collapse earlier, in
    its right-hand side (_GramTable.rhs), where a pair meets its floor first.
    """
    collision_floor = geometry.COLLISION_FLOOR
    sol = solve_ivp(rhs, ts, u0, tol, lambda t, u: min_distance(u) - 2.0 * collision_floor,
                    MAX_RHS_EVALS)
    if sol.status == 1:
        raise CollisionError(f"collision at t = {sol.t_event:.6g}")
    if sol.status != 0:
        mind = min_distance(sol.y_last)
        if mind < max(1e3 * collision_floor, 1e-6 * min_distance(u0)):
            raise CollisionError(f"collapse at t = {sol.t_last:.6g} (min distance {mind:.3e})")
        if sol.status == -2:
            raise _budget_exhausted(sol.t_last)
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
    by more than LEAPFROG_ENERGY_BOUND of its scale raises CollisionError or
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

        def rhs(t, u, out=None):
            out = np.empty(2 * dn) if out is None else out
            out[:dn] = u[dn:]
            seen[:] = u, accelerations(u[:dn].reshape(d, n), out[dn:].reshape(d, n))
            return out

        def min_distance(u):
            # the event after an accepted step sees the state of the step's
            # FSAL slope, whose distances the kernel has just computed
            s = seen[1] if u is seen[0] else squared_distances(u[:dn].reshape(d, n), sys)
            return math.sqrt(s.min())

        us, work = _drive(rhs, u0, ts, tol, min_distance)
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

    At each sample the energy H (_energy, on the squared distances the
    kernel has just returned) may differ from the initial H0 by at most
    LEAPFROG_ENERGY_BOUND relative_scale(H0, K0/2 + U0), as energy_drift
    measures it: a run that strays further raises instead of returning
    samples its step no longer follows.  The error is CollisionError when
    the closest pair is then under half the initial closest distance (the
    step fails on an encounter, as into a collapse), StepFailure when it
    fails on the motion as a whole, or when the samples are too far apart
    to catch the run before it has passed the encounter."""
    accelerations = pair_kernel(sys)[1]
    x, v = z0.x.r.copy(), z0.y.r.copy()
    out = np.empty((ts.size, 2) + x.shape)
    times = ts.tolist()   # the step bookkeeping runs on Python floats, as in solve_ivp
    t = times[0]
    s = accelerations(x, a := np.empty_like(x))
    K0, U0, H0 = _energy(v, s, sys)
    h_scale = relative_scale(H0, 0.5 * K0 + U0)
    scale_name = "|H|" if h_scale == abs(H0) else "K0/2 + U0"
    evals = 1
    for k, target in enumerate(times):
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
        err = abs(_energy(v, s, sys)[2] - H0) / h_scale
        if not err <= LEAPFROG_ENERGY_BOUND:   # NaN too
            step = f"leapfrog step {dt:.3g} does not follow the"
            where = f"energy error {err:.3e} of {scale_name} at t = {t:.6g}"
            if (closest := s.min()) < 0.25 * squared_distances(z0.x.r, sys).min():
                raise CollisionError(f"{step} encounter of the closest pair "
                                     f"(distance {math.sqrt(closest):.3e}): {where}")
            raise StepFailure(f"{step} motion: {where}")
        out[k] = x, v
    return out, {"rhs_evals": evals}


# ---------------------------------------------------------------------------
# reduced integration


class _GramTable:
    """The reduced state as the packed upper triangle u of the Gram table G
    on D* (module docstring)."""

    def __init__(self, sys):
        self.sys, self.k = sys, sys.n - 1
        k = self.k
        Q = hyperplane_basis(sys)
        # x_hat = x M Q and x = x_hat Q^T, for positions and velocities alike
        self.Q, self.MQ2 = Q, np.kron(np.eye(2), sys.m[:, None] * Q)
        iu = np.triu_indices(2 * k)
        self.index = np.empty((2 * k, 2 * k), dtype=int)   # G = u[index]
        self.index[iu] = self.index[iu[::-1]] = np.arange(iu[0].size)
        self.iu = iu
        self.blocks = np.stack([self.index[:k, :k], self.index[:k, k:],   # u[..., blocks]: the
                                self.index[k:, k:], self.index[k:, :k]])  # b, g - r, e, g + r of G
        self.left = self.index[:, :k].ravel()   # u[left] = G[:, :k].ravel(), b.ravel() first
        # X = G L = [G[:, k:], Y] with Y = G[:, :k] 2 A_hat is z[X] of
        # z = (u, Y.ravel()); upper holds X at (i, j) and (j, i), i <= j
        X = np.concatenate([self.index[:, k:],
                            iu[0].size + np.arange(2 * k * k).reshape(2 * k, k)], axis=1)
        self.upper = X[iu], X[iu[::-1]]
        # rows w_p (x) w_p of W = D Q and, last, the row of tr b: s_rows u[left[:k^2]]
        # holds s and tr b, and 2 A_hat = c WW.  The P (n - 1)^2 numbers of
        # WW (0.5 MB at n = 20, 49 MB at n = 60) are stored once and suit few bodies
        W = sys.D @ Q
        self.s_rows = np.empty((len(W) + 1, k * k))
        np.multiply(W[:, :, None], W[:, None, :], out=self.s_rows[:-1].reshape(-1, k, k))
        self.s_rows[-1] = np.eye(k).ravel()
        self.WW = self.s_rows[:-1]
        # s_p is rounded by up to about 0.32 eps |w_p|^2 tr b, |w_p|^2 =
        # 1/m_i + 1/m_j; the squared floor rounding2 tr b is (1e3)^2 times
        # four such levels, so that a run into a collapse meets it before
        # it crawls on rounding
        self.rounding2 = 4e6 * np.finfo(float).eps * (W * W).sum(axis=1)
        self.rounding2_min = float(self.rounding2.min())

    def pack(self, rel):
        """u of a RelativeState (of any representatives of its forms on D*)."""
        X = self.MQ2.T @ rel.block_matrix() @ self.MQ2
        return 0.5 * (X + X.T)[self.iu]

    def unpack(self, u):
        """Double-centred (..., 4, n, n) tables of packed states u, expanded
        UNPACK_BLOCK samples at a time into the one result (a single state
        is one block), so the temporaries scale with the block, not the run."""
        flat = u.reshape(-1, u.shape[-1])
        out = np.empty((len(flat), 4, self.sys.n, self.sys.n))
        for i in range(0, len(flat), UNPACK_BLOCK):
            block = slice(i, i + UNPACK_BLOCK)
            out[block] = reduced_tables(self.Q @ flat[block, self.blocks] @ self.Q.T)
        return out.reshape(u.shape[:-1] + out.shape[1:])

    def min_distance(self, u):
        return math.sqrt(max((self.WW @ u[self.left[:self.k ** 2]]).min(), 0.0))

    def rhs(self):
        """rhs(t, u, out=None), the packed X + X^T with X = G L, its index maps
        bound; raises CollisionError, a collapse at the stage time t, where a
        squared distance is below its floor: rounding2 tr b, raised to the
        squared collision floor (geometry.COLLISION_FLOOR, read when rhs is
        built).  _drive's event and stall rule still act on the route: a
        total collapse, whose floor shrinks with tr b, ends at the stall rule
        (the symmetric kappa = -1 equilateral start)."""
        k, kk, (upper0, upper1), left_of = self.k, self.k ** 2, self.upper, self.left
        s_rows, WW = self.s_rows, self.WW
        pair_c, z = pair_kernel(self.sys)[0], np.empty(k * (2 * k + 1) + 2 * kk)
        z_u, Y = z[:-2 * kk], z[-2 * kk:].reshape(2 * k, k)   # z = (u, Y.ravel()) as above
        rounding2, rounding2_min = self.rounding2, self.rounding2_min
        cf2 = geometry.COLLISION_FLOOR * geometry.COLLISION_FLOOR

        def rhs(t, u, out=None):
            left = u[left_of]
            s_tr = s_rows.dot(left[:kk])
            floor2 = rounding2 * (tr := s_tr[-1])
            if tr * rounding2_min < cf2:   # else no rounding floor is below cf2
                floor2 = np.maximum(floor2, cf2)
            try:
                c = pair_c(s_tr[:-1], floor2)
            except CollisionError:
                beta_to_distances(self.unpack(u)[0], tol=1e-6)   # a non-Gram b raises
                raise CollisionError(f"collapse at t = {t:.6g} "
                                     f"(min distance {self.min_distance(u):.3e})") from None
            z_u[:] = u
            left.reshape(2 * k, k).dot(c.dot(WW).reshape(k, k), Y)
            return np.add(z[upper0], z[upper1], out)

        return rhs


def integrate_reduced(rel0, sys, horizon, tol=1e-10, samples=513):
    """Integrate the reduced system on the packed Gram table; same contract
    as integrate_absolute, with double-centred (beta, gamma, delta, rho)
    samples, and a collapse raised where a pair meets the table's floor or
    by _drive's rules."""
    ts = _sample_times(horizon, samples, tol)
    gram = _GramTable(sys)
    us, work = _drive(gram.rhs(), gram.pack(rel0), ts, tol, gram.min_distance)
    return Trajectory(ts, gram.unpack(us), "reduced", {"integrator": "rk8", "tol": tol, **work})


# ---------------------------------------------------------------------------
# invariants


def _energy(y, s, sys):
    """(K, U, H): sum_i m_i |y_i|^2, the force function U and the energy
    K/2 - U of (..., d, n) velocities y and (..., P) squared distances s."""
    K = np.einsum("i,...ci,...ci->...", sys.m, y, y)
    U = potential_from_s(s, sys)
    return K, U, 0.5 * K - U


def _invariants(x, y, sys):
    """(I, J, K, U, H, C, |C|) of (..., d, n) positions x and velocities y, one
    value (C: one d x d angular-momentum table) per leading index; |C| is half
    the sum of the singular values.  Raises CollisionError below the floor."""
    I = np.einsum("i,...ci,...ci->...", sys.m, x, x)
    J = np.einsum("i,...ci,...ci->...", sys.m, x, y)
    s = squared_distances(x, sys)
    check_collision_floor(s, geometry.COLLISION_FLOOR * geometry.COLLISION_FLOOR)
    K, U, H = _energy(y, s, sys)
    C = angular_momentum_tables(x, y, sys)
    normC = np.linalg.svd(C, compute_uv=False).sum(axis=-1) / 2.0
    return I, J, K, U, H, C, normC


def _sundman(I, J, K, U, H, C, normC):
    """Sundman's gap I K - J^2 - |C|^2 and function I^{-1/2}(J^2 + |C|^2) - 2 I^{1/2} H."""
    return (I * K - J * J - normC * normC,
            (J * J + normC * normC) / np.sqrt(I) - 2.0 * np.sqrt(I) * H)


def scalar_invariants(z, sys):
    """(I, J, K, U, H) of an absolute state."""
    return tuple(float(v) for v in _invariants(z.x.r, z.y.r, sys)[:5])


def kepler_type(z, sys):
    """(gap, verdict) of an absolute state: Sundman's gap over I K, and
    whether it is an equality, gap <= SUNDMAN_EQUALITY_TOL.  Equality holds
    exactly when the motion through z is homographic of Kepler type, the
    absolute minimum of Sundman's inequality."""
    invariants = _invariants(z.x.r, z.y.r, sys)
    I, _, K = invariants[:3]
    gap = float(_sundman(*invariants)[0] / (I * K))
    return gap, gap <= SUNDMAN_EQUALITY_TOL


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
    kappa = -1 the drift of the scaling integral 2 I H - J^2.  Each drift
    is relative_scale(initial value, natural scale), with E* = K0/2 + U0,
    sqrt(2 I0 E*) and 2 I0 E* the natural scales of H, C and 2 I H - J^2.
    """
    if traj.kind != "absolute":
        raise ValidationError("audit expects an absolute trajectory")
    invariants = _invariants(traj.samples[:, 0], traj.samples[:, 1], sys)
    I, J, K, U, H, c_tables, normC = invariants
    gap, Sfun = _sundman(*invariants)

    def drift(values, reference, natural):
        return float(np.max(np.abs(values - values[0])) / relative_scale(reference, natural))

    e_star = 0.5 * K[0] + U[0]
    energy_drift = drift(H, H[0], e_star)
    momentum_drift = drift(c_tables, np.abs(c_tables[0]).max(), np.sqrt(2.0 * I[0] * e_star))
    G2 = 2.0 * I * H - J ** 2   # the scaling integral of kappa = -1
    scaling_drift = drift(G2, G2[0], 2.0 * I[0] * e_star) if abs(sys.kappa + 1.0) < 1e-14 else None

    jdot = spline_slopes(traj.times, J)
    virial = 2.0 * H + 2.0 * (sys.kappa + 1.0) * U
    interior = slice(2, -2) if traj.times.size > 8 else slice(None)
    lj_residual = float(np.max(np.abs(jdot - virial)[interior]))

    series = {"t": traj.times.copy(), "I": I, "J": J, "K": K, "U": U, "H": H,
              "normC": normC, "sundman_gap": gap, "sundman_function": Sfun}
    return InvariantReport(energy_drift, momentum_drift, lj_residual,
                           float(gap.min()), scaling_drift, series)
