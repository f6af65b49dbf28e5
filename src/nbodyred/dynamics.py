"""Time integration and invariant audits.

The absolute equations x_dot = y, y_dot = 2 x A are integrated on
coordinates, with the accelerations summed over the pair list.  The reduced
system is integrated on D*, the mean-zero hyperplane: with x_hat = x M Q
(Q = M^{-1/2} V, V from `hyperplane_basis`, k = n - 1 columns) the state is
the upper triangle of the 2k x 2k Gram table G = [[b, g - r], [g + r, e]]
of (x_hat, y_hat), the forms (beta, gamma, delta, rho) on D*, and

    G_dot = L^T G + G L,   L = [[0, 2 A_hat], [I, 0]],   A_hat = W^T diag(c) W,

with W = D Q, c_p = m_i m_j Phi'(s_p) and s_p = w_p^T b w_p.  Samples are
stored as double-centred n x n tables.  Both integrators stop with
StepFailure after MAX_RHS_EVALS evaluations and report `rhs_evals` in the
trajectory metadata.  Audits check energy, angular momentum, the virial
(Lagrange-Jacobi) relation and the Sundman gap I K - J^2 - |C|^2.

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
    RelativeState,
    Trajectory,
    angular_momentum,
    angular_momentum_tables,
    beta_to_distances,
    bivector_component,
    centred,
    checked_potential,
    closest_distance,
    hermitian_from_bivector,
    hyperplane_basis,
    mass_dot,
    matrix_rank,
    pair_accelerations,
    pair_coefficients,
    reduced_tables,
    squared_distances,
)

MAX_RHS_EVALS = 250_000   # over ten times the largest run in the tests and the benchmark


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


def _drive(rhs, u0, ts, tol, min_distance, collision_floor):
    """DOP853 states at the times ts, one row per sample, and the number of
    right-hand-side evaluations.

    Raises CollisionError when min_distance(u) falls below twice the collision
    floor, or when a step stalls with the minimal distance at the last accepted
    step below max(1e3 floor, 1e-6 initial); any other stall, and a run that
    needs more than MAX_RHS_EVALS evaluations, is a StepFailure.
    """
    from scipy.integrate import solve_ivp

    last = [0.0, np.inf]   # (t, min distance) at t0 and every accepted step
    evals = [0]

    def counted(t, u):
        evals[0] += 1
        if evals[0] > MAX_RHS_EVALS:
            raise _budget_exhausted(last[0])
        return rhs(t, u)

    def too_close(t, u):
        last[:] = t, min_distance(u)
        return last[1] - 2.0 * collision_floor
    too_close.terminal = True
    too_close.direction = -1

    sol = solve_ivp(counted, (0.0, ts[-1]), u0, method="DOP853", t_eval=ts,
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
    return sol.y.T, sol.nfev


# ---------------------------------------------------------------------------
# absolute integration


def integrate_absolute(z0, sys, horizon, tol=1e-10, method="rk8", samples=513,
                       dt=None, collision_floor=COLLISION_FLOOR):
    """Integrate x_dot = y, y_dot = 2 x A over [0, horizon].

    method "rk8" uses the adaptive 8(5,3) Runge-Kutta pair with relative and
    absolute tolerance `tol`; "leapfrog" is a fixed-step kick-drift-kick
    scheme (step `dt`, default horizon/8192) for long conservation audits.
    Raises CollisionError when a mutual distance falls below the collision
    floor, StepFailure when the step size underflows or the run exhausts
    MAX_RHS_EVALS.  The metadata hold the integrator, tol and rhs_evals
    (acceleration evaluations for leapfrog).
    """
    ts = _sample_times(horizon, samples, tol)
    d, n = z0.d, z0.n
    dn = d * n

    if method == "rk8":
        u0 = np.concatenate([z0.x.r.ravel(), z0.y.r.ravel()])

        def rhs(t, u):
            accel = pair_accelerations(u[:dn].reshape(d, n), sys, collision_floor)
            return np.concatenate([u[dn:], accel.ravel()])

        def min_distance(u):
            return closest_distance(squared_distances(u[:dn].reshape(d, n)), sys)

        us, evals = _drive(rhs, u0, ts, tol, min_distance, collision_floor)
    elif method == "leapfrog":
        us, evals = _leapfrog(z0, sys, ts, dt if dt is not None else horizon / 8192.0,
                              collision_floor)
    else:
        raise ValidationError(f"unknown integrator {method!r}")

    return Trajectory(ts, centred(us.reshape(ts.size, 2, d, n), sys), "absolute",
                      {"integrator": method, "tol": tol, "rhs_evals": evals})


def _leapfrog(z0, sys, ts, dt, collision_floor):
    """Fixed-step kick-drift-kick between the requested sample times; the
    states and the number of acceleration evaluations."""
    x = z0.x.r.copy()
    v = z0.y.r.copy()
    out = np.empty((ts.size, 2) + x.shape)
    t = ts[0]
    a = pair_accelerations(x, sys, collision_floor)
    evals = 1
    for k, target in enumerate(ts):
        while t < target - 1e-15:
            if evals >= MAX_RHS_EVALS:
                raise _budget_exhausted(t)
            h = min(dt, target - t)
            v += 0.5 * h * a
            x += h * v
            a = pair_accelerations(x, sys, collision_floor)
            evals += 1
            v += 0.5 * h * a
            t += h
        out[k] = x, v
    return out, evals


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
        # rows w_p (x) w_p of W = D Q: s = WW u[b] and A_hat = c WW; their
        # P (n - 1)^2 numbers (0.5 MB at n = 20, 49 MB at n = 60) suit few bodies
        W = sys.D @ Q
        self.WW = np.einsum("pa,pb->pab", W, W).reshape(W.shape[0], k * k)

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

    def rhs(self, u, collision_floor):
        """Packed G_dot = X + X^T with X = G L."""
        k = self.k
        try:
            c = pair_coefficients(self.WW @ u[self.b], self.sys, collision_floor)
        except CollisionError:
            beta_to_distances(self.unpack(u)[0], tol=1e-6)   # a non-Gram b raises
            raise
        G = u[self.index]
        return self._upper_of_sum(np.concatenate(
            [G[:, k:], 2.0 * G[:, :k] @ (c @ self.WW).reshape(k, k)], axis=1))


def reduced_rhs(tables, sys, collision_floor=COLLISION_FLOOR):
    """Right-hand side of the reduced system on the stacked (4, n, n) tables
    (beta, gamma, delta, rho), returned as double-centred tables.

    The packed flow G_dot = L^T G + G L of the module docstring, read from
    and written to tables; on D* it is
    beta_dot = 2 gamma, gamma_dot = A^T beta + beta A + delta,
    delta_dot = 2 (A^T gamma + gamma A) - 2 (A^T rho - rho A),
    rho_dot = A^T beta - beta A.
    """
    gram = _GramTable(sys)
    return gram.unpack(gram.rhs(gram.pack(RelativeState(*tables)), collision_floor))


def integrate_reduced(rel0, sys, horizon, tol=1e-10, samples=513,
                      collision_floor=COLLISION_FLOOR):
    """Integrate the reduced system on the packed Gram table; same contract
    as integrate_absolute, with double-centred (beta, gamma, delta, rho)
    samples."""
    ts = _sample_times(horizon, samples, tol)
    gram = _GramTable(sys)
    us, evals = _drive(lambda t, u: gram.rhs(u, collision_floor), gram.pack(rel0), ts, tol,
                       gram.min_distance, collision_floor)
    return Trajectory(ts, gram.unpack(us), "reduced",
                      {"integrator": "rk8", "tol": tol, "rhs_evals": evals})


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
