"""Shared helpers: tame random scenarios for conservation/equivalence suites.

Raw random states routinely pass through close encounters, which blows any
fixed drift budget no matter the integrator tolerance.  Draws are rescaled
to a minimum separation, given a mild outward velocity bias, required to
have |H| bounded away from zero, and rejected unless a cheap coarse
integration keeps all mutual distances above a floor for the whole horizon.
Everything is deterministic given the generator state.
"""

import numpy as np
from scipy.integrate import solve_ivp

from nbodyred.geometry import (
    Configuration,
    MassSystem,
    State,
    gram_form,
)
from nbodyred.dynamics import scalar_invariants
from nbodyred.configurations import _hat, _residuals
from nbodyred.errors import InfeasibleSpectrum, NoConvergence, ValidationError
from oracles import _beta_from_rotation, _orbit_cost_grad, orthonormal_hyperplane_basis


def min_distance(xr):
    s = squared_distance_table(xr)
    return float(np.sqrt(s[np.triu_indices(xr.shape[1], 1)].min()))


def squared_distance_table(r):
    """Squared mutual distances s_ij = |r_i - r_j|^2, (..., n, n), of
    (..., d, n) coordinates."""
    diff = r[..., :, None] - r[..., None, :]
    return np.einsum("...cij,...cij->...ij", diff, diff)


def triangle_table(s12, s13, s23):
    """The 3 x 3 squared-distance table of a triangle."""
    return np.array([[0.0, s12, s13], [s12, 0.0, s23], [s13, s23, 0.0]])


def dphi_oracle(s, sys):
    """Phi'(s) = G kappa s^(kappa - 1) by the power law, for every kappa."""
    return sys.G * sys.kappa * s ** (sys.kappa - 1.0)


def newton_acceleration_oracle(r, sys):
    """Accelerations of (d, n) coordinates by direct pairwise summation of
    the power-law force."""
    acc = np.zeros_like(r)
    for i in range(sys.n):
        for j in range(sys.n):
            if i == j:
                continue
            dr = r[:, i] - r[:, j]
            s = dr @ dr
            acc[:, i] += 2.0 * sys.m[j] * dphi_oracle(s, sys) * dr
    return acc


def interaction_table_oracle(s, sys):
    """The interaction table written out from an n x n squared-distance
    table: A_ij = -m_i Phi'(s_ij) off the diagonal, and on it what makes
    every column sum to zero."""
    A = -sys.m[:, None] * dphi_oracle(s + np.eye(sys.n), sys)   # s_ii = 1: finite, then replaced
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -A.sum(axis=0))
    return A


def random_state(rng, n, d, spread=1.0):
    """Unscreened random state (fine for pointwise audits)."""
    sys = MassSystem(rng.uniform(0.5, 2.0, n))
    x = Configuration(spread * rng.normal(size=(d, n)), sys)
    y = Configuration(rng.normal(size=(d, n)), sys)
    return sys, State(x, y)


def tame_scenario(rng, n, d, horizon, floor=0.5, hmin=0.25, kappa=-0.5):
    """Scenario whose mutual distances stay above `floor` over the horizon."""
    while True:
        sys = MassSystem(rng.uniform(0.5, 1.5, n), kappa=kappa)
        r = rng.normal(size=(d, n))
        iu = np.triu_indices(n, 1)
        r *= 1.8 / np.sqrt(squared_distance_table(r)[iu].min())
        v = 0.3 * r + 0.2 * rng.normal(size=(d, n))
        z = State(Configuration(r, sys), Configuration(v, sys))
        if abs(scalar_invariants(z, sys)[4]) < hmin:
            continue

        def rhs(t, u):
            xr = u[: d * n].reshape(d, n)
            yr = u[d * n :].reshape(d, n)
            A = interaction_table_oracle(squared_distance_table(xr), sys)
            return np.concatenate([yr.ravel(), (2.0 * (xr @ A)).ravel()])

        def tight(t, u):
            return min_distance(u[: d * n].reshape(d, n)) - floor

        tight.terminal = True
        tight.direction = -1
        u0 = np.concatenate([z.x.r.ravel(), z.y.r.ravel()])
        sol = solve_ivp(rhs, (0.0, horizon), u0, method="RK45",
                        rtol=1e-6, atol=1e-6, events=tight)
        if sol.status == 0:
            return sys, z


def equilateral(sys, side=1.0):
    pts = side * np.array([[0.0, 1.0, 0.5], [0.0, 0.0, np.sqrt(3.0) / 2.0]])
    return Configuration(pts, sys)


def figure_eight():
    sys = MassSystem([1.0, 1.0, 1.0])
    p, v = np.array([0.97000436, -0.24308753]), np.array([-0.93240737, -0.86473146])
    x = Configuration(np.stack([p, -p, np.zeros(2)], axis=1), sys)
    return sys, State(x, Configuration(np.stack([-0.5 * v, -0.5 * v, v], axis=1), sys))


def stronger_eight():
    """The figure-eight's state under kappa = -1, G = 1.7, which falls into
    a collapse at t = 0.345668."""
    sys = MassSystem([1.0, 1.0, 1.0], G=1.7, kappa=-1.0)
    z0 = figure_eight()[1]
    return sys, State(Configuration(z0.x.r, sys), Configuration(z0.y.r, sys))


def isosceles(sys, half_base=0.6, height=0.9):
    pts = np.array([[-half_base, half_base, 0.0], [0.0, 0.0, height]])
    return Configuration(pts, sys)


def dense_basis(blocks, n_modes):
    """The dense N x m matrix Z, N = 2 d n (n_modes + 1), of a blockwise
    invariant basis: the columns of each block U placed at the params index
    of every mode in its class, ordered like Loop.params()."""
    cols = []
    for modes, U in blocks:
        for k in modes:
            Z_k = np.zeros((U.shape[0], n_modes + 1, U.shape[1]))
            Z_k[:, k] = U
            cols.append(Z_k.reshape(U.shape[0] * (n_modes + 1), U.shape[1]))
    return np.concatenate(cols, axis=1)


def find_balanced_oracle(sys, spectrum, seed=None, x0=None, tol=1e-8, max_rounds=40):
    """The balanced finder as it was before the package had its own BFGS:
    rounds of scipy's BFGS in the exponential coordinates xi -> Q0 expm(hat(xi)),
    re-centred after each round (the gradient is exact at xi = 0 only), on
    the cost of the n x n beta table."""
    spec = np.sort(np.asarray(spectrum, dtype=float))[::-1]
    if spec.size > sys.n - 1:
        raise InfeasibleSpectrum(f"spectrum rank {spec.size} exceeds n-1 = {sys.n - 1}")
    if spec.size == 0 or not np.isfinite(spec).all() or np.any(spec < 0) or spec[0] <= 0:
        raise ValidationError("spectrum must be finite and nonnegative with a positive leading entry")

    from scipy.linalg import expm
    from scipy.optimize import minimize

    spec_full = np.concatenate([spec, np.zeros(sys.n - 1 - spec.size)])
    sqm = np.sqrt(sys.m)
    W = orthonormal_hyperplane_basis(sys)
    k = sys.n - 1

    if x0 is not None:
        b_sym = np.outer(sqm, sqm) * gram_form(Configuration(x0.r, sys))
        w, V = np.linalg.eigh(W.T @ b_sym @ W)
        Q = V[:, ::-1]  # descending, aligned with spec_full
    else:
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(k, k)))

    def cost(xi, Q0):
        U, _ = _orbit_cost_grad(Q0 @ expm(_hat(xi, k)), W, spec_full, sqm, sys)
        return U

    def grad(xi, Q0):
        # exact at xi = 0; the recentering rounds keep steps small
        _, g = _orbit_cost_grad(Q0 @ expm(_hat(xi, k)), W, spec_full, sqm, sys)
        return g

    nxi = k * (k - 1) // 2
    for _ in range(max_rounds):
        if nxi == 0:
            break
        U0, g0 = _orbit_cost_grad(Q, W, spec_full, sqm, sys)
        if np.linalg.norm(g0) < 1e-13 * max(abs(U0), 1.0):
            break
        res = minimize(cost, np.zeros(nxi), args=(Q,), jac=grad,
                       method="BFGS", options={"gtol": 1e-14, "maxiter": 80})
        Q = Q @ expm(_hat(res.x, k))
        if np.linalg.norm(res.x) < 1e-14:
            break

    beta = _beta_from_rotation(Q, W, spec_full, sqm)
    w, V = np.linalg.eigh(beta)
    keep = w > 1e-12 * w.max()
    r = (V[:, keep] * np.sqrt(w[keep])).T
    out = Configuration(r[::-1], sys)  # leading eigendirection first
    _, balanced, _ = _residuals(out, sys)
    if balanced > tol:
        raise NoConvergence(f"balance residual {balanced:.3e} above {tol:.1e}")
    return out
