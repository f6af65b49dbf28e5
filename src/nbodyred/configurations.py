"""Central and balanced configurations.

A configuration is central when the accelerations are proportional to the
positions (critical point of U at fixed moment of inertia), balanced when
the interaction matrix commutes with the intrinsic inertia table (critical
point of U at fixed inertia spectrum).  Besides residual classification,
this module finds both kinds numerically.  The searches are numpy only (no
scipy).  The balanced search sums U and its gradient over the pair rows
D Q_m of the mass frame x_hat = x M Q_m (geometry.hyperplane_basis).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    CollisionError,
    DegenerateConfiguration,
    InfeasibleSpectrum,
    NoConvergence,
    ValidationError,
    log_info,
)
from . import geometry
from .geometry import (
    Configuration,
    hyperplane_basis,
    inertia,
    mass_dot,
    pair_kernel,
    potential_and_gradient,
    potential_from_s,
)
from .optimize import quasi_newton

CENTRAL_TOL = 1e-12     # central residual find_central must reach
BALANCED_TOL = 1e-8     # balance residual find_balanced must reach
CLASSIFY_TOL = 1e-8     # residual below which a configuration is central or balanced


@dataclass
class ConfigClass:
    kind: str            # "central" | "balanced" | "neither"
    multiplier: float    # lambda with grad U = lambda x (central case)
    central_residual: float
    balanced_residual: float


def _residuals(x, sys):
    """(central, balanced, multiplier) of a configuration.  Both residuals
    are scale-free: the gradient enters as grad U / U, and A and B are each
    divided by their largest entry, so no square overflows or underflows
    whatever G and the size are.  Forces that underflow to 0 give NaN."""
    pair_c, accelerations = pair_kernel(sys)
    s = accelerations(x.r, grad := np.empty((x.d, x.n)))
    U = float(potential_from_s(s, sys))
    I, B = inertia(x, sys)
    # through the module, where bench/tracer.py's geometry.interaction_matrix counts it
    A = geometry.interaction_matrix_from_s(s, sys, pair_c)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = grad / U
        c = a - (2.0 * sys.kappa / I) * x.r
        central = np.sqrt(np.divide(mass_dot(c, c, sys.m), mass_dot(a, a, sys.m)))
        A, B = A / np.abs(A).max(), B / np.abs(B).max()
    comm = A @ B - B @ A
    balanced = np.linalg.norm(comm) / (np.linalg.norm(A) * np.linalg.norm(B))
    return float(central), float(balanced), float(2.0 * sys.kappa * U / I)


def classify(x, sys):
    """Classify a configuration as central, balanced or neither: the first
    class whose residual is below CLASSIFY_TOL."""
    central, balanced, lam = _residuals(x, sys)
    kind = ("central" if central < CLASSIFY_TOL
            else "balanced" if balanced < CLASSIFY_TOL else "neither")
    return ConfigClass(kind, lam, central, balanced)


# ---------------------------------------------------------------------------
# central configurations


def _normalize_inertia(r, sys):
    x = Configuration(r, sys)
    I, _ = inertia(x, sys)
    if I <= 0:
        raise DegenerateConfiguration("zero moment of inertia")
    return Configuration(x.r / np.sqrt(I), sys)


def find_central(sys, d, seed=None, x0=None):
    """Find a central configuration with I = 1 in dimension d.

    optimize.quasi_newton minimizes U / U_0 (U_0 at the start: G and the
    size drop out) on the sphere |y| = 1, y = sqrt(m) x, on the tangential
    gradient, normalizing each step back onto the sphere, and stops at
    |g| <= 1e-13 |kappa| U / U_0: relative to the potential reached, the
    scale on which the central residual is judged.  Deterministic given
    the seed, only local convergence is promised; raises NoConvergence
    unless the search converges to a central residual of at most
    CENTRAL_TOL.  Logs one INFO line: evaluations, iterations, |g| and the
    guard.  The positions are R of the QR factorization x = Q R with
    diag R >= 0, padded with zero rows to d, which fixes the orientation.
    """
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    if x0 is not None and x0.d != d:
        raise ValidationError("seed configuration has wrong dimension")
    x = _normalize_inertia(np.random.default_rng(seed).normal(size=(d, sys.n))
                           if x0 is None else x0.r, sys)

    sqm = np.sqrt(sys.m)
    U0 = potential_and_gradient(x, sys)[0]
    if not U0 >= np.finfo(float).tiny:   # the search divides by U0
        raise ValidationError("masses, G and kappa underflow the potential U at I = 1")
    accelerations = pair_kernel(sys)[1]

    def fun(y):
        try:
            s = accelerations(y.reshape(d, sys.n) / sqm, a := np.empty((d, sys.n)))
        except CollisionError:
            return np.inf, None
        g = (a * sqm).ravel() / U0
        return float(potential_from_s(s, sys)) / U0, g - (y @ g) * y

    y = (x.r * sqm).ravel()
    run = quasi_newton(fun, y, *fun(y), 0.0, rtol=1e-13 * abs(sys.kappa),
                       step=lambda y, p, t: (y + t * p) / np.linalg.norm(y + t * p))
    log_info("find_central: %d evaluations, %d iterations, |g| %.3e, %s",
             run.nfev + 1, run.nit, run.gnorm, run.guard)
    if run.guard != "converged":
        raise NoConvergence(f"central search ended ({run.guard}) at |g| {run.gnorm:.3e}")

    R = np.zeros((d, sys.n))   # R alone: the complete Q would be d x d
    R[:min(d, sys.n)] = np.linalg.qr(_normalize_inertia(run.x.reshape(d, sys.n) / sqm, sys).r, mode="r")
    R[np.flatnonzero(np.diag(R) < 0.0)] *= -1.0
    out = Configuration(R, sys)
    central, _, _ = _residuals(out, sys)
    if not central <= CENTRAL_TOL:   # written so that NaN fails it
        raise NoConvergence(f"central residual {central:.3e} above {CENTRAL_TOL:.1e}")
    return out


# ---------------------------------------------------------------------------
# balanced configurations


def _hat(xi, k):
    w = np.zeros((k, k))
    w[np.triu_indices(k, 1)] = xi
    return w - w.T


def _orbit_cost_grad(Q, E, spec_full, sys, c):
    """U on the orbit of Gram tables Q L Q^T, L = diag(spec_full), and its
    gradient Y L - L Y in the rotation generators E_ab - E_ba (exact at Q),
    Y = V^T diag(c(s)) V on the pair rows V = E Q, s = (V o V) spec_full."""
    V = E @ Q
    s = (V * V) @ spec_full
    if s.min() <= 0.0:
        return np.inf, None
    U = float(potential_from_s(s, sys))
    Y = V.T @ (c(s)[:, None] * V)
    G = Y * spec_full - spec_full[:, None] * Y
    return U, G[np.triu_indices(Q.shape[0], 1)]


def minimize(Q, E, spec_full, sys):
    """The shared quasi-Newton search for U on the orbit Q -> Q cay(hat(xi)),
    cay(V) = (I - V/2)^-1 (I + V/2), re-centred at every iterate, where the
    gradient of _orbit_cost_grad is exact.  Stops at |g| <= 1e-13 (1 + |U|);
    returns the optimize.Search, whose x is the rotation."""
    eye = np.eye(Q.shape[0])
    c = pair_kernel(sys, 0.0)[0]   # the distances are positive: no collision floor

    def cayley(Q, p, t):
        V = _hat(0.5 * t * p, eye.shape[0])
        return Q @ np.linalg.solve(eye - V, eye + V)

    def fun(Q):
        return _orbit_cost_grad(Q, E, spec_full, sys, c)

    U, g = fun(Q)
    if not (np.isfinite(U) and np.isfinite(g).all()):
        raise NoConvergence("potential not finite at the start of the orbit search")
    return quasi_newton(fun, Q, U, g, 1e-13, rtol=1e-13, step=cayley)


def find_balanced(sys, spectrum, seed=None, x0=None):
    """Find a balanced configuration whose intrinsic inertia spectrum is given.

    U is minimized over the orthogonal-conjugation orbit of tables with the
    prescribed spectrum (padded with zeros to rank n-1); the critical point
    is balanced.  The returned configuration is embedded in as many
    dimensions as the spectrum has positive entries; which critical point is
    reached depends on the seed (or the optional seed configuration x0).
    """
    spec = np.sort(np.asarray(spectrum, dtype=float))[::-1]
    if spec.size > sys.n - 1:
        raise InfeasibleSpectrum(f"spectrum rank {spec.size} exceeds n-1 = {sys.n - 1}")
    if spec.size == 0 or not np.isfinite(spec).all() or np.any(spec < 0) or spec[0] <= 0:
        raise ValidationError("spectrum must be finite and nonnegative with a positive leading entry")

    spec_full = np.concatenate([spec, np.zeros(sys.n - 1 - spec.size)])
    Q_m = hyperplane_basis(sys)
    if x0 is not None:
        x_hat = (x0.r * sys.m) @ Q_m
        _, V = np.linalg.eigh(x_hat.T @ x_hat)
        Q = V[:, ::-1]  # descending, aligned with spec_full
    else:
        Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(sys.n - 1, sys.n - 1)))
    # at distances near 1e150 and beyond s^(3/2) overflows, which gives
    # Phi' = 0, its limit; the forces vanish and the residual is NaN, which
    # the search's own checks turn into NoConvergence (the command line
    # raises on invalid operations elsewhere)
    with np.errstate(over="ignore", invalid="ignore"):
        run = minimize(Q, sys.D @ Q_m, spec_full, sys)
        log_info("find_balanced: %d evaluations, %d iterations, |g| %.3e, %s",
                 run.nfev + 1, run.nit, run.gnorm, run.guard)

        axes = Q_m @ run.x   # beta = axes L axes^T
        w, V = np.linalg.eigh((axes * spec_full) @ axes.T)
        keep = w > 1e-12 * w.max()
        r = (V[:, keep] * np.sqrt(w[keep])).T
        out = Configuration(r[::-1], sys)  # leading eigendirection first
        _, balanced, _ = _residuals(out, sys)
    if not balanced <= BALANCED_TOL:   # written so that NaN fails it
        raise NoConvergence(f"balance residual {balanced:.3e} above {BALANCED_TOL:.1e}")
    return out


# ---------------------------------------------------------------------------
# shape sphere


def shape_sphere(r, sys):
    """Map planar 3-body configurations to the shape sphere.

    r is a (..., 2, 3) array of mass-centred positions.
    Mass-weighted Jacobi coordinates (z1, z2) feed the Hopf-type map
    w = (|z1|^2 - |z2|^2, 2 Re(conj(z1) z2), 2 Im(conj(z1) z2)); then
    |w| = I and w/I is a rotation-invariant point of S^2 whose equator
    carries the collinear shapes (w3 is proportional to the oriented area).
    Returns (w/I, I), of shapes (..., 3) and (...).
    """
    r = np.asarray(r, dtype=float)
    if r.shape[-2:] != (2, 3):
        raise ValidationError("shape sphere requires 3 bodies in the plane")
    m1, m2, m3 = sys.m
    I = np.einsum("i,...ci,...ci->...", sys.m, r, r)
    if np.min(I) < 1e-300:
        raise DegenerateConfiguration("triple collision")
    mu1 = m1 * m2 / (m1 + m2)
    mu2 = m3 * (m1 + m2) / sys.M
    # real arithmetic, in the order of the complex scalar formulas; r[..., i]
    # holds the (x, y) of body i
    z1 = np.sqrt(mu1) * (r[..., 1] - r[..., 0])
    c12 = (m1 * r[..., 0] + m2 * r[..., 1]) / (m1 + m2)
    z2 = np.sqrt(mu2) * (r[..., 2] - c12)
    x1, y1, x2, y2 = z1[..., 0], z1[..., 1], z2[..., 0], z2[..., 1]
    w = np.stack([np.hypot(x1, y1) ** 2 - np.hypot(x2, y2) ** 2,
                  2.0 * (x1 * x2 + y1 * y2), 2.0 * (x1 * y2 - y1 * x2)], axis=-1)
    return w / I[..., None], I
