"""Central and balanced configurations.

A configuration is central when the accelerations are proportional to the
positions (critical point of U at fixed moment of inertia), balanced when
the interaction matrix commutes with the intrinsic inertia table (critical
point of U at fixed inertia spectrum).  Besides residual classification,
this module finds both kinds numerically and evaluates the mass-linear
determinant equations P_ijk for balance in terms of the squared mutual
distances alone.  The searches are numpy only (no scipy).
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    CollisionError,
    DegenerateConfiguration,
    InfeasibleSpectrum,
    NoConvergence,
    NotEmbeddable,
    ValidationError,
    log_info,
)
from .geometry import (
    Configuration,
    beta_to_distances,
    gram_form,
    hyperplane_basis,
    inertia,
    interaction_matrix_from_s,
    mass_dot,
    pair_forces,
    potential_and_gradient,
    potential_from_s,
    wintner_conley,
)
from .optimize import quasi_newton

CENTRAL_TOL = 1e-12     # central residual find_central must reach
BALANCED_TOL = 1e-8     # balance residual find_balanced must reach


@dataclass
class ConfigClass:
    kind: str            # "central" | "balanced" | "neither"
    multiplier: float    # lambda with grad U = lambda x (central case)
    residual: float      # residual of the assigned class
    central_residual: float
    balanced_residual: float


def _residuals(x, sys):
    """(central, balanced, multiplier) of a configuration.  Both residuals
    are scale-free: the gradient enters as grad U / U, and A and B are each
    divided by their largest entry, so no square overflows or underflows
    whatever G and the size are.  Forces that underflow to 0 give NaN."""
    U, grad = potential_and_gradient(x, sys)
    I, B, _ = inertia(x, sys)
    A = wintner_conley(x, sys)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = grad / U
        c = a - (2.0 * sys.kappa / I) * x.r
        central = np.sqrt(np.divide(mass_dot(c, c, sys.m), mass_dot(a, a, sys.m)))
        A, B = A / np.abs(A).max(), B / np.abs(B).max()
    comm = A @ B - B @ A
    balanced = np.linalg.norm(comm) / (np.linalg.norm(A) * np.linalg.norm(B))
    return float(central), float(balanced), float(2.0 * sys.kappa * U / I)


def classify(x, sys, tol=1e-8):
    """Classify a configuration as central, balanced or neither at tolerance tol."""
    central, balanced, lam = _residuals(x, sys)
    if central < tol:
        return ConfigClass("central", lam, central, central, balanced)
    if balanced < tol:
        return ConfigClass("balanced", lam, balanced, central, balanced)
    return ConfigClass("neither", lam, balanced, central, balanced)


# ---------------------------------------------------------------------------
# central configurations


def _normalize_inertia(r, sys):
    x = Configuration(r, sys)
    I, _, _ = inertia(x, sys)
    if I <= 0:
        raise DegenerateConfiguration("zero moment of inertia")
    return Configuration(x.r / np.sqrt(I), sys)


def find_central(sys, d, seed=None, x0=None):
    """Find a central configuration with I = 1 in dimension d.

    optimize.quasi_newton minimizes U / U_0 (U_0 at the start: G and the
    size drop out) on the sphere |y| = 1, y = sqrt(m) x, on the tangential
    gradient, normalizing each step back onto the sphere, and stops at
    |g| <= 1e-13 |kappa|.  Deterministic given the seed, only local
    convergence is promised; raises NoConvergence unless the search
    converges to a central residual of at most CENTRAL_TOL.  Logs one INFO
    line: evaluations, iterations, |g| and the guard.  The positions are R
    of the complete QR factorization x = Q R with diag R >= 0, which fixes
    the orientation.
    """
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    if x0 is not None and x0.d != d:
        raise ValidationError("seed configuration has wrong dimension")
    x = _normalize_inertia(np.random.default_rng(seed).normal(size=(d, sys.n))
                           if x0 is None else x0.r, sys)

    sqm = np.sqrt(sys.m)
    U0 = potential_and_gradient(x, sys)[0]

    def fun(y):
        try:
            s, a = pair_forces(y.reshape(d, sys.n) / sqm, sys, scatter=sys.DMinv)
        except CollisionError:
            return np.inf, None
        g = (a * sqm).ravel() / U0
        return float(potential_from_s(s, sys)) / U0, g - (y @ g) * y

    y = (x.r * sqm).ravel()
    run = quasi_newton(fun, y, *fun(y), 1e-13 * abs(sys.kappa),
                       step=lambda y, p, t: (y + t * p) / np.linalg.norm(y + t * p))
    log_info("find_central: %d evaluations, %d iterations, |g| %.3e, %s",
             run.nfev + 1, run.nit, run.gnorm, run.guard)
    if run.guard != "converged":
        raise NoConvergence(f"central search ended ({run.guard}) at |g| {run.gnorm:.3e}")

    R = np.linalg.qr(_normalize_inertia(run.x.reshape(d, sys.n) / sqm, sys).r, mode="complete")[1]
    R[np.flatnonzero(np.diag(R) < 0.0)] *= -1.0
    out = Configuration(R, sys)
    central, _, _ = _residuals(out, sys)
    if not central <= CENTRAL_TOL:   # written so that NaN fails it
        raise NoConvergence(f"central residual {central:.3e} above {CENTRAL_TOL:.1e}")
    return out


# ---------------------------------------------------------------------------
# balanced configurations


def _beta_from_rotation(Q, W, spec_full, sqm):
    b_sym = (W @ Q * spec_full) @ (W @ Q).T
    return b_sym / np.outer(sqm, sqm)


def _hat(xi, k):
    w = np.zeros((k, k))
    w[np.triu_indices(k, 1)] = xi
    return w - w.T


def _orbit_cost_grad(Q, W, spec_full, sqm, sys):
    """U on the fixed-spectrum orbit and its gradient in the rotation
    generators E_ab - E_ba (exact at the base point Q)."""
    beta = _beta_from_rotation(Q, W, spec_full, sqm)
    s = beta_to_distances(beta)[sys.pairs]
    if s.min() <= 0.0:
        return np.inf, None
    U = float(potential_from_s(s, sys))
    # dU = <X, dbeta>; the distances are positive, so no collision floor
    X = interaction_matrix_from_s(s, sys, collision_floor=0.0) * sys.m
    WQ = W @ Q
    Y = WQ.T @ ((X / np.outer(sqm, sqm)) @ WQ)
    M = Y * spec_full[None, :] - spec_full[:, None] * Y  # Y L - L Y
    return U, 2.0 * M[np.triu_indices(Q.shape[0], 1)]


def minimize(Q, W, spec_full, sqm, sys):
    """The shared quasi-Newton search for U on the orbit Q -> Q cay(hat(xi)),
    cay(V) = (I - V/2)^-1 (I + V/2), re-centred at every iterate, where the
    gradient of _orbit_cost_grad is exact.  Stops at |g| <= 1e-13 (1 + |U|);
    returns the optimize.Search, whose x is the rotation."""
    eye = np.eye(Q.shape[0])

    def cayley(Q, p, t):
        V = _hat(0.5 * t * p, eye.shape[0])
        return Q @ np.linalg.solve(eye - V, eye + V)

    def fun(Q):
        return _orbit_cost_grad(Q, W, spec_full, sqm, sys)

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
    sqm = np.sqrt(sys.m)
    W = hyperplane_basis(sys)
    if x0 is not None:
        b_sym = np.outer(sqm, sqm) * gram_form(Configuration(x0.r, sys))
        w, V = np.linalg.eigh(W.T @ b_sym @ W)
        Q = V[:, ::-1]  # descending, aligned with spec_full
    else:
        Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(sys.n - 1, sys.n - 1)))
    run = minimize(Q, W, spec_full, sqm, sys)
    log_info("find_balanced: %d evaluations, %d iterations, |g| %.3e, %s",
             run.nfev + 1, run.nit, run.gnorm, run.guard)

    beta = _beta_from_rotation(run.x, W, spec_full, sqm)
    w, V = np.linalg.eigh(beta)
    keep = w > 1e-12 * w.max()
    r = (V[:, keep] * np.sqrt(w[keep])).T
    out = Configuration(r[::-1], sys)  # leading eigendirection first
    _, balanced, _ = _residuals(out, sys)
    if not balanced <= BALANCED_TOL:   # written so that NaN fails it
        raise NoConvergence(f"balance residual {balanced:.3e} above {BALANCED_TOL:.1e}")
    return out


# ---------------------------------------------------------------------------
# mass-linear determinant equations


@dataclass
class BalancedResiduals:
    P: dict              # (i, j, k) -> P_ijk, i < j < k
    nabla: dict          # (i, j, k) -> nabla_ijk
    Y: dict              # (i, j, k, l) -> Y^l_ijk
    p_matrix: np.ndarray
    y_variant: str       # "corrected" or "literal" first column of Y
    identity_residual: float
    commutator_residual: float


def _as_s_array(s, n):
    if isinstance(s, dict):
        arr = np.zeros((n, n))
        for (i, j), v in s.items():
            arr[i, j] = arr[j, i] = float(v)
        return arr
    arr = np.asarray(s, dtype=float)
    if arr.shape != (n, n):
        raise ValidationError(f"expected an {n} x {n} distance-squared table")
    return 0.5 * (arr + arr.T)


def p_matrix(s, du, m):
    """P_ij = (1/2 m_j) sum_{l != j} (s_il - s_ij) dU/ds_lj from the tables s
    and du = dU/ds (its diagonal cancels)."""
    # sum over all l: the l = j term is (s_ij - s_ij) du_jj = 0
    P = (s @ du - s * du.sum(axis=0)) / (2.0 * m)
    np.fill_diagonal(P, 0.0)
    return P


def _nabla_det(s, du, m, i, j, k):
    return np.linalg.det(np.array([
        [1.0 / m[i], 1.0 / m[j], 1.0 / m[k]],
        [s[j, k] - s[k, i] - s[i, j],
         s[k, i] - s[i, j] - s[j, k],
         s[i, j] - s[j, k] - s[k, i]],
        [du[j, k], du[k, i], du[i, j]],
    ]))


def _y_det(s, du, m, i, j, k, l, corrected):
    first = du[i, l] / m[i] if corrected else du[i, l]
    return np.linalg.det(np.array([
        [1.0, 1.0, 1.0],
        [s[j, k] + s[i, l], s[k, i] + s[j, l], s[i, j] + s[k, l]],
        [first, du[j, l] / m[j], du[k, l] / m[k]],
    ]))


def balanced_residuals_pijk(s, sys, embed_tol=1e-9):
    """Evaluate the balance equations P_ijk = 0 from squared distances.

    P_ijk comes from the antisymmetric part of beta A; it decomposes as
    -1/2 nabla_ijk + 1/2 sum_l Y^l_ijk.  The published Y determinant lacks a
    1/m_i factor in its first column; both variants are evaluated and the
    one reproducing P_ijk is kept (y_variant records which, the other's
    defect goes to identity_residual).  The distances are embedded to
    cross-check against the commutator criterion; raises NotEmbeddable when
    the reconstructed Gram table has an eigenvalue below -embed_tol.
    """
    n = sys.n
    s = _as_s_array(s, n)
    if np.any(s[~np.eye(n, dtype=bool)] <= 0.0):
        raise ValidationError("off-diagonal squared distances must be positive")

    du = -interaction_matrix_from_s(s[sys.pairs], sys, collision_floor=0.0) * sys.m  # dU/ds off the diagonal
    P = p_matrix(s, du, sys.m)
    W = P - P.T

    p_ijk, nabla, Y = {}, {}, {}
    err = {"corrected": 0.0, "literal": 0.0}
    for (i, j, k) in itertools.combinations(range(n), 3):
        val = W[i, j] + W[j, k] + W[k, i]
        p_ijk[(i, j, k)] = float(val)
        nabla[(i, j, k)] = _nabla_det(s, du, sys.m, i, j, k)
        for variant in ("corrected", "literal"):
            rec = -0.5 * nabla[(i, j, k)]
            for l in [l for l in range(n) if l not in (i, j, k)]:
                y = _y_det(s, du, sys.m, i, j, k, l, variant == "corrected")
                if variant == "corrected":
                    Y[(i, j, k, l)] = y
                rec += 0.5 * y
            err[variant] = max(err[variant], abs(rec - val))

    variant = "corrected" if err["corrected"] <= err["literal"] else "literal"

    # euclidean cross-check through an embedding of s
    ones = np.ones((n, n)) / n
    centered = -0.5 * (np.eye(n) - ones) @ s @ (np.eye(n) - ones)
    w, V = np.linalg.eigh(centered)
    if w.min() < -embed_tol * max(w.max(), 1e-300):
        raise NotEmbeddable(f"Gram eigenvalue {w.min():.3e} below -{embed_tol:.1e}")
    keep = w > embed_tol * max(w.max(), 1e-300)
    x = Configuration((V[:, keep] * np.sqrt(np.maximum(w[keep], 0.0))).T, sys)
    _, comm, _ = _residuals(x, sys)

    return BalancedResiduals(p_ijk, nabla, Y, P, variant, err[variant], comm)


# ---------------------------------------------------------------------------
# shape sphere


def shape_sphere(x, sys):
    """Map planar 3-body configurations to the shape sphere.

    x is a Configuration or a (..., 2, 3) array of mass-centred positions.
    Mass-weighted Jacobi coordinates (z1, z2) feed the Hopf-type map
    w = (|z1|^2 - |z2|^2, 2 Re(conj(z1) z2), 2 Im(conj(z1) z2)); then
    |w| = I and w/I is a rotation-invariant point of S^2 whose equator
    carries the collinear shapes (w3 is proportional to the oriented area).
    Returns (w/I, I), of shapes (..., 3) and (...).
    """
    r = np.asarray(x.r if isinstance(x, Configuration) else x, dtype=float)
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
