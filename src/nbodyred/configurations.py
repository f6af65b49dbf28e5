"""Central and balanced configurations.

A configuration is central when the accelerations are proportional to the
positions (critical point of U at fixed moment of inertia), balanced when
the interaction matrix commutes with the intrinsic inertia table (critical
point of U at fixed inertia spectrum).  Besides residual classification,
this module finds both kinds numerically and evaluates the mass-linear
determinant equations P_ijk for balance in terms of the squared mutual
distances alone.

scipy (`expm`, `minimize`) is imported on first use by `find_balanced`, so
importing this module does not load it.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfiguration,
    InfeasibleSpectrum,
    NoConvergence,
    NotEmbeddable,
    ValidationError,
)
from .geometry import (
    Configuration,
    beta_to_distances,
    gram_form,
    hyperplane_basis,
    inertia,
    interaction_matrix_from_s,
    mass_dot,
    potential_and_gradient,
    potential_from_s,
    wintner_conley,
)


@dataclass
class ConfigClass:
    kind: str            # "central" | "balanced" | "neither"
    multiplier: float    # lambda with grad U = lambda x (central case)
    residual: float      # residual of the assigned class
    central_residual: float
    balanced_residual: float


def _residuals(x, sys):
    U, grad = potential_and_gradient(x, sys)
    I, B, _ = inertia(x, sys)
    lam = 2.0 * sys.kappa * U / I
    gnorm = np.sqrt(mass_dot(grad, grad, sys.m))
    central = np.sqrt(mass_dot(grad - lam * x.r, grad - lam * x.r, sys.m)) / gnorm
    A = wintner_conley(x, sys)
    comm = A @ B - B @ A
    balanced = np.linalg.norm(comm) / (np.linalg.norm(A) * np.linalg.norm(B))
    return float(central), float(balanced), float(lam)


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


def find_central(sys, d, seed=None, x0=None, gtol=1e-12, max_iter=400):
    """Find a central configuration with I = 1 in dimension d.

    Projected gradient descent of U on the sphere I = 1 followed by Newton
    refinement of  grad U - (2 kappa U / I) x = 0.  Deterministic given the
    seed; only local convergence is promised.  Raises NoConvergence when the
    residual fails to reach gtol.
    """
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    if x0 is None:
        x = _normalize_inertia(rng.normal(size=(d, sys.n)), sys)
    else:
        if x0.d != d:
            raise ValidationError("seed configuration has wrong dimension")
        x = _normalize_inertia(x0.r, sys)

    # phase 1: descend U on the sphere I = 1
    U, grad = potential_and_gradient(x, sys)
    step = 0.05
    for _ in range(max_iter):
        gt = grad - mass_dot(x.r, grad, sys.m) * x.r  # tangential part (I = 1)
        gnorm = np.sqrt(mass_dot(gt, gt, sys.m))
        if gnorm < 1e-8 * U:
            break
        while step > 1e-14:
            cand = _normalize_inertia(x.r - step * gt / gnorm, sys)
            Uc, gc = potential_and_gradient(cand, sys)
            if Uc < U:
                x, U, grad = cand, Uc, gc
                step = min(step * 1.6, 0.2)
                break
            step *= 0.5
        else:
            break

    # phase 2: Newton on F(x) = grad U - lam x, finite-difference jacobian
    def F(r):
        xx = Configuration(r, sys)
        UU, gg = potential_and_gradient(xx, sys)
        II, _, _ = inertia(xx, sys)
        return (gg - (2.0 * sys.kappa * UU / II) * xx.r).ravel()

    r = x.r.copy()
    scale = np.sqrt(mass_dot(grad, grad, sys.m))
    for _ in range(60):
        f = F(r)
        if np.linalg.norm(f) <= gtol * scale:
            break
        h = 1e-7
        jac = np.empty((f.size, r.size))
        flat = r.ravel().copy()
        for k in range(flat.size):
            pert = flat.copy()
            pert[k] += h
            jac[:, k] = (F(pert.reshape(r.shape)) - f) / h
        delta, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        r = r + delta.reshape(r.shape)
    else:
        raise NoConvergence("central-configuration Newton refinement stalled")

    out = _normalize_inertia(r, sys)
    if np.linalg.norm(F(out.r)) > 10.0 * gtol * scale:
        raise NoConvergence("central-configuration residual above tolerance")
    return out


# ---------------------------------------------------------------------------
# balanced configurations


def _beta_from_rotation(Q, W, spec_full, sqm):
    b_sym = (W @ Q * spec_full) @ (W @ Q).T
    return b_sym / np.outer(sqm, sqm)


def _hat(xi, k):
    w = np.zeros((k, k))
    iu = np.triu_indices(k, 1)
    w[iu] = xi
    return w - w.T


def _orbit_cost_grad(Q, W, spec_full, sqm, sys):
    """U on the fixed-spectrum orbit and its gradient in the rotation
    generators E_ab - E_ba (exact at the base point Q)."""
    beta = _beta_from_rotation(Q, W, spec_full, sqm)
    s = beta_to_distances(beta)
    if s[sys.pairs].min() <= 0.0:
        return np.inf, None
    U = float(potential_from_s(s, sys))
    # dU = <X, dbeta>; the distances are positive, so no collision floor
    X = interaction_matrix_from_s(s, sys, collision_floor=0.0) * sys.m
    WQ = W @ Q
    Y = WQ.T @ ((X / np.outer(sqm, sqm)) @ WQ)
    M = Y * spec_full[None, :] - spec_full[:, None] * Y  # Y L - L Y
    k = Q.shape[0]
    return U, 2.0 * M[np.triu_indices(k, 1)]


def find_balanced(sys, spectrum, seed=None, x0=None, tol=1e-8, max_rounds=40):
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

    from scipy.linalg import expm
    from scipy.optimize import minimize

    spec_full = np.concatenate([spec, np.zeros(sys.n - 1 - spec.size)])
    sqm = np.sqrt(sys.m)
    W = hyperplane_basis(sys)
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


def p_matrix(s, sys):
    """P_ij = (1/2 m_j) sum_{l != j} (s_il - s_ij) dU/ds_lj."""
    du = -interaction_matrix_from_s(s, sys, collision_floor=0.0) * sys.m  # dU/ds off the diagonal
    # sum over all l: the l = j term is (s_ij - s_ij) du_jj = 0
    P = (s @ du - s * du.sum(axis=0)) / (2.0 * sys.m)
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

    du = -interaction_matrix_from_s(s, sys, collision_floor=0.0) * sys.m  # dU/ds off the diagonal
    P = p_matrix(s, sys)
    W = P - P.T

    p_ijk, nabla, Y = {}, {}, {}
    err = {"corrected": 0.0, "literal": 0.0}
    for (i, j, k) in itertools.combinations(range(n), 3):
        val = W[i, j] + W[j, k] + W[k, i]
        p_ijk[(i, j, k)] = float(val)
        nabla[(i, j, k)] = _nabla_det(s, du, sys.m, i, j, k)
        for variant in ("corrected", "literal"):
            rec = -0.5 * nabla[(i, j, k)]
            for l in range(n):
                if l in (i, j, k):
                    continue
                rec += 0.5 * _y_det(s, du, sys.m, i, j, k, l, variant == "corrected")
            err[variant] = max(err[variant], abs(rec - val))
        for l in range(n):
            if l not in (i, j, k):
                Y[(i, j, k, l)] = _y_det(s, du, sys.m, i, j, k, l, True)

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
