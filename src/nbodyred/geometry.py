"""Mass-metric linear algebra for n bodies in R^d.

Configurations are stored as d x n coordinate arrays with mass-weighted
centroid at the origin.  Relative (rotation-reduced) quantities are n x n
tables; the representation ambiguity of forms on the mean-zero hyperplane is
resolved by double-centering (rows and columns sum to zero exactly).
Antisymmetric d x d tables ("bivectors") carry angular momenta and
instantaneous rotations.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CollisionError,
    NegativeSquaredDistance,
    ValidationError,
)

COLLISION_FLOOR = 1e-10
RANK_RTOL = 1e-9  # singular values below RANK_RTOL * sigma_max count as zero


def _readonly(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


def _bare(cls, *arrays):
    """A cls object over already projected arrays, which its constructor
    would project again, changing their last bits."""
    obj = cls.__new__(cls)
    obj._set(*arrays)
    return obj


def centred(r, sys):
    """(..., d, n) coordinates minus their mass-weighted centroid."""
    return r - (r @ sys.m / sys.M)[..., None]


def exact_antisymmetric(c):
    """0.5 (c - c^T) of (..., k, k) tables, rebuilt from its upper triangle."""
    upper = np.triu(0.5 * (c - np.swapaxes(c, -1, -2)), 1)
    return upper - np.swapaxes(upper, -1, -2)


class MassSystem:
    """Masses, gravitational constant and potential exponent.

    The pair potential is  m_i m_j * Phi(r_ij^2)  with  Phi(s) = G * s**kappa.
    kappa = -1/2 is the Newtonian case; kappa must be negative (attractive).
    """

    def __init__(self, m, G=1.0, kappa=-0.5):
        m = np.asarray(m, dtype=float)
        if m.ndim != 1 or m.size < 2:
            raise ValidationError("need at least two masses")
        if not np.all(m > 0):
            raise ValidationError("masses must be positive")
        if not np.isfinite(m).all():
            raise ValidationError("masses must be finite")
        # written so that NaN fails them
        if not 0.0 < G < np.inf:
            raise ValidationError("G must be positive and finite")
        if not -np.inf < kappa < 0.0:
            raise ValidationError("kappa must be negative and finite (attractive potential)")
        self.m = _readonly(m)
        self.n = m.size
        self.M = float(m.sum())
        self.G = float(G)
        self.kappa = float(kappa)
        self.pairs = np.triu_indices(self.n, 1)   # (i, j) index arrays, i < j
        self.pair_masses = _readonly(m[self.pairs[0]] * m[self.pairs[1]])
        # added to a squared-distance table: the diagonal never counts as a
        # collision and Phi'(inf) = 0 leaves it out of every pair sum
        self._inf_diagonal = _readonly(np.diag(np.full(self.n, np.inf)))

    @cached_property
    def D(self):
        """Pair incidence, n(n-1)/2 x n: row p is e_i - e_j, so x D^T holds the
        pair differences (built on first use: its size grows as n^3)."""
        i, j = self.pairs
        return _readonly(np.eye(self.n)[i] - np.eye(self.n)[j])

    def phi(self, s):
        """Pair potential profile Phi(s) = G s^kappa (s = squared distance)."""
        return self.G * np.power(s, self.kappa)

    def dphi(self, s):
        """Phi'(s) = G kappa s^(kappa-1); G kappa / (s sqrt s) when kappa = -1/2."""
        if self.kappa == -0.5:
            return self.G * self.kappa / (s * np.sqrt(s))
        return self.G * self.kappa * np.power(s, self.kappa - 1.0)

    def __repr__(self):
        return f"MassSystem(n={self.n}, G={self.G}, kappa={self.kappa})"


class Configuration:
    """Positions (or velocities) of n points in R^d, mass-centered.

    The constructor subtracts the mass-weighted centroid; the original
    offset is discarded.
    """

    def __init__(self, r, sys):
        r = np.atleast_2d(np.asarray(r, dtype=float))
        if r.ndim != 2:
            raise ValidationError("coordinates must be a d x n array")
        if r.shape[1] != sys.n:
            raise ValidationError(
                f"coordinate array has {r.shape[1]} columns, expected {sys.n}"
            )
        if not np.isfinite(r).all():
            raise ValidationError("coordinates must be finite")
        self._set(centred(r, sys))

    def _set(self, r):
        self.r = _readonly(r)
        self.d, self.n = self.r.shape

    def __repr__(self):
        return f"Configuration(d={self.d}, n={self.n})"


class State:
    """Positions and velocities in the center-of-mass frame."""

    def __init__(self, x, y):
        if (x.d, x.n) != (y.d, y.n):
            raise ValidationError("position/velocity shape mismatch")
        self.x = x
        self.y = y
        self.d = x.d
        self.n = x.n

    def __repr__(self):
        return f"State(d={self.d}, n={self.n})"


# +1 for the symmetric beta, gamma, delta; -1 for the antisymmetric rho
REDUCED_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])[:, None, None]


def reduced_tables(tables):
    """Double-centred representatives of (..., 4, n, n) stacked tables
    (beta, gamma, delta, rho): the first three made symmetric, rho
    antisymmetric (rebuilt from its strict upper triangle, so exactly),
    and every row and column summing to zero."""
    a = 0.5 * (tables + REDUCED_SIGNS * np.swapaxes(tables, -1, -2))
    a = a - a.mean(axis=-2, keepdims=True) - a.mean(axis=-1, keepdims=True) \
        + a.mean(axis=(-2, -1), keepdims=True)
    out = 0.5 * (a + np.swapaxes(a, -1, -2))
    upper = np.triu(a[..., 3, :, :], 1)
    out[..., 3, :, :] = upper - np.swapaxes(upper, -1, -2)
    return out


class RelativeState:
    """The rotation-and-translation-reduced state (beta, gamma, delta, rho).

    beta, gamma, delta symmetric, rho antisymmetric, all n x n and
    double-centered (they represent forms on the mean-zero hyperplane,
    stored in the representative annihilating the all-ones vector).
    """

    def __init__(self, beta, gamma, delta, rho):
        tables = [np.asarray(a, dtype=float) for a in (beta, gamma, delta, rho)]
        n = tables[0].shape[0]
        if any(a.shape != (n, n) for a in tables):
            raise ValidationError("the four tables must share one n x n shape")
        self._set(reduced_tables(np.array(tables)))

    def _set(self, tables):
        self.beta, self.gamma, self.delta, self.rho = (_readonly(a) for a in tables)
        self.n = self.beta.shape[0]

    @classmethod
    def from_state(cls, z):
        """Reduce an absolute state: the blocks of (z^T z) double-centered."""
        xr, yr = z.x.r, z.y.r
        beta = xr.T @ xr
        delta = yr.T @ yr
        xy = xr.T @ yr  # <r_i, v_j>
        gamma = 0.5 * (xy + xy.T)
        rho = 0.5 * (xy.T - xy)
        return cls(beta, gamma, delta, rho)

    def block_matrix(self):
        """The 2n x 2n table [[beta, gamma - rho], [gamma + rho, delta]]."""
        return np.block(
            [[self.beta, self.gamma - self.rho], [self.gamma + self.rho, self.delta]]
        )

    def check_positive(self, tol=1e-8):
        """True when the block table is positive semidefinite up to tol."""
        w = np.linalg.eigvalsh(self.block_matrix())
        scale = max(abs(w).max(), 1e-300)
        return w.min() >= -tol * scale

    def __repr__(self):
        return f"RelativeState(n={self.n})"


@dataclass
class Trajectory:
    """Samples of a motion at strictly increasing times.

    kind "absolute": `samples` has shape (q, 2, d, n), the mass-centred
    positions and velocities at each of the q times.  kind "reduced": shape
    (q, 4, n, n), the double-centred tables beta, gamma, delta (symmetric)
    and rho (antisymmetric).  The array is read-only; `states` gives its
    rows as State or RelativeState objects, built when it is read.
    """
    times: np.ndarray
    samples: np.ndarray
    kind: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or np.any(np.diff(t) <= 0):
            raise ValidationError("times must be strictly increasing")
        width = {"absolute": 2, "reduced": 4}.get(self.kind)
        samples = _readonly(self.samples)
        if width is None or samples.ndim != 4 or samples.shape[:2] != (t.size, width):
            raise ValidationError(f"{self.kind!r} samples of shape {samples.shape}")
        self.times, self.samples = t, samples

    @property
    def states(self):
        if self.kind == "reduced":
            return [_bare(RelativeState, row) for row in self.samples]
        return [State(_bare(Configuration, x), _bare(Configuration, y))
                for x, y in self.samples]


class Bivector:
    """Antisymmetric d x d table.

    Antisymmetry is exact: the input is antisymmetrized and rebuilt from its
    strict upper triangle.
    """

    def __init__(self, c):
        c = np.atleast_2d(np.asarray(c, dtype=float))
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValidationError("bivector table must be square")
        self.c = _readonly(exact_antisymmetric(c))
        self.d = c.shape[0]

    @classmethod
    def zero(cls, d):
        return cls(np.zeros((d, d)))

    def __repr__(self):
        return f"Bivector(d={self.d})"


# ---------------------------------------------------------------------------
# basic tables


def gram_form(x):
    """Gram table beta_ij = <r_i, r_j> of a mass-centered configuration."""
    return x.r.T @ x.r


def beta_to_distances(beta, tol=1e-9):
    """Squared mutual distances s_ij = beta_ii + beta_jj - 2 beta_ij.

    Raises NegativeSquaredDistance when some s_ij < -tol * scale (the table
    was not a valid Gram form); smaller negatives are clipped to zero.
    """
    beta = np.asarray(beta, dtype=float)
    diag = np.diag(beta)
    s = diag[:, None] + diag[None, :] - 2.0 * beta
    scale = max(abs(diag).max(), 1.0e-300)
    if s.min() < -tol * scale:
        raise NegativeSquaredDistance(
            f"min squared distance {s.min():.3e} below -{tol:.1e} * {scale:.3e}"
        )
    s = np.maximum(s, 0.0)
    np.fill_diagonal(s, 0.0)
    return s


def hyperplane_basis(sys):
    """Orthonormal basis V (n x (n-1)) of the hyperplane orthogonal to sqrt(m).

    With Q = M^{-1/2} V, x_hat = x M Q are coordinates of a mass-centred
    configuration x on the mean-zero hyperplane D* (x = x_hat Q^T), in which
    the mass metric is the euclidean one."""
    u, _, _ = np.linalg.svd(np.sqrt(sys.m)[:, None], full_matrices=True)
    return u[:, 1:]


def squared_distances(r):
    """Squared mutual distances s_ij = |r_i - r_j|^2 of (..., d, n) coordinates."""
    diff = r[..., :, None] - r[..., None, :]
    return np.einsum("...cij,...cij->...ij", diff, diff)


def closest_distance(s, sys):
    """Smallest mutual distance of (..., n, n) squared distances."""
    return float(np.sqrt(s[..., sys.pairs[0], sys.pairs[1]].min()))


def inertia(x, sys):
    """Moment of inertia I and the two inertia tables.

    Returns (I, B, S): I the scalar moment about the center of mass,
    B = diag(m) @ beta the n x n intrinsic table (annihilates the mass
    vector), S the d x d inertia table sum_k m_k r_k r_k^T.  trace B =
    trace S = I.
    """
    beta = gram_form(x)
    B = sys.m[:, None] * beta
    S = (sys.m * x.r) @ x.r.T
    I = float(np.einsum("i,ci,ci->", sys.m, x.r, x.r))
    return I, B, S


def inertia_pairwise(x, sys):
    """I via (1/M) sum_{i<j} m_i m_j r_ij^2 (cross-check route)."""
    s = squared_distances(x.r)
    mm = np.outer(sys.m, sys.m)
    return float(np.triu(mm * s, 1).sum() / sys.M)


def characteristic_coefficients(x, sys):
    """Coefficients (eta_1, ..., eta_{n-1}) of det(Id - lambda B).

    det(Id - lambda B) = 1 - eta_1 lambda + ... + (-1)^(n-1) eta_{n-1}
    lambda^(n-1); eta_{k-1} equals (1/M) sum m_{i1}...m_{ik} vol^2 over
    k-point subsets (squared parallelotope volumes).
    """
    _, B, _ = inertia(x, sys)
    sqm = np.sqrt(sys.m)
    b_sym = (B / sqm[:, None]) * sqm[None, :]  # similar to B, symmetric
    lam = np.linalg.eigvalsh(b_sym)
    return elementary_symmetric(lam, x.n - 1)


def elementary_symmetric(values, kmax):
    """First kmax elementary symmetric functions of `values`."""
    e = np.zeros(kmax + 1)
    e[0] = 1.0
    for v in values:
        e[1 : kmax + 1] = e[1 : kmax + 1] + v * e[0:kmax]
    return tuple(float(c) for c in e[1:])


# ---------------------------------------------------------------------------
# interaction matrix and potential


def _check_floor(smin, collision_floor):
    if smin < collision_floor**2:
        rmin = float(np.sqrt(max(smin, 0.0)))
        raise CollisionError(f"minimal distance {rmin:.3e} below collision floor")


def pair_coefficients(s, sys, collision_floor=COLLISION_FLOOR):
    """c_p = m_i m_j Phi'(s_p) of squared distances s on the pair list
    sys.pairs; raises CollisionError below the collision floor.

    With the incidence D = sys.D, A M = D^T diag(c) D: the accelerations are
    2 (x D^T * c) D / m, and the interaction form on x_hat coordinates is
    W^T diag(c) W with W = D Q.
    """
    _check_floor(s.min(), collision_floor)
    return sys.pair_masses * sys.dphi(s)


def pair_accelerations(r, sys, collision_floor=COLLISION_FLOOR):
    """Accelerations 2 x A = 2 (x D^T * c) D / m of (d, n) coordinates, summed
    over the pair list; raises CollisionError below the collision floor."""
    diff = r @ sys.D.T
    c = pair_coefficients((diff * diff).sum(axis=0), sys, collision_floor)
    return 2.0 * (diff * c) @ sys.D / sys.m


def interaction_matrix_from_s(s, sys, collision_floor=COLLISION_FLOOR):
    """The interaction table A from (..., n, n) squared distances.

    A_ij = -m_i Phi'(s_ij) off-diagonal, A_ii = sum_{l!=i} m_l Phi'(s_il);
    Newtonian entries are m_i / (2 r_ij^3).  A annihilates the mass vector
    and its columns sum to zero, so it maps mean-zero covectors to mean-zero
    covectors.  A M = D^T diag(c) D with the pair coefficients c of
    `pair_coefficients`, which the integrators use in place of the table.
    """
    s = s + sys._inf_diagonal
    _check_floor(s.min(), collision_floor)
    dphi = sys.dphi(s)
    A = -sys.m[:, None] * dphi
    np.einsum("...ii->...i", A)[...] = (dphi * sys.m).sum(axis=-1)
    return A


def potential_from_s(s, sys):
    """Force function U = sum_{i<j} m_i m_j Phi(s_ij) of (..., n, n) squared
    distances (no collision check)."""
    i, j = sys.pairs
    # contiguous rows: a stack of tables sums each row as a single table does
    s_pairs = np.ascontiguousarray(s[..., i, j])
    return (sys.m[i] * sys.m[j] * sys.phi(s_pairs)).sum(axis=-1)


def wintner_conley(x, sys, collision_floor=COLLISION_FLOOR):
    """Interaction matrix A of a configuration; Newton's equations read
    x_ddot = 2 x A."""
    return interaction_matrix_from_s(squared_distances(x.r), sys, collision_floor)


def checked_potential(s, sys, collision_floor=COLLISION_FLOOR):
    """potential_from_s, raising CollisionError when some mutual distance is
    below the collision floor."""
    if s[..., sys.pairs[0], sys.pairs[1]].min() < collision_floor**2:
        raise CollisionError("collision in potential evaluation")
    return potential_from_s(s, sys)


def potential(x, sys, collision_floor=COLLISION_FLOOR):
    return float(checked_potential(squared_distances(x.r), sys, collision_floor))


def potential_and_gradient(x, sys, collision_floor=COLLISION_FLOOR):
    """Force function U > 0 and its mass-metric gradient 2 x A (= accelerations)."""
    s = squared_distances(x.r)
    U = float(checked_potential(s, sys, collision_floor))
    return U, 2.0 * (x.r @ interaction_matrix_from_s(s, sys, collision_floor))


def mass_dot(u, v, m):
    """Mass-metric pairing of two d x n coordinate tables: sum_i m_i <u_i, v_i>."""
    return float(np.einsum("i,ci,ci->", m, u, v))


# ---------------------------------------------------------------------------
# angular momentum and hermitian structures


def angular_momentum_tables(x, y, sys):
    """Angular momentum tables c_ij = sum_k m_k (-x_ik y_jk + x_jk y_ik) of
    (..., d, n) positions x and velocities y, exactly antisymmetric."""
    xm = x * sys.m
    return exact_antisymmetric(y @ np.swapaxes(xm, -1, -2) - xm @ np.swapaxes(y, -1, -2))


def angular_momentum(z, sys):
    """Angular momentum bivector of a state."""
    return Bivector(angular_momentum_tables(z.x.r, z.y.r, sys))


def bivector_norm_and_frequencies(C, rtol=RANK_RTOL):
    """Norm |C| = sum of positive frequencies, and the frequency list.

    The spectrum of an antisymmetric table is {+-i w_1, ..., +-i w_p, 0...};
    singular values carry each w twice, so |C| is half their sum.
    """
    sv = np.linalg.svd(C.c, compute_uv=False)
    norm = float(sv.sum() / 2.0)
    if sv.size == 0 or sv[0] == 0.0:
        return 0.0, []
    cutoff = rtol * sv[0]
    omegas = []
    k = 0
    while k + 1 < sv.size and sv[k] > cutoff:
        omegas.append(float(0.5 * (sv[k] + sv[k + 1])))
        k += 2
    return norm, omegas


def hermitian_from_bivector(C, rtol=RANK_RTOL):
    """Hermitian structure induced by a bivector.

    Returns (J, F) with J the degenerate complex structure sqrt(-C^2)^+ C
    (orthogonal projection onto the fixed space F = Im C followed by the
    quarter-turn of each invariant plane), written in the orthonormal basis
    of the coordinates, and F an orthonormal basis of the fixed space
    (d x rank array).  A zero bivector yields J = 0 and an empty F.

    Computed as the rank-truncated polar factor u v^T of the singular value
    decomposition, which stays accurate when frequencies nearly coincide.
    """
    c = C.c
    u, sv, vt = np.linalg.svd(c)
    keep = sv > rtol * sv[0] if (sv.size and sv[0] > 0.0) else np.zeros_like(sv, dtype=bool)
    return exact_antisymmetric(u[:, keep] @ vt[keep]), u[:, keep]


def bivector_component(C, Omega):
    """Component (1/2) <C, Omega> = (1/2) trace(C Omega^T)."""
    return float(0.5 * np.sum(C.c * Omega.c))


def inertia_operator_apply(Omega, x, sys):
    """Image of an instantaneous rotation under the inertia operator.

    In an orthonormal basis this is S Omega + Omega S with S the d x d
    inertia table; it sends the rotation of a rigidly rotating state to its
    angular momentum.
    """
    _, _, S = inertia(x, sys)
    return Bivector(S @ Omega.c + Omega.c @ S)


def rotation_invariants(C, kmax=None):
    """Traces of the even iterates of the angular-momentum endomorphism.

    Returns [trace(C^2), trace(C^4), ...] (odd traces vanish); fixing these
    fixes the rotation invariants of C, i.e. the frequency multiset:
    trace(C^(2k)) = 2 sum_i (-omega_i^2)^k.
    """
    if kmax is None:
        kmax = C.d // 2
    c2 = C.c @ C.c
    out = []
    power = np.eye(C.d)
    for _ in range(max(kmax, 0)):
        power = power @ c2
        out.append(float(np.trace(power)))
    return out


def matrix_rank(a, rtol=RANK_RTOL):
    """Rank with threshold rtol * sigma_max."""
    sv = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rtol * sv[0]))
