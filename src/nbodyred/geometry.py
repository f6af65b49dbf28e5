"""Mass-metric linear algebra for n bodies in R^d.

Configurations are stored as d x n coordinate arrays with mass-weighted
centroid at the origin.  Relative (rotation-reduced) quantities are n x n
tables; the representation ambiguity of forms on the mean-zero hyperplane is
resolved by double-centering (rows and columns sum to zero exactly).
Angular momenta are exactly antisymmetric d x d arrays.

Pair quantities go through the pair list sys.pairs (P = n(n-1)/2 pairs i < j)
and its incidence sys.D only: (..., P) squared distances, Phi and Phi' once
per pair, forces as the scatter (x D^T * c) D (D^T (D x * c), node axis
last), and A = 1/2 D^T diag(c) D M^{-1} (2 A_hat = W^T diag(c) W on the
pair rows W = D Q of the mass frame x M Q) from the same c.  The per-system
constants live on MassSystem: the pair factor 2 m_i m_j G kappa (c_p =
pair_factor s_p^(kappa-1)), and, built on first use beside D, a contiguous
D^T and the acceleration scatter D M^{-1}.
One `pair_kernel` holds Phi' and the collision-floor check of every force and
table; it reads the floor, COLLISION_FLOOR, when it is built.
"""

from dataclasses import dataclass
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


class MassSystem:
    """Masses, gravitational constant and potential exponent.

    The pair potential is  m_i m_j * Phi(r_ij^2)  with  Phi(s) = G * s**kappa.
    kappa = -1/2 is the Newtonian case; kappa must be negative (attractive).
    """

    def __init__(self, m, G=1.0, kappa=-0.5):
        m = np.asarray(m, dtype=float)
        if m.ndim != 1 or m.size < 2:
            raise ValidationError("need at least two masses")
        if not np.isfinite(m).all():
            raise ValidationError("masses must be finite")
        if not np.all(m > 0):
            raise ValidationError("masses must be positive")
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
        with np.errstate(over="ignore"):
            self.pair_masses = _readonly(m[self.pairs[0]] * m[self.pairs[1]])
            self.pair_factor = _readonly(2.0 * self.pair_masses * (self.G * self.kappa))
        if not np.isfinite(self.pair_factor).all():
            raise ValidationError("masses, G and kappa overflow the pair factor 2 G kappa m_i m_j")
        if not min(self.pair_masses.min(), np.abs(self.pair_factor).min()) >= np.finfo(float).tiny:
            raise ValidationError("masses, G and kappa underflow m_i m_j or 2 G kappa m_i m_j")

    @cached_property
    def D(self):
        """Pair incidence, n(n-1)/2 x n: row p is e_i - e_j, so x D^T (or D x) holds
        the pair differences and f D scatters pair vectors f onto the bodies (D, DT and
        DMinv are built on first use: their sizes grow as n^3)."""
        i, j = self.pairs
        return _readonly(np.eye(self.n)[i] - np.eye(self.n)[j])

    @cached_property
    def DT(self):
        """D^T, contiguous (the product x D^T reads it row by row)."""
        return _readonly(self.D.T)

    @cached_property
    def DMinv(self):
        """D M^{-1}: the scatter of pair forces onto accelerations."""
        return _readonly(self.D / self.m)

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
    and every row and column summing to zero.  The steps of
    0.5 (t + s t^T), a - mean_rows - mean_cols + mean_all and 0.5 (a + a^T)
    run in that order, in place on one C-ordered working array, so the
    means are summed in one memory order whatever the stack's size;
    `tables` is not written."""
    a = np.multiply(np.swapaxes(tables, -1, -2), REDUCED_SIGNS, out=np.empty(np.shape(tables)))
    a += tables
    a *= 0.5
    rows, cols = a.mean(axis=-2, keepdims=True), a.mean(axis=-1, keepdims=True)
    total = a.mean(axis=(-2, -1), keepdims=True)
    a -= rows
    a -= cols
    a += total
    upper = np.triu(a[..., 3, :, :], 1)
    a += np.swapaxes(a, -1, -2)   # numpy buffers the overlapping operand
    a *= 0.5
    np.subtract(upper, np.swapaxes(upper, -1, -2), out=a[..., 3, :, :])
    return a


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
        xy = xr.T @ yr  # <r_i, v_j>: the constructor keeps its symmetric and antisymmetric parts
        return cls(xr.T @ xr, xy, yr.T @ yr, xy.T)

    def block_matrix(self):
        """The 2n x 2n table [[beta, gamma - rho], [gamma + rho, delta]]."""
        return np.block(
            [[self.beta, self.gamma - self.rho], [self.gamma + self.rho, self.delta]]
        )

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
    metadata: dict

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
    """Q = M^{-1/2} V (n x (n-1)), V an orthonormal basis of the hyperplane
    orthogonal to sqrt(m): x_hat = x M Q are coordinates of a mass-centred
    configuration x on the mean-zero hyperplane D* (x = x_hat Q^T), in which
    the mass metric is the euclidean one."""
    u, _, _ = np.linalg.svd(np.sqrt(sys.m)[:, None], full_matrices=True)
    return u[:, 1:] / np.sqrt(sys.m)[:, None]


def _rows_product(a, b):
    """a @ b for a (..., k) stack a: a stack goes through one product with its
    leading axes flattened (numpy's product matrix by matrix is several times
    slower); a single matrix skips the reshapes, which cost as much as it."""
    if a.ndim == 2:
        return a @ b
    return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + (-1,))


def squared_distances(r, sys):
    """Squared mutual distances s_p = |r_i - r_j|^2 over the pair list,
    (..., P), of (..., d, n) coordinates."""
    diff = _rows_product(r, sys.DT)
    return (diff * diff).sum(axis=-2)


def inertia(x, sys):
    """Moment of inertia I and the intrinsic inertia table.

    Returns (I, B): I the scalar moment about the center of mass and
    B = diag(m) @ beta the n x n intrinsic table, which annihilates the mass
    vector; trace B = I.
    """
    B = sys.m[:, None] * gram_form(x)
    return float(np.einsum("i,ci,ci->", sys.m, x.r, x.r)), B


# ---------------------------------------------------------------------------
# interaction matrix and potential


def check_collision_floor(s, floor2):
    """Raise CollisionError when some of the (..., P) squared distances s is
    below the squared floor floor2 (one value, or one per pair)."""
    if np.count_nonzero(s < floor2):
        rmin = float(np.sqrt(max(s.min(), 0.0)))
        raise CollisionError(f"minimal distance {rmin:.3e} below collision floor")


def pair_kernel(sys, floor=None):
    """(c, accelerations) of one system, with its constants, the kappa branch
    of Phi' and the collision floor (COLLISION_FLOOR, read when the kernel is
    built, unless given) bound once.  c(s, floor2) = 2 m_i m_j Phi'(s) of
    (..., P) squared distances raises CollisionError below floor2 (the squared
    floor, or one value per pair); accelerations(r, out) writes (r D^T * c) D
    M^{-1} of d x n coordinates r to out, as a right-hand side writes its
    stage row (dop853.solve_ivp), and returns their s.  The products are
    ndarray.dot calls: @ to the bit, and cheaper at few bodies."""
    floor = COLLISION_FLOOR if floor is None else floor
    DT, DMinv, factor, newton = sys.DT, sys.DMinv, sys.pair_factor, sys.kappa == -0.5
    power, squared_floor = sys.kappa - 1.0, np.full(factor.size, floor * floor)

    def c(s, floor2=squared_floor):
        if np.count_nonzero(s < floor2):
            check_collision_floor(s, floor2)   # raises
        return factor / (s * np.sqrt(s)) if newton else factor * np.power(s, power)

    def accelerations(r, out):
        diff = r.dot(DT)
        s = np.add.reduce(diff * diff, axis=0)
        (diff * c(s)).dot(DMinv, out=out)
        return s

    return c, accelerations


def pair_differences(x, sys):
    """Pair differences D x, (d, P, q), and squared distances, (P, q), of
    (d, n, q) coordinates, the node axis last: bit for bit those of
    squared_distances, as D's entries are 0 and +-1."""
    diff = sys.D @ x
    return diff, np.add.reduce(diff * diff, axis=0)   # sum() would add a Python layer


def pair_forces(x, sys, c):
    """Squared distances s and pair coefficients c(s), (P, q), and forces
    dU/dx = D^T (D x * c(s)), (d, n, q), of (d, n, q) coordinates, c a
    pair_kernel's (whose pair constants run along the last axis)."""
    diff, s = pair_differences(x, sys)
    cs = c(s.T).T
    return s, cs, sys.DT @ (diff * cs)


def potential_from_s(s, sys):
    """Force function U = sum_p m_i m_j Phi(s_p) of (..., P) squared
    distances on the pair list (no collision check)."""
    return (sys.pair_masses * (sys.G * np.power(s, sys.kappa))).sum(axis=-1)


def potential_and_gradient(x, sys):
    """Force function U > 0 and its mass-metric gradient 2 x A (= accelerations)."""
    s = pair_kernel(sys)[1](x.r, a := np.empty((x.d, x.n)))
    return float(potential_from_s(s, sys)), a


def interaction_matrix_from_s(s, sys, c):
    """The interaction table A = 1/2 D^T diag(c) D M^{-1} of (..., P) squared
    distances, c a pair_kernel's; Newton's equations read x_ddot = 2 x A.

    A_ij = -m_i Phi'(s_ij) = -c_p / (2 m_j) off the diagonal (Newtonian:
    m_i / (2 r_ij^3)), and A_ii = sum_{l!=i} m_l Phi'(s_il), so that every
    column sums to zero and A annihilates the mass vector.
    """
    return 0.5 * (sys.DT * c(s)[..., None, :]) @ sys.DMinv


def mass_dot(u, v, m):
    """Mass-metric pairing of two d x n coordinate tables: sum_i m_i <u_i, v_i>."""
    return float(np.einsum("i,ci,ci->", m, u, v))


def relative_scale(reference, natural):
    """|reference|, or the natural scale when |reference| <= 1e-9 natural, where
    it is rounding: what every drift and residual is measured against."""
    reference = abs(reference)
    return natural if reference <= 1e-9 * natural else reference


# ---------------------------------------------------------------------------
# angular momentum


def angular_momentum_tables(x, y, sys):
    """Angular momentum tables c_ij = sum_k m_k (-x_ik y_jk + x_jk y_ik) of
    (..., d, n) positions x and velocities y: P - P^T of the one product
    P = y (x M)^T, exactly antisymmetric since fl(a - b) = -fl(b - a)."""
    P = y @ np.swapaxes(x * sys.m, -1, -2)
    return P - np.swapaxes(P, -1, -2)
