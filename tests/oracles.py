"""The paper's identities as test oracles.

No command reaches these: each states an identity or a second route that
the tests hold the library to (characteristic coefficients of the inertia
table, the d x d inertia table, bivectors, their frequencies and induced
complex structures, the inertia operator, the complex Schwarz gaps, Saari's
velocity split, Dziobek's rank estimates, the mass-linear equations P_ijk
of balance) or a plain form of a library path (the reduced right-hand
side on tables, a loop by its cosine and sine tables, the loop of a flat
parameter vector, the pair forces, the shape distance and the four-body
events in the row layout, the action summed at the nodes, the reader of
loop.json, the antisymmetric part rebuilt from its upper triangle, the
symmetry class as the group average over the closure of its generators,
the interaction table of a configuration and its similarity transform, the
balanced search's cost on the n x n beta table, the quasi-Newton routine
with matmul products and numpy trial steps).
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nbodyred.action import SQUARE_PATTERN, TETRA_PATTERN, Loop, _local_minima_below
from nbodyred.configurations import _residuals
from nbodyred.dynamics import (
    SUNDMAN_EQUALITY_TOL,
    _GramTable,
    _invariants,
    _sundman,
    scalar_invariants,
)
from nbodyred.errors import (
    CollisionAtNode,
    CollisionError,
    DegenerateConfiguration,
    NumericalError,
    ValidationError,
)
from nbodyred.geometry import (
    RANK_RTOL,
    Configuration,
    RelativeState,
    _readonly,
    _rows_product,
    angular_momentum_tables,
    beta_to_distances,
    gram_form,
    inertia,
    interaction_matrix_from_s,
    mass_dot,
    pair_kernel,
    potential_from_s,
    squared_distances,
)
from nbodyred.motions import _simultaneous_eigh
from nbodyred.optimize import MAX_ITER, MEMORY, Search
from nbodyred.serialize import _floats, _mass_system, _number

STRUCTURE_TOL = 1e-10   # defect of a degenerate hermitian structure that still counts as one
EMBED_TOL = 1e-9        # negative Gram eigenvalue, relative to the largest, a distance table may have


class InvalidStructure(ValidationError):
    """A bivector does not define a (degenerate) hermitian structure."""


class NotEmbeddable(NumericalError):
    """Squared distances admit no euclidean realization."""


# ---------------------------------------------------------------------------
# inertia and bivectors


def exact_antisymmetric(c):
    """0.5 (c - c^T) of (..., k, k) tables, rebuilt from its upper triangle."""
    upper = np.triu(0.5 * (c - np.swapaxes(c, -1, -2)), 1)
    return upper - np.swapaxes(upper, -1, -2)


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


def inertia_table(x, sys):
    """The d x d inertia table S = sum_k m_k r_k r_k^T; trace S = I."""
    return (sys.m * x.r) @ x.r.T


def inertia_pairwise(x, sys):
    """I via (1/M) sum_{i<j} m_i m_j r_ij^2 (cross-check route)."""
    return float((sys.pair_masses * squared_distances(x.r, sys)).sum() / sys.M)


def characteristic_coefficients(x, sys):
    """Coefficients (eta_1, ..., eta_{n-1}) of det(Id - lambda B).

    det(Id - lambda B) = 1 - eta_1 lambda + ... + (-1)^(n-1) eta_{n-1}
    lambda^(n-1); eta_{k-1} equals (1/M) sum m_{i1}...m_{ik} vol^2 over
    k-point subsets (squared parallelotope volumes).
    """
    _, B = inertia(x, sys)
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


def check_positive(rel):
    """True when the block table of a RelativeState is positive semidefinite
    up to 1e-8 of its largest eigenvalue."""
    w = np.linalg.eigvalsh(rel.block_matrix())
    scale = max(abs(w).max(), 1e-300)
    return w.min() >= -1e-8 * scale


def angular_momentum(z, sys):
    """Angular momentum bivector of a state."""
    return Bivector(angular_momentum_tables(z.x.r, z.y.r, sys))


def bivector_norm_and_frequencies(C):
    """Norm |C| = sum of positive frequencies, and the frequency list.

    The spectrum of an antisymmetric table is {+-i w_1, ..., +-i w_p, 0...};
    singular values carry each w twice, so |C| is half their sum.
    """
    sv = np.linalg.svd(C.c, compute_uv=False)
    norm = float(sv.sum() / 2.0)
    if sv.size == 0 or sv[0] == 0.0:
        return 0.0, []
    cutoff = RANK_RTOL * sv[0]
    omegas = []
    k = 0
    while k + 1 < sv.size and sv[k] > cutoff:
        omegas.append(float(0.5 * (sv[k] + sv[k + 1])))
        k += 2
    return norm, omegas


def hermitian_from_bivector(C):
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
    keep = sv > RANK_RTOL * sv[0] if (sv.size and sv[0] > 0.0) else np.zeros_like(sv, dtype=bool)
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
    S = inertia_table(x, sys)
    return Bivector(S @ Omega.c + Omega.c @ S)


def rotation_invariants(C, kmax):
    """Traces of the even iterates of the angular-momentum endomorphism.

    Returns [trace(C^2), ..., trace(C^(2 kmax))] (odd traces vanish); the
    first d // 2 fix the rotation invariants of C, i.e. the frequency
    multiset: trace(C^(2k)) = 2 sum_i (-omega_i^2)^k.
    """
    c2 = C.c @ C.c
    out = []
    power = np.eye(C.d)
    for _ in range(max(kmax, 0)):
        power = power @ c2
        out.append(float(np.trace(power)))
    return out


def matrix_rank(a):
    """Rank with threshold RANK_RTOL * sigma_max."""
    sv = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > RANK_RTOL * sv[0]))


# ---------------------------------------------------------------------------
# dynamics


def reduced_rhs(tables, sys):
    """Right-hand side of the reduced system on the stacked (4, n, n) tables
    (beta, gamma, delta, rho), returned as double-centred tables.

    The packed flow G_dot = L^T G + G L of nbodyred.dynamics, read from
    and written to tables; on D* it is
    beta_dot = 2 gamma, gamma_dot = A^T beta + beta A + delta,
    delta_dot = 2 (A^T gamma + gamma A) - 2 (A^T rho - rho A),
    rho_dot = A^T beta - beta A.
    """
    gram = _GramTable(sys)
    return gram.unpack(gram.rhs()(0.0, gram.pack(RelativeState(*tables))))


def sundman_gap(z, sys):
    """I K - J^2 - |C|^2 (nonnegative; zero exactly for complex-homothetic states)."""
    return float(_sundman(*_invariants(z.x.r, z.y.r, sys))[0])


def sundman_function(z, sys):
    """Sundman's function I^{-1/2}(J^2 + |C|^2) - 2 I^{1/2} H."""
    return float(_sundman(*_invariants(z.x.r, z.y.r, sys))[1])


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


# ---------------------------------------------------------------------------
# mass-linear determinant equations of balance


@dataclass
class BalancedResiduals:
    P: dict              # (i, j, k) -> P_ijk, i < j < k
    nabla: dict          # (i, j, k) -> nabla_ijk
    Y: dict              # (i, j, k, l) -> Y^l_ijk
    p_matrix: np.ndarray
    identity_residual: float
    commutator_residual: float


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


def _y_det(s, du, m, i, j, k, l):
    return np.linalg.det(np.array([
        [1.0, 1.0, 1.0],
        [s[j, k] + s[i, l], s[k, i] + s[j, l], s[i, j] + s[k, l]],
        [du[i, l] / m[i], du[j, l] / m[j], du[k, l] / m[k]],
    ]))


def balanced_residuals_pijk(s, sys):
    """Evaluate the balance equations P_ijk = 0 from the n x n table s of
    squared distances (its symmetric part is used).

    P_ijk comes from the antisymmetric part of beta A; it decomposes as
    -1/2 nabla_ijk + 1/2 sum_l Y^l_ijk, the first column of Y^l_ijk being
    dU/ds_il / m_i (the published determinant lacks the 1/m_i and misses
    the identity); identity_residual is its largest defect.  The distances
    are embedded to cross-check against the commutator criterion; raises
    NotEmbeddable when the reconstructed Gram table has an eigenvalue below
    -EMBED_TOL of the largest.
    """
    n = sys.n
    s = np.asarray(s, dtype=float)
    if s.shape != (n, n):
        raise ValidationError(f"expected an {n} x {n} distance-squared table")
    s = 0.5 * (s + s.T)
    if np.any(s[~np.eye(n, dtype=bool)] <= 0.0):
        raise ValidationError("off-diagonal squared distances must be positive")

    # dU/ds off the diagonal
    du = -interaction_matrix_from_s(s[sys.pairs], sys, pair_kernel(sys, 0.0)[0]) * sys.m
    P = p_matrix(s, du, sys.m)
    W = P - P.T

    p_ijk, nabla, Y = {}, {}, {}
    err = 0.0
    for (i, j, k) in itertools.combinations(range(n), 3):
        val = W[i, j] + W[j, k] + W[k, i]
        p_ijk[(i, j, k)] = float(val)
        nabla[(i, j, k)] = _nabla_det(s, du, sys.m, i, j, k)
        rec = -0.5 * nabla[(i, j, k)]
        for l in [l for l in range(n) if l not in (i, j, k)]:
            Y[(i, j, k, l)] = _y_det(s, du, sys.m, i, j, k, l)
            rec += 0.5 * Y[(i, j, k, l)]
        err = max(err, abs(rec - val))

    # euclidean cross-check through an embedding of s
    ones = np.ones((n, n)) / n
    centered = -0.5 * (np.eye(n) - ones) @ s @ (np.eye(n) - ones)
    w, V = np.linalg.eigh(centered)
    if w.min() < -EMBED_TOL * max(w.max(), 1e-300):
        raise NotEmbeddable(f"Gram eigenvalue {w.min():.3e} below -{EMBED_TOL:.1e}")
    keep = w > EMBED_TOL * max(w.max(), 1e-300)
    x = Configuration((V[:, keep] * np.sqrt(np.maximum(w[keep], 0.0))).T, sys)
    _, comm, _ = _residuals(x, sys)

    return BalancedResiduals(p_ijk, nabla, Y, P, err, comm)


# ---------------------------------------------------------------------------
# the interaction table and the balanced search on the n x n beta table


def wintner_conley(x, sys):
    """Interaction matrix A of a configuration; Newton's equations read
    x_ddot = 2 x A."""
    return interaction_matrix_from_s(squared_distances(x.r, sys), sys, pair_kernel(sys)[0])


def _beta_from_rotation(Q, W, spec_full, sqm):
    b_sym = (W @ Q * spec_full) @ (W @ Q).T
    return b_sym / np.outer(sqm, sqm)


def _orbit_cost_grad(Q, W, spec_full, sqm, sys):
    """U on the fixed-spectrum orbit and its gradient in the rotation
    generators E_ab - E_ba (exact at the base point Q)."""
    beta = _beta_from_rotation(Q, W, spec_full, sqm)
    s = beta_to_distances(beta)[sys.pairs]
    if s.min() <= 0.0:
        return np.inf, None
    U = float(potential_from_s(s, sys))
    # dU = <X, dbeta>; the distances are positive, so no collision floor
    X = interaction_matrix_from_s(s, sys, pair_kernel(sys, 0.0)[0]) * sys.m
    WQ = W @ Q
    Y = WQ.T @ ((X / np.outer(sqm, sqm)) @ WQ)
    M = Y * spec_full[None, :] - spec_full[:, None] * Y  # Y L - L Y
    return U, 2.0 * M[np.triu_indices(Q.shape[0], 1)]


def orthonormal_hyperplane_basis(sys):
    """V (n x (n-1)), the orthonormal basis of the hyperplane orthogonal to
    sqrt(m) that hyperplane_basis divides by sqrt(m)."""
    return np.linalg.svd(np.sqrt(sys.m)[:, None], full_matrices=True)[0][:, 1:]


def similarity_interaction_table(x, sys):
    """M^{-1/2} A M^{1/2} by the similarity transform of A, symmetrized."""
    sqm = np.sqrt(sys.m)
    a_sym = (wintner_conley(x, sys) / sqm[:, None]) * sqm[None, :]
    return 0.5 * (a_sym + a_sym.T)


def relative_equilibrium_by_similarity(x0, sys):
    """(frequencies, embedded x0 rows) of the relative equilibrium of a
    balanced x0 from the similarity-transformed interaction table."""
    sqm = np.sqrt(sys.m)
    b_sym = gram_form(x0) * np.outer(sqm, sqm)
    wb, wa, V = _simultaneous_eigh(b_sym, similarity_interaction_table(x0, sys))
    keep = wb > 1e-12 * wb.max()
    b, a, modes = wb[keep], wa[keep], V[:, keep]
    omega = np.sqrt(-2.0 * a)
    order = np.argsort(-omega)
    b, omega, modes = b[order], omega[order], modes[:, order]
    x0_emb = np.zeros((2 * b.size, sys.n))
    x0_emb[0::2] = np.sqrt(b)[:, None] * (modes / sqm[:, None]).T
    return omega, x0_emb


# ---------------------------------------------------------------------------
# closed-form motions and loops


def kepler_radius_true_anomaly(orbit, v):
    """r = c^2 / (k (1 + e cos v)) from the true anomaly, with the angular
    momentum c of the energy relation k^2 - c^2/a = k^2 e^2."""
    return orbit.k * orbit.a * (1.0 - orbit.e**2) / (1.0 + orbit.e * np.cos(v))


def circular_two_body_loop(T, sys, n_modes):
    """The circular solution of two bodies with one revolution per period."""
    if sys.n != 2:
        raise ValidationError("two bodies required")
    w = 2.0 * np.pi / T
    rho = (sys.G * sys.M / w**2) ** (1.0 / 3.0)  # separation
    if n_modes < 1:
        raise ValidationError(f"n_modes = {n_modes}: a seed loop needs n_modes >= 1")
    a, b = np.zeros((2, 2, n_modes + 1)), np.zeros((2, 2, n_modes + 1))
    r1 = rho * sys.m[1] / sys.M
    r2 = -rho * sys.m[0] / sys.M
    for i, r in enumerate((r1, r2)):
        a[0, i, 1] = r
        b[1, i, 1] = r
    return Loop(T, a, b, sys)


def _trig(n_modes, T, ts):
    """The cosine and sine tables (q, K + 1) of the modes at the times ts."""
    k = np.arange(n_modes + 1)
    phase = np.outer(ts, k) * (2.0 * np.pi / T)
    return np.cos(phase), np.sin(phase)


def with_params(loop, p):
    """The loop of the flat parameter vector p, laid out as loop.params()."""
    half = loop.cos_modes.size
    shape = loop.cos_modes.shape
    return Loop(loop.T, p[:half].reshape(shape), p[half:].reshape(shape), loop.sys)


def pair_forces(r, sys, c):
    """Squared distances s, (..., P), and forces dU/dx = (x D^T * c(s)) D,
    (..., d, n), of (..., d, n) coordinates, c a pair_kernel's: the earlier
    row layout of geometry.pair_forces, kept verbatim."""
    diff = _rows_product(r, sys.DT)
    s = np.add.reduce(diff * diff, axis=-2)   # sum() would add a Python layer
    return s, _rows_product(diff * c(s)[..., None, :], sys.D)


# The action's node pass before its node axis stayed last, kept verbatim:
# the order-1 inverse FFT in the (q, d, n) layout of Loop.at_nodes, the
# kinetic term summed at the nodes, U by potential_from_s and the rfft of
# the forces and momenta.


def node_sum_action(loop, n_quad, c, order=1):
    """Path derivatives up to order at n_quad equispaced nodes, (order + 1,
    q, d, n), their (q, P) squared distances, the (q, d, n) forces dU/dx and
    the action, c a pair_kernel's; raises CollisionAtNode below its floor."""
    sys = loop.sys
    xv = loop.at_nodes(n_quad, order)
    try:
        s, f = pair_forces(xv[0], sys, c)
    except CollisionError as exc:
        raise CollisionAtNode(f"{exc} at a quadrature node") from None
    K = np.einsum("i,qci,qci->q", sys.m, xv[1], xv[1])
    S = float(loop.T / n_quad * (0.5 * K + potential_from_s(s, sys)).sum())
    return xv, s, f, S


def node_sum_action_value_and_gradient(loop, n_quad=None, collision_floor=None):
    """Action  integral of (K/2 + U)  and its coefficient gradient.

    Rectangle rule on n_quad > 2 K equispaced nodes (default max(256, 8 K));
    raises CollisionAtNode below the collision floor.  The gradient is the
    exact derivative of the quadrature, ordered like Loop.params().
    """
    sys = loop.sys
    if n_quad is None:
        n_quad = max(256, 8 * loop.n_modes)
    (_, v), _, fx, S = node_sum_action(loop, n_quad, pair_kernel(sys, collision_floor)[0])

    # with F_x and Mv the rffts of the node forces dU/dx and momenta, the cosine
    # and sine gradients are Re G and -Im G of G = (T/q)(F_x - i k w Mv): the
    # parts of its conjugate, which keeps the signs of zeros of the real sums
    F = np.fft.rfft(np.stack([fx, sys.m * v]), axis=1)[:, :loop.n_modes + 1].conj()
    fx_bar, mv_bar = np.moveaxis(F, 1, -1)   # (d, n, K + 1) each
    G_bar = 1j * np.arange(loop.n_modes + 1) * (2.0 * np.pi / loop.T) * mv_bar + fx_bar
    return S, loop.T / n_quad * np.concatenate([G_bar.real.ravel(), G_bar.imag.ravel()])


# verify_loop's four-body scan before its pair axis led, kept verbatim: the
# shape distance of (..., P) squared distances by np.sort and the events of
# a (q, 6) scan.


def shape_distance_rows(s, pattern):
    """Distance of the sorted normalized mutual-distance vector to a pattern,
    for (..., P) squared distances on the pair list.  Patterns broadcast like
    (..., P) arrays, so one sort serves a stack of them."""
    dists = np.sort(np.sqrt(s), axis=-1)
    dists = dists / np.linalg.norm(dists, axis=-1, keepdims=True)
    unit = pattern / np.linalg.norm(pattern, axis=-1, keepdims=True)
    return np.linalg.norm(dists - unit, axis=-1)


def square_tetra_events_rows(ts, s, tol):
    """Alternating square/tetrahedron passages of a 4-body loop, scanned at
    the equispaced times ts with squared distances s, (q, 6).

    Square events are the local minima of the square shape distance below
    tol.  The oscillation visits the tetrahedral shape between consecutive
    square passages (a visit may cross the exactly-regular shape more than
    once); each visit is reported once, at its closest approach, provided
    that approach is below tol.  Mirror-image approaches tie to rounding, so
    the closest approach is the earliest node of the window within 1e-9
    relative of the window's minimum.
    """
    n_scan = ts.size
    d_sq, d_te = shape_distance_rows(s, np.stack([SQUARE_PATTERN, TETRA_PATTERN])[:, None])
    sq_idx = _local_minima_below(d_sq, tol)
    squares = [float(ts[q]) for q in sq_idx]
    tetras = []
    if len(sq_idx) >= 2:
        bounds = sq_idx + [sq_idx[0] + n_scan]
        for a, b in zip(bounds[:-1], bounds[1:]):
            window = np.arange(a + 1, b) % n_scan
            if window.size == 0:
                continue
            d_win = d_te[window]
            q_best = window[np.argmax(d_win <= d_win.min() * (1.0 + 1e-9))]
            if d_te[q_best] < tol:
                tetras.append(float(ts[q_best]))
    else:
        tetras = [float(ts[q]) for q in _local_minima_below(d_te, tol)]
    return squares, tetras


# verify_loop's four-body scan before it went one coordinate at a time, kept
# verbatim: Loop.at_nodes(n_scan, 0) by the unhalved spectrum halved in
# place, then the (d, P, q) pair differences of the whole (d, n, q) inverse
# FFT, squared in place and summed over the leading axis.


def whole_stack_scan(loop, n_scan):
    """Squared distances (P, q) of a loop at n_scan equispaced nodes."""
    factors = (1j * np.arange(loop.n_modes + 1) * (2.0 * np.pi / loop.T)) ** np.arange(1)[:, None, None, None]
    derivs = (loop.cos_modes - 1j * loop.sin_modes) * factors
    derivs[..., 1:] *= 0.5   # irfft doubles every mode above the constant one
    x = np.fft.irfft(derivs, n_scan, norm="forward").transpose(0, 3, 1, 2)[0]   # (q, d, n)
    diff = loop.sys.D @ x.transpose(1, 2, 0)   # (d, P, q)
    return np.add.reduce(np.multiply(diff, diff, out=diff), axis=0)


def loop_from_dict(data):
    """Loop of a serialize.loop_to_dict mapping; a wrong JSON type is a
    ValidationError naming the field."""
    return Loop(_number(data, "period"), _floats(data, "cos_modes"),
                _floats(data, "sin_modes"), _mass_system(data))


# ---------------------------------------------------------------------------
# symmetry classes by group closure
#
# The library defines a class as the common fixed space of its generators.
# This is the earlier route, kept verbatim: close the generators into the
# group (elements told apart by matrix entries rounded to 9 digits), then
# average over the elements.


MAX_GROUP_ORDER = 64   # a generator set whose closure grows past this does not close


@dataclass(frozen=True, eq=False)
class _Element:
    perm: tuple          # body i of the source appears as body perm[i]
    matrix: np.ndarray   # orthogonal d x d map (full precision), read-only
    shift: Fraction      # time shift as a fraction of T, in [0, 1)

    def __post_init__(self):
        self.matrix.flags.writeable = False

    def key(self):
        return (self.perm, _mat_key(self.matrix), self.shift)


def _close(gens, n, d):
    ident = _Element(tuple(range(n)), np.eye(d), Fraction(0))
    seen = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = _compose(a, g)
                if (key := c.key()) not in seen:
                    seen[key] = c
                    nxt.append(c)
        frontier = nxt
        if len(seen) > MAX_GROUP_ORDER:
            raise ValidationError("group does not close; check the generators")
    return [seen[k] for k in sorted(seen, key=lambda k: (k[2], k[0], k[1]))]


def _mat_key(Q):
    # entries of distinct elements differ by O(1); 9 digits survive the float
    # drift of repeated composition; the flat tuple sorts as the rows would
    return tuple(np.round(Q, 9).ravel().tolist())


def _compose(a, b):
    """Element whose loop operator is rho(a) rho(b)."""
    perm = tuple(b.perm[a.perm[i]] for i in range(len(a.perm)))
    return _Element(perm, b.matrix @ a.matrix, (a.shift + b.shift) % 1)


def group_elements(sym):
    """The elements of a SymmetryAction's group, closed from its generators
    and sorted by (shift, perm, rounded map)."""
    return _close([_Element(perm, Q, shift) for perm, Q, shift in sym.generators], sym.n, sym.d)


def _group_average(cos_modes, sin_modes, elements, k):
    """Group average of (..., d, n, len(k)) coefficients of the modes k.

    Each element maps the coefficients to those of  t -> Q^T x(t + shift T)
    P_perm  (fixed points = invariance); its shift p/q turns mode k by the
    angle 2 pi (p k mod q) / q, taken on the exact residue.
    """
    acc_a = np.zeros_like(cos_modes)
    acc_b = np.zeros_like(sin_modes)
    for el in elements:
        p, q = el.shift.numerator, el.shift.denominator
        ang = 2.0 * np.pi * ((p * k) % q) / q
        ck, sk = np.cos(ang), np.sin(ang)
        QT, perm = el.matrix.T, list(el.perm)
        acc_a += np.einsum("dc,...cik->...dik", QT, cos_modes * ck + sin_modes * sk)[..., perm, :]
        acc_b += np.einsum("dc,...cik->...dik", QT, sin_modes * ck - cos_modes * sk)[..., perm, :]
    return acc_a / len(elements), acc_b / len(elements)


def group_average_loop(loop, sym):
    """The group average of a loop over the closed group."""
    sym.check_masses(loop.sys)
    a, b = _group_average(loop.cos_modes, loop.sin_modes, group_elements(sym),
                          np.arange(loop.n_modes + 1))
    return Loop(loop.T, a, b, loop.sys)


def closure_mode_basis(sym, sys, k):
    """Orthonormal basis of the invariant, centroid-free coefficients of
    mode k: the range of the group average of the unit vectors."""
    dn = sym.d * sym.n
    e = np.eye(2 * dn).reshape(2 * dn, 2, sym.d, sym.n, 1)
    e[:, 1] *= k > 0   # no constant sine mode
    e -= (e * sys.m[:, None]).sum(axis=-2, keepdims=True) / sys.M
    a, b = _group_average(e[:, 0], e[:, 1], group_elements(sym), np.array([k]))
    u, sv, _ = np.linalg.svd(np.stack([a, b], axis=1).reshape(2 * dn, 2 * dn).T)
    return u[:, sv > 0.5]


def closure_invariant_basis(sym, sys, n_modes):
    """The blocks of invariant_basis, each built from the closed group."""
    L = sym.L
    return [(np.arange(r, n_modes + 1, L) if r else np.array([0]), closure_mode_basis(sym, sys, r))
            for r in range(min(L, n_modes) + 1)]


# ---------------------------------------------------------------------------
# the shared quasi-Newton routine with matmul products and numpy steps: the
# earlier optimize.quasi_newton, verbatim


def quasi_newton(fun, x, f, g, gtol, rtol=0.0, step=None, metric=None):
    """Minimize fun, fun(x) = (f, 1-D gradient g), from x where fun is (f, g).

    L-BFGS over the last MEMORY pairs (s, y) with s.y > 1e-12 |s| |y|; the
    initial inverse Hessian is 1 / metric (default 1) scaled by s.y / y.(y /
    metric), or by 1 / max(|g|, 1) while no pair is stored, and a direction
    p that does not descend is replaced by -g, dropping the pairs.  The
    trial point step(x, p, t) (default x + t p) is tried at t = 1, 1/2, ...
    (40 times) and taken at the first t where f and g are finite and either
    f_new <= f + 1e-4 t p.g (Armijo) or f_new <= f + 4e-16 |f| and |g_new|
    < |g| (f flat to rounding).  When no t passes along a direction built
    from stored pairs, the pairs are dropped and the search is made once
    more along the first-step direction, -g scaled as above; a search
    without pairs that fails ends the run "stalled".  Stops at |g| <= gtol
    + rtol |f|.
    """
    step = step or (lambda x, p, t: x + t * p)
    w2 = 1.0 if metric is None else metric
    hist, nfev = [], 0   # correction pairs (s, y, s.y), oldest first; calls of fun
    for nit in range(MAX_ITER):
        gnorm = math.sqrt(g.dot(g))   # np.linalg.norm's own product form
        if gnorm <= gtol + rtol * abs(f):
            return Search(x, f, float(gnorm), nit, nfev, "converged")

        while True:   # once more, without the pairs, if their direction stalls
            q, alphas = g.copy(), []
            for s_k, y_k, sy_k in reversed(hist):
                a_k = (s_k @ q) / sy_k
                q -= a_k * y_k
                alphas.append(a_k)
            if hist:
                _, y_k, sy_k = hist[-1]
                q *= sy_k / (y_k @ (y_k / w2)) / w2
            else:
                q *= 1.0 / (w2 * max(gnorm, 1.0))
            for (s_k, y_k, sy_k), a_k in zip(hist, reversed(alphas)):
                b_k = (y_k @ q) / sy_k
                q += (a_k - b_k) * s_k
            direction = -q
            if direction @ g >= 0:
                direction, hist = -g, []
            slope = direction @ g

            for t in 0.5 ** np.arange(40):
                x_new = step(x, direction, t)
                f_new, g_new = fun(x_new)
                nfev += 1
                if np.isfinite(f_new) and np.isfinite(g_new).all() and (
                        f_new <= f + 1e-4 * t * slope
                        or (f_new <= f + 4e-16 * abs(f) and math.sqrt(g_new.dot(g_new)) < gnorm)):
                    break
            else:
                if hist:
                    hist = []
                    continue
                return Search(x, f, float(gnorm), nit, nfev, "stalled")
            break

        s_k, y_k = t * direction, g_new - g
        sy_k = s_k @ y_k
        if sy_k > 1e-12 * math.sqrt(s_k.dot(s_k)) * math.sqrt(y_k.dot(y_k)):
            hist = hist[-(MEMORY - 1):] + [(s_k, y_k, sy_k)]
        x, f, g = x_new, f_new, g_new

    return Search(x, f, math.sqrt(g.dot(g)), MAX_ITER, nfev, "budget")
