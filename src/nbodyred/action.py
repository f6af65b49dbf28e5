"""Variational construction of symmetric periodic orbits.

T-periodic paths of configurations are trigonometric polynomials with the
modes k = 0..K (K = n_modes); the Lagrangian action  integral of
(sum m_i |x_i'|^2 / 2 + U)  is evaluated by the rectangle rule on
n_quad > 2K equispaced nodes (spectrally accurate for smooth loops) with an
analytic gradient in the Fourier coefficients.  Every evaluation reads one
complex spectrum c_k (i k w)^j, c_k = a_k - i b_k (Loop._spectrum).  At the
nodes, of the minimizer and of verify_loop alike, one inverse real FFT gives
positions, node axis last up to the one real FFT of the gradient's force
sums; with n_quad > 2K no mode aliases, so these are the rectangle-rule
sums, the kinetic part is Parseval's sum over the modes and
U = sum_p c_p s_p / (2 kappa) takes the pair kernel's c_p = 2 m_i m_j Phi'.
verify_loop takes the accelerations by one more inverse FFT; its 2048-node
scan serves only the four-body events and is built one coordinate at a
time, so its temporaries hold one coordinate's nodes and pairs; its
planarity, too, is Parseval's sum over the modes.  Arbitrary times sum the
spectrum against one table of e^{i k w t}.

Symmetry classes (the antipodal "italian" constraint, the square/
tetrahedron oscillation class of four bodies, a triangle-plus-axis variant)
are linear subspaces of coefficient space; minimization runs in an
orthonormal basis of the class, so constraints hold to machine precision
rather than by penalty.  A class is the common fixed space of its
generators; no other group element is formed.  A generator with time shift
p/q T rotates the cosine/sine pair of mode k by the angle 2 pi (p k mod q) / q,
so the group acts on mode k only through k mod L, L the lcm of the shift
denominators.  The basis is therefore one 2dn x m block for the constant
mode and one per residue class, whatever K is, and the minimizer maps its
coordinates to coefficients by one matrix product per class.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CollisionApproach,
    CollisionAtNode,
    CollisionError,
    NoConvergence,
    ValidationError,
    log_info,
)
from .geometry import (
    Trajectory,
    _readonly,
    centred,
    pair_differences,
    pair_forces,
    pair_kernel,
    relative_scale,
)
from .optimize import quasi_newton


class Loop:
    """T-periodic path of configurations as real Fourier coefficients.

    One (2, d, n, n_modes + 1) copy ab holds the views cos_modes, sin_modes;
    x_ci(t) = sum_k cos_modes[c,i,k] cos(k w t) + sin_modes[c,i,k] sin(k w t)
    with w = 2 pi / T: Re sum_k c_k e^{i k w t}, c_k = a_k - i b_k, read at
    the nodes by one inverse FFT and at arbitrary times by one exponential
    table (_spectrum).  Loop() checks its input; _set then zeroes the constant
    sine coefficient and removes the mass-weighted centroid mode by mode.
    """

    def __init__(self, T, cos_modes, sin_modes, sys):
        cos_modes = np.asarray(cos_modes, dtype=float)
        sin_modes = np.asarray(sin_modes, dtype=float)
        if cos_modes.shape != sin_modes.shape or cos_modes.ndim != 3 or not cos_modes.shape[2]:
            raise ValidationError("coefficient arrays must share shape (d, n, K+1), K >= 0")
        if cos_modes.shape[1] != sys.n:
            raise ValidationError("coefficient arrays do not match the mass system")
        ab = np.array((cos_modes, sin_modes))
        if not (0.0 < T < np.inf and np.isfinite(ab).all()):
            raise ValidationError("period and coefficients must be finite, the period positive")
        self._set(T, ab, sys)

    def _set(self, T, ab, sys):
        """Take ab, (2, d, n, K + 1), unchecked: zero its constant sine mode, remove its centroid."""
        ab[1, :, :, 0] = 0.0
        ab -= (ab * sys.m[:, None]).sum(axis=2, keepdims=True) / sys.M
        self.T = float(T)
        self.cos_modes, self.sin_modes = self.ab = ab
        self.sys = sys
        self.d, self.n, self.n_modes = ab.shape[1], ab.shape[2], ab.shape[3] - 1
        return self

    # -- evaluation ---------------------------------------------------------

    def _spectrum(self, rows, halved=False):
        """c_k (i k w)^j for the orders j that rows picks (an order: (d, n,
        K + 1); a slice: (j, d, n, K + 1)): the j-th derivative of the path is
        Re sum_k of row j times e^{i k w t}; halved, modes k >= 1 are halved,
        as the inverse real FFT reads them."""
        factors = _mode_factors(self.T, self.sys, self.n_modes)[1 if halved else 0]
        return (self.cos_modes - 1j * self.sin_modes) * factors[rows]

    def at_times(self, ts):
        """Positions and velocities at the times ts, (2, q, d, n), from one table
        of e^{i k w t}, its phases taken mod one turn (t = T reads as t = 0)."""
        turns = np.outer(np.arange(self.n_modes + 1), np.asarray(ts) / self.T) % 1.0
        return np.moveaxis((self._spectrum(slice(2)) @ np.exp(2j * np.pi * turns)).real, -1, 1)

    def at_nodes(self, n_quad, order=1):
        """The path and its time derivatives up to order at the n_quad
        equispaced nodes, (order + 1, q, d, n), by one inverse real FFT.

        Equal to at_times(loop.nodes(n_quad)) up to rounding;
        n_quad must exceed 2 K, or the top modes would alias.
        """
        K = self.n_modes
        if n_quad <= 2 * K:
            raise ValidationError(f"n_quad = {n_quad} must exceed 2 K = {2 * K}")
        derivs = self._spectrum(slice(order + 1), halved=True)
        return np.fft.irfft(derivs, n_quad, norm="forward").transpose(0, 3, 1, 2)

    def sample(self, ts):
        """The loop at the times ts, as an absolute Trajectory."""
        samples = np.stack(self.at_times(ts), axis=1)
        return Trajectory(ts, centred(samples, self.sys), "absolute",
                          {"integrator": "spectral", "tol": 0.0})

    def state(self, t):
        return self.sample([t]).states[0]

    def nodes(self, n_quad):
        return self.T * np.arange(n_quad) / n_quad

    # -- flat parameter vector ---------------------------------------------

    def params(self):
        return self.ab.flatten()

    def __repr__(self):
        return f"Loop(T={self.T}, n={self.n}, d={self.d}, n_modes={self.n_modes})"


# ---------------------------------------------------------------------------
# symmetry actions


class SymmetryAction:
    """Group acting on loops, generated by (permutation, orthogonal map, shift).

    A loop is invariant under the generator (perm, Q, s) when
    x_perm(i)(t + s T) = Q x_i(t) for all bodies and times; the symmetry
    class is the common fixed space of the generators, so no other group
    element is formed and the group need not be finite.  The group is
    immutable (generators is a tuple of (perm, Q, shift) with read-only
    maps Q and shifts in [0, 1)) and carries its own cache of invariant
    blocks per masses and residue, built on first use.
    """

    def __init__(self, n, d, generators):
        self.n = n
        self.d = d
        gens = []
        for perm, Q, shift in generators:
            perm = tuple(int(p) for p in perm)
            if sorted(perm) != list(range(n)):
                raise ValidationError(f"{perm} is not a permutation of 0..{n-1}")
            Q = np.array(Q, dtype=float)
            if Q.shape != (d, d) or np.abs(Q @ Q.T - np.eye(d)).max() > 1e-12:
                raise ValidationError("generator map must be d x d orthogonal")
            gens.append((perm, _readonly(Q), Fraction(shift) % 1))
        self.generators = tuple(gens)
        # mode k meets the group through k mod L, L the lcm of the shift denominators
        self.L = math.lcm(*(shift.denominator for _, _, shift in gens))
        self._blocks = {}   # (sys.m.tobytes(), r) -> read-only U of residue r

    def check_masses(self, sys):
        for perm, _, _ in self.generators:
            for i, j in enumerate(perm):
                if abs(sys.m[i] - sys.m[j]) > 1e-12 * sys.m[i]:
                    raise ValidationError("symmetry permutes bodies of unequal masses")

    def mode_block(self, sys, r):
        """_mode_basis(self, sys, r), built once per masses and residue and
        shared read-only; masses are checked when their first block is built."""
        key = (sys.m.tobytes(), r)
        U = self._blocks.get(key)
        if U is None:
            self.check_masses(sys)
            U = self._blocks[key] = _readonly(_mode_basis(self, sys, r))
        return U


def _class_maps(sym, loop):
    """Coordinates Xi = U^T ab of the coefficients of loops shaped like loop,
    one block per residue class with columns U of invariant_basis (looked up
    at the call), back to the unchecked loop of ab = U Xi; max(k, 1)^2 per Xi."""
    K, live, ks, size = loop.n_modes, [], [np.zeros(0)], 0   # blocks with columns, modes as basic slices
    for r, (modes, U) in enumerate(invariant_basis(sym, loop.sys, K)):
        if U.shape[1]:
            ks.append(np.tile(modes, U.shape[1]))   # in the order of Xi.ravel()
            live.append((slice(r, None, sym.L) if r else slice(0, 1), U, slice(size, size + ks[-1].size)))
            size += ks[-1].size
    w2 = np.concatenate(ks).clip(1) ** 2.0

    def coordinates(ab):
        c, xi = ab.reshape(-1, K + 1), np.zeros(w2.size)
        for cols, U, sl in live:   # F-ordered, as fancy indexing made: @ on a strided view moves bits
            xi[sl] = (U.T @ np.asfortranarray(c[:, cols])).ravel()
        return xi

    def loop_at(xi):
        ab = np.zeros(loop.ab.shape)
        for cols, U, sl in live:
            ab.reshape(-1, K + 1)[:, cols] = U @ xi[sl].reshape(U.shape[1], -1)
        return Loop.__new__(Loop)._set(loop.T, ab, loop.sys)

    return coordinates, loop_at, w2


def project_symmetry(loop, sym):
    """Orthogonal projection of a loop onto its symmetry class, U U^T on
    each block of invariant_basis (idempotent)."""
    if (sym.n, sym.d) != (loop.n, loop.d):
        raise ValidationError("symmetry and loop shapes differ")
    coordinates, loop_at, _ = _class_maps(sym, loop)
    return loop_at(coordinates(loop.ab))


@functools.cache
def italian(n, d):
    """x(t - T/2) = -x(t), on n bodies in R^d; one shared group per (n, d)."""
    return SymmetryAction(n, d, [(tuple(range(n)), -np.eye(d), Fraction(1, 2))])


@functools.cache
def hiphop_z2z4():
    """Four bodies in R^3: square horizontal projection with counter-
    oscillating diagonals, plus the antipodal half-period constraint; one
    shared group."""
    quarter_flip = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    cycle = (1, 2, 3, 0)  # body i -> i+1
    return SymmetryAction(4, 3, [
        (cycle, quarter_flip, Fraction(0)),
        ((0, 1, 2, 3), -np.eye(3), Fraction(1, 2)),
    ])


@functools.cache
def hiphop_z3():
    """Three bodies on a horizontal triangle against a fourth on the axis;
    one shared group."""
    c, s = np.cos(2.0 * np.pi / 3.0), np.sin(2.0 * np.pi / 3.0)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return SymmetryAction(4, 3, [
        ((1, 2, 0, 3), rot, Fraction(0)),
        ((0, 1, 2, 3), -np.eye(3), Fraction(1, 2)),
    ])


# the factory of each label's group on four bodies in R^3; SYMMETRY_LABELS,
# in this order, are the hiphop --symmetry choices
_FACTORIES = {"z2z4": hiphop_z2z4, "italian": functools.partial(italian, 4, 3), "z3": hiphop_z3}
SYMMETRY_LABELS = tuple(_FACTORIES)


def symmetry_by_label(label):
    """The shared group of a label of SYMMETRY_LABELS, built on first use
    with its cache of invariant blocks (see invariant_basis); italian(n, d)
    builds the antipodal class for other n and d."""
    if label not in _FACTORIES:
        raise ValidationError(f"unknown symmetry label {label!r}")
    return _FACTORIES[label]()


def _mode_basis(sym, sys, k):
    """Orthonormal basis (columns over the 2 d n cos, then sin, entries) of
    the invariant, centroid-free coefficients of mode k.

    The null space of one stacked matrix: rho_k(g) - I for each generator
    g, where rho_k(g) maps the coefficients to those of  t -> Q^T x(t +
    shift T) P_perm  and its shift p/q turns mode k by the angle
    2 pi (p k mod q) / q, taken on the exact residue; the unit centroid
    rows; for k = 0 the sine rows.  Off the null space a group whose
    generators reach every element in at most D steps keeps singular
    values of at least 1/D, and rounding leaves the null ones below 1e-15.
    """
    dn = sym.d * sym.n
    m = sys.m / np.linalg.norm(sys.m)
    rows = [np.kron(np.eye(2 * sym.d), m)] + ([np.eye(2 * dn)[dn:]] if k == 0 else [])
    for perm, Q, shift in sym.generators:
        p, q = shift.numerator, shift.denominator
        ang = 2.0 * np.pi * ((p * k) % q) / q
        turn = np.array([[np.cos(ang), np.sin(ang)], [-np.sin(ang), np.cos(ang)]])
        rows.append(np.kron(turn, np.kron(Q.T, np.eye(sym.n)[list(perm)])) - np.eye(2 * dn))
    _, sv, vt = np.linalg.svd(np.concatenate(rows))
    return np.ascontiguousarray(vt[np.count_nonzero(sv > 1e-8):].T)


def invariant_basis(sym, sys, n_modes):
    """Orthonormal basis of the invariant, centroid-free coefficient space.

    Blockwise: one (modes, U) pair for the constant mode and one per
    residue class r = 1..L of k mod L.  The columns of U (2 d n x m_r) span
    the invariant cos-then-sin entries shared by every mode in modes.  The
    blocks U do not depend on n_modes: each group builds them once per
    masses and residue (checking the masses then) and returns the same
    read-only arrays to every call; only the modes ranges are built here.
    """
    L = sym.L
    return [(np.arange(r, n_modes + 1, L) if r else np.array([0]), sym.mode_block(sys, r))
            for r in range(min(L, n_modes) + 1)]


# ---------------------------------------------------------------------------
# action functional


# constants of every evaluation, built once per system and floor or period, system and K
_floored_kernel = functools.lru_cache(maxsize=64)(pair_kernel)


@functools.lru_cache(maxsize=64)
def _mode_factors(T, sys, n_modes):
    """(i k w)^j, j = 0, 1, 2, (3, 1, 1, K + 1), the same with modes k >= 1
    halved (irfft doubles every mode above the constant one; exact, as x 0.5
    is), and T/2 m_i (k w)^2, (n, K + 1); read-only."""
    powers = (1j * np.arange(n_modes + 1) * (2.0 * np.pi / T)) ** np.arange(3)[:, None, None, None]
    halved = powers.copy()
    halved[..., 1:] *= 0.5
    powers.flags.writeable = halved.flags.writeable = False
    return powers, halved, _readonly((0.5 * T) * sys.m[:, None] * (np.arange(n_modes + 1) * (2.0 * np.pi / T)) ** 2)


def _node_action(loop, n_quad, c, order=1):
    """Path derivatives up to order at n_quad equispaced nodes, (order + 1,
    d, n, q), their (P, q) squared distances, the (d, n, q) forces dU/dx, the
    action and the gradient T/2 m_i (k w)^2 (a, b), (2, d, n, K + 1), of its
    kinetic part T/4 sum m_i (k w)^2 (a^2 + b^2) (Parseval, exact as n_quad >
    2 K); c a pair_kernel's, raises CollisionAtNode below its floor."""
    sys = loop.sys
    xv = loop.at_nodes(n_quad, order).transpose(0, 2, 3, 1)   # the irfft's own layout
    try:
        s, cs, f = pair_forces(xv[0], sys, c)
    except CollisionError as exc:
        raise CollisionAtNode(f"{exc} at a quadrature node") from None
    kinetic = _mode_factors(loop.T, sys, loop.n_modes)[2] * loop.ab
    S = float(loop.T / n_quad * (cs * s).sum() / (2.0 * sys.kappa) + 0.5 * (kinetic * loop.ab).sum())
    return xv, s, f, S, kinetic


def action_value_and_gradient(loop, n_quad=None, collision_floor=None):
    """Action  integral of (K/2 + U)  and its coefficient gradient.

    Rectangle rule on n_quad > 2 K equispaced nodes (default max(256, 8 K));
    raises CollisionAtNode below the collision floor.  The gradient is the
    exact derivative of the quadrature, ordered like Loop.params().  One node
    pass of positions, node axis last, gives U = sum c s / (2 kappa) and the
    forces' rfft; the kinetic part and its gradient are Parseval's sums."""
    if n_quad is None:
        n_quad = max(256, 8 * loop.n_modes)
    kernel = pair_kernel(loop.sys) if collision_floor is None else _floored_kernel(loop.sys, collision_floor)
    _, _, f, S, grad = _node_action(loop, n_quad, kernel[0], 0)
    F = np.fft.rfft(f)[..., :loop.n_modes + 1]   # the potential part's: (T/q) Re F, -Im F
    grad[0] += loop.T / n_quad * F.real
    grad[1] -= loop.T / n_quad * F.imag
    return S, grad.ravel()


# ---------------------------------------------------------------------------
# minimization


@dataclass
class MinimizeOptions:
    gtol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gtol < np.inf:   # written so that NaN fails it
            raise ValidationError("gtol must be finite and positive")


def minimize_action(seed_loop, sym, opts):
    """Minimize the action over the symmetry class of the seed.

    optimize.quasi_newton on the invariant coordinates, one block Xi per
    residue class with coefficients U Xi, to |g| <= gtol on them, with the
    action on max(256, 4 K) quadrature nodes; its metric is the kinetic
    part, max(k, 1)^2 on each coordinate of mode k (the H^1 metric on
    loops), so the iteration count does not grow with K; each evaluation's
    loop, finite by construction, is built unchecked by Loop._set.  Steps
    whose minimal node distance falls below 1e-3 of the seed's mean node
    distance are rejected.  A stalled search is restarted from a jittered
    iterate (deterministically, at most 3 times); raises NoConvergence when
    |g| never reaches gtol, CollisionApproach when the floor blocks every
    step.  Logs one INFO line on the nbodyred logger: evaluations,
    iterations, restarts and the final |g|.
    """
    sys, n_quad = seed_loop.sys, max(256, 4 * seed_loop.n_modes)
    # w2, the H^1 metric: the kinetic Hessian m (k w)^2 T / 2 less the constant m w^2 T / 2
    coordinates, loop_at, w2 = _class_maps(sym, seed_loop)
    s = pair_differences(seed_loop.at_nodes(n_quad, 0)[0].transpose(1, 2, 0), sys)[1]   # the irfft's (d, n, q)
    floor = 1e-3 * float(np.sqrt(s.T, order="C").mean())   # summed in (q, P) order
    nfev = 0

    def evaluate(xi_vec):
        nonlocal nfev
        nfev += 1
        try:
            S, g = action_value_and_gradient(loop_at(xi_vec), n_quad, collision_floor=floor)
        except CollisionAtNode:
            return np.inf, None
        return S, coordinates(g)

    # U^T of the centroid-free seed equals U^T of its projection U U^T onto
    # the class, so the seed needs no projection
    xi = coordinates(seed_loop.params())
    f, g = evaluate(xi)
    if not np.isfinite(f):
        raise CollisionApproach("seed loop is below the distance floor")

    rng, nit = None, 0   # the generator is built at the first restart
    for restarts in range(4):
        run = quasi_newton(evaluate, xi, f, g, opts.gtol, metric=w2)
        nit += run.nit
        if run.guard == "converged":
            log_info("minimize_action: %d evaluations, %d iterations, %d restarts, |g| %.3e",
                     nfev, nit + restarts, restarts, run.gnorm)
            return loop_at(run.x)
        if run.guard == "budget" or restarts == 3:
            raise NoConvergence(f"action search ended ({run.guard}) at gradient norm "
                                f"{run.gnorm:.3e} after {restarts} restarts")
        rng = rng or np.random.default_rng(opts.seed)
        jitter = 1e-6 * max(np.linalg.norm(run.x), 1.0)
        for _ in range(20):
            xi = run.x + jitter * rng.standard_normal(run.x.size)
            f, g = evaluate(xi)
            if np.isfinite(f):
                break
        else:
            raise CollisionApproach("distance floor blocks every restart")


# ---------------------------------------------------------------------------
# verification


SQUARE_PATTERN = np.sort(np.array([1.0, 1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0)]))
TETRA_PATTERN = np.ones(6)
# the comparators of a sorting network on six inputs (Knuth, TAOCP 5.3.4)
_SORT6 = ((0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5), (0, 1), (2, 3), (4, 5), (1, 2), (3, 4))


def shape_distance(s, patterns):
    """Distance of the sorted normalized mutual-distance vector to each
    pattern of a (..., 6) stack, (...) + s.shape[1:], for (6, ...) squared
    distances of four bodies: sorted in place by _SORT6 as np.sort sorts,
    with one buffer for the squares and differences, summed over pairs."""
    r = np.sqrt(np.reshape(s, (6, -1)), order="C")
    buf = np.empty_like(r)
    for i, j in _SORT6:
        np.minimum(r[i], r[j], out=buf[0])
        np.maximum(r[i], r[j], out=r[j])
        r[i] = buf[0]
    r /= np.sqrt(np.add.reduce(np.multiply(r, r, out=buf), axis=0))
    units = patterns / np.linalg.norm(patterns, axis=-1, keepdims=True)
    out = np.empty(units.shape[:-1] + r.shape[1:])
    for unit, dist in zip(units.reshape(-1, 6), out.reshape(-1, r.shape[1])):
        np.subtract(r, unit[:, None], out=buf)
        np.sqrt(np.add.reduce(np.multiply(buf, buf, out=buf), axis=0), out=dist)
    return out.reshape(units.shape[:-1] + np.shape(s)[1:])


@dataclass
class LoopReport:
    action: float
    eom_residual: float
    min_distance: float
    symmetry_defect: float
    square_events: list
    tetra_events: list
    planarity: float   # smallest-to-largest singular value ratio of the centred node cloud


def _local_minima_below(vals, tol):
    """Nodes of a circular scan below tol, at most their predecessor and below their successor."""
    ring = np.concatenate((vals[-1:], vals, vals[:1]))   # ring[q] and ring[q + 2] flank vals[q]
    below = (vals < tol) & (vals <= ring[:-2]) & (vals < ring[2:])
    return np.flatnonzero(below).tolist()


def _square_tetra_events(ts, s, tol):
    """Alternating square/tetrahedron passages of a 4-body loop, scanned at
    the equispaced times ts with squared distances s, (6, q).

    Square events are the local minima of the square shape distance below
    tol.  The oscillation visits the tetrahedral shape between consecutive
    square passages (a visit may cross the exactly-regular shape more than
    once); each visit is reported once, at its closest approach, provided
    that approach is below tol.  Mirror-image approaches tie to rounding, so
    the closest approach is the earliest node of the window within 1e-9
    relative of the window's minimum.
    """
    n_scan = ts.size
    d_sq, d_te = shape_distance(s, np.stack([SQUARE_PATTERN, TETRA_PATTERN]))
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


def _scan_distances(loop, n_scan):
    """Squared distances (P, q) at n_scan equispaced nodes, one coordinate at
    a time: its halved modes through one inverse FFT to (n, q), then D @ that
    squared in place and added, so each temporary holds one coordinate's
    nodes; bit for bit pair_differences' sum over the coordinates."""
    D = loop.sys.D
    s = np.zeros((D.shape[0], n_scan))
    for c in loop._spectrum(0, halved=True):   # (n, K + 1)
        diff = D @ np.fft.irfft(c, n_scan, norm="forward")
        s += np.multiply(diff, diff, out=diff)
    return s


def verify_loop(loop, sym):
    """Residual report for a loop and the symmetry class it should lie in.

    EOM residual compares the spectral second derivative with 2 x A at the
    max(256, 8 K) quadrature nodes, relative to relative_scale(max |acc|,
    max |2 x A|): a loop at rest reads 1.
    The node pass reads positions and forces; the accelerations come by
    their own inverse FFT.  Four bodies only are scanned, at max(2048,
    n_quad) nodes, node axis last and one coordinate at a time (see
    _scan_distances): square passages (local minima of the square shape
    distance below 1e-2) and each tetrahedral visit between consecutive
    squares, at its closest approach.  Planarity is read from the modes: the centred node cloud has
    the singular values of [a0c, a_k / sqrt 2, b_k / sqrt 2] (Parseval), a0c
    the constant modes less their plain mean, d x (n + 2 n K).  The symmetry
    defect is the largest coefficient change under project_symmetry.
    """
    sys = loop.sys
    n_quad = max(256, 8 * loop.n_modes)
    _, s, f, S, _ = _node_action(loop, n_quad, pair_kernel(sys)[0], order=0)
    acc = np.fft.irfft(loop._spectrum(2, halved=True), n_quad, norm="forward")   # (d, n, q)
    pulled = f / sys.m[:, None]
    eom = np.abs(acc - pulled).max() / relative_scale(np.abs(acc).max(), np.abs(pulled).max())
    min_dist = float(np.sqrt(s.min()))

    defect = float(np.abs(project_symmetry(loop, sym).ab - loop.ab).max())

    squares, tetras, planarity = [], [], 0.0
    if loop.n == 4:
        n_scan = max(2048, n_quad)
        squares, tetras = _square_tetra_events(loop.nodes(n_scan), _scan_distances(loop, n_scan), 1e-2)
    if loop.d > 2:   # the cloud's singular values, without squaring them
        a0c = loop.cos_modes[:, :, 0] - loop.cos_modes[:, :, 0].mean(axis=1, keepdims=True)
        ak = np.moveaxis(loop.ab[..., 1:], 1, 0).reshape(loop.d, -1) * math.sqrt(0.5)
        sv = np.linalg.svd(np.concatenate([a0c, ak], axis=1), compute_uv=False)
        planarity = float(sv[-1] / sv[0]) if sv.size == loop.d else 0.0

    return LoopReport(S, float(eom), min_dist, defect, squares, tetras, planarity)


# ---------------------------------------------------------------------------
# seeds


def square_relative_equilibrium_loop(T, sys, n_modes, vertical_kick=0.0):
    """Four equal masses on a rotating square, one revolution per period.

    The planar loop is the exact relative equilibrium of the square
    (harmonic one); vertical_kick adds a first-harmonic vertical
    oscillation with alternating sign along the square, which seeds the
    square/tetrahedron oscillation class.
    """
    if sys.n != 4:
        raise ValidationError("square seed needs four bodies")
    if not np.isfinite(vertical_kick):
        raise ValidationError("vertical kick must be finite")
    m = sys.m[0]
    if np.abs(sys.m - m).max() > 1e-12 * m:
        raise ValidationError("square seed needs equal masses")
    w = 2.0 * np.pi / T
    # radius from the central-configuration multiplier: w^2 = U / I
    R = (sys.G * m * (2.0 * np.sqrt(2.0) + 1.0) / (4.0 * w**2)) ** (1.0 / 3.0)
    if n_modes < 1:
        raise ValidationError(f"n_modes = {n_modes}: a seed loop needs n_modes >= 1")
    # the mode-1 spectrum a - i b of R cos(wt + phase), R sin(wt + phase) and
    # the kick's alternating sine
    rot = np.exp(0.5j * np.pi * np.arange(4))
    c = np.array([R * rot, -1j * (R * rot), -1j * (vertical_kick * (-1.0) ** np.arange(4))])
    ab = np.zeros((2, 3, 4, n_modes + 1))
    ab[..., 1] = c.real, -c.imag
    return Loop(T, *ab, sys)
