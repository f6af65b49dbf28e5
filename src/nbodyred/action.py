"""Variational construction of symmetric periodic orbits.

T-periodic paths of configurations are trigonometric polynomials with the
modes k = 0..K (K = n_modes); the Lagrangian action  integral of
(sum m_i |x_i'|^2 / 2 + U)  is evaluated by the rectangle rule on
n_quad > 2K equispaced nodes (spectrally accurate for smooth loops) with an
analytic gradient in the Fourier coefficients.  Every node grid, those of
the minimizer and of verify_loop alike, goes through Loop.at_nodes: one
inverse real FFT gives positions, velocities (and accelerations), and one
real FFT the cosine and sine sums of the gradient; with n_quad > 2K no mode
aliases, so these are the rectangle-rule sums.  The trigonometric tables of
Loop.at_times serve arbitrary sample times only.

Symmetry classes (the antipodal "italian" constraint, the square/
tetrahedron oscillation class of four bodies, a triangle-plus-axis variant)
are linear subspaces of coefficient space; minimization runs in an
orthonormal basis of the class, so constraints hold to machine precision
rather than by penalty.  A group element with time shift p/q T rotates the
cosine/sine pair of mode k by the angle 2 pi (p k mod q) / q, so the group
acts on mode k only through k mod L, L the lcm of the shift denominators.
The basis is therefore one 2dn x m block for the constant mode and one per
residue class, whatever K is, and the minimizer maps its coordinates to
coefficients by one matrix product per class.
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
    centred,
    pair_forces,
    pair_kernel,
    potential_from_s,
    squared_distances,
)
from .optimize import quasi_newton


def _trig(n_modes, T, ts):
    k = np.arange(n_modes + 1)
    phase = np.outer(ts, k) * (2.0 * np.pi / T)
    return np.cos(phase), np.sin(phase)  # (q, k)


class Loop:
    """T-periodic path of configurations as real Fourier coefficients.

    cos_modes and sin_modes have shape (d, n, n_modes + 1); the path is
    x_ci(t) = sum_k cos_modes[c,i,k] cos(k w t) + sin_modes[c,i,k] sin(k w t)
    with w = 2 pi / T.  The constant sine coefficient is zeroed and the
    mass-weighted centroid removed mode by mode.
    """

    def __init__(self, T, cos_modes, sin_modes, sys):
        cos_modes = np.array(cos_modes, dtype=float)
        sin_modes = np.array(sin_modes, dtype=float)
        if cos_modes.shape != sin_modes.shape or cos_modes.ndim != 3:
            raise ValidationError("coefficient arrays must share shape (d, n, K+1)")
        if cos_modes.shape[1] != sys.n:
            raise ValidationError("coefficient arrays do not match the mass system")
        if not (0.0 < T < np.inf and np.isfinite([cos_modes, sin_modes]).all()):
            raise ValidationError("period and coefficients must be finite, the period positive")
        sin_modes[:, :, 0] = 0.0
        for arr in (cos_modes, sin_modes):
            arr -= (arr * sys.m[None, :, None]).sum(axis=1, keepdims=True) / sys.M
        self.T = float(T)
        self.cos_modes = cos_modes
        self.sin_modes = sin_modes
        self.sys = sys
        self.d, self.n, self.n_modes = cos_modes.shape[0], cos_modes.shape[1], cos_modes.shape[2] - 1

    # -- evaluation ---------------------------------------------------------

    def at_times(self, ts):
        """Positions and velocities, (q, d, n) each, at the times ts, from
        one table of cosines and sines."""
        cos, sin = _trig(self.n_modes, self.T, np.asarray(ts, dtype=float))
        kw = np.arange(self.n_modes + 1) * (2.0 * np.pi / self.T)
        return (np.einsum("cik,qk->qci", self.cos_modes, cos)
                + np.einsum("cik,qk->qci", self.sin_modes, sin),
                np.einsum("cik,qk->qci", self.sin_modes * kw, cos)
                - np.einsum("cik,qk->qci", self.cos_modes * kw, sin))

    def at_nodes(self, n_quad, order=1):
        """The path and its time derivatives up to order at the n_quad
        equispaced nodes, (order + 1, q, d, n), by one inverse real FFT.

        Equal to at_times(loop.nodes(n_quad)) up to rounding;
        n_quad must exceed 2 K, or the top modes would alias.
        """
        K = self.n_modes
        if n_quad <= 2 * K:
            raise ValidationError(f"n_quad = {n_quad} must exceed 2 K = {2 * K}")
        # x(t_j) = sum_k Re(c_k e^{2 pi i j k / q}) with c_k = a_k - i b_k,
        # and d/dt multiplies c_k by i k w
        c = self.cos_modes - 1j * self.sin_modes
        c[..., 1:] *= 0.5   # irfft doubles every mode above the constant one
        ikw = 1j * np.arange(K + 1) * (2.0 * np.pi / self.T)
        derivs = c * ikw ** np.arange(order + 1)[:, None, None, None]
        return np.moveaxis(np.fft.irfft(derivs, n_quad, norm="forward"), -1, 1)

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
        return np.concatenate([self.cos_modes.ravel(), self.sin_modes.ravel()])

    def with_params(self, p):
        half = self.cos_modes.size
        shape = self.cos_modes.shape
        return Loop(self.T, p[:half].reshape(shape), p[half:].reshape(shape), self.sys)

    def __repr__(self):
        return f"Loop(T={self.T}, n={self.n}, d={self.d}, n_modes={self.n_modes})"


# ---------------------------------------------------------------------------
# symmetry actions


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


class SymmetryAction:
    """Finite group acting on loops by (permutation, orthogonal map, shift).

    A loop is invariant under the generator (perm, Q, s) when
    x_perm(i)(t + s T) = Q x_i(t) for all bodies and times.  The group is
    the closure of the generators; construction fails unless it closes
    within MAX_GROUP_ORDER elements.  The group is immutable (elements is a
    tuple of frozen elements with read-only maps) and carries its own cache
    of invariant blocks per masses and residue, built on first use.
    """

    def __init__(self, label, n, d, generators):
        self.label = label
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
            gens.append(_Element(perm, Q, Fraction(shift) % 1))
        self.elements = tuple(self._close(gens, n, d))
        # mode k meets the group through k mod L, L the lcm of the shift denominators
        self.L = math.lcm(*(el.shift.denominator for el in self.elements))
        self._blocks = {}   # (sys.m.tobytes(), r) -> read-only U of residue r

    @staticmethod
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

    @property
    def order(self):
        return len(self.elements)

    def check_masses(self, sys):
        for el in self.elements:
            for i, j in enumerate(el.perm):
                if abs(sys.m[i] - sys.m[j]) > 1e-12 * sys.m[i]:
                    raise ValidationError(
                        "symmetry permutes bodies of unequal masses"
                    )

    def mode_block(self, sys, r):
        """_mode_basis(self, sys, r), built once per masses and residue and
        shared read-only; masses are checked when their first block is built."""
        key = (sys.m.tobytes(), r)
        U = self._blocks.get(key)
        if U is None:
            self.check_masses(sys)
            U = self._blocks[key] = _mode_basis(self, sys, r)
            U.flags.writeable = False
        return U


def _mat_key(Q):
    # entries of distinct elements differ by O(1); 9 digits survive the float
    # drift of repeated composition; the flat tuple sorts as the rows would
    return tuple(np.round(Q, 9).ravel().tolist())


def _compose(a, b):
    """Element whose loop operator is rho(a) rho(b)."""
    perm = tuple(b.perm[a.perm[i]] for i in range(len(a.perm)))
    return _Element(perm, b.matrix @ a.matrix, (a.shift + b.shift) % 1)


def _group_average(cos_modes, sin_modes, sym, k):
    """Group average of (..., d, n, len(k)) coefficients of the modes k.

    Each element maps the coefficients to those of  t -> Q^T x(t + shift T)
    P_perm  (fixed points = invariance); its shift p/q turns mode k by the
    angle 2 pi (p k mod q) / q, taken on the exact residue.
    """
    acc_a = np.zeros_like(cos_modes)
    acc_b = np.zeros_like(sin_modes)
    for el in sym.elements:
        p, q = el.shift.numerator, el.shift.denominator
        ang = 2.0 * np.pi * ((p * k) % q) / q
        ck, sk = np.cos(ang), np.sin(ang)
        QT, perm = el.matrix.T, list(el.perm)
        acc_a += np.einsum("dc,...cik->...dik", QT, cos_modes * ck + sin_modes * sk)[..., perm, :]
        acc_b += np.einsum("dc,...cik->...dik", QT, sin_modes * ck - cos_modes * sk)[..., perm, :]
    return acc_a / sym.order, acc_b / sym.order


def project_symmetry(loop, sym):
    """Group-average a loop onto the symmetry class (idempotent)."""
    if (sym.n, sym.d) != (loop.n, loop.d):
        raise ValidationError("symmetry and loop shapes differ")
    sym.check_masses(loop.sys)
    a, b = _group_average(loop.cos_modes, loop.sin_modes, sym, np.arange(loop.n_modes + 1))
    return Loop(loop.T, a, b, loop.sys)


@functools.cache
def italian(n, d):
    """x(t - T/2) = -x(t), on n bodies in R^d; one shared group per (n, d)."""
    return SymmetryAction("italian", n, d, [(tuple(range(n)), -np.eye(d), Fraction(1, 2))])


@functools.cache
def hiphop_z2z4():
    """Four bodies in R^3: square horizontal projection with counter-
    oscillating diagonals, plus the antipodal half-period constraint; one
    shared group."""
    quarter_flip = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    cycle = (1, 2, 3, 0)  # body i -> i+1
    return SymmetryAction("hiphop_Z2xZ4", 4, 3, [
        (cycle, quarter_flip, Fraction(0)),
        ((0, 1, 2, 3), -np.eye(3), Fraction(1, 2)),
    ])


@functools.cache
def hiphop_z3():
    """Three bodies on a horizontal triangle against a fourth on the axis;
    one shared group."""
    c, s = np.cos(2.0 * np.pi / 3.0), np.sin(2.0 * np.pi / 3.0)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return SymmetryAction("hiphop_Z3", 4, 3, [
        ((1, 2, 0, 3), rot, Fraction(0)),
        ((0, 1, 2, 3), -np.eye(3), Fraction(1, 2)),
    ])


def symmetry_by_label(label):
    """The group of a label, on four bodies in R^3: the one shared instance
    of its factory ("italian", "z2z4" alias "hiphop_Z2xZ4", "z3" alias
    "hiphop_Z3").  Aliases return the same object, built on first use
    together with its cache of invariant blocks (see invariant_basis);
    italian(n, d) builds the antipodal class for other n and d.
    """
    if label == "italian":
        return italian(4, 3)
    if label in ("z2z4", "hiphop_Z2xZ4"):
        return hiphop_z2z4()
    if label in ("z3", "hiphop_Z3"):
        return hiphop_z3()
    raise ValidationError(f"unknown symmetry label {label!r}")


def _mode_basis(sym, sys, k):
    """Orthonormal basis (columns over the 2 d n cos, then sin, entries) of
    the invariant, centroid-free coefficients of mode k."""
    dn = sym.d * sym.n
    e = np.eye(2 * dn).reshape(2 * dn, 2, sym.d, sym.n, 1)
    e[:, 1] *= k > 0   # no constant sine mode
    e -= (e * sys.m[:, None]).sum(axis=-2, keepdims=True) / sys.M
    a, b = _group_average(e[:, 0], e[:, 1], sym, np.array([k]))
    u, sv, _ = np.linalg.svd(np.stack([a, b], axis=1).reshape(2 * dn, 2 * dn).T)
    return u[:, sv > 0.5]


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


def _node_action(loop, n_quad, c, order=1):
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


def action_value_and_gradient(loop, n_quad=None, collision_floor=None):
    """Action  integral of (K/2 + U)  and its coefficient gradient.

    Rectangle rule on n_quad > 2 K equispaced nodes (default max(256, 8 K));
    raises CollisionAtNode below the collision floor.  The gradient is the
    exact derivative of the quadrature, ordered like Loop.params().
    """
    sys = loop.sys
    if n_quad is None:
        n_quad = max(256, 8 * loop.n_modes)
    (_, v), _, fx, S = _node_action(loop, n_quad, pair_kernel(sys, collision_floor)[0])

    # the cosine and sine sums of the node forces dU/dx over the nodes are
    # the real and minus the imaginary part of an rfft
    F = np.fft.rfft(np.stack([fx, sys.m * v]), axis=1)[:, :loop.n_modes + 1]
    fx_hat, mv_hat = np.moveaxis(F, 1, -1)   # (d, n, K + 1) each
    kw = np.arange(loop.n_modes + 1) * (2.0 * np.pi / loop.T)
    w = loop.T / n_quad
    g_cos = w * (fx_hat.real + kw * mv_hat.imag)
    g_sin = w * (kw * mv_hat.real - fx_hat.imag)
    return S, np.concatenate([g_cos.ravel(), g_sin.ravel()])


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
    loops), so the iteration count does not grow with K.  Steps
    whose minimal node distance falls below 1e-3 of the seed's mean node
    distance are rejected.  A stalled search is restarted from a jittered
    iterate (deterministically, at most 3 times); raises NoConvergence when
    |g| never reaches gtol, CollisionApproach when the floor blocks every
    step.  Logs one INFO line on the nbodyred logger: evaluations,
    iterations, restarts and the final |g|.
    """
    sys, K = seed_loop.sys, seed_loop.n_modes
    n_quad = max(256, 4 * K)
    blocks = invariant_basis(sym, sys, K)
    ends = np.cumsum([U.shape[1] * modes.size for modes, U in blocks]).tolist()
    slices = [slice(a, b) for a, b in zip([0] + ends, ends)]   # each block's coordinates
    # mode weights of the kinetic Hessian m (k w)^2 T / 2 (the H^1 metric),
    # one per coordinate; the constant m w^2 T / 2 is left to the scaling
    w2 = np.concatenate([np.tile(modes, U.shape[1]) for modes, U in blocks]).clip(1) ** 2.0
    s = squared_distances(seed_loop.at_nodes(n_quad, 0)[0], sys)
    floor = 1e-3 * float(np.sqrt(s).mean())
    shape = (2, seed_loop.d, seed_loop.n, K + 1)   # Loop.params() as (cos/sin, d, n, k)

    def loop_at(xi_vec):
        c = np.zeros(shape)
        flat = c.reshape(-1, K + 1)
        for (modes, U), sl in zip(blocks, slices):
            flat[:, modes] = U @ xi_vec[sl].reshape(U.shape[1], modes.size)
        return Loop(seed_loop.T, c[0], c[1], sys)

    def coordinates(params):
        c = params.reshape(-1, K + 1)
        return np.concatenate([(U.T @ c[:, modes]).ravel() for modes, U in blocks])

    nfev = 0

    def evaluate(xi_vec):
        nonlocal nfev
        nfev += 1
        try:
            S, g = action_value_and_gradient(loop_at(xi_vec), n_quad, collision_floor=floor)
        except CollisionAtNode:
            return np.inf, None
        return S, coordinates(g)

    # U^T of the centroid-free seed equals U^T of its group average (an
    # orthogonal projector), so the seed needs no projection
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


def shape_distance(s, pattern):
    """Distance of the sorted normalized mutual-distance vector to a pattern,
    for (..., P) squared distances on the pair list.  Patterns broadcast like
    (..., P) arrays, so one sort serves a stack of them."""
    dists = np.sort(np.sqrt(s), axis=-1)
    dists = dists / np.linalg.norm(dists, axis=-1, keepdims=True)
    unit = pattern / np.linalg.norm(pattern, axis=-1, keepdims=True)
    return np.linalg.norm(dists - unit, axis=-1)


@dataclass
class LoopReport:
    action: float
    eom_residual: float
    min_distance: float
    symmetry_defect: float
    square_events: list
    tetra_events: list
    planarity: float   # rms distance to the best-fitting fixed plane


def _local_minima_below(vals, tol):
    """Nodes of a circular scan below tol, at most their predecessor and below their successor."""
    below = (vals < tol) & (vals <= np.roll(vals, 1)) & (vals < np.roll(vals, -1))
    return np.flatnonzero(below).tolist()


def _square_tetra_events(ts, s, tol):
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
    d_sq, d_te = shape_distance(s, np.stack([SQUARE_PATTERN, TETRA_PATTERN])[:, None])
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


def verify_loop(loop, sym):
    """Residual report for a loop and the symmetry class it should lie in.

    EOM residual compares the spectral second derivative with 2 x A at the
    max(256, 8 K) quadrature nodes (relative to the acceleration scale, or
    for a loop at rest to the scale of 2 x A, so that it reads 1).
    One scan of max(2048, n_quad) nodes gives the planarity and, for four
    bodies, the square passages (local minima of the square shape distance
    below 1e-2) and each tetrahedral visit between consecutive squares, at
    its closest approach.  The symmetry defect is the largest coefficient
    change under project_symmetry(loop, sym).
    """
    sys = loop.sys
    n_quad = max(256, 8 * loop.n_modes)
    (_, _, acc), s, f, S = _node_action(loop, n_quad, pair_kernel(sys)[0], order=2)
    pulled = f / sys.m
    eom = np.abs(acc - pulled).max() / (np.abs(acc).max() or np.abs(pulled).max())
    min_dist = float(np.sqrt(s.min()))

    proj = project_symmetry(loop, sym)
    defect = float(max(np.abs(proj.cos_modes - loop.cos_modes).max(),
                       np.abs(proj.sin_modes - loop.sin_modes).max()))

    n_scan = max(2048, n_quad)
    xs = loop.at_nodes(n_scan, 0)[0]
    squares, tetras = [], []
    if loop.n == 4:
        squares, tetras = _square_tetra_events(loop.nodes(n_scan), squared_distances(xs, sys), 1e-2)

    flat = xs.transpose(1, 0, 2).reshape(loop.d, -1)
    sv = np.linalg.svd(flat - flat.mean(axis=1, keepdims=True), compute_uv=False)
    planarity = float(sv[-1] / sv[0]) if loop.d > 2 else 0.0

    return LoopReport(S, float(eom), min_dist, defect, squares, tetras, planarity)


# ---------------------------------------------------------------------------
# seeds


def _seed_coefficients(d, n, n_modes):
    """Zero (cos, sin) coefficients of a seed built on the first harmonic."""
    if n_modes < 1:
        raise ValidationError(f"n_modes = {n_modes}: a seed loop needs n_modes >= 1")
    return np.zeros((d, n, n_modes + 1)), np.zeros((d, n, n_modes + 1))


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
    a, b = _seed_coefficients(3, 4, n_modes)
    for i in range(4):
        phase = 0.5 * np.pi * i
        # R cos(wt + phase), R sin(wt + phase)
        a[0, i, 1] = R * np.cos(phase)
        b[0, i, 1] = -R * np.sin(phase)
        a[1, i, 1] = R * np.sin(phase)
        b[1, i, 1] = R * np.cos(phase)
        b[2, i, 1] = vertical_kick * (-1.0) ** i
    return Loop(T, a, b, sys)


def circular_two_body_loop(T, sys, n_modes):
    """The circular solution of two bodies with one revolution per period."""
    if sys.n != 2:
        raise ValidationError("two bodies required")
    w = 2.0 * np.pi / T
    rho = (sys.G * sys.M / w**2) ** (1.0 / 3.0)  # separation
    a, b = _seed_coefficients(2, 2, n_modes)
    r1 = rho * sys.m[1] / sys.M
    r2 = -rho * sys.m[0] / sys.M
    for i, r in enumerate((r1, r2)):
        a[0, i, 1] = r
        b[1, i, 1] = r
    return Loop(T, a, b, sys)
