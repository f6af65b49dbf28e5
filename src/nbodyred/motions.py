"""Simple solutions in closed form.

Elliptic Kepler orbits with the normalization  zeta_ddot = -k zeta/|zeta|^3,
t = k a^{3/2} (u - e sin u), semi-major axis k a and the pericentre at
t = 0; homographic motions of central configurations (every body on a
similar conic); and the uniform quasi-periodic rotations carried by
balanced configurations in dimension twice the configuration's rank.
"""

from dataclasses import dataclass, field

import numpy as np

from .configurations import CLASSIFY_TOL, classify
from .errors import NotAttractive, NotBalanced, NotCentral, ValidationError
from .geometry import (
    RANK_RTOL,
    Configuration,
    Trajectory,
    centred,
    gram_form,
    inertia,
    pair_kernel,
    potential_and_gradient,
    squared_distances,
)


# ---------------------------------------------------------------------------
# Kepler


@dataclass
class KeplerOrbit:
    """The counterclockwise elliptic orbit of elements k > 0, a > 0 and
    0 <= e < 1, checked before any square root is taken."""
    k: float
    a: float
    e: float

    def __post_init__(self):   # written so that NaN fails the checks
        if not (0.0 < self.k < np.inf and 0.0 < self.a < np.inf):
            raise ValidationError("k and a must be positive and finite")
        if not 0.0 <= self.e < 1.0:
            raise ValidationError("elliptic branch requires 0 <= e < 1")
        self.k, self.a, self.e = float(self.k), float(self.a), float(self.e)

    @property
    def period(self):
        return 2.0 * np.pi * self.k * self.a**1.5


def kepler_anomaly(e, l):
    """Solve u - e sin(u) = l for the eccentric anomaly.

    l is folded to [-pi, pi) by whole turns and then to |l| in [0, pi],
    where f(u) = u - e sin u - |l| is increasing (f' >= 1 - e > 0) and
    convex (f'' = e sin u >= 0): Newton's iteration from u = pi falls onto
    the root without overshooting, so it stops when no entry falls further.
    The sign and the turns are restored, so u is odd and monotone in l.  l is
    an array of mean anomalies; u has its shape.
    """
    if not 0.0 <= e < 1.0:
        raise ValidationError("elliptic branch requires 0 <= e < 1")
    l = np.asarray(l, dtype=float)
    turns = np.floor((l + np.pi) / (2.0 * np.pi))
    lw = l - 2.0 * np.pi * turns  # in [-pi, pi)
    target = np.abs(lw)
    u = np.full(lw.shape, np.pi)
    while True:   # NaN entries never compare below u, so they end it too
        step = np.minimum(u, u - (u - e * np.sin(u) - target) / (1.0 - e * np.cos(u)))
        if not np.any(step < u):
            break
        u = step
    return np.copysign(u, lw) + 2.0 * np.pi * turns


def kepler_state(orbit, t):
    """Position and velocity of the Kepler motion at the times of the array
    t, each of shape (2,) + t.shape.

    xi = k a (cos u - e), eta = k a sqrt(1 - e^2) sin u, with u from the
    mean anomaly l = t / (k a^{3/2}).
    """
    k, a, e = orbit.k, orbit.a, orbit.e
    u = kepler_anomaly(e, np.asarray(t, dtype=float) / (k * a**1.5))
    r = k * a * (1.0 - e * np.cos(u))
    se = np.sqrt(1.0 - e * e)
    zeta = np.stack([k * a * (np.cos(u) - e), k * a * se * np.sin(u)])
    zdot = (k * np.sqrt(a) / r) * np.stack([-np.sin(u), se * np.cos(u)])
    return zeta, zdot


def plane_rotation(rates):
    """The read-only 2r x 2r rotation table turning plane i, the axes 2i and
    2i + 1, at rates[i]: -rates[i] above the diagonal, +rates[i] below."""
    i = 2 * np.arange(len(rates))
    table = np.zeros((i.size * 2, i.size * 2))
    table[i, i + 1] = np.negative(rates)
    table[i + 1, i] = rates
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# homographic motions


class HomographicMotion:
    """x(t) = zeta(t) x0 with zeta an elliptic Kepler solution.

    x0 must be central, to CLASSIFY_TOL; it is normalized to I = 1.  An
    even-rank image turns by the quarter-turn pairing of its own axes (the
    plane's rotation in the planar case); an odd-rank image is placed next
    to an orthogonal copy of itself, axis i turning into axis rank + i.
    `scale` is the semi-major axis of the common conic.
    """

    def __init__(self, x0, sys, e=0.0, scale=1.0):
        if abs(sys.kappa + 0.5) > 1e-14:
            raise ValidationError("homographic Kepler motions require kappa = -1/2")
        cls = classify(x0, sys)
        if cls.central_residual >= CLASSIFY_TOL:
            raise NotCentral(
                f"central residual {cls.central_residual:.3e} above {CLASSIFY_TOL:.1e}"
            )
        I0, _ = inertia(x0, sys)
        xhat = x0.r / np.sqrt(I0)

        u_img, sv, _ = np.linalg.svd(xhat, full_matrices=False)
        rank = int(np.count_nonzero(sv > RANK_RTOL * sv[0]))
        X0 = u_img[:, :rank].T @ xhat  # rank x n coordinates of the image
        axes = np.arange(rank)   # row a of X0 lies on axis axes[a] of the plane table
        if rank % 2:   # doubled: plane i is row i and its copy, row rank + i
            X0 = np.vstack([X0, np.zeros_like(X0)])
            axes = np.r_[0:2 * rank:2, 1:2 * rank:2]

        self.sys = sys
        self.x0 = Configuration(X0, sys)
        self.quarter_turn = plane_rotation(np.ones(len(axes) // 2))[np.ix_(axes, axes)]
        U0, _ = potential_and_gradient(Configuration(xhat, sys), sys)
        self.orbit = KeplerOrbit(U0, scale / U0, e)

    @property
    def period(self):
        return self.orbit.period

    def sample(self, ts):
        """The motion at the times ts, as an absolute Trajectory."""
        # [zeta component][sample, position or velocity]
        coef = np.stack(kepler_state(self.orbit, ts), axis=-1)[..., None, None]
        samples = coef[0] * self.x0.r + coef[1] * (self.quarter_turn @ self.x0.r)
        return Trajectory(ts, centred(samples, self.sys), "absolute",
                          {"integrator": "analytic", "tol": 0.0})

    def state(self, t):
        return self.sample([t]).states[0]


# ---------------------------------------------------------------------------
# relative equilibria


@dataclass
class RelativeEquilibrium:
    x0: Configuration          # balanced configuration embedded in 2 rank(beta) dims
    Omega: np.ndarray          # the fixed rotation, z_dot = Omega z (read-only)
    frequencies: list          # omega_i, descending
    _sys: object = field(repr=False)

    def sample(self, ts):
        """The motion at the times ts, plane i turning at omega_i from row 2i of x0."""
        ts = np.asarray(ts, dtype=float)
        om = np.asarray(self.frequencies)
        cos, sin = np.cos(om * ts[:, None]), np.sin(om * ts[:, None])
        r = self.x0.r[0::2]
        out = np.empty((ts.size, 2, 2 * om.size, r.shape[1]))
        out[:, 0, 0::2] = cos[..., None] * r
        out[:, 0, 1::2] = sin[..., None] * r
        out[:, 1, 0::2] = (-om * sin)[..., None] * r
        out[:, 1, 1::2] = (om * cos)[..., None] * r
        return Trajectory(ts, centred(out, self._sys), "absolute",
                          {"integrator": "analytic", "tol": 0.0})

    def state(self, t):
        return self.sample([t]).states[0]

    @property
    def slow_period(self):
        return 2.0 * np.pi / min(self.frequencies)


def _simultaneous_eigh(B, A):
    """Eigenbasis of commuting symmetric B, A: diagonalize B, refine each
    eigenvalue cluster (within 1e-7 of the largest |eigenvalue|) with A."""
    wb, V = np.linalg.eigh(B)
    scale = max(abs(wb).max(), 1e-300)
    wa = np.empty_like(wb)
    i = 0
    while i < wb.size:
        j = i + 1
        while j < wb.size and abs(wb[j] - wb[i]) <= 1e-7 * scale:
            j += 1
        sub = V[:, i:j]
        wsub, Vsub = np.linalg.eigh(sub.T @ A @ sub)
        V[:, i:j] = sub @ Vsub
        wa[i:j] = wsub
        i = j
    return wb, wa, V


def relative_equilibrium(x0, sys):
    """Build the uniform quasi-periodic rotation carried by a balanced x0
    (to CLASSIFY_TOL).

    The interaction and inertia tables commute for balanced configurations;
    each common eigenmode with inertia b_i > 0 and interaction eigenvalue
    a_i < 0 occupies an orthogonal plane rotating at omega_i = sqrt(-2 a_i).
    The motion space has dimension 2 rank(beta).  Raises NotBalanced or
    NotAttractive when the preconditions fail.
    """
    cls = classify(x0, sys)
    if cls.balanced_residual >= CLASSIFY_TOL:
        raise NotBalanced(
            f"commutation residual {cls.balanced_residual:.3e} above {CLASSIFY_TOL:.1e}"
        )
    sqm = np.sqrt(sys.m)
    b_sym = gram_form(x0) * np.outer(sqm, sqm)
    # M^{-1/2} A M^{1/2} = -1/2 F^T F (c < 0 as kappa < 0), exactly symmetric
    F = np.sqrt(-pair_kernel(sys)[0](squared_distances(x0.r, sys)))[:, None] * (sys.D / sqm)
    wb, wa, V = _simultaneous_eigh(b_sym, -0.5 * (F.T @ F))
    keep = wb > 1e-12 * wb.max()
    if np.any(wa[keep] >= 0.0):
        raise NotAttractive("interaction matrix not negative on the image")
    b = wb[keep]
    a = wa[keep]
    modes = V[:, keep]
    omega = np.sqrt(-2.0 * a)
    order = np.argsort(-omega)
    b, omega, modes = b[order], omega[order], modes[:, order]

    x0_emb = np.zeros((2 * b.size, sys.n))
    # phase 0: each plane on its first axis, row i sqrt(b_i) times the dual covector
    x0_emb[0::2] = np.sqrt(b)[:, None] * (modes / sqm[:, None]).T
    return RelativeEquilibrium(Configuration(x0_emb, sys), plane_rotation(omega),
                               [float(w) for w in omega], sys)

