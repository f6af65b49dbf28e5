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
    Bivector,
    Configuration,
    Trajectory,
    centred,
    gram_form,
    inertia,
    potential_and_gradient,
    wintner_conley,
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
    def c(self):
        """The angular momentum, fixed by the energy relation k^2 - c^2/a = k^2 e^2."""
        return float(self.k * np.sqrt(self.a * (1.0 - self.e * self.e)))

    @property
    def period(self):
        return 2.0 * np.pi * self.k * self.a**1.5

    @property
    def energy(self):
        return -0.5 / self.a


KEPLER_TOL = 1e-14     # |u - e sin u - l| at which Newton's iteration stops
KEPLER_NEWTON = 60     # Newton steps before the bisection takes over


def kepler_anomaly(e, l):
    """Solve u - e sin(u) = l for the eccentric anomaly.

    Newton iteration from the starter l + e sin(l)/(1 - sin(l+e) + sin(l)),
    with bisection fallback where 1 - e cos(u) is small or KEPLER_NEWTON
    steps leave a residual above KEPLER_TOL; continuous and monotone in l
    (whole turns are peeled off and restored).  l is an array of mean
    anomalies; u has its shape.
    """
    if not 0.0 <= e < 1.0:
        raise ValidationError("elliptic branch requires 0 <= e < 1")
    l = np.asarray(l, dtype=float)

    turns = np.floor((l + np.pi) / (2.0 * np.pi))
    lw = l - 2.0 * np.pi * turns  # in [-pi, pi)

    denom = 1.0 - np.sin(lw + e) + np.sin(lw)
    u = lw + e * np.sin(lw) / np.where(np.abs(denom) < 1e-12, 1.0, denom)
    u = np.clip(u, -np.pi, np.pi)
    converged = np.zeros(lw.shape, dtype=bool)
    for _ in range(KEPLER_NEWTON):
        f = u - e * np.sin(u) - lw
        fp = 1.0 - e * np.cos(u)
        bad = np.abs(fp) < 1e-3
        stepped = ~converged & ~bad
        u = np.where(stepped, u - f / np.where(bad, 1.0, fp), u)
        converged |= np.abs(f) < KEPLER_TOL
        if np.all(converged | bad):
            break

    need = ~converged | (np.abs(u - e * np.sin(u) - lw) > KEPLER_TOL)
    if np.any(need):
        lo = np.full(lw.shape, -np.pi)
        hi = np.full(lw.shape, np.pi)
        for _ in range(128):
            mid = 0.5 * (lo + hi)
            fmid = mid - e * np.sin(mid) - lw
            hi = np.where(fmid >= 0.0, mid, hi)
            lo = np.where(fmid < 0.0, mid, lo)
        u = np.where(need, 0.5 * (lo + hi), u)

    return u + 2.0 * np.pi * turns


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


# ---------------------------------------------------------------------------
# homographic motions


class HomographicMotion:
    """x(t) = zeta(t) x0 with zeta an elliptic Kepler solution.

    x0 must be central, to CLASSIFY_TOL; it is normalized to I = 1.  With
    embedding "plane" (default) an even-rank image carries the quarter-turn
    pairing of its own axes (the plane's rotation in the planar case) while
    an odd-rank image is doubled; embedding "double" always places the image
    next to an orthogonal copy of itself, which matches the realization used
    for relative equilibria.  `scale` is the semi-major axis of the common
    conic.
    """

    def __init__(self, x0, sys, e=0.0, scale=1.0, embedding="plane"):
        if abs(sys.kappa + 0.5) > 1e-14:
            raise ValidationError("homographic Kepler motions require kappa = -1/2")
        cls = classify(x0, sys)
        if cls.central_residual >= CLASSIFY_TOL:
            raise NotCentral(
                f"central residual {cls.central_residual:.3e} above {CLASSIFY_TOL:.1e}"
            )
        I0, _, _ = inertia(x0, sys)
        xhat = x0.r / np.sqrt(I0)

        if embedding not in ("plane", "double"):
            raise ValidationError("embedding must be 'plane' or 'double'")
        u_img, sv, _ = np.linalg.svd(xhat, full_matrices=False)
        rank = int(np.count_nonzero(sv > RANK_RTOL * sv[0]))
        P = u_img[:, :rank].T @ xhat  # rank x n coordinates of the image
        if embedding == "plane" and rank % 2 == 0:
            dim = rank
            X0 = P
            J = np.zeros((dim, dim))
            for i in range(dim // 2):
                J[2 * i, 2 * i + 1] = -1.0
                J[2 * i + 1, 2 * i] = 1.0
        else:
            # image next to an orthogonal copy; J swaps them
            dim = 2 * rank
            X0 = np.vstack([P, np.zeros((rank, sys.n))])
            J = np.zeros((dim, dim))
            J[:rank, rank:] = -np.eye(rank)
            J[rank:, :rank] = np.eye(rank)

        self.sys = sys
        self.x0 = Configuration(X0, sys)
        self.quarter_turn = J
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
    Omega: Bivector            # the fixed rotation, z_dot = Omega z
    frequencies: list          # omega_i, descending
    _coeff: np.ndarray = field(repr=False)   # mode rows (dual basis)
    _amp: np.ndarray = field(repr=False)     # sqrt(b_i)
    _sys: object = field(repr=False)

    def sample(self, ts):
        """The motion at the times ts, plane i rotating at omega_i."""
        ts = np.asarray(ts, dtype=float)
        om = np.asarray(self.frequencies)
        cos, sin = np.cos(om * ts[:, None]), np.sin(om * ts[:, None])
        r = self._amp[:, None] * self._coeff
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
    beta = gram_form(x0)
    A = wintner_conley(x0, sys)
    b_sym = beta * np.outer(sqm, sqm)
    a_sym = (A / sqm[:, None]) * sqm[None, :]
    a_sym = 0.5 * (a_sym + a_sym.T)

    wb, wa, V = _simultaneous_eigh(b_sym, a_sym)
    keep = wb > 1e-12 * wb.max()
    if np.any(wa[keep] >= 0.0):
        raise NotAttractive("interaction matrix not negative on the image")
    b = wb[keep]
    a = wa[keep]
    modes = V[:, keep]
    omega = np.sqrt(-2.0 * a)
    order = np.argsort(-omega)
    b, omega, modes = b[order], omega[order], modes[:, order]

    coeff = (modes / sqm[:, None]).T         # row i evaluates the dual covector
    amp = np.sqrt(b)
    r = b.size
    om_table = np.zeros((2 * r, 2 * r))
    for i in range(r):
        om_table[2 * i, 2 * i + 1] = -omega[i]
        om_table[2 * i + 1, 2 * i] = omega[i]

    x0_emb = np.zeros((2 * r, sys.n))
    x0_emb[0::2] = amp[:, None] * coeff      # phase 0: each plane on its first axis
    return RelativeEquilibrium(Configuration(x0_emb, sys), Bivector(om_table),
                               [float(w) for w in omega], coeff, amp, sys)

