import logging
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import nbodyred.action
from conftest import dense_basis
from nbodyred.errors import CollisionApproach, CollisionAtNode, ValidationError
from nbodyred.geometry import MassSystem, squared_distances
from nbodyred.action import (
    SYMMETRY_LABELS,
    Loop,
    MinimizeOptions,
    SQUARE_PATTERN,
    SymmetryAction,
    action_value_and_gradient,
    hiphop_z2z4,
    hiphop_z3,
    invariant_basis,
    italian,
    minimize_action,
    project_symmetry,
    shape_distance,
    square_relative_equilibrium_loop,
    symmetry_by_label,
    verify_loop,
)
from oracles import (
    _trig,
    circular_two_body_loop,
    closure_invariant_basis,
    group_average_loop,
    group_elements,
    with_params,
)

SYS4 = MassSystem([1.0] * 4)
SYS2 = MassSystem([1.0, 1.0])
T = 2.0 * np.pi


def random_loop(rng, sys, n_modes=8, d=3, amp=0.05):
    a = amp * rng.normal(size=(d, sys.n, n_modes + 1))
    b = amp * rng.normal(size=(d, sys.n, n_modes + 1))
    # a wide first harmonic keeps the bodies apart
    for i in range(sys.n):
        ang = 2.0 * np.pi * i / sys.n
        a[0, i, 1] += 1.2 * np.cos(ang)
        a[1, i, 1] += 1.2 * np.sin(ang)
        b[0, i, 1] += -1.2 * np.sin(ang)
        b[1, i, 1] += 1.2 * np.cos(ang)
    return Loop(T, a, b, sys)


# ---------------------------------------------------------------------------
# loop basics


def test_loop_centroid_and_sin0():
    rng = np.random.default_rng(0)
    loop = random_loop(rng, SYS4)
    assert np.abs(loop.sin_modes[:, :, 0]).max() == 0.0
    x = loop.at_times(loop.nodes(17))[0]
    assert np.abs(np.einsum("qci,i->qc", x, SYS4.m)).max() < 1e-12


def test_loop_velocity_consistent_with_positions():
    rng = np.random.default_rng(1)
    loop = random_loop(rng, SYS4)
    h = 1e-6
    for t in (0.3, 2.1):
        fd = (loop.at_times([t + h])[0][0] - loop.at_times([t - h])[0][0]) / (2 * h)
        assert np.abs(fd - loop.at_times([t])[1][0]).max() < 1e-7


def test_loop_collision_at_node_raises():
    a = np.zeros((2, 2, 3))
    b = np.zeros((2, 2, 3))
    a[0, 0, 0], a[0, 1, 0] = -1e-12, 1e-12
    loop = Loop(T, a, b, SYS2)
    with pytest.raises(CollisionAtNode):
        action_value_and_gradient(loop)


def test_node_values_match_trig_path():
    # one inverse FFT at the nodes against the trigonometric tables
    rng = np.random.default_rng(13)
    loop = random_loop(rng, SYS4)
    kw2 = (np.arange(loop.n_modes + 1) * (2.0 * np.pi / T)) ** 2
    for n_quad in (17, 64, 256, 257):
        ts = loop.nodes(n_quad)
        cos, sin = _trig(loop.n_modes, T, ts)
        acc = -np.einsum("cik,qk->qci", loop.cos_modes * kw2, cos) - \
            np.einsum("cik,qk->qci", loop.sin_modes * kw2, sin)
        x, v, a = loop.at_nodes(n_quad, order=2)
        for got, ref in ((x, loop.at_times(ts)[0]), (v, loop.at_times(ts)[1]), (a, acc)):
            assert np.abs(got - ref).max() < 1e-14 * np.abs(ref).max()
    assert loop.at_nodes(64).shape == (2, 64, 3, 4)


@pytest.mark.parametrize("K", [1, 8, 64])
@pytest.mark.parametrize("n, d", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_times_off_the_grid_match_trig_sums(n, d, K):
    # the spectrum against one exponential table, at times off every node
    # grid and outside one period, against the explicit cosine and sine sums
    rng = np.random.default_rng(100 * K + 10 * n + d)
    loop = Loop(T, rng.normal(size=(d, n, K + 1)), rng.normal(size=(d, n, K + 1)),
                MassSystem(rng.uniform(0.5, 2.0, n)))
    ts = rng.uniform(-T, 2.0 * T, 50)
    cos, sin = _trig(K, T, ts)
    kw = np.arange(K + 1) * (2.0 * np.pi / T)
    x_ref = np.einsum("cik,qk->qci", loop.cos_modes, cos) + np.einsum("cik,qk->qci", loop.sin_modes, sin)
    v_ref = np.einsum("cik,qk->qci", loop.sin_modes * kw, cos) - \
        np.einsum("cik,qk->qci", loop.cos_modes * kw, sin)
    x, v = loop.at_times(ts)
    for got, ref in ((x, x_ref), (v, v_ref)):
        assert got.shape == (50, d, n)
        assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()
    ends = loop.sample([0.0, T]).samples   # (2, 2, d, n): positions, then velocities
    for j in (0, 1):
        assert np.abs(ends[1, j] - ends[0, j]).max() < 1e-14 * np.abs(ends[:, j]).max()


def test_quadrature_must_resolve_every_mode():
    # the node sums are the rectangle rule only when no mode aliases
    loop = random_loop(np.random.default_rng(14), SYS4)
    with pytest.raises(ValidationError):
        loop.at_nodes(2 * loop.n_modes)
    with pytest.raises(ValidationError):
        action_value_and_gradient(loop, n_quad=2 * loop.n_modes)
    S, _ = action_value_and_gradient(loop, n_quad=2 * loop.n_modes + 1)
    assert np.isfinite(S)


@pytest.mark.parametrize("period, bad", [(np.nan, 0.0), (np.inf, 0.0), (0.0, 0.0), (-1.0, 0.0),
                                         (T, np.nan), (T, np.inf), (T, -np.inf)])
def test_loop_rejects_a_period_or_coefficient_outside_the_reals(period, bad):
    # the sine coefficient of mode 0 is zeroed, and a bad one there must fail too
    cos_modes, sin_modes = np.zeros((2, 2, 3)), np.zeros((2, 2, 3))
    for coefficients in (cos_modes, sin_modes):
        coefficients[0, 1, 0] = bad
        with pytest.raises(ValidationError):
            Loop(period, cos_modes, sin_modes, SYS2)
        coefficients[0, 1, 0] = 0.0


def test_loop_checks_each_coefficient_array_on_its_own():
    # a non-finite entry at any mode of either array fails; entries near the
    # largest float in both arrays pass, and the loop keeps their bits
    for mode in (0, 2):
        for which in (0, 1):
            arrays = np.zeros((2, 2, 2, 3))
            arrays[which, 1, 0, mode] = np.nan
            with pytest.raises(ValidationError):
                Loop(T, *arrays, SYS2)
    big = np.full((2, 2, 2, 3), 1e300)
    big[:, :, 1] *= -1.0   # the two bodies mirror each other, so the centroid is zero
    loop = Loop(T, *big, SYS2)
    assert loop.cos_modes.tobytes() == big[0].tobytes()
    assert np.array_equal(loop.sin_modes[..., 1:], big[1][..., 1:])


def test_loop_rejects_coefficients_without_a_mode():
    with pytest.raises(ValidationError):
        Loop(1.0, np.zeros((2, 2, 0)), np.zeros((2, 2, 0)), MassSystem([1, 1]))


def test_loop_rejects_mismatched_coefficient_shapes():
    # checked before the two arrays are stacked, so the error is the library's
    for cos_modes, sin_modes in ((np.zeros((2, 2, 3)), np.zeros((2, 2, 4))),
                                 (np.zeros((2, 2, 3)), np.zeros((3, 2, 3))),
                                 ([[[0.0, 1.0]], [[0.0, 1.0]]], [[[0.0, 1.0, 2.0]], [[0.0, 1.0, 2.0]]])):
        with pytest.raises(ValidationError):
            Loop(T, cos_modes, sin_modes, SYS2)


def test_loop_params_are_a_copy():
    loop = random_loop(np.random.default_rng(19), SYS4)
    before = loop.ab.copy()
    p = loop.params()
    p[:] = np.nan
    assert loop.ab.tobytes() == before.tobytes()
    assert loop.params().tobytes() == before.tobytes()


def test_loop_keeps_its_coefficients_when_the_callers_arrays_change():
    rng = np.random.default_rng(20)
    a, b = rng.standard_normal((2, 3, 4, 6))
    a -= a.mean(axis=1, keepdims=True)
    b -= b.mean(axis=1, keepdims=True)
    b[:, :, 0] = 0.0
    loop = Loop(T, a, b, SYS4)
    before = loop.ab.copy()
    a[:] = 1.0
    b[:] = 2.0
    assert loop.ab.tobytes() == before.tobytes()
    assert np.shares_memory(loop.cos_modes, loop.ab) and np.shares_memory(loop.sin_modes, loop.ab)


def test_loop_taken_in_place_equals_the_checked_constructor_bitwise():
    # the minimizer hands its own fresh array to Loop._set, skipping the
    # checks and the copy; the loop must be the one Loop() builds, on arrays
    # with centroids, a nonzero constant sine mode and zeros of both signs
    rng = np.random.default_rng(21)
    for _ in range(50):
        n, d, K = int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(0, 12))
        sys = MassSystem(rng.uniform(0.5, 2.0, n))
        ab = rng.standard_normal((2, d, n, K + 1)) + rng.standard_normal((2, d, 1, 1))
        ab[rng.random(ab.shape) < 0.2] = 0.0
        ab[rng.random(ab.shape) < 0.2] = -0.0
        period = rng.uniform(0.1, 10.0)
        ref = Loop(period, ab[0], ab[1], sys)
        own = ab.copy()
        got = Loop.__new__(Loop)._set(period, own, sys)
        assert got.ab is own and ref.ab is not ab
        assert got.ab.tobytes() == ref.ab.tobytes()
        assert got.cos_modes.tobytes() == ref.cos_modes.tobytes()
        assert got.sin_modes.tobytes() == ref.sin_modes.tobytes()
        assert np.shares_memory(got.cos_modes, own) and np.shares_memory(got.sin_modes, own)
        assert (got.T, got.sys, got.d, got.n, got.n_modes) == (ref.T, ref.sys, d, n, K)
        assert type(got.T) is float and repr(got) == repr(ref)
    # Loop() keeps the checks: test_loop_rejects_a_period_or_coefficient_outside_the_reals


def test_seed_loops_need_a_first_harmonic():
    for n_modes in (0, -1):
        with pytest.raises(ValidationError):
            square_relative_equilibrium_loop(T, SYS4, n_modes)
        with pytest.raises(ValidationError):
            circular_two_body_loop(T, SYS2, n_modes)


# ---------------------------------------------------------------------------
# action and gradient


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        loop = random_loop(rng, SYS4)
        S0, g = action_value_and_gradient(loop)
        p = loop.params()
        h = 1e-5
        for k in rng.integers(0, p.size, 5):
            pp = p.copy(); pp[k] += h
            pm = p.copy(); pm[k] -= h
            fd = (action_value_and_gradient(with_params(loop, pp))[0]
                  - action_value_and_gradient(with_params(loop, pm))[0]) / (2 * h)
            if abs(fd) > 1e-10:
                worst = max(worst, abs(fd - g[k]) / abs(fd))
    assert worst < 1e-6


def test_action_scaling_identity():
    # Newtonian: S(lam x) = lam^2 * kinetic + lam^-1 * potential
    rng = np.random.default_rng(3)
    loop = random_loop(rng, SYS4)
    n_quad = 256
    ts = loop.nodes(n_quad)
    w = loop.T / n_quad
    x, v = loop.at_times(ts)
    K = np.einsum("i,qci,qci->q", SYS4.m, v, v)
    diff = x[:, :, :, None] - x[:, :, None, :]
    s = np.einsum("qcij,qcij->qij", diff, diff)
    iu = np.triu_indices(4, 1)
    U = (np.outer(SYS4.m, SYS4.m)[iu][None, :] * SYS4.G * s[:, iu[0], iu[1]] ** SYS4.kappa).sum(axis=1)
    S_kin, S_pot = w * (0.5 * K).sum(), w * U.sum()
    for lam in (0.5, 1.9):
        scaled = Loop(loop.T, lam * loop.cos_modes, lam * loop.sin_modes, SYS4)
        S_lam, _ = action_value_and_gradient(scaled, n_quad)
        assert S_lam == pytest.approx(lam**2 * S_kin + S_pot / lam, rel=1e-12)


def test_circular_two_body_loop_is_critical():
    loop = circular_two_body_loop(T, SYS2, 8)
    S, g = action_value_and_gradient(loop)
    assert np.linalg.norm(g) < 1e-8
    rep = verify_loop(loop, italian(2, 2))
    assert rep.eom_residual < 1e-8


def test_quadrature_is_spectrally_converged():
    loop = square_relative_equilibrium_loop(T, SYS4, 16, vertical_kick=0.2)
    S1, _ = action_value_and_gradient(loop, n_quad=256)
    S2, _ = action_value_and_gradient(loop, n_quad=512)
    assert abs(S1 - S2) < 1e-10 * abs(S1)


# ---------------------------------------------------------------------------
# symmetry machinery


def _rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# groups beyond the labels: z3 turned into a choreography-like class by a
# third-period shift (L = 3, a nonzero constant mode), and a generator of
# order 16 whose turns by 2 pi / 16 leave singular values 2 sin(pi / 16) =
# 0.39 off its class (L = 16, a nonzero constant mode)
Z3_THIRD = SymmetryAction(4, 3, [((1, 2, 0, 3), _rot_z(2.0 * np.pi / 3.0), Fraction(1, 3))])
TURN16 = SymmetryAction(2, 3, [((0, 1), _rot_z(2.0 * np.pi / 16.0), Fraction(1, 16))])


def character_count(elements, r):
    """(1/|G|) sum_g tr rho_r(g) on the centroid-free coefficients of a mode
    of residue r: tr Q (fixed bodies - 1), times 2 cos(turn) on the cosine/
    sine pair of a mode k > 0 (r = 0 is the constant mode, cosine only)."""
    total = 0.0
    for el in elements:
        p, q = el.shift.numerator, el.shift.denominator
        turn = 1.0 if r == 0 else 2.0 * np.cos(2.0 * np.pi * ((p * r) % q) / q)
        fixed = sum(i == j for i, j in enumerate(el.perm))
        total += turn * np.trace(el.matrix) * (fixed - 1)
    return total / len(elements)


def test_group_orders():
    # each block's dimension is the character count over the closed group
    for sym, masses, order in [(italian(4, 3), [1.0] * 4, 2), (hiphop_z2z4(), [1.0] * 4, 8),
                               (hiphop_z3(), [1.0] * 4, 6), (Z3_THIRD, [1.0, 1.0, 1.0, 2.0], 3),
                               (TURN16, [1.0, 2.0], 16)]:
        elements = group_elements(sym)
        assert len(elements) == order
        for r, (_, U) in enumerate(invariant_basis(sym, MassSystem(masses), sym.L)):
            count = character_count(elements, r)
            assert abs(count - round(count)) < 1e-12
            assert U.shape[1] == round(count)


def test_group_closure_guard():
    # a turn by 1 rad generates no finite group; its class is still the fixed
    # space of the generator: the z components, with x and y projected to 0
    # (to rounding)
    rot = _rot_z(1.0)
    sym = SymmetryAction(4, 3, [((0, 1, 2, 3), rot, 0)])
    loop = random_loop(np.random.default_rng(3), SYS4)
    proj = project_symmetry(loop, sym)
    for got, ref in ((proj.cos_modes, loop.cos_modes), (proj.sin_modes, loop.sin_modes)):
        assert np.abs(got[:2]).max() < 1e-15
        assert np.abs(got[2] - ref[2]).max() < 1e-15
    assert [U.shape[1] for _, U in invariant_basis(sym, SYS4, 8)] == [3, 6]
    # cycling the bodies as well leaves only the zero loop
    cyclic = SymmetryAction(4, 3, [((1, 2, 3, 0), rot, 0)])
    assert [U.shape[1] for _, U in invariant_basis(cyclic, SYS4, 8)] == [0, 0]
    assert np.all(project_symmetry(loop, cyclic).params() == 0.0)
    with pytest.raises(ValidationError):
        group_elements(sym)   # the closure refuses it


def test_symmetry_rejects_unequal_mass_permutation():
    sys = MassSystem([1.0, 2.0, 1.0, 1.0])
    loop = random_loop(np.random.default_rng(4), sys)
    with pytest.raises(ValidationError):
        project_symmetry(loop, hiphop_z2z4())


def test_italian_projection_kills_even_harmonics():
    rng = np.random.default_rng(5)
    loop = random_loop(rng, SYS4)
    proj = project_symmetry(loop, italian(4, 3))
    assert np.abs(proj.cos_modes[:, :, 0::2]).max() < 1e-15
    assert np.abs(proj.sin_modes[:, :, 0::2]).max() < 1e-15
    assert np.allclose(proj.cos_modes[:, :, 1::2], loop.cos_modes[:, :, 1::2], atol=1e-15)
    # invariance of the path: x(t + T/2) = -x(t)
    ts = np.linspace(0.0, T / 2, 9)
    assert np.abs(proj.at_times(ts + T / 2)[0] + proj.at_times(ts)[0]).max() < 1e-12


def test_projection_idempotent():
    rng = np.random.default_rng(6)
    loop = random_loop(rng, SYS4)
    for sym in (italian(4, 3), hiphop_z2z4(), hiphop_z3()):
        p1 = project_symmetry(loop, sym)
        p2 = project_symmetry(p1, sym)
        assert np.abs(p2.cos_modes - p1.cos_modes).max() < 1e-14
        assert np.abs(p2.sin_modes - p1.sin_modes).max() < 1e-14


def test_projection_does_not_increase_action():
    rng = np.random.default_rng(7)
    for _ in range(5):
        loop = random_loop(rng, SYS4, amp=0.02)
        proj = project_symmetry(loop, hiphop_z2z4())
        S0, _ = action_value_and_gradient(loop)
        S1, _ = action_value_and_gradient(proj)
        assert S1 <= S0 + 1e-10 * abs(S0)


def test_z2z4_forces_square_projection_always():
    rng = np.random.default_rng(8)
    seed = square_relative_equilibrium_loop(T, SYS4, 8, vertical_kick=0.2)
    noisy = Loop(T, seed.cos_modes + 0.05 * rng.normal(size=seed.cos_modes.shape),
                 seed.sin_modes + 0.05 * rng.normal(size=seed.sin_modes.shape), SYS4)
    proj = project_symmetry(noisy, hiphop_z2z4())
    for t in np.linspace(0.0, T, 17):
        x = proj.at_times([t])[0][0]
        h = x[0] + 1j * x[1]
        z = x[2]
        assert abs(h[1] - 1j * h[0]) < 1e-13
        assert abs(h[2] + h[0]) < 1e-13
        assert abs(h[3] + 1j * h[0]) < 1e-13
        assert abs(z[1] + z[0]) < 1e-13 and abs(z[2] - z[0]) < 1e-13
        assert shape_distance(squared_distances(x[:2], SYS4), SQUARE_PATTERN) < 1e-10 \
            or np.abs(h).max() < 1e-12


def test_invariant_basis_spans_projector_range():
    Z = dense_basis(invariant_basis(hiphop_z2z4(), SYS4, 8), 8)
    template = Loop(T, np.zeros((3, 4, 9)), np.zeros((3, 4, 9)), SYS4)
    assert np.allclose(Z.T @ Z, np.eye(Z.shape[1]), atol=1e-12)
    rng = np.random.default_rng(9)
    p = rng.normal(size=Z.shape[0])
    proj = project_symmetry(with_params(template, p), hiphop_z2z4()).params()
    # projected vectors lie in span(Z)
    assert np.abs(proj - Z @ (Z.T @ proj)).max() < 1e-12


@pytest.mark.parametrize("sym, sys, K", [
    (hiphop_z2z4(), SYS4, 8), (italian(4, 3), SYS4, 8), (hiphop_z3(), SYS4, 8),
    (italian(2, 2), MassSystem([1.0, 2.0]), 8),
    (italian(4, 3), MassSystem([1.0, 2.0, 3.0, 4.0]), 8),
    (hiphop_z3(), MassSystem([1.0, 1.0, 1.0, 2.0]), 8),
    (italian(3, 2), MassSystem([1.0, 2.0, 3.0]), 8),
    (italian(4, 2), MassSystem([1.0, 1.0, 2.0, 3.0]), 8),
    (italian(2, 3), MassSystem([1.0, 3.0]), 8),
    (Z3_THIRD, MassSystem([1.0, 1.0, 1.0, 2.0]), 8),
    (TURN16, MassSystem([1.0, 2.0]), 17),
], ids=["z2z4", "italian", "z3", "italian-2-body", "italian-masses-1-4", "z3-heavy-axis",
        "italian-3-2", "italian-4-2", "italian-2-3", "z3-third", "turn16"])
def test_invariant_basis_matches_dense_projector(sym, sys, K):
    # oracle: the range of the full N x N group average over the closed
    # group, one column per unit vector
    blocks = invariant_basis(sym, sys, K)
    Z = dense_basis(blocks, K)
    template = Loop(T, np.zeros((sym.d, sym.n, K + 1)), np.zeros((sym.d, sym.n, K + 1)), sys)
    N = Z.shape[0]
    P = np.stack([group_average_loop(with_params(template, e), sym).params() for e in np.eye(N)],
                 axis=1)
    u, sv, _ = np.linalg.svd(P)
    ref = u[:, sv > 0.5]
    assert Z.shape == ref.shape
    assert np.abs(Z @ Z.T - ref @ ref.T).max() < 1e-13
    assert [U.shape for _, U in blocks] == [U.shape for _, U in closure_invariant_basis(sym, sys, K)]
    # the projection is U U^T on the blocks: the dense projector itself
    proj = np.stack([project_symmetry(with_params(template, e), sym).params() for e in np.eye(N)],
                    axis=1)
    assert np.abs(proj - P).max() < 1e-13


def test_symmetry_by_label():
    ((perm, Q, shift),) = symmetry_by_label("italian").generators
    assert perm == (0, 1, 2, 3) and np.array_equal(Q, -np.eye(3)) and shift == Fraction(1, 2)
    for label in ("nope", "hiphop_Z2xZ4", "hiphop_Z3"):
        with pytest.raises(ValidationError):
            symmetry_by_label(label)
    # every listed label, the hiphop --symmetry choices, resolves to its group
    groups = {"z2z4": hiphop_z2z4(), "italian": italian(4, 3), "z3": hiphop_z3()}
    assert SYMMETRY_LABELS == tuple(groups)
    for label in SYMMETRY_LABELS:
        assert symmetry_by_label(label) is groups[label]


@pytest.mark.parametrize("label", ["z2z4", "italian", "z3"])
def test_cached_blocks_equal_fresh_ones_bitwise(label):
    sym = symmetry_by_label(label)
    for K in (8, 16, 64, 200):
        blocks = invariant_basis(sym, SYS4, K)
        assert len(blocks) == min(sym.L, K) + 1
        for r, (modes, U) in enumerate(blocks):
            assert modes.tolist() == ([0] if r == 0 else list(range(r, K + 1, sym.L)))
            assert U.tobytes() == nbodyred.action._mode_basis(sym, SYS4, r).tobytes()
            assert U is invariant_basis(sym, SYS4, 8 + K)[r][1]   # shared across K


def test_groups_and_cached_blocks_are_read_only():
    sym = symmetry_by_label("z2z4")
    assert isinstance(sym.generators, tuple)
    with pytest.raises(ValueError):
        sym.generators[1][1][0, 0] = 2.0
    with pytest.raises(TypeError):
        sym.generators[1][2] = 0
    _, U = invariant_basis(sym, SYS4, 16)[1]
    with pytest.raises(ValueError):
        U[0, 0] = 2.0


def test_labels_share_one_group_per_process():
    assert symmetry_by_label("z2z4") is symmetry_by_label("z2z4")
    assert symmetry_by_label("z3") is symmetry_by_label("z3")
    assert italian(4, 3) is symmetry_by_label("italian")
    assert italian(3, 2) is not symmetry_by_label("italian")
    # the factories return the same shared groups
    assert hiphop_z2z4() is symmetry_by_label("z2z4")
    assert hiphop_z3() is symmetry_by_label("z3")


def test_a_custom_group_keeps_its_own_blocks():
    # a group of its own with the generators of z3, built after the shared
    # z2z4 cache is filled: the cache belongs to each group
    shared = symmetry_by_label("z2z4")
    c, s = np.cos(2.0 * np.pi / 3.0), np.sin(2.0 * np.pi / 3.0)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    custom = SymmetryAction(4, 3, [((1, 2, 0, 3), rot, 0), ((0, 1, 2, 3), -np.eye(3), 0.5)])
    invariant_basis(shared, SYS4, 8)   # the shared cache is filled first
    dense = dense_basis(invariant_basis(custom, SYS4, 8), 8)
    other = dense_basis(invariant_basis(shared, SYS4, 8), 8)
    assert np.abs(dense @ dense.T - other @ other.T).max() > 0.1   # another subspace
    assert dense.tobytes() == dense_basis(invariant_basis(hiphop_z3(), SYS4, 8), 8).tobytes()


def test_other_masses_get_their_own_blocks():
    sym = italian(2, 2)
    light, heavy = MassSystem([1.0, 2.0]), MassSystem([1.0, 3.0])
    for sys in (light, heavy, light):
        for r, (_, U) in enumerate(invariant_basis(sym, sys, 8)):
            assert U.tobytes() == nbodyred.action._mode_basis(sym, sys, r).tobytes()
    assert not np.array_equal(invariant_basis(sym, light, 8)[1][1],
                              invariant_basis(sym, heavy, 8)[1][1])
    # a permutation of unequal masses fails every time, not only the first
    for _ in range(2):
        with pytest.raises(ValidationError):
            invariant_basis(hiphop_z2z4(), MassSystem([1.0, 2.0, 1.0, 1.0]), 8)


# ---------------------------------------------------------------------------
# minimization


def test_two_body_italian_minimizer_is_circular():
    exact = circular_two_body_loop(T, SYS2, 8)
    rng = np.random.default_rng(10)
    seed = Loop(T, exact.cos_modes + 0.1 * rng.normal(size=exact.cos_modes.shape),
                exact.sin_modes + 0.1 * rng.normal(size=exact.sin_modes.shape), SYS2)
    out = minimize_action(seed, italian(2, 2), MinimizeOptions(gtol=1e-9))
    S_out, _ = action_value_and_gradient(out)
    S_exact, _ = action_value_and_gradient(exact)
    assert S_out == pytest.approx(S_exact, rel=1e-10)
    rep = verify_loop(out, italian(2, 2))
    assert rep.eom_residual < 1e-6
    # Kepler oracle: circular radius of the relative orbit
    orbit_r = (SYS2.G * SYS2.M / (2 * np.pi / T) ** 2) ** (1.0 / 3.0)
    x = out.at_times(out.nodes(64))[0]
    rel = np.hypot(x[:, 0, 0] - x[:, 0, 1], x[:, 1, 0] - x[:, 1, 1])
    assert np.abs(rel - orbit_r).max() < 1e-6


def test_planar_square_italian_minimizer_is_square_re():
    sys = SYS4
    exact = square_relative_equilibrium_loop(T, sys, 8)
    planar = Loop(T, exact.cos_modes[:2], exact.sin_modes[:2], sys)
    rng = np.random.default_rng(11)
    seed = Loop(T, planar.cos_modes + 0.05 * rng.normal(size=planar.cos_modes.shape),
                planar.sin_modes + 0.05 * rng.normal(size=planar.sin_modes.shape), sys)
    out = minimize_action(seed, italian(4, 2), MinimizeOptions(gtol=1e-8))
    S_out, _ = action_value_and_gradient(out)
    S_sq, _ = action_value_and_gradient(planar)
    assert S_out <= S_sq + 1e-8 * S_sq
    rep = verify_loop(out, italian(4, 2))
    assert rep.eom_residual < 1e-5


def test_minimizer_stays_in_symmetry_class():
    seed = square_relative_equilibrium_loop(T, SYS4, 8, vertical_kick=0.25)
    out = minimize_action(seed, hiphop_z2z4(), MinimizeOptions(gtol=1e-6))
    rep = verify_loop(out, sym=hiphop_z2z4())
    assert rep.symmetry_defect < 1e-12


# ---------------------------------------------------------------------------
# verification


def test_verify_exact_solution():
    rep = verify_loop(circular_two_body_loop(T, SYS2, 8), italian(2, 2))
    assert rep.eom_residual < 1e-8
    assert rep.symmetry_defect < 1e-12


@pytest.mark.filterwarnings("error")
def test_verify_a_loop_at_rest():
    # three bodies at rest: the spectral acceleration is zero at every node,
    # so the residual is measured on the scale of the forces, where it is 1
    sys = MassSystem([1.0, 2.0, 3.0])
    cos_modes = np.zeros((2, 3, 5))
    cos_modes[:, :, 0] = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    rep = verify_loop(Loop(T, cos_modes, np.zeros_like(cos_modes), sys), italian(3, 2))
    assert rep.eom_residual == 1.0


def test_verify_residual_grows_with_perturbation():
    rng = np.random.default_rng(12)
    base = circular_two_body_loop(T, SYS2, 8)
    resids = []
    for eps in (1e-6, 1e-4, 1e-2):
        noisy = Loop(T, base.cos_modes + eps * rng.normal(size=base.cos_modes.shape),
                     base.sin_modes + eps * rng.normal(size=base.sin_modes.shape), SYS2)
        resids.append(verify_loop(noisy, italian(2, 2)).eom_residual)
    assert resids[0] < resids[1] < resids[2]


def test_hiphop_minimizer_full_properties():
    seed = square_relative_equilibrium_loop(T, SYS4, 16, vertical_kick=0.3)
    out = minimize_action(seed, hiphop_z2z4(), MinimizeOptions(gtol=1e-6))
    rep = verify_loop(out, sym=hiphop_z2z4())
    assert rep.eom_residual < 1e-3
    assert rep.planarity > 0.05  # genuinely non-planar
    assert len(rep.square_events) == 2
    assert len(rep.tetra_events) == 2
    # vertical antiphase of the diagonals
    ts = out.nodes(64)
    x = out.at_times(ts)[0]
    assert np.abs(x[:, 2, 0] + x[:, 2, 1]).max() < 1e-8
    assert np.abs(x[:, 2, 0] - x[:, 2, 2]).max() < 1e-8
    # strictly below the planar square relative equilibrium
    S_hip, _ = action_value_and_gradient(out)
    S_sq, _ = action_value_and_gradient(square_relative_equilibrium_loop(T, SYS4, 16))
    assert S_hip < S_sq - 1e-3


def test_verify_loop_peak_memory_follows_one_coordinate():
    # the 2,048-node scan holds one coordinate's nodes and pair differences
    # at a time, 64 and 96 KiB; the whole (d, n, q) and (d, P, q) stacks,
    # 192 and 288 KiB, took a call at K = 64 to 967 KiB
    sym = hiphop_z2z4()
    loop = minimize_action(square_relative_equilibrium_loop(T, SYS4, 64, vertical_kick=0.3), sym,
                           MinimizeOptions(gtol=1e-6))
    verify_loop(loop, sym)   # the caches of the period, masses and residues
    tracemalloc.start()
    try:
        verify_loop(loop, sym)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800 * 1024


def test_planarity_is_the_singular_value_ratio_of_the_scan():
    # the singular values of the modes give the SVD's ratio of the scanned cloud
    out = minimize_action(square_relative_equilibrium_loop(T, SYS4, 32, 0.3), hiphop_z2z4(),
                          MinimizeOptions(gtol=1e-6))
    flat = out.at_nodes(2048, 0)[0].transpose(1, 0, 2).reshape(3, -1)
    sv = np.linalg.svd(flat - flat.mean(axis=1, keepdims=True), compute_uv=False)
    ratio = sv[-1] / sv[0]
    assert abs(verify_loop(out, hiphop_z2z4()).planarity - ratio) <= 1e-12 * ratio


def cloud_ratio(loop, n_scan=2048):
    """Smallest-to-largest singular value ratio of the centred node cloud."""
    flat = loop.at_nodes(n_scan, 0)[0].transpose(1, 0, 2).reshape(loop.d, -1)
    sv = np.linalg.svd(flat - flat.mean(axis=1, keepdims=True), compute_uv=False)
    return sv[-1] / sv[0]


@pytest.mark.parametrize("K", [1, 8, 40])
def test_planarity_by_parseval_is_the_singular_value_ratio_of_random_loops(K):
    # three to five bodies of random masses kept apart by their constant
    # modes, so the plain mean of the cloud differs from the mass-weighted
    # centroid (two bodies at K = 1 make a nearly planar cloud, whose ratio
    # the squared table resolves only to about eps / ratio^2)
    rng = np.random.default_rng(17 + K)
    for _ in range(6):
        n = int(rng.integers(3, 6))
        sys = MassSystem(rng.uniform(0.5, 3.0, n))
        a, b = 0.3 * rng.standard_normal((2, 3, n, K + 1))
        a[..., 0] = 3.0 * rng.standard_normal((3, n))
        loop = Loop(rng.uniform(1.0, 10.0), a, b, sys)
        ratio = cloud_ratio(loop)
        assert abs(verify_loop(loop, italian(n, 3)).planarity - ratio) <= 1e-12 * ratio


def test_planarity_takes_the_plain_mean_of_unequal_masses():
    # italian(3, 3) with masses (1, 2, 3): the centred cloud subtracts its
    # plain mean, which the mass-weighted centroid removal leaves nonzero
    sys = MassSystem([1.0, 2.0, 3.0])
    a = np.zeros((3, 3, 4))
    a[:, :, 0] = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.0]]
    a[0, :, 1], a[1, :, 3] = [0.3, -0.2, 0.1], [0.1, 0.2, -0.1]
    loop = Loop(T, a, np.roll(a, 1, axis=0), sys)
    assert np.abs(loop.cos_modes[:, :, 0].mean(axis=1)).max() > 0.1
    ratio = cloud_ratio(loop)
    assert abs(verify_loop(loop, italian(3, 3)).planarity - ratio) <= 1e-12 * ratio


@pytest.mark.parametrize("eps", [5.4e-4, 1e-5, 1e-7, 1e-10])
def test_planarity_of_a_nearly_planar_loop_is_not_squared(eps):
    # x = +-(cos t, sin t, eps) under 50 random rotations: the cloud's
    # singular values are 1, 1 and sqrt(2) eps, whose ratio a d x d table
    # of squares resolves only to about 1e-16 / eps^2
    rng = np.random.default_rng(19)
    a, b = np.zeros((2, 3, 2, 2))
    a[2, :, 0], a[0, :, 1], b[1, :, 1] = [eps, -eps], [1.0, -1.0], [1.0, -1.0]
    for _ in range(50):
        R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        loop = Loop(T, np.tensordot(R, a, 1), np.tensordot(R, b, 1), SYS2)
        planarity = verify_loop(loop, italian(2, 3)).planarity
        assert abs(planarity / (np.sqrt(2.0) * eps) - 1.0) <= 1e-15 / eps


def test_planarity_is_zero_in_the_plane_and_on_the_line():
    rng = np.random.default_rng(18)
    for d in (1, 2):
        a, b = 0.1 * rng.standard_normal((2, d, 3, 5))
        a[0, :, 0] = [-2.0, 0.0, 2.0]
        assert verify_loop(Loop(T, a, b, MassSystem([1.0, 2.0, 3.0])), italian(3, d)).planarity == 0.0
    # three bodies at rest in R^4: fewer coefficient columns than axes
    a = rng.standard_normal((4, 3, 1))
    loop = Loop(T, a, np.zeros_like(a), MassSystem([1.0, 2.0, 3.0]))
    assert verify_loop(loop, italian(3, 4)).planarity == 0.0


def test_tetra_events_stable_under_last_bit_perturbations():
    # the visit between the square passages at 0 and pi reaches the
    # tetrahedral shape at t and at its mirror image pi - t, tied to
    # rounding: the report takes the earlier one whatever the last bits say
    seed = square_relative_equilibrium_loop(T, SYS4, 8, vertical_kick=0.3)
    out = minimize_action(seed, hiphop_z2z4(), MinimizeOptions(gtol=1e-6))
    ref = verify_loop(out, hiphop_z2z4())
    assert ref.square_events == [0.0, np.pi]
    assert len(ref.tetra_events) == 2 and 0.0 < ref.tetra_events[0] < np.pi / 2
    rng = np.random.default_rng(15)
    for _ in range(8):
        p = out.params() * (1.0 + 1e-15 * rng.standard_normal(out.params().size))
        rep = verify_loop(with_params(out, p), hiphop_z2z4())
        assert (rep.square_events, rep.tetra_events) == (ref.square_events, ref.tetra_events)


def test_hiphop_mode_convergence():
    # doubling the mode count barely changes the minimizer's action
    s16 = minimize_action(square_relative_equilibrium_loop(T, SYS4, 16, 0.3),
                          hiphop_z2z4(), MinimizeOptions(gtol=1e-7))
    s32 = minimize_action(square_relative_equilibrium_loop(T, SYS4, 32, 0.3),
                          hiphop_z2z4(), MinimizeOptions(gtol=1e-7))
    a16, _ = action_value_and_gradient(s16, 512)
    a32, _ = action_value_and_gradient(s32, 512)
    assert abs(a16 - a32) < 1e-6 * abs(a16)


def test_hiphop_converges_at_128_modes():
    sym = hiphop_z2z4()
    s16 = minimize_action(square_relative_equilibrium_loop(T, SYS4, 16, 0.3), sym,
                          MinimizeOptions(gtol=1e-6))
    s128 = minimize_action(square_relative_equilibrium_loop(T, SYS4, 128, 0.3), sym,
                           MinimizeOptions(gtol=1e-6))
    rep = verify_loop(s128, sym=sym)
    assert rep.eom_residual < 1e-3
    assert rep.symmetry_defect < 1e-12
    a16 = verify_loop(s16, sym).action
    assert abs(rep.action - a16) < 1e-6 * abs(a16)


def counted_minimize(monkeypatch, seed, sym, gtol):
    """minimize_action with its action evaluations counted through the
    module attribute that the minimizer looks up."""
    calls = []
    inner = nbodyred.action.action_value_and_gradient

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(nbodyred.action, "action_value_and_gradient", counted)
    return minimize_action(seed, sym, MinimizeOptions(gtol=gtol)), len(calls)


@pytest.mark.parametrize("label, K", [("z2z4", 16), ("z2z4", 64), ("z2z4", 200),
                                      ("italian", 64), ("z3", 64)])
def test_evaluation_count_does_not_depend_on_mode_count(monkeypatch, label, K):
    # the mode-weighted initial inverse Hessian absorbs the (k w)^2 growth of
    # the kinetic term: without it the count grows like K (3071 at K = 200)
    sym = symmetry_by_label(label)
    seed = square_relative_equilibrium_loop(T, SYS4, K, vertical_kick=0.3)
    out, nfev = counted_minimize(monkeypatch, seed, sym, 1e-6)
    assert nfev <= 40
    assert verify_loop(out, sym=sym).symmetry_defect < 1e-12


def test_hiphop_events_and_action_agree_across_mode_counts():
    # the first tetrahedral passage and its mirror image lie 1.04 apart, so
    # agreement to 1e-9 says every K lands on the same image of one loop
    sym = hiphop_z2z4()
    reps = {K: verify_loop(minimize_action(square_relative_equilibrium_loop(T, SYS4, K, 0.3),
                                           sym, MinimizeOptions(gtol=1e-6)), sym=sym)
            for K in (8, 16, 64, 128, 200)}
    ref = reps[200]
    assert len(ref.tetra_events) == 2 and 0.0 < ref.tetra_events[0] < np.pi / 2
    for K, rep in reps.items():
        assert np.abs(np.subtract(rep.tetra_events, ref.tetra_events)).max() < 1e-9, K
        if K >= 16:
            assert abs(rep.action - ref.action) < 1e-9 * abs(ref.action), K


def test_minimizer_builds_no_generator_without_a_restart(monkeypatch):
    def no_generator(*args):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    seed = square_relative_equilibrium_loop(T, SYS4, 16, vertical_kick=0.3)
    minimize_action(seed, hiphop_z2z4(), MinimizeOptions(gtol=1e-6, seed=7))


def test_a_class_without_coordinates_is_a_collision():
    # x(t + T/2) = x(t) and = -x(t): every block is empty, so the class
    # holds only the loop with all bodies at the origin
    sym = SymmetryAction(4, 3, [((0, 1, 2, 3), -np.eye(3), Fraction(1, 2)),
                                ((0, 1, 2, 3), np.eye(3), Fraction(1, 2))])
    seed = square_relative_equilibrium_loop(T, SYS4, 8, vertical_kick=0.3)
    assert all(U.shape[1] == 0 for _, U in invariant_basis(sym, SYS4, 8))
    with pytest.raises(CollisionApproach):
        minimize_action(seed, sym, MinimizeOptions())


def test_minimizer_logs_its_work(monkeypatch, caplog):
    seed = square_relative_equilibrium_loop(T, SYS4, 16, vertical_kick=0.3)
    with caplog.at_level(logging.INFO, logger="nbodyred"):
        _, nfev = counted_minimize(monkeypatch, seed, hiphop_z2z4(), 1e-6)
    lines = [r for r in caplog.records if r.name == "nbodyred"]
    assert len(lines) == 1 and lines[0].levelno == logging.INFO
    evals, iters, restarts, gnorm = lines[0].args
    assert (evals, restarts) == (nfev, 0)
    assert 0 < iters < evals and gnorm <= 1e-6
    assert f"{nfev} evaluations" in lines[0].getMessage()


def test_kepler_action_oracle_for_circular_loop():
    # circular loop action = T (K/2 + U) with the Kepler circular values
    loop = circular_two_body_loop(T, SYS2, 6)
    S, _ = action_value_and_gradient(loop)
    w = 2 * np.pi / T
    rho = (SYS2.G * SYS2.M / w**2) ** (1.0 / 3.0)
    mu = SYS2.m[0] * SYS2.m[1] / SYS2.M
    K = mu * (w * rho) ** 2
    U = SYS2.G * SYS2.m[0] * SYS2.m[1] / rho
    assert S == pytest.approx(T * (0.5 * K + U), rel=1e-12)


def test_italian_and_z3_classes_minimize():
    # the other exposed classes converge to collision-free critical points;
    # no claim is made about the italian minimizer coinciding with the
    # square/tetrahedron one (it lands on the same action value here)
    seed = square_relative_equilibrium_loop(T, SYS4, 12, vertical_kick=0.3)
    for label in ("italian", "z3"):
        sym = symmetry_by_label(label)
        out = minimize_action(seed, sym, MinimizeOptions(gtol=1e-5))
        rep = verify_loop(out, sym=sym)
        assert rep.symmetry_defect < 1e-12
        assert rep.min_distance > 0.5
        S, _ = action_value_and_gradient(out)
        S_sq, _ = action_value_and_gradient(square_relative_equilibrium_loop(T, SYS4, 12))
        assert S < S_sq
