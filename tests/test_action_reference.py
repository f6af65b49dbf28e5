"""The array forms of the action layer's helpers against the loops they
replaced.

Each reference below is the earlier implementation, kept verbatim as the
oracle: the scan for local minima, the shape distance to one pattern at a
time (and, in oracles.py, verify_loop's four-body events on a scan in the
row layout and its scan of the whole (d, P, q) stack), the node evaluation
by a stack of derivative spectra and the minimizer's bookkeeping (block
splits at every evaluation, correction pairs in two lists).  The array forms must agree with them bit for bit.
The action's node pass, whose kinetic part is a sum over the modes, is
held to the node sums of oracles.py to rounding.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import nbodyred.action
from nbodyred.action import (
    Loop,
    SQUARE_PATTERN,
    TETRA_PATTERN,
    MinimizeOptions,
    SymmetryAction,
    _local_minima_below,
    _scan_distances,
    _square_tetra_events,
    action_value_and_gradient,
    minimize_action,
    shape_distance,
    square_relative_equilibrium_loop,
    verify_loop,
)
from nbodyred.errors import CollisionAtNode, CollisionApproach, NoConvergence
from nbodyred.geometry import MassSystem, pair_forces, pair_kernel, relative_scale, squared_distances
from oracles import (
    closure_invariant_basis,
    node_sum_action_value_and_gradient,
    shape_distance_rows,
    square_tetra_events_rows,
    whole_stack_scan,
    with_params,
)

SYS4 = MassSystem([1.0] * 4)
T = 2.0 * np.pi


# ---------------------------------------------------------------------------
# local minima of a circular scan


def local_minima_below_reference(ts, vals, tol):
    events = []
    for q in range(ts.size):
        prev_v, next_v = vals[q - 1], vals[(q + 1) % ts.size]
        if vals[q] < tol and vals[q] <= prev_v and vals[q] < next_v:
            events.append(q)
    return events


def test_local_minima_match_the_loop_on_random_scans():
    rng = np.random.default_rng(3)
    for size in (1, 2, 3, 5, 64, 2048):
        for _ in range(20):
            # coarse rounding makes plateaus, so ties on either side occur
            vals = np.round(rng.uniform(0.0, 1.0, size), int(rng.integers(1, 4)))
            tol = rng.uniform(0.0, 1.2)
            ref = local_minima_below_reference(np.arange(size), vals, tol)
            got = _local_minima_below(vals, tol)
            assert got == ref
            assert all(type(q) is int for q in got)


@pytest.mark.parametrize("vals, tol, expected", [
    ([0.1, 0.5, 0.9, 0.5], 1.0, [0]),              # a minimum at node 0
    ([0.5, 0.9, 0.5, 0.1], 1.0, [3]),              # at the last node
    ([0.5, 0.2, 0.2, 0.5], 1.0, [2]),              # equal predecessor counts
    ([0.5, 0.2, 0.2, 0.2, 0.5], 1.0, [3]),         # a plateau reports its last node
    ([0.2, 0.5, 0.9, 0.2], 1.0, [0]),              # ties across the wrap
    ([0.3, 0.3, 0.3], 1.0, []),                    # flat: no strict successor
    ([0.1, 0.5, 0.9, 0.5], 0.1, []),               # nothing below tol
    ([0.1, 0.5, 0.05, 0.5], 0.1, [2]),
    ([np.nan, 0.1, 0.5, 0.5], 1.0, []),            # NaN neighbours compare false
])
def test_local_minima_edge_cases(vals, tol, expected):
    vals = np.array(vals)
    assert _local_minima_below(vals, tol) == expected
    assert local_minima_below_reference(np.arange(vals.size), vals, tol) == expected


def shape_distance_reference(s, pattern):
    dists = np.sort(np.sqrt(s), axis=-1)
    dists = dists / np.linalg.norm(dists, axis=-1, keepdims=True)
    return np.linalg.norm(dists - pattern / np.linalg.norm(pattern), axis=-1)


def test_shape_distance_of_a_pattern_stack_matches_each_pattern():
    rng = np.random.default_rng(4)
    s = squared_distances(rng.standard_normal((300, 3, 4)), SYS4)
    patterns = np.stack([SQUARE_PATTERN, TETRA_PATTERN])
    both = shape_distance(s.T, patterns[:, None])
    for p, got in zip(patterns, both):
        ref = shape_distance_reference(s, p)
        assert got.tobytes() == ref.tobytes()
        assert shape_distance(s.T, p).tobytes() == ref.tobytes()


def test_shape_distance_sorts_every_order_of_six_distances():
    # the sorting network against np.sort: a pattern equal to the sorted
    # distances reads exactly 0 for each of the 720 orders of six distinct
    # values, and orders with ties repeat the row layout's bits
    patterns = np.stack([SQUARE_PATTERN, TETRA_PATTERN])
    for values in ([0.3, 0.7, 1.0, 1.1, 1.9, 2.5], [1.0, 1.0, 2.0, 2.0, 3.0, 3.0],
                   [1.0, 1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0)], [1.0] * 6, [0.0, 0.0, 1.0, 1.0, 1.0, 2.0]):
        values = np.array(values)
        s = np.array(list(itertools.permutations(values ** 2))).T   # (6, 720)
        assert shape_distance(s, np.sort(values)).tobytes() == bytes(8 * s.shape[1])
        ref = shape_distance_rows(s.T, patterns[:, None])
        assert shape_distance(s, patterns).tobytes() == ref.tobytes()


def test_verify_events_match_the_row_layout_scan():
    # the benchmark's five minimized loops, z2z4 at K = 8 and at K = 200 (a
    # loop whose tetrahedral approaches tie with their mirror images), and
    # three 1e-15 relative perturbations of each
    cases = [("z2z4", 16), ("z2z4", 32), ("z2z4", 64), ("italian", 16), ("z3", 16), ("z2z4", 8), ("z2z4", 200)]
    rng = np.random.default_rng(16)
    squares = 0
    for label, K in cases:
        sym = nbodyred.action.symmetry_by_label(label)
        out = minimize_action(square_relative_equilibrium_loop(T, SYS4, K, vertical_kick=0.3), sym,
                              MinimizeOptions(gtol=1e-6))
        p = out.params()
        for loop in [out] + [with_params(out, p * (1.0 + 1e-15 * rng.standard_normal(p.size))) for _ in range(3)]:
            n_scan = max(2048, 8 * K)
            s = squared_distances(loop.at_nodes(n_scan, 0)[0], SYS4)   # (q, 6)
            ref = square_tetra_events_rows(loop.nodes(n_scan), s, 1e-2)
            rep = verify_loop(loop, sym)
            assert (rep.square_events, rep.tetra_events) == ref
            squares += len(ref[0])
    assert squares >= 2 * 4 * 4   # the z2z4 loops and their perturbations pass the square twice


def scan_cases():
    """(group, loop) of every shipped group minimized at K = 8-128 from the
    benchmark's seed (its five cases among them), each with one loop
    perturbed by 5 % noise in every coefficient."""
    rng = np.random.default_rng(43)
    for label, K in itertools.product(("z2z4", "italian", "z3"), (8, 16, 32, 64, 128)):
        sym = nbodyred.action.symmetry_by_label(label)
        out = minimize_action(square_relative_equilibrium_loop(T, SYS4, K, vertical_kick=0.3), sym,
                              MinimizeOptions(gtol=1e-6))
        yield sym, out
        yield sym, Loop(T, *(out.ab + 0.05 * rng.standard_normal(out.ab.shape)), SYS4)


def test_scan_repeats_the_whole_stack_scan_bitwise():
    # the coordinate-at-a-time scan against the whole (d, P, q) stack, its
    # squared distances and verify_loop's events on them, byte for byte
    events = 0
    for sym, loop in scan_cases():
        n_scan = max(2048, 8 * loop.n_modes)
        ref = whole_stack_scan(loop, n_scan)
        assert _scan_distances(loop, n_scan).tobytes() == ref.tobytes()
        rep = verify_loop(loop, sym)
        assert (rep.square_events, rep.tetra_events) == _square_tetra_events(loop.nodes(n_scan), ref, 1e-2)
        events += len(rep.square_events) + len(rep.tetra_events)
    assert events >= 4 * 5   # the minimized z2z4 loops pass the square and the tetrahedron twice


def test_scan_of_random_four_body_loops_repeats_the_whole_stack_scan_bitwise():
    # unequal masses, R^1 to R^4, zeros of both signs, and scans at any node count above 2 K
    rng = np.random.default_rng(44)
    for d, K in itertools.product((1, 2, 3, 4), (1, 7, 40)):
        a, b = rng.standard_normal((2, d, 4, K + 1))
        a[rng.random(a.shape) < 0.2] = 0.0
        b[rng.random(b.shape) < 0.2] = -0.0
        loop = Loop(rng.uniform(1.0, 10.0), a, b, MassSystem(rng.uniform(0.5, 2.0, 4)))
        for n_scan in (2 * K + 1, 2048, 2051):
            assert _scan_distances(loop, n_scan).tobytes() == whole_stack_scan(loop, n_scan).tobytes()


def test_eom_residual_repeats_the_stacked_node_pass():
    # the accelerations by their own inverse FFT give the residual that the
    # order-2 stack of positions, velocities and accelerations gave
    for sym, loop in itertools.islice(scan_cases(), 0, None, 3):
        n_quad = max(256, 8 * loop.n_modes)
        x, _, acc = loop.at_nodes(n_quad, 2).transpose(0, 2, 3, 1)
        f = pair_forces(x, SYS4, pair_kernel(SYS4)[0])[2]
        eom = np.abs(acc - f).max() / relative_scale(np.abs(acc).max(), np.abs(f).max())
        assert verify_loop(loop, sym).eom_residual == eom


# ---------------------------------------------------------------------------
# node evaluation


def at_nodes_reference(loop, n_quad, order=1):
    K = loop.n_modes
    c = loop.cos_modes - 1j * loop.sin_modes
    c[..., 1:] *= 0.5
    ikw = 1j * np.arange(K + 1) * (2.0 * np.pi / loop.T)
    derivs = np.stack([c * ikw**p for p in range(order + 1)])
    return np.moveaxis(np.fft.irfft(derivs, n_quad, norm="forward"), -1, 1)


def test_at_nodes_matches_the_stacked_spectra_bitwise():
    rng = np.random.default_rng(9)
    for _ in range(60):
        n, d, K = int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 40))
        a, b = rng.standard_normal((2, d, n, K + 1))
        a[rng.random(a.shape) < 0.2] = 0.0    # zeros of both signs
        b[rng.random(b.shape) < 0.2] = -0.0
        loop = Loop(rng.uniform(1.0, 10.0), a, b, MassSystem(rng.uniform(0.5, 2.0, n)))
        for order in (0, 1, 2):
            n_quad = 2 * K + 1 + int(rng.integers(0, 50))
            got = loop.at_nodes(n_quad, order)
            assert got.tobytes() == at_nodes_reference(loop, n_quad, order).tobytes()


# ---------------------------------------------------------------------------
# the node pass against the node sums


@pytest.mark.parametrize("kappa", [-0.5, -1.0, -0.3])
@pytest.mark.parametrize("K", [1, 8, 64])
def test_node_pass_matches_the_node_sum_evaluator(K, kappa):
    # the kinetic part by Parseval and U by c s / (2 kappa) against the
    # rectangle-rule sums at the nodes, on random loops of 2-5 bodies in R^1-R^3
    rng = np.random.default_rng(int(1000 * K - 10 * kappa))
    for _ in range(8):
        n, d = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        sys = MassSystem(rng.uniform(0.5, 2.0, n), G=rng.uniform(0.5, 2.0), kappa=kappa)
        a, b = 0.3 * rng.standard_normal((2, d, n, K + 1)) / np.arange(1, K + 2) ** 2
        a[0, :, 0] = 3.0 * np.arange(n)   # bodies kept apart along the first axis
        loop = Loop(rng.uniform(1.0, 10.0), a, b, sys)
        for n_quad in (2 * K + 1, None):
            S, g = action_value_and_gradient(loop, n_quad)
            S_ref, g_ref = node_sum_action_value_and_gradient(loop, n_quad)
            assert abs(S - S_ref) <= 1e-14 * abs(S_ref)
            assert np.abs(g - g_ref).max() <= 1e-13 * np.abs(g_ref).max()


# ---------------------------------------------------------------------------
# minimizer bookkeeping


def minimize_action_reference(seed_loop, sym, opts):
    """The minimizer with its earlier bookkeeping, on the blocks built from
    the closed group; returns the loop and the number of action evaluations."""
    sys, K = seed_loop.sys, seed_loop.n_modes
    n_quad = max(256, 4 * K)
    blocks = closure_invariant_basis(sym, sys, K)
    splits = np.cumsum([U.shape[1] * modes.size for modes, U in blocks])[:-1]
    w2 = np.concatenate([np.tile(modes, U.shape[1]) for modes, U in blocks]).clip(1) ** 2.0
    s = squared_distances(seed_loop.at_nodes(n_quad, 0)[0], sys)
    floor = 1e-3 * float(np.sqrt(s).mean())
    shape = (2, seed_loop.d, seed_loop.n, K + 1)

    def loop_at(xi_vec):
        c = np.zeros(shape).reshape(-1, K + 1)
        for (modes, U), Xi in zip(blocks, np.split(xi_vec, splits)):
            c[:, modes] = U @ Xi.reshape(U.shape[1], modes.size)
        c = c.reshape(shape)
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

    xi = coordinates(seed_loop.params())
    f, g = evaluate(xi)
    if not np.isfinite(f):
        raise CollisionApproach("seed loop is below the distance floor")

    rng = np.random.default_rng(opts.seed)
    s_hist, y_hist = [], []
    restarts_left = 3
    for nit in range(4000):
        gnorm = np.linalg.norm(g)
        if gnorm <= opts.gtol:
            return loop_at(xi), nfev

        q = g.copy()
        alphas = []
        for s_k, y_k in zip(reversed(s_hist), reversed(y_hist)):
            a_k = (s_k @ q) / (y_k @ s_k)
            q -= a_k * y_k
            alphas.append(a_k)
        if y_hist:
            q *= (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ (y_hist[-1] / w2)) / w2
        else:
            q *= 1.0 / (w2 * max(gnorm, 1.0))
        for (s_k, y_k), a_k in zip(zip(s_hist, y_hist), reversed(alphas)):
            b_k = (y_k @ q) / (y_k @ s_k)
            q += (a_k - b_k) * s_k
        direction = -q
        if direction @ g >= 0:
            direction = -g
            s_hist, y_hist = [], []

        step = 1.0
        accepted = False
        for _ in range(40):
            f_new, g_new = evaluate(xi + step * direction)
            if np.isfinite(f_new) and f_new <= f + 1e-4 * step * (direction @ g):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            if restarts_left > 0:
                restarts_left -= 1
                s_hist, y_hist = [], []
                jitter = 1e-6 * max(np.linalg.norm(xi), 1.0)
                for _ in range(20):
                    cand = xi + jitter * rng.standard_normal(xi.size)
                    f_c, g_c = evaluate(cand)
                    if np.isfinite(f_c):
                        xi, f, g = cand, f_c, g_c
                        break
                else:
                    raise CollisionApproach("distance floor blocks every restart")
                continue
            raise NoConvergence(f"line search stalled at gradient norm {np.linalg.norm(g):.3e}")

        s_k = step * direction
        y_k = g_new - g
        if s_k @ y_k > 1e-12 * np.linalg.norm(s_k) * np.linalg.norm(y_k):
            s_hist.append(s_k)
            y_hist.append(y_k)
            if len(s_hist) > 12:
                s_hist.pop(0)
                y_hist.pop(0)
        xi = xi + s_k
        f, g = f_new, g_new

    raise NoConvergence(f"gradient norm {np.linalg.norm(g):.3e} after 4000 iterations")


def group_by_name(name):
    """A shipped label's group, or one whose constant block or several
    residue blocks have columns: every shipped label leaves only the odd
    block live.  z3-rotation is hiphop_z3's rotation generator alone (L = 1,
    a live constant block); choreography is x_{i-1}(t + T/4) = x_i(t) (L = 4,
    three live residue blocks, the fourth and the constant one empty)."""
    if name == "z3-rotation":
        return SymmetryAction(4, 3, [nbodyred.action.hiphop_z3().generators[0]])
    if name == "choreography":
        return SymmetryAction(4, 3, [((3, 0, 1, 2), np.eye(3), Fraction(1, 4))])
    return nbodyred.action.symmetry_by_label(name)


@pytest.mark.parametrize("label, K, gtol", [("z2z4", 16, 1e-6), ("z2z4", 16, 1e-9),
                                            ("italian", 8, 1e-6), ("z3", 12, 1e-6),
                                            ("z3-rotation", 12, 1e-6), ("choreography", 12, 1e-6)])
def test_minimizer_repeats_the_reference_bitwise(monkeypatch, label, K, gtol):
    sym = group_by_name(label)
    seed = square_relative_equilibrium_loop(T, SYS4, K, vertical_kick=0.3)
    opts = MinimizeOptions(gtol=gtol)
    ref, ref_nfev = minimize_action_reference(seed, sym, opts)

    # the live minimizer runs on the same closure-built blocks, so the test
    # holds its bookkeeping to the reference on exactly the same inputs
    monkeypatch.setattr(nbodyred.action, "invariant_basis", closure_invariant_basis)
    calls = []
    inner = nbodyred.action.action_value_and_gradient

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(nbodyred.action, "action_value_and_gradient", counted)
    out = minimize_action(seed, sym, opts)
    assert len(calls) == ref_nfev
    assert out.params().tobytes() == ref.params().tobytes()


def test_distance_floor_repeats_the_reference_bitwise(monkeypatch):
    # the floor read on the inverse FFT's (d, n, q) layout is the mean the
    # reference takes over its (q, P) table, on seeds of every shape
    class Floor(Exception):
        pass

    def first_evaluation(loop, n_quad, collision_floor):
        raise Floor(collision_floor)

    monkeypatch.setattr(nbodyred.action, "action_value_and_gradient", first_evaluation)
    rng = np.random.default_rng(46)
    for d, n, K in itertools.product((1, 2, 3), (3, 4, 5), (1, 16, 64, 100)):
        a, b = rng.standard_normal((2, d, n, K + 1))
        seed = Loop(rng.uniform(1.0, 10.0), a, b, MassSystem(rng.uniform(0.5, 2.0, n)))
        s = squared_distances(seed.at_nodes(max(256, 4 * K), 0)[0], seed.sys)
        with pytest.raises(Floor) as caught:
            minimize_action(seed, SymmetryAction(n, d, [(range(n), np.eye(d), 0)]), MinimizeOptions())
        assert caught.value.args[0] == 1e-3 * float(np.sqrt(s).mean())


@pytest.mark.parametrize("gtol", [1e-11, 1e-12])
@pytest.mark.parametrize("label, K", [("z2z4", 16), ("z2z4", 64), ("italian", 16), ("z3", 16)])
def test_tight_search_reaches_the_reference_loop(label, K, gtol):
    # the live search runs on its own blocks and may accept a step whose
    # action is flat to rounding, which the reference never does; at these
    # tolerances the two paths may part in the last bits, not in the loop
    sym = nbodyred.action.symmetry_by_label(label)
    seed = square_relative_equilibrium_loop(T, SYS4, K, vertical_kick=0.3)
    opts = MinimizeOptions(gtol=gtol)
    ref = minimize_action_reference(seed, sym, opts)[0]
    out = minimize_action(seed, sym, opts)
    assert np.abs(out.params() - ref.params()).max() < 1e-13
    rep, ref_rep = verify_loop(out, sym), verify_loop(ref, sym)
    assert abs(rep.action - ref_rep.action) <= 1e-15 * abs(ref_rep.action)
    assert len(rep.square_events) == len(ref_rep.square_events)
    assert len(rep.tetra_events) == len(ref_rep.tetra_events)
