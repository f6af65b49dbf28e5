import logging
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (
    equilateral,
    find_balanced_oracle,
    interaction_table_oracle,
    isosceles,
    squared_distance_table,
    triangle_table,
)
from nbodyred.errors import InfeasibleSpectrum, NoConvergence, ValidationError
from nbodyred.geometry import (
    Configuration,
    MassSystem,
    gram_form,
    hyperplane_basis,
    inertia,
    pair_kernel,
    potential_and_gradient,
)
from nbodyred.configurations import (
    _hat,
    _orbit_cost_grad,
    classify,
    find_balanced,
    find_central,
    shape_sphere,
)
from oracles import (
    NotEmbeddable,
    _orbit_cost_grad as orbit_cost_grad_reference,
    balanced_residuals_pijk,
    orthonormal_hyperplane_basis,
    p_matrix,
)

SYS_EQ = MassSystem([1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize("n", [3, 4, 5, 7])
@pytest.mark.parametrize("kappa", [-0.3, -0.5, -1.0])
def test_p_matrix_matches_loop(n, kappa):
    # oracle: P_ij = (1/2 m_j) sum_{l != j} (s_il - s_ij) dU/ds_lj, term by term
    rng = np.random.default_rng(n)
    sys = MassSystem(rng.uniform(0.5, 2.0, n), kappa=kappa)
    s = squared_distance_table(rng.normal(size=(3, n)))
    du = -interaction_table_oracle(s, sys) * sys.m
    ref = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                ref[i, j] = sum((s[i, l] - s[i, j]) * du[l, j]
                                for l in range(n) if l != j) / (2.0 * sys.m[j])
    assert np.abs(p_matrix(s, du, sys.m) - ref).max() < 1e-13 * np.abs(ref).max()


def test_equilateral_is_central_for_any_masses():
    for masses in ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [0.3, 5.0, 1.7]):
        sys = MassSystem(masses)
        cls = classify(equilateral(sys), sys)
        assert cls.kind == "central" and cls.central_residual < 1e-10
        # multiplier is -U/I in the Newtonian case
        from nbodyred.geometry import potential_and_gradient

        U, _ = potential_and_gradient(equilateral(sys), sys)
        I, _ = inertia(equilateral(sys), sys)
        assert cls.multiplier == pytest.approx(-U / I, rel=1e-12)


def test_isosceles_equal_masses_balanced_not_central():
    cls = classify(isosceles(SYS_EQ), SYS_EQ)
    assert cls.kind == "balanced"
    assert cls.central_residual > 1e-3
    assert cls.balanced_residual < 1e-13


def test_scalene_equal_masses_neither():
    x = Configuration([[-0.7, 0.5, 0.1], [0.0, 0.0, 0.9]], SYS_EQ)
    cls = classify(x, SYS_EQ)
    assert cls.kind == "neither"


def test_classification_scale_and_rotation_invariant():
    sys = MassSystem([1.0, 2.0, 3.0])
    x = equilateral(sys)
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    for lam in (0.3, 1.0, 4.2):
        xs = Configuration(lam * (q @ x.r), sys)
        cls = classify(xs, sys)
        assert cls.kind == "central"
        assert cls.central_residual < 1e-12
        base = classify(x, sys).multiplier
        assert cls.multiplier == pytest.approx(base / lam**3, rel=1e-10)


def test_central_implies_balanced():
    rng = np.random.default_rng(1)
    for seed in range(5):
        sys = MassSystem(rng.uniform(0.5, 2.0, 3))
        x = find_central(sys, 2, seed=seed)
        cls = classify(x, sys)
        assert cls.central_residual < 1e-10
        assert cls.balanced_residual < 1e-8


# ---------------------------------------------------------------------------
# central finder


def test_find_central_three_bodies_is_equilateral():
    rng = np.random.default_rng(2)
    for seed in range(5):
        sys = MassSystem(rng.uniform(0.5, 2.0, 3))
        x = find_central(sys, 2, seed=seed)
        I, _ = inertia(x, sys)
        assert I == pytest.approx(1.0, abs=1e-12)
        assert classify(x, sys).central_residual < 1e-10
        r = np.sqrt(squared_distance_table(x.r))
        dists = [r[0, 1], r[0, 2], r[1, 2]]
        assert max(dists) - min(dists) < 1e-10


def test_find_central_retries_steepest_descent_where_the_pairs_stall():
    # from seed 38 every halving along the L-BFGS direction fails at |g|
    # 5.9e-13, on rounding; one search along -g without the pairs goes on
    # to |g| 2e-14
    sys = MassSystem([1.0, 2.0, 3.0, 4.0])
    x = find_central(sys, 3, seed=38)
    assert classify(x, sys).central_residual < 1e-12


@pytest.mark.parametrize("masses, orderings", [((1.0, 2.0, 3.0), 3), ((1.0, 2.0, 3.0, 4.0), 12)])
def test_moulton_counts_the_collinear_central_configurations(masses, orderings):
    # Moulton (1910): n bodies on a line have one central configuration per
    # ordering up to reflection, n!/2; 150 seeds converge to CENTRAL_TOL
    # and land in every one of them, seeds 140 and 16 far below their
    # starting potential among them
    sys = MassSystem(masses)
    found = set()
    for seed in range(150):
        x = find_central(sys, 1, seed=seed)
        assert classify(x, sys).central_residual <= 1e-12
        order = tuple(np.argsort(x.r[0]).tolist())
        found.add(min(order, order[::-1]))
    assert len(found) == orderings


def test_find_central_two_bodies():
    sys = MassSystem([1.0, 3.0])
    x = find_central(sys, 1, seed=0)
    assert classify(x, sys).central_residual < 1e-10


def euler_ratio_oracle(sys, order):
    """Collinear central configuration via 1-D bracketing.

    Bodies in the line order `order` with unit first gap and second gap
    rho; the central condition reduces to one equation in rho, solved by
    bisection (independent of the n-dimensional Newton path).
    """
    i, j, k = order

    def residual(rho):
        pos = np.zeros(3)
        pos[i], pos[j], pos[k] = 0.0, 1.0, 1.0 + rho
        x = Configuration(pos[None, :], sys)
        from nbodyred.geometry import potential_and_gradient

        _, grad = potential_and_gradient(x, sys)
        # grad = lam x requires grad_a x_b - grad_b x_a = 0 for outer bodies
        return grad[0, i] * x.r[0, k] - grad[0, k] * x.r[0, i]

    lo, hi = 1e-3, 1e3
    # bracket by geometric scan
    grid = np.geomspace(lo, hi, 200)
    vals = [residual(g) for g in grid]
    for a, b, va, vb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if va * vb < 0:
            return brentq(residual, a, b, xtol=1e-14, rtol=1e-15)
    raise AssertionError("no bracket for the collinear oracle")


@pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (0, 2, 1)])
def test_find_central_collinear_matches_euler_oracle(order):
    sys = MassSystem([1.0, 2.0, 3.0])
    rho_star = euler_ratio_oracle(sys, order)
    i, j, k = order
    pos = np.zeros(3)
    pos[i], pos[j], pos[k] = 0.0, 1.0, 1.0 + rho_star
    seed_cfg = Configuration(pos[None, :], sys)
    x = find_central(sys, 1, seed=0, x0=seed_cfg)
    r = np.sqrt(squared_distance_table(x.r))
    rho_found = r[j, k] / r[i, j]
    assert rho_found == pytest.approx(rho_star, abs=1e-10)
    assert classify(x, sys).central_residual < 1e-10


# ---------------------------------------------------------------------------
# balanced finder


def test_find_balanced_equal_masses_isosceles():
    x = find_balanced(SYS_EQ, [0.7, 0.3], seed=0)
    cls = classify(x, SYS_EQ)
    assert cls.balanced_residual < 1e-8
    r = np.sort(np.sqrt(squared_distance_table(x.r))[np.triu_indices(3, 1)])
    assert (abs(r[0] - r[1]) < 1e-7) or (abs(r[1] - r[2]) < 1e-7)
    # spectrum is reproduced
    sqm = np.sqrt(SYS_EQ.m)
    b_sym = np.outer(sqm, sqm) * gram_form(x)
    w = np.sort(np.linalg.eigvalsh(b_sym))[::-1]
    assert np.allclose(w[:2], [0.7, 0.3], atol=1e-8)


def test_find_balanced_rank_one_is_collinear_central():
    x = find_balanced(SYS_EQ, [1.0], seed=1)
    assert x.d == 1
    cls = classify(x, SYS_EQ)
    assert cls.central_residual < 1e-7


def _z4_tetrahedron():
    """(system, spectrum, seed, x0) of a flattened Z/4-symmetric tetrahedron:
    square base, alternating heights."""
    sys = MassSystem([1.0] * 4)
    h = 0.4
    pts = np.array([[1.0, 0.0, -1.0, 0.0],
                    [0.0, 1.0, 0.0, -1.0],
                    [h, -h, h, -h]])
    seed_cfg = Configuration(pts, sys)
    sqm = np.sqrt(sys.m)
    spec = np.sort(np.linalg.eigvalsh(np.outer(sqm, sqm) * gram_form(seed_cfg)))[::-1][:3]
    return sys, spec, 0, seed_cfg


def test_find_balanced_z4_tetrahedron():
    sys, spec, seed, seed_cfg = _z4_tetrahedron()
    x = find_balanced(sys, spec, seed=seed, x0=seed_cfg)
    cls = classify(x, sys)
    assert cls.balanced_residual < 1e-8
    s = squared_distance_table(x.r)
    sides = [s[0, 1], s[1, 2], s[2, 3], s[0, 3]]
    assert max(sides) - min(sides) < 1e-6  # Z/4 symmetry survives
    assert s[0, 2] == pytest.approx(s[1, 3], abs=1e-6)


@pytest.mark.parametrize("masses, d", [([1.0, 2.0, 3.0], 2), ([1.0, 1.5, 2.0, 2.5], 3)])
def test_find_central_orientation_is_fixed(masses, d):
    # the positions are R of the QR factorization x = Q R with diag R >= 0,
    # so a rotated seed gives the same positions
    sys = MassSystem(masses)
    x0 = Configuration(np.random.default_rng(4).normal(size=(d, sys.n)), sys)
    Q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(d, d)))
    a = find_central(sys, d, x0=x0)
    b = find_central(sys, d, x0=Configuration(Q @ x0.r, sys))
    assert np.abs(a.r - b.r).max() < 1e-9
    assert np.abs(np.tril(a.r, -1)).max() < 1e-15 and np.all(np.diag(a.r) >= 0.0)


def test_find_central_forms_no_d_by_d_factor():
    # the orientation needs R of x = Q R only: the complete Q of a 2000 x 3
    # configuration alone is 32 MB
    sys = MassSystem([1.0, 2.0, 3.0])
    tracemalloc.start()
    try:
        x = find_central(sys, 2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6   # a quarter of Q
    assert x.r.shape == (2000, 3) and np.all(x.r[3:] == 0.0) and np.all(np.diag(x.r) >= 0.0)
    assert classify(x, sys).kind == "central"


def test_find_balanced_rejects_long_spectrum():
    with pytest.raises(InfeasibleSpectrum):
        find_balanced(SYS_EQ, [1.0, 0.5, 0.2], seed=0)


def test_find_balanced_deterministic():
    x1 = find_balanced(SYS_EQ, [0.6, 0.4], seed=42)
    x2 = find_balanced(SYS_EQ, [0.6, 0.4], seed=42)
    assert np.array_equal(x1.r, x2.r)


@pytest.mark.parametrize("G", [1e200, 1e-300])
def test_find_central_does_not_depend_on_G(G):
    # the search minimizes U / U_0 and the residuals divide grad U by U, so
    # no square overflows (G = 1e200 used to end at NaN residuals, kind
    # "neither", without an error)
    sys = MassSystem([1.0, 1.0, 1.0], G=G)
    x = find_central(sys, 2, seed=0)
    cls = classify(x, sys)
    assert cls.kind == "central" and cls.central_residual < 1e-14
    s = np.sort(squared_distance_table(x.r)[np.triu_indices(3, 1)])
    assert s[2] - s[0] < 1e-14


def test_find_balanced_with_underflowing_forces_raises():
    # distances near 1e150: the forces underflow to 0 and the residual is
    # NaN; the overflow of s^(3/2) on the way raises no RuntimeWarning
    with pytest.raises(NoConvergence):
        find_balanced(SYS_EQ, [1e300, 1.0], seed=0)


def test_searches_log_their_work(caplog):
    with caplog.at_level(logging.INFO, logger="nbodyred"):
        find_central(MassSystem([1.0, 2.0, 3.0]), 2, seed=7)
        find_balanced(SYS_EQ, [0.7, 0.3], seed=3)
    lines = [r for r in caplog.records if r.name == "nbodyred"]
    assert [r.getMessage().split(":")[0] for r in lines] == ["find_central", "find_balanced"]
    for r in lines:
        evals, iters, gnorm, guard = r.args
        assert 0 < iters < evals and guard == "converged" and gnorm < 1e-12


# every find_balanced input of the tests: criterion 7's spectra, the seeds
# 0, 1, 3 and 42 on three bodies, test_motions' 4-body seed and the
# tetrahedron seed configuration
BALANCED_CASES = {
    **{f"criterion7-{spec[0]}": (SYS_EQ, spec, 0, None)
       for spec in ([0.7, 0.3], [0.6, 0.4], [0.8, 0.2], [0.55, 0.45], [0.9, 0.1])},
    "seed0": (SYS_EQ, [0.7, 0.3], 0, None),
    "seed1-rank-one": (SYS_EQ, [1.0], 1, None),
    "seed3": (SYS_EQ, [0.7, 0.3], 3, None),
    "seed42": (SYS_EQ, [0.6, 0.4], 42, None),
    "4-body-seed5": (MassSystem([1.0, 1.3, 0.8, 1.1]), [0.5, 0.3, 0.2], 5, None),
    "tetrahedron-x0": _z4_tetrahedron(),
}


@pytest.mark.parametrize("case", BALANCED_CASES)
def test_find_balanced_matches_scipy_bfgs_oracle(case):
    # the in-house BFGS reaches the critical point of the old scipy search
    sys, spec, seed, x0 = BALANCED_CASES[case]
    x = find_balanced(sys, spec, seed=seed, x0=x0)
    ref = find_balanced_oracle(sys, spec, seed=seed, x0=x0)
    iu = np.triu_indices(sys.n, 1)
    s, s_ref = squared_distance_table(x.r)[iu], squared_distance_table(ref.r)[iu]
    assert np.abs(s - s_ref).max() <= 1e-8 * s_ref.max()
    U, U_ref = potential_and_gradient(x, sys)[0], potential_and_gradient(ref, sys)[0]
    assert abs(U - U_ref) <= 1e-12 * U_ref
    assert classify(x, sys).balanced_residual <= 1e-12


def orbit_cases(rng, per_rank):
    """(sys, Q, spec_full) draws on the fixed-spectrum orbits: random masses,
    n = 3..6, every rank 1..n-1, kappa -1/2, -1 and -0.3, and squared
    distances within a factor 1e3 of each other."""
    for n in range(3, 7):
        for kappa in (-0.5, -1.0, -0.3):
            sys = MassSystem(rng.uniform(0.3, 3.0, n), G=rng.uniform(0.5, 2.0), kappa=kappa)
            E = sys.D @ hyperplane_basis(sys)
            for rank in range(1, n):
                found = 0
                while found < per_rank:
                    spec_full = np.zeros(n - 1)
                    spec_full[:rank] = np.sort(rng.uniform(0.1, 2.0, rank))[::-1]
                    Q = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0]
                    s = (E @ Q) ** 2 @ spec_full
                    if s.min() >= 1e-3 * s.max():
                        found += 1
                        yield sys, Q, spec_full


def test_orbit_cost_matches_the_beta_table_reference():
    # the pair-row cost against the n x n beta table it replaced
    cases = 0
    for sys, Q, spec_full in orbit_cases(np.random.default_rng(38), 15):
        U, g = _orbit_cost_grad(Q, sys.D @ hyperplane_basis(sys), spec_full, sys,
                                pair_kernel(sys, 0.0)[0])
        U_ref, g_ref = orbit_cost_grad_reference(Q, orthonormal_hyperplane_basis(sys), spec_full,
                                                 np.sqrt(sys.m), sys)
        assert abs(U - U_ref) <= 1e-12 * abs(U_ref)
        assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
        cases += 1
    assert cases == 15 * 14 * 3


def test_orbit_gradient_matches_central_differences_along_cayley_curves():
    rng = np.random.default_rng(39)
    h = 1e-5
    for sys, Q, spec_full in orbit_cases(rng, 2):
        E, c, eye = sys.D @ hyperplane_basis(sys), pair_kernel(sys, 0.0)[0], np.eye(sys.n - 1)
        _, g = _orbit_cost_grad(Q, E, spec_full, sys, c)
        xi = rng.standard_normal(g.size)
        V = _hat(0.5 * h * xi, sys.n - 1)   # Q cay(+-h hat(xi)) at first order Q (I +- h hat(xi))
        U_plus, U_minus = (_orbit_cost_grad(Q @ np.linalg.solve(eye - W, eye + W), E, spec_full, sys, c)[0]
                           for W in (V, -V))
        fd = (U_plus - U_minus) / (2.0 * h)   # off by O(h^2): 3e-8 relative at most here
        assert abs(fd - g @ xi) <= 1e-6 * np.linalg.norm(g) * np.linalg.norm(xi)


@pytest.mark.parametrize("masses, spectrum, seed, evaluations", [
    ([1.0] * 3, [0.7, 0.3], 3, 6),
    ([1.0, 2.0, 3.0], [2.0, 1.0], 1, 9),
    ([1.0, 2.0, 3.0, 4.0], [0.5, 0.3, 0.2], 5, 14),
    ([1.0] * 4, [0.6, 0.4], 2, 14),
    ([1.0] * 3, [0.6, 0.4], 42, 7),
    ([1.0, 2.0, 3.0, 4.0, 5.0], [0.4, 0.3, 0.2, 0.1], 0, 20),
])
def test_balanced_search_keeps_its_evaluation_counts(caplog, masses, spectrum, seed, evaluations):
    # the counts the search took on the n x n beta table
    with caplog.at_level(logging.INFO, logger="nbodyred"):
        find_balanced(MassSystem(masses), spectrum, seed=seed)
    (record,) = [r for r in caplog.records if r.name == "nbodyred"]
    assert record.args[0] == evaluations


# ---------------------------------------------------------------------------
# mass-linear determinant equations


def test_pijk_isosceles_vanishes():
    res = balanced_residuals_pijk(triangle_table(1.0, 1.0, 2.0), SYS_EQ)
    assert abs(res.P[(0, 1, 2)]) < 1e-14
    assert res.commutator_residual < 1e-12


def test_pijk_equilateral_all_parts_vanish():
    res = balanced_residuals_pijk(triangle_table(1.0, 1.0, 1.0), SYS_EQ)
    assert abs(res.P[(0, 1, 2)]) < 1e-15
    assert abs(res.nabla[(0, 1, 2)]) < 1e-15


def test_pijk_scalene_sign_matches_commutator():
    rng = np.random.default_rng(3)
    for _ in range(20):
        # embeddable triangle
        p = rng.normal(size=(2, 3))
        s = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                s[i, j] = np.sum((p[:, i] - p[:, j]) ** 2)
        res = balanced_residuals_pijk(s, SYS_EQ)
        iso = min(abs(s[0, 1] - s[0, 2]), abs(s[0, 1] - s[1, 2]), abs(s[0, 2] - s[1, 2]))
        if iso > 1e-3:
            assert abs(res.P[(0, 1, 2)]) > 1e-12
            assert res.commutator_residual > 1e-10


def y_determinants(s, m, i, j, k, l):
    """(corrected, published) Y^l_ijk of the Newtonian U: the published
    determinant's first column is dU/ds_il, the corrected one's dU/ds_il / m_i."""
    du = lambda a, b: -0.5 * m[a] * m[b] * s[a, b] ** -1.5   # noqa: E731
    rows = lambda first: np.array([   # noqa: E731
        [1.0, 1.0, 1.0],
        [s[j, k] + s[i, l], s[k, i] + s[j, l], s[i, j] + s[k, l]],
        [first, du(j, l) / m[j], du(k, l) / m[k]]])
    return np.linalg.det(rows(du(i, l) / m[i])), np.linalg.det(rows(du(i, l)))


def test_pijk_identity_needs_corrected_y_column():
    # P_ijk = -1/2 nabla_ijk + 1/2 sum_l Y^l_ijk holds with the corrected
    # first column and fails with the published one
    rng = np.random.default_rng(4)
    for n in (4, 5):
        sys = MassSystem(rng.uniform(0.5, 2.0, n))
        p = rng.normal(size=(3, n))
        s = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                s[i, j] = np.sum((p[:, i] - p[:, j]) ** 2)
        res = balanced_residuals_pijk(s, sys)
        scale = max(abs(v) for v in res.P.values())
        assert res.identity_residual < 1e-12 * scale + 1e-12
        literal = 0.0
        for (i, j, k), P in res.P.items():
            rec = -0.5 * res.nabla[(i, j, k)]
            for l in sorted(set(range(n)) - {i, j, k}):
                corrected, published = y_determinants(s, sys.m, i, j, k, l)
                assert corrected == pytest.approx(res.Y[(i, j, k, l)], rel=1e-12, abs=1e-14)
                rec += 0.5 * published
            literal = max(literal, abs(rec - P))
        assert literal > 1e-2 * scale


def test_pijk_linear_in_masses():
    rng = np.random.default_rng(5)
    s = None
    p = rng.normal(size=(2, 3))
    s = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            s[i, j] = np.sum((p[:, i] - p[:, j]) ** 2)
    m1 = rng.uniform(0.5, 2.0, 3)
    m2 = rng.uniform(0.5, 2.0, 3)
    r1 = balanced_residuals_pijk(s, MassSystem(m1))
    r2 = balanced_residuals_pijk(s, MassSystem(m2))
    r12 = balanced_residuals_pijk(s, MassSystem(m1 + m2))
    got = r12.P[(0, 1, 2)]
    assert got == pytest.approx(r1.P[(0, 1, 2)] + r2.P[(0, 1, 2)], rel=1e-12)


def test_pijk_not_embeddable():
    bad = triangle_table(1.0, 1.0, 100.0)  # violates the triangle inequality badly
    with pytest.raises(NotEmbeddable):
        balanced_residuals_pijk(bad, SYS_EQ)


# ---------------------------------------------------------------------------
# shape sphere


def test_shape_sphere_equilateral_pole():
    w, I = shape_sphere(equilateral(SYS_EQ).r, SYS_EQ)
    assert I == pytest.approx(1.0, abs=1e-12)
    assert abs(w[2]) == pytest.approx(1.0, abs=1e-12)


def test_shape_sphere_collinear_equator():
    x = Configuration([[0.0, 1.0, 2.3], [0.0, 0.0, 0.0]], SYS_EQ)
    w, _ = shape_sphere(x.r, SYS_EQ)
    assert abs(w[2]) < 1e-14
    assert np.hypot(w[0], w[1]) == pytest.approx(1.0, abs=1e-12)


def test_shape_sphere_rotation_invariant():
    rng = np.random.default_rng(6)
    x = Configuration(rng.normal(size=(2, 3)), SYS_EQ)
    theta = 0.83
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    w1, I1 = shape_sphere(x.r, SYS_EQ)
    w2, I2 = shape_sphere(Configuration(q @ x.r, SYS_EQ).r, SYS_EQ)
    assert np.allclose(w1, w2, atol=1e-13)
    assert I1 == pytest.approx(I2, rel=1e-13)


def test_shape_sphere_reflection_flips_latitude():
    rng = np.random.default_rng(7)
    x = Configuration(rng.normal(size=(2, 3)), SYS_EQ)
    xr = Configuration(np.diag([1.0, -1.0]) @ x.r, SYS_EQ)
    w1, _ = shape_sphere(x.r, SYS_EQ)
    w2, _ = shape_sphere(xr.r, SYS_EQ)
    assert w2[2] == pytest.approx(-w1[2], rel=1e-12)
    assert np.allclose(w2[:2], w1[:2], atol=1e-13)


def test_shape_sphere_batched_matches_single():
    rng = np.random.default_rng(9)
    sys = MassSystem([1.0, 1.3, 0.7])
    configs = [Configuration(r, sys) for r in rng.normal(size=(12, 2, 3))]
    w, I = shape_sphere(np.stack([x.r for x in configs]).reshape(3, 4, 2, 3), sys)
    assert w.shape == (3, 4, 3) and I.shape == (3, 4)
    for k, x in enumerate(configs):
        w1, I1 = shape_sphere(x.r, sys)
        assert np.array_equal(w.reshape(12, 3)[k], w1) and I.ravel()[k] == I1
        assert np.linalg.norm(w1) == pytest.approx(1.0, abs=1e-13)


def test_shape_sphere_requires_planar_three_bodies():
    with pytest.raises(ValidationError):
        shape_sphere(Configuration(np.zeros((3, 3)), SYS_EQ).r, SYS_EQ)


def test_residuals_invariant_under_equal_mass_permutation():
    rng = np.random.default_rng(8)
    x = Configuration(rng.normal(size=(2, 3)), SYS_EQ)
    base = classify(x, SYS_EQ)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        xp = Configuration(x.r[:, list(perm)], SYS_EQ)
        cls = classify(xp, SYS_EQ)
        assert cls.central_residual == pytest.approx(base.central_residual, rel=1e-12)
        assert cls.balanced_residual == pytest.approx(base.balanced_residual, rel=1e-12)
