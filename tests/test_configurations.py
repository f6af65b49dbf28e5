import logging

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (
    equilateral,
    find_balanced_oracle,
    interaction_table_oracle,
    isosceles,
    squared_distance_table,
)
from nbodyred.errors import InfeasibleSpectrum, NoConvergence, NotEmbeddable, ValidationError
from nbodyred.geometry import (
    Configuration,
    MassSystem,
    gram_form,
    inertia,
    potential_and_gradient,
)
from nbodyred.configurations import (
    balanced_residuals_pijk,
    classify,
    find_balanced,
    find_central,
    p_matrix,
    shape_sphere,
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
        cls = classify(equilateral(sys), sys, tol=1e-10)
        assert cls.kind == "central"
        # multiplier is -U/I in the Newtonian case
        from nbodyred.geometry import potential_and_gradient

        U, _ = potential_and_gradient(equilateral(sys), sys)
        I, _, _ = inertia(equilateral(sys), sys)
        assert cls.multiplier == pytest.approx(-U / I, rel=1e-12)


def test_isosceles_equal_masses_balanced_not_central():
    cls = classify(isosceles(SYS_EQ), SYS_EQ, tol=1e-10)
    assert cls.kind == "balanced"
    assert cls.central_residual > 1e-3
    assert cls.balanced_residual < 1e-13


def test_scalene_equal_masses_neither():
    x = Configuration([[-0.7, 0.5, 0.1], [0.0, 0.0, 0.9]], SYS_EQ)
    cls = classify(x, SYS_EQ, tol=1e-8)
    assert cls.kind == "neither"


def test_classification_scale_and_rotation_invariant():
    sys = MassSystem([1.0, 2.0, 3.0])
    x = equilateral(sys)
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    for lam in (0.3, 1.0, 4.2):
        xs = Configuration(lam * (q @ x.r), sys)
        cls = classify(xs, sys, tol=1e-10)
        assert cls.kind == "central"
        assert cls.central_residual < 1e-12
        base = classify(x, sys, tol=1e-10).multiplier
        assert cls.multiplier == pytest.approx(base / lam**3, rel=1e-10)


def test_central_implies_balanced():
    rng = np.random.default_rng(1)
    for seed in range(5):
        sys = MassSystem(rng.uniform(0.5, 2.0, 3))
        x = find_central(sys, 2, seed=seed)
        cls = classify(x, sys, tol=1e-10)
        assert cls.central_residual < 1e-10
        assert cls.balanced_residual < 1e-8


# ---------------------------------------------------------------------------
# central finder


def test_find_central_three_bodies_is_equilateral():
    rng = np.random.default_rng(2)
    for seed in range(5):
        sys = MassSystem(rng.uniform(0.5, 2.0, 3))
        x = find_central(sys, 2, seed=seed)
        I, _, _ = inertia(x, sys)
        assert I == pytest.approx(1.0, abs=1e-12)
        assert classify(x, sys, tol=1e-10).central_residual < 1e-10
        r = np.sqrt(squared_distance_table(x.r))
        dists = [r[0, 1], r[0, 2], r[1, 2]]
        assert max(dists) - min(dists) < 1e-10


def test_find_central_two_bodies():
    sys = MassSystem([1.0, 3.0])
    x = find_central(sys, 1, seed=0)
    assert classify(x, sys, tol=1e-10).central_residual < 1e-10


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
    assert classify(x, sys, tol=1e-10).central_residual < 1e-10


# ---------------------------------------------------------------------------
# balanced finder


def test_find_balanced_equal_masses_isosceles():
    x = find_balanced(SYS_EQ, [0.7, 0.3], seed=0)
    cls = classify(x, SYS_EQ, tol=1e-8)
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
    cls = classify(x, SYS_EQ, tol=1e-7)
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
    cls = classify(x, sys, tol=1e-8)
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_find_balanced_with_underflowing_forces_raises():
    # distances near 1e150: the forces underflow to 0 and the residual is NaN
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


# ---------------------------------------------------------------------------
# mass-linear determinant equations


def s_table(s12, s13, s23):
    return {(0, 1): s12, (0, 2): s13, (1, 2): s23}


def test_pijk_isosceles_vanishes():
    res = balanced_residuals_pijk(s_table(1.0, 1.0, 2.0), SYS_EQ)
    assert abs(res.P[(0, 1, 2)]) < 1e-14
    assert res.commutator_residual < 1e-12


def test_pijk_equilateral_all_parts_vanish():
    res = balanced_residuals_pijk(s_table(1.0, 1.0, 1.0), SYS_EQ)
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


def test_pijk_identity_needs_corrected_y_column():
    rng = np.random.default_rng(4)
    for n in (4, 5):
        sys = MassSystem(rng.uniform(0.5, 2.0, n))
        p = rng.normal(size=(3, n))
        s = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                s[i, j] = np.sum((p[:, i] - p[:, j]) ** 2)
        res = balanced_residuals_pijk(s, sys)
        assert res.y_variant == "corrected"
        assert res.identity_residual < 1e-12 * max(
            abs(v) for v in res.P.values()) + 1e-12


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
    bad = s_table(1.0, 1.0, 100.0)  # violates the triangle inequality badly
    with pytest.raises(NotEmbeddable):
        balanced_residuals_pijk(bad, SYS_EQ)


# ---------------------------------------------------------------------------
# shape sphere


def test_shape_sphere_equilateral_pole():
    w, I = shape_sphere(equilateral(SYS_EQ), SYS_EQ)
    assert I == pytest.approx(1.0, abs=1e-12)
    assert abs(w[2]) == pytest.approx(1.0, abs=1e-12)


def test_shape_sphere_collinear_equator():
    x = Configuration([[0.0, 1.0, 2.3], [0.0, 0.0, 0.0]], SYS_EQ)
    w, _ = shape_sphere(x, SYS_EQ)
    assert abs(w[2]) < 1e-14
    assert np.hypot(w[0], w[1]) == pytest.approx(1.0, abs=1e-12)


def test_shape_sphere_rotation_invariant():
    rng = np.random.default_rng(6)
    x = Configuration(rng.normal(size=(2, 3)), SYS_EQ)
    theta = 0.83
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    w1, I1 = shape_sphere(x, SYS_EQ)
    w2, I2 = shape_sphere(Configuration(q @ x.r, SYS_EQ), SYS_EQ)
    assert np.allclose(w1, w2, atol=1e-13)
    assert I1 == pytest.approx(I2, rel=1e-13)


def test_shape_sphere_reflection_flips_latitude():
    rng = np.random.default_rng(7)
    x = Configuration(rng.normal(size=(2, 3)), SYS_EQ)
    xr = Configuration(np.diag([1.0, -1.0]) @ x.r, SYS_EQ)
    w1, _ = shape_sphere(x, SYS_EQ)
    w2, _ = shape_sphere(xr, SYS_EQ)
    assert w2[2] == pytest.approx(-w1[2], rel=1e-12)
    assert np.allclose(w2[:2], w1[:2], atol=1e-13)


def test_shape_sphere_batched_matches_single():
    rng = np.random.default_rng(9)
    sys = MassSystem([1.0, 1.3, 0.7])
    configs = [Configuration(r, sys) for r in rng.normal(size=(12, 2, 3))]
    w, I = shape_sphere(np.stack([x.r for x in configs]).reshape(3, 4, 2, 3), sys)
    assert w.shape == (3, 4, 3) and I.shape == (3, 4)
    for k, x in enumerate(configs):
        w1, I1 = shape_sphere(x, sys)
        assert np.array_equal(w.reshape(12, 3)[k], w1) and I.ravel()[k] == I1
        assert np.linalg.norm(w1) == pytest.approx(1.0, abs=1e-13)


def test_shape_sphere_requires_planar_three_bodies():
    with pytest.raises(ValidationError):
        shape_sphere(Configuration(np.zeros((3, 3)), SYS_EQ), SYS_EQ)


def test_residuals_invariant_under_equal_mass_permutation():
    rng = np.random.default_rng(8)
    x = Configuration(rng.normal(size=(2, 3)), SYS_EQ)
    base = classify(x, SYS_EQ)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        xp = Configuration(x.r[:, list(perm)], SYS_EQ)
        cls = classify(xp, SYS_EQ)
        assert cls.central_residual == pytest.approx(base.central_residual, rel=1e-12)
        assert cls.balanced_residual == pytest.approx(base.balanced_residual, rel=1e-12)
