import itertools

import numpy as np
import pytest

from conftest import equilateral, random_state
from nbodyred.errors import CollisionError, NegativeSquaredDistance, ValidationError
from nbodyred.geometry import (
    Bivector,
    Configuration,
    MassSystem,
    RelativeState,
    State,
    angular_momentum,
    angular_momentum_tables,
    beta_to_distances,
    bivector_component,
    bivector_norm_and_frequencies,
    characteristic_coefficients,
    elementary_symmetric,
    gram_form,
    hermitian_from_bivector,
    inertia,
    inertia_operator_apply,
    inertia_pairwise,
    interaction_matrix_from_s,
    mass_dot,
    pair_accelerations,
    potential_and_gradient,
    squared_distances,
    wintner_conley,
)

SYS2 = MassSystem([1.0, 1.0])
X2 = Configuration([[-0.5, 0.5], [0.0, 0.0]], SYS2)
SYS3 = MassSystem([1.0, 1.0, 1.0])


def two_body_circular():
    y = Configuration([[0.0, 0.0], [-np.sqrt(0.5), np.sqrt(0.5)]], SYS2)
    return State(X2, y)


@pytest.mark.parametrize("constants", [{"G": np.nan}, {"kappa": np.nan}, {"G": np.inf},
                                       {"kappa": -np.inf}, {"G": 0.0}, {"kappa": 0.0}])
def test_mass_system_rejects_bad_constants(constants):
    with pytest.raises(ValidationError):
        MassSystem([1.0, 1.0], **constants)


# ---------------------------------------------------------------------------
# gram form and distances


def test_gram_two_point():
    assert np.allclose(gram_form(X2), [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)


def test_gram_equilateral_inner_product_oracle():
    x = equilateral(SYS3)
    beta = gram_form(x)
    # oracle: explicit centered inner products
    expected = np.array([[x.r[:, i] @ x.r[:, j] for j in range(3)] for i in range(3)])
    assert np.allclose(beta, expected, atol=1e-15)
    assert np.allclose(np.diag(beta), 1.0 / 3.0, atol=1e-14)
    off = beta[~np.eye(3, dtype=bool)]
    assert np.allclose(off, -1.0 / 6.0, atol=1e-14)


def test_gram_positivity_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n, d = rng.integers(2, 7), rng.integers(1, 5)
        _, z = random_state(rng, n, d)
        beta = gram_form(z.x)
        w = np.linalg.eigvalsh(beta)
        assert w.min() >= -1e-12 * max(np.abs(w).max(), 1.0)


def test_gram_mean_zero_contraction_matches_distance_table():
    # on mean-zero covectors the Gram table equals the -s/2 table
    rng = np.random.default_rng(1)
    _, z = random_state(rng, 5, 3)
    beta = gram_form(z.x)
    s = squared_distances(z.x.r)
    for _ in range(20):
        xi = rng.normal(size=5)
        xi -= xi.mean()
        assert xi @ beta @ xi == pytest.approx(xi @ (-0.5 * s) @ xi, rel=1e-12, abs=1e-12)


def test_beta_to_distances():
    assert beta_to_distances(gram_form(X2))[0, 1] == pytest.approx(1.0, abs=1e-15)
    assert np.all(beta_to_distances(np.zeros((4, 4))) == 0.0)
    s = beta_to_distances(gram_form(equilateral(SYS3)))
    assert np.allclose(s[~np.eye(3, dtype=bool)], 1.0, atol=1e-14)


def test_beta_to_distances_rejects_invalid_gram():
    with pytest.raises(NegativeSquaredDistance):
        beta_to_distances(np.array([[1.0, 2.0], [2.0, 1.0]]))


# ---------------------------------------------------------------------------
# inertia


def test_inertia_two_body():
    I, B, S = inertia(X2, SYS2)
    assert I == pytest.approx(0.5, abs=1e-15)
    assert np.trace(B) == pytest.approx(I, abs=1e-14)
    assert np.trace(S) == pytest.approx(I, abs=1e-14)


def test_inertia_two_formulas_agree():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n, d = rng.integers(2, 7), rng.integers(1, 5)
        sys, z = random_state(rng, n, d)
        I, _, _ = inertia(z.x, sys)
        assert inertia_pairwise(z.x, sys) == pytest.approx(I, rel=1e-12)


def test_inertia_collinear_rank_one():
    x = Configuration([[0.0, 1.0, 3.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], SYS3)
    _, _, S = inertia(x, SYS3)
    assert np.linalg.matrix_rank(S, tol=1e-12) == 1


def test_intrinsic_inertia_annihilates_masses():
    rng = np.random.default_rng(3)
    sys, z = random_state(rng, 4, 3)
    _, B, _ = inertia(z.x, sys)
    assert np.abs(B @ sys.m).max() < 1e-12


# ---------------------------------------------------------------------------
# characteristic coefficients


def cayley_menger_parallelotope_sq(s, subset):
    """Squared parallelotope volume of a point subset, from distances only."""
    k = len(subset)
    cm = np.ones((k + 1, k + 1))
    cm[0, 0] = 0.0
    for a, i in enumerate(subset):
        for b, j in enumerate(subset):
            cm[a + 1, b + 1] = s[i, j]
    return (-1.0) ** k * np.linalg.det(cm) / 2.0 ** (k - 1)


def eta_oracle(x, sys):
    s = squared_distances(x.r)
    out = []
    for k in range(2, sys.n + 1):
        tot = 0.0
        for subset in itertools.combinations(range(sys.n), k):
            tot += np.prod(sys.m[list(subset)]) * cayley_menger_parallelotope_sq(s, subset)
        out.append(tot / sys.M)
    return out


def test_characteristic_coefficients_equilateral():
    eta = characteristic_coefficients(equilateral(SYS3), SYS3)
    assert eta[0] == pytest.approx(1.0, abs=1e-12)
    assert eta[1] == pytest.approx(0.25, abs=1e-12)
    oracle = eta_oracle(equilateral(SYS3), SYS3)
    assert np.allclose(eta, oracle, rtol=1e-10, atol=1e-12)


def test_characteristic_coefficients_collinear():
    x = Configuration([[0.0, 1.0, 2.5]], SYS3)
    eta = characteristic_coefficients(x, SYS3)
    assert eta[1] == pytest.approx(0.0, abs=1e-12)


def test_characteristic_coefficients_vs_cayley_menger_random():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n, d = rng.integers(3, 6), rng.integers(2, 5)
        sys, z = random_state(rng, n, d)
        eta = characteristic_coefficients(z.x, sys)
        oracle = eta_oracle(z.x, sys)
        scale = max(abs(v) for v in oracle) + 1.0
        assert np.allclose(eta, oracle, atol=1e-9 * scale)


def test_characteristic_polynomial_b_equals_s():
    rng = np.random.default_rng(5)
    for _ in range(50):
        sys, z = random_state(rng, 4, 3)
        eta_b = characteristic_coefficients(z.x, sys)
        _, _, S = inertia(z.x, sys)
        eta_s = elementary_symmetric(np.linalg.eigvalsh(S), 3)
        scale = max(abs(v) for v in eta_b) + 1e-30
        assert np.allclose(eta_b, eta_s, atol=1e-10 * scale)


# ---------------------------------------------------------------------------
# interaction matrix and potential


def test_wintner_conley_two_body():
    A = wintner_conley(X2, SYS2)
    assert np.allclose(A, 0.5 * np.array([[-1.0, 1.0], [1.0, -1.0]]), atol=1e-15)


def test_wintner_conley_scaling():
    rng = np.random.default_rng(6)
    sys, z = random_state(rng, 4, 3)
    lam = 1.7
    A1 = wintner_conley(z.x, sys)
    A2 = wintner_conley(Configuration(lam * z.x.r, sys), sys)
    assert np.allclose(A2, A1 / lam**3, rtol=1e-12)


def dphi_oracle(s, sys):
    """Phi'(s) = G kappa s^(kappa - 1) by the power law, for every kappa."""
    return sys.G * sys.kappa * s ** (sys.kappa - 1.0)


def newton_acceleration_oracle(x, sys):
    """Direct pairwise summation of the power-law force."""
    acc = np.zeros_like(x.r)
    for i in range(sys.n):
        for j in range(sys.n):
            if i == j:
                continue
            dr = x.r[:, i] - x.r[:, j]
            s = dr @ dr
            acc[:, i] += 2.0 * sys.m[j] * dphi_oracle(s, sys) * dr
    return acc


def test_equations_of_motion_match_pairwise_oracle():
    rng = np.random.default_rng(7)
    for kappa in (-0.5, -1.0, -0.75):
        sys, z = random_state(rng, 5, 3)
        sys = MassSystem(sys.m, kappa=kappa)
        A = wintner_conley(z.x, sys)
        oracle = newton_acceleration_oracle(z.x, sys)
        assert np.allclose(2.0 * (z.x.r @ A), oracle, rtol=1e-12, atol=1e-14)


def pair_loop_oracle(r, sys):
    """Squared distances and interaction table by a double loop over pairs."""
    s = np.zeros((sys.n, sys.n))
    A = np.zeros((sys.n, sys.n))
    for i in range(sys.n):
        for j in range(sys.n):
            if i != j:
                s[i, j] = np.sum((r[:, i] - r[:, j]) ** 2)
                A[i, j] = -sys.m[i] * dphi_oracle(s[i, j], sys)
                A[i, i] += sys.m[j] * dphi_oracle(s[i, j], sys)
    return s, A


@pytest.mark.parametrize("kappa", [-0.5, -1.0])
@pytest.mark.parametrize("n", [2, 3, 5, 32])
def test_pair_kernel_matches_pair_loop(n, kappa):
    rng = np.random.default_rng(n)
    sys = MassSystem(rng.uniform(0.5, 2.0, n), kappa=kappa)
    r = rng.normal(size=(4, 3, n))  # four configurations in R^3
    s = squared_distances(r)
    A = interaction_matrix_from_s(s, sys)
    assert s.shape == A.shape == (4, n, n)
    for q in range(4):
        s_ref, A_ref = pair_loop_oracle(r[q], sys)
        s_one = squared_distances(r[q])
        A_one = interaction_matrix_from_s(s_one, sys)
        assert np.allclose(s_one, s_ref, rtol=1e-14, atol=0.0)
        assert np.allclose(A_one, A_ref, rtol=1e-12, atol=0.0)
        assert np.array_equal(s[q], s_one) and np.array_equal(A[q], A_one)

    r[2, :, 1] = r[2, :, 0] + 1e-11  # one member of the batch collides
    with pytest.raises(CollisionError):
        interaction_matrix_from_s(squared_distances(r), sys)
    with pytest.raises(CollisionError):
        interaction_matrix_from_s(squared_distances(r[2]), sys)


@pytest.mark.parametrize("kappa", [-0.5, -1.0, -0.75])
@pytest.mark.parametrize("n", [2, 3, 5, 32])
def test_pair_list_accelerations_match_pair_loop(n, kappa):
    rng = np.random.default_rng(40 + n)
    sys = MassSystem(rng.uniform(0.5, 2.0, n), G=1.3, kappa=kappa)
    s = rng.uniform(0.01, 4.0, 50)
    assert np.allclose(sys.dphi(s), dphi_oracle(s, sys), rtol=1e-15, atol=0.0)
    for _ in range(4):
        x = Configuration(rng.normal(size=(3, n)), sys)
        acc = pair_accelerations(x.r, sys)
        assert np.allclose(acc, newton_acceleration_oracle(x, sys), rtol=1e-12, atol=1e-14)
    r = x.r.copy()
    r[:, 1] = r[:, 0] + 1e-11
    with pytest.raises(CollisionError):
        pair_accelerations(r, sys)


def test_wintner_conley_structure():
    rng = np.random.default_rng(8)
    sys, z = random_state(rng, 5, 3)
    A = wintner_conley(z.x, sys)
    assert np.abs(A @ sys.m).max() < 1e-13 * np.abs(A).max()  # kills the mass vector
    assert np.abs(A.sum(axis=0)).max() < 1e-13 * np.abs(A).max()  # columns sum to 0
    AM = A @ np.diag(sys.m)
    assert np.abs(AM - AM.T).max() < 1e-13 * np.abs(AM).max()  # mu^-1-symmetric


def test_potential_two_body():
    U, grad = potential_and_gradient(X2, SYS2)
    assert U == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(grad, [[1.0, -1.0], [0.0, 0.0]], atol=1e-14)


def test_potential_equilateral():
    U, _ = potential_and_gradient(equilateral(SYS3), SYS3)
    assert U == pytest.approx(3.0, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    sys, z = random_state(rng, 4, 3)
    U0, grad = potential_and_gradient(z.x, sys)
    h = 1e-6
    for _ in range(10):
        c, i = rng.integers(0, 3), rng.integers(0, 4)
        rp = z.x.r.copy(); rp[c, i] += h
        rm = z.x.r.copy(); rm[c, i] -= h
        # raw coordinate partial; the mass-metric gradient carries 1/m_i
        up = potential_and_gradient(Configuration(rp, sys), sys)[0]
        um = potential_and_gradient(Configuration(rm, sys), sys)[0]
        fd = (up - um) / (2.0 * h)
        assert grad[c, i] == pytest.approx(fd / sys.m[i], rel=1e-6, abs=1e-8)


def test_euler_identity():
    rng = np.random.default_rng(10)
    for kappa in (-0.5, -1.0, -2.0 / 3.0):
        sys, z = random_state(rng, 4, 3)
        sys = MassSystem(sys.m, kappa=kappa)
        U, grad = potential_and_gradient(z.x, sys)
        assert mass_dot(z.x.r, grad, sys.m) == pytest.approx(2.0 * kappa * U, rel=1e-10)


# ---------------------------------------------------------------------------
# angular momentum and hermitian structures


def test_angular_momentum_homothetic_and_collinear():
    sys, z = random_state(np.random.default_rng(11), 4, 3)
    zh = State(z.x, Configuration(0.37 * z.x.r, sys))
    assert np.abs(angular_momentum(zh, sys).c).max() < 1e-14
    x1 = Configuration([[0.0, 1.0, 3.0]], SYS3)
    y1 = Configuration([[0.5, -0.2, 0.1]], SYS3)
    assert np.abs(angular_momentum(State(x1, y1), SYS3).c).max() == 0.0


def test_angular_momentum_circular_component():
    z = two_body_circular()
    c = angular_momentum(z, SYS2).c
    # oracle: the displayed coefficient formula, summed by hand
    c12 = sum(SYS2.m[k] * (-z.x.r[0, k] * z.y.r[1, k] + z.x.r[1, k] * z.y.r[0, k])
              for k in range(2))
    assert c[0, 1] == pytest.approx(c12, abs=1e-15)
    assert abs(c[0, 1]) == pytest.approx(np.sqrt(0.5), abs=1e-14)


def test_angular_momentum_rotation_equivariance():
    rng = np.random.default_rng(12)
    sys, z = random_state(rng, 4, 3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    zq = State(Configuration(q @ z.x.r, sys), Configuration(q @ z.y.r, sys))
    c = angular_momentum(z, sys).c
    cq = angular_momentum(zq, sys).c
    assert np.allclose(cq, q @ c @ q.T, atol=1e-12 * np.abs(c).max())


def test_angular_momentum_tables_batched():
    rng = np.random.default_rng(13)
    sys = MassSystem([1.0, 2.0, 0.5, 1.5])
    states = [State(Configuration(rng.normal(size=(3, 4)), sys),
                    Configuration(rng.normal(size=(3, 4)), sys)) for _ in range(5)]
    x = np.stack([z.x.r for z in states])
    y = np.stack([z.y.r for z in states])
    c = angular_momentum_tables(x, y, sys)
    for k, z in enumerate(states):
        assert np.array_equal(c[k], angular_momentum(z, sys).c)
    assert np.array_equal(c, -np.swapaxes(c, -1, -2))


def test_bivector_norm():
    assert bivector_norm_and_frequencies(Bivector([[0.0, -2.5], [2.5, 0.0]]))[0] == pytest.approx(2.5)
    c4 = np.zeros((4, 4))
    c4[0, 1], c4[1, 0] = -1.0, 1.0
    c4[2, 3], c4[3, 2] = -2.0, 2.0
    norm, om = bivector_norm_and_frequencies(Bivector(c4))
    assert norm == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(sorted(om), [1.0, 2.0])
    rng = np.random.default_rng(13)
    for d in (2, 3, 4, 5):
        c = Bivector(rng.normal(size=(d, d)))
        sv = np.linalg.svd(c.c, compute_uv=False)
        assert bivector_norm_and_frequencies(c)[0] == pytest.approx(0.5 * sv.sum(), rel=1e-12)


def test_hermitian_planar():
    # under the adopted coefficient sign, c_12 < 0 is the +pi/2 turn
    J, F = hermitian_from_bivector(Bivector([[0.0, -1.3], [1.3, 0.0]]))
    assert np.allclose(J, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)
    Jp, _ = hermitian_from_bivector(Bivector([[0.0, 1.3], [-1.3, 0.0]]))
    assert np.allclose(Jp, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)
    assert F.shape == (2, 2)


def test_hermitian_zero():
    J, F = hermitian_from_bivector(Bivector(np.zeros((3, 3))))
    assert np.all(J == 0.0)
    assert F.shape == (3, 0)


def test_hermitian_full_rank_four():
    rng = np.random.default_rng(14)
    for _ in range(20):
        C = Bivector(rng.normal(size=(4, 4)))
        J, F = hermitian_from_bivector(C)
        assert np.allclose(J @ J, -np.eye(4), atol=1e-10)
        assert np.allclose(J.T @ J, np.eye(4), atol=1e-10)  # isometry


def test_hermitian_degenerate_contraction():
    rng = np.random.default_rng(15)
    c = np.zeros((5, 5))
    c[0, 1], c[1, 0] = -1.0, 1.0  # rank 2 in d = 5
    J, F = hermitian_from_bivector(Bivector(c))
    assert F.shape == (5, 2)
    for _ in range(10):
        v = rng.normal(size=5)
        assert np.linalg.norm(J @ v) <= np.linalg.norm(v) + 1e-12
    proj = F @ F.T
    assert np.allclose(J @ J, -proj, atol=1e-12)


def test_inertia_operator():
    sys, z = random_state(np.random.default_rng(16), 4, 3)
    zero = Bivector(np.zeros((3, 3)))
    assert np.all(inertia_operator_apply(zero, z.x, sys).c == 0.0)
    # rigid rotation: angular momentum equals the inertia-operator image
    w = Bivector(np.random.default_rng(17).normal(size=(3, 3)))
    zr = State(z.x, Configuration(w.c @ z.x.r, sys))
    lhs = angular_momentum(zr, sys).c
    rhs = inertia_operator_apply(w, z.x, sys).c
    assert np.allclose(lhs, rhs, atol=1e-12 * max(np.abs(lhs).max(), 1.0))


def test_inertia_operator_spherical():
    # b = (I/d) Id  ->  image is (2 I / d) Omega
    sys = MassSystem([1.0, 1.0, 1.0, 1.0])
    r = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
    x = Configuration(r, sys)
    _, _, S = inertia(x, sys)
    assert np.allclose(S, np.eye(2) * np.trace(S) / 2.0, atol=1e-14)
    w = Bivector([[0.0, 0.7], [-0.7, 0.0]])
    out = inertia_operator_apply(w, x, sys)
    assert np.allclose(out.c, np.trace(S) * w.c, atol=1e-14)


def test_bivector_component():
    rng = np.random.default_rng(18)
    C = Bivector(rng.normal(size=(4, 4)))
    W = Bivector(rng.normal(size=(4, 4)))
    assert bivector_component(C, W) == pytest.approx(0.5 * np.trace(C.c @ W.c.T), rel=1e-14)
    # component along the induced structure is the norm
    omega_c, _ = hermitian_from_bivector(C)
    norm, _ = bivector_norm_and_frequencies(C)
    assert bivector_component(C, Bivector(omega_c)) == pytest.approx(norm, rel=1e-12)
    # orthogonal planar blocks
    a = np.zeros((4, 4)); a[0, 1], a[1, 0] = 1.0, -1.0
    b = np.zeros((4, 4)); b[2, 3], b[3, 2] = 1.0, -1.0
    assert bivector_component(Bivector(a), Bivector(b)) == 0.0


def test_omega_c_has_unit_frequencies():
    rng = np.random.default_rng(19)
    C = Bivector(rng.normal(size=(5, 5)))
    omega_c, _ = hermitian_from_bivector(C)
    _, om = bivector_norm_and_frequencies(Bivector(omega_c))
    assert np.allclose(om, 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# relative state type


def test_relative_state_from_state():
    rng = np.random.default_rng(20)
    sys, z = random_state(rng, 4, 3)
    rel = RelativeState.from_state(z)
    ones = np.ones(4)
    for a in (rel.beta, rel.gamma, rel.delta, rel.rho):
        assert np.abs(a @ ones).max() < 1e-12
        assert np.abs(ones @ a).max() < 1e-12
    assert np.abs(rel.rho + rel.rho.T).max() == 0.0
    assert rel.check_positive()
    # squared distances survive the double-centering
    s_direct = squared_distances(z.x.r)
    assert np.allclose(beta_to_distances(rel.beta), s_direct, atol=1e-12)


def test_rotation_invariants_match_frequencies():
    from nbodyred.geometry import rotation_invariants

    rng = np.random.default_rng(21)
    C = Bivector(rng.normal(size=(5, 5)))
    _, om = bivector_norm_and_frequencies(C)
    traces = rotation_invariants(C, 3)
    for k, tr in enumerate(traces, start=1):
        expected = 2.0 * sum((-(w**2)) ** k for w in om)
        assert tr == pytest.approx(expected, rel=1e-10)
