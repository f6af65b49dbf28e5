import itertools

import numpy as np
import pytest

from conftest import (
    dphi_oracle,
    equilateral,
    interaction_table_oracle,
    newton_acceleration_oracle,
    random_state,
    squared_distance_table,
)
from nbodyred.errors import CollisionError, NegativeSquaredDistance, ValidationError
from nbodyred.geometry import (
    Configuration,
    MassSystem,
    RelativeState,
    State,
    Trajectory,
    angular_momentum_tables,
    beta_to_distances,
    gram_form,
    inertia,
    interaction_matrix_from_s,
    mass_dot,
    pair_differences,
    pair_forces as pair_forces_at_nodes,
    pair_kernel,
    potential_and_gradient,
    potential_from_s,
    reduced_tables,
    squared_distances,
)
from oracles import (
    Bivector,
    angular_momentum,
    bivector_component,
    bivector_norm_and_frequencies,
    characteristic_coefficients,
    check_positive,
    elementary_symmetric,
    exact_antisymmetric,
    hermitian_from_bivector,
    inertia_operator_apply,
    inertia_pairwise,
    inertia_table,
    pair_forces,
    rotation_invariants,
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


@pytest.mark.parametrize("bad, message", [
    (np.nan, "masses must be finite"), (np.inf, "masses must be finite"),
    (-np.inf, "masses must be finite"), (0.0, "masses must be positive"),
    (-1.0, "masses must be positive"),
])
def test_mass_system_names_what_is_wrong_with_a_mass(bad, message):
    with pytest.raises(ValidationError, match=message):
        MassSystem([1.0, 1.0, bad])


@pytest.mark.parametrize("masses, constants", [
    ([1e200, 1e200], {}), ([1.0, 1e300, 1e10], {}), ([1e150, 1e150], {"G": 1e10}),
])
def test_mass_system_rejects_an_overflowing_pair_factor(masses, constants, recwarn):
    # 2 G kappa m_i m_j must be a finite number, and forming it warns of nothing
    with pytest.raises(ValidationError, match="overflow the pair factor"):
        MassSystem(masses, **constants)
    assert not recwarn.list


@pytest.mark.parametrize("masses, constants", [
    ([1e-200, 1e-200], {}), ([1.0, 1e-160, 1e-160], {}), ([1e-150, 1e-150], {"G": 1e-10}),
    ([1.0, 1.0], {"G": 1e-310}),
])
def test_mass_system_rejects_an_underflowing_pair_factor(masses, constants, recwarn):
    # m_i m_j and 2 G kappa m_i m_j that are zero or subnormal would silence
    # gravity, and the audits would read exact zeros
    with pytest.raises(ValidationError, match="underflow"):
        MassSystem(masses, **constants)
    assert not recwarn.list
    tiny = np.finfo(float).tiny
    sys = MassSystem([1e-150, 1e-150], G=2.0)   # small, but normal
    assert sys.pair_masses.min() >= tiny and -sys.pair_factor.max() >= tiny


def test_mass_system_constants_of_the_pair_kernel():
    sys = MassSystem([1.0, 2.0, 3.0, 0.5], G=1.3, kappa=-0.75)
    i, j = sys.pairs
    assert np.allclose(sys.pair_factor, 2.0 * sys.m[i] * sys.m[j] * sys.G * sys.kappa,
                       rtol=1e-15, atol=0.0)
    assert sys.DT.flags.c_contiguous and np.array_equal(sys.DT, sys.D.T)
    assert np.array_equal(sys.DMinv, sys.D / sys.m)
    for table in (sys.pair_factor, sys.D, sys.DT, sys.DMinv):
        assert not table.flags.writeable


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
    s = squared_distance_table(z.x.r)
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
    I, B = inertia(X2, SYS2)
    S = inertia_table(X2, SYS2)
    assert I == pytest.approx(0.5, abs=1e-15)
    assert np.trace(B) == pytest.approx(I, abs=1e-14)
    assert np.trace(S) == pytest.approx(I, abs=1e-14)


def test_inertia_two_formulas_agree():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n, d = rng.integers(2, 7), rng.integers(1, 5)
        sys, z = random_state(rng, n, d)
        I, _ = inertia(z.x, sys)
        assert inertia_pairwise(z.x, sys) == pytest.approx(I, rel=1e-12)


def test_inertia_collinear_rank_one():
    x = Configuration([[0.0, 1.0, 3.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], SYS3)
    S = inertia_table(x, SYS3)
    assert np.linalg.matrix_rank(S, tol=1e-12) == 1


def test_intrinsic_inertia_annihilates_masses():
    rng = np.random.default_rng(3)
    sys, z = random_state(rng, 4, 3)
    _, B = inertia(z.x, sys)
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
    s = squared_distance_table(x.r)
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
        S = inertia_table(z.x, sys)
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


def test_equations_of_motion_match_pairwise_oracle():
    rng = np.random.default_rng(7)
    for kappa in (-0.5, -1.0, -0.75):
        sys, z = random_state(rng, 5, 3)
        sys = MassSystem(sys.m, kappa=kappa)
        A = wintner_conley(z.x, sys)
        oracle = newton_acceleration_oracle(z.x.r, sys)
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
    c, accelerations = pair_kernel(sys)
    r = rng.normal(size=(4, 3, n))  # four configurations in R^3
    s = squared_distances(r, sys)
    A = interaction_matrix_from_s(s, sys, c)
    f = pair_forces(r, sys, c)[1]
    assert s.shape == (4, n * (n - 1) // 2) and A.shape == (4, n, n) and f.shape == r.shape
    for q in range(4):
        s_ref, A_ref = pair_loop_oracle(r[q], sys)
        s_one = squared_distances(r[q], sys)
        A_one = interaction_matrix_from_s(s_one, sys, c)
        f_one = pair_forces(r[q], sys, c)[1]
        assert np.allclose(s_one, s_ref[sys.pairs], rtol=1e-14, atol=0.0)
        assert np.allclose(A_one, A_ref, rtol=1e-12, atol=0.0)
        assert np.array_equal(s[q], s_one) and np.array_equal(A[q], A_one)
        # the batch sums the forces in one product, which may round otherwise
        assert np.abs(f[q] - f_one).max() <= 1e-14 * np.abs(f_one).max()

    r[2, :, 1] = r[2, :, 0] + 1e-11  # one member of the batch collides
    with pytest.raises(CollisionError):
        interaction_matrix_from_s(squared_distances(r, sys), sys, c)
    with pytest.raises(CollisionError):
        pair_forces(r, sys, c)[1]
    with pytest.raises(CollisionError):
        pair_forces(r[2], sys, c)[1]
    with pytest.raises(CollisionError):
        accelerations(r[2], np.empty((3, n)))


@pytest.mark.parametrize("kappa", [-0.5, -1.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pair_kernel_matches_table_oracle(n, kappa):
    # every caller of the pair kernel against the n x n formula, single and batched
    from nbodyred.action import Loop, _node_action

    rng = np.random.default_rng(60 + n)
    sys = MassSystem(rng.uniform(0.5, 2.0, n), G=1.3, kappa=kappa)
    xs = [Configuration(rng.normal(size=(3, n)), sys) for _ in range(5)]
    r = np.stack([x.r for x in xs])
    A_ref = np.array([interaction_table_oracle(s, sys) for s in squared_distance_table(r)])
    acc_ref = 2.0 * r @ A_ref

    def close(got, ref, rtol=1e-12):
        return np.abs(got - ref).max() <= rtol * np.abs(ref).max()

    c, accelerations = pair_kernel(sys)   # an integrator's kernel
    kicked = np.empty((3, n))
    assert close(pair_forces(r, sys, c)[1], acc_ref * sys.m)
    for x, A_q, acc_q in zip(xs, A_ref, acc_ref):
        s = squared_distance_table(x.r)[sys.pairs]
        U_ref = (sys.pair_masses * sys.G * s**sys.kappa).sum()
        U, grad = potential_and_gradient(x, sys)
        assert U == pytest.approx(U_ref, rel=1e-13)
        assert close(grad, acc_q) and close(pair_forces(x.r, sys, c)[1], acc_q * sys.m)
        assert close(wintner_conley(x, sys), A_q)
        assert np.array_equal(accelerations(x.r, kicked), squared_distances(x.r, sys))
        assert close(kicked, acc_q)

    # the action's forces dU/dx = m (2 x A) at the quadrature nodes of a loop
    loop = Loop(2.0 * np.pi, rng.normal(size=(3, n, 4)), rng.normal(size=(3, n, 4)), sys)
    xv, _, forces, _, _ = _node_action(loop, 64, c)
    nodes, forces = np.moveaxis(xv[0], -1, 0), np.moveaxis(forces, -1, 0)
    A_nodes = np.array([interaction_table_oracle(s, sys) for s in squared_distance_table(nodes)])
    assert forces.shape == nodes.shape
    assert close(forces, 2.0 * nodes @ A_nodes * sys.m)


@pytest.mark.parametrize("q", [256, 2048])
@pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (4, 3), (5, 3), (7, 2)])
def test_node_last_pair_differences_repeat_the_row_layout_bitwise(n, d, q):
    # D x on a (d, n, q) stack and its reduction over the leading axis give
    # the bits of x D^T and squared_distances on the (q, d, n) stack
    rng = np.random.default_rng(100 * n + d)
    sys = MassSystem(rng.uniform(0.5, 2.0, n))
    x = rng.normal(size=(d, n, q))
    x[:, 1, ::7] = x[:, 0, ::7]   # coincident bodies: differences of zero
    rows = np.moveaxis(x, -1, 0)
    diff, s = pair_differences(x, sys)
    assert np.array_equal(diff, np.moveaxis(rows @ sys.DT, 0, -1))
    assert s.shape == (n * (n - 1) // 2, q)
    assert np.ascontiguousarray(s.T).tobytes() == squared_distances(rows, sys).tobytes()

    # the forces scatter the same pair vectors in the other order
    x[:, 1, ::7] += 1.0   # rows is a view of x
    c = pair_kernel(sys)[0]
    s_rows, f_rows = pair_forces(rows, sys, c)
    s, cs, f = pair_forces_at_nodes(x, sys, c)
    assert s.tobytes() == np.ascontiguousarray(s_rows.T).tobytes()
    assert cs.tobytes() == np.ascontiguousarray(c(s_rows).T).tobytes()
    assert np.abs(np.moveaxis(f, -1, 0) - f_rows).max() <= 1e-14 * np.abs(f_rows).max()


@pytest.mark.parametrize("kappa", [-0.5, -1.0, -0.3])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_potential_is_the_kernel_coefficients_times_s_over_two_kappa(n, kappa):
    # c_p = 2 m_i m_j Phi'(s_p) = 2 kappa m_i m_j G s_p^(kappa - 1), so
    # sum_p c_p s_p / (2 kappa) = U, the action's potential part
    rng = np.random.default_rng(200 + n)
    sys = MassSystem(rng.uniform(0.2, 5.0, n), G=rng.uniform(0.3, 3.0), kappa=kappa)
    s = rng.uniform(0.01, 10.0, (40, n * (n - 1) // 2))
    U = potential_from_s(s, sys)
    via_c = (pair_kernel(sys)[0](s) * s).sum(axis=-1) / (2.0 * kappa)
    assert (np.abs(via_c - U) <= 1e-14 * U).all()


@pytest.mark.parametrize("kappa", [-0.5, -1.0, -0.75])
@pytest.mark.parametrize("n", [2, 3, 5, 32])
def test_pair_list_accelerations_match_pair_loop(n, kappa):
    rng = np.random.default_rng(40 + n)
    sys = MassSystem(rng.uniform(0.5, 2.0, n), G=1.3, kappa=kappa)
    c, accelerations = pair_kernel(sys)
    s = rng.uniform(0.01, 4.0, (50, n * (n - 1) // 2))
    assert np.allclose(c(s), 2.0 * sys.pair_masses * dphi_oracle(s, sys), rtol=1e-15, atol=0.0)
    acc = np.empty((3, n))
    for _ in range(4):
        x = Configuration(rng.normal(size=(3, n)), sys)
        accelerations(x.r, acc)
        assert np.allclose(acc, newton_acceleration_oracle(x.r, sys), rtol=1e-12, atol=1e-14)
    r = x.r.copy()
    r[:, 1] = r[:, 0] + 1e-11
    with pytest.raises(CollisionError):
        accelerations(r, acc)


def test_a_raised_collision_floor_holds_at_every_check(monkeypatch):
    # bodies 1e-4 apart, under a floor raised to 1e-3 after import: every
    # check reads the floor when it is made, none the one bound at import
    from nbodyred import geometry
    from nbodyred.action import Loop, action_value_and_gradient, italian, verify_loop
    from nbodyred.configurations import classify
    from nbodyred.dynamics import audit_invariants, integrate_absolute, integrate_reduced
    from nbodyred.errors import CollisionAtNode

    monkeypatch.setattr(geometry, "COLLISION_FLOOR", 1e-3)
    x = Configuration([[0.0, 1e-4, 0.5], [0.0, 0.0, 0.8]], SYS3)
    z = State(x, Configuration(np.zeros((2, 3)), SYS3))
    modes = np.stack([x.r, 0.1 * x.r], axis=-1)
    loop = Loop(1.0, modes, np.zeros((2, 3, 2)), SYS3)   # x breathing by 10 %
    traj = Trajectory([0.0, 1.0], np.array([[x.r, z.y.r]] * 2), "absolute", {})
    checks = {
        "potential_and_gradient": lambda: potential_and_gradient(x, SYS3),
        "wintner_conley": lambda: wintner_conley(x, SYS3),
        "classify": lambda: classify(x, SYS3),
        "action_value_and_gradient": lambda: action_value_and_gradient(loop),
        "verify_loop": lambda: verify_loop(loop, italian(3, 2)),
        "integrate_absolute": lambda: integrate_absolute(z, SYS3, 1.0, samples=2),
        "integrate_reduced": lambda: integrate_reduced(RelativeState.from_state(z), SYS3, 1.0,
                                                       samples=2),
        "audit_invariants": lambda: audit_invariants(traj, SYS3),
    }
    missed = []
    for name, check in checks.items():
        try:
            check()
        except (CollisionError, CollisionAtNode):
            continue
        missed.append(name)
    assert missed == []


def test_wintner_conley_structure():
    rng = np.random.default_rng(8)
    sys, z = random_state(rng, 5, 3)
    A = interaction_matrix_from_s(squared_distances(z.x.r, sys), sys, pair_kernel(sys)[0])
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


def test_angular_momentum_tables_exactly_antisymmetric():
    # P - P^T of one product: C == -C^T to the bit, a zero diagonal, and the
    # two-product form to rounding (BLAS may sum the products in another order)
    rng = np.random.default_rng(31)
    for _ in range(60):
        n, d, q = rng.integers(2, 9), rng.integers(1, 6), rng.integers(1, 40)
        sys = MassSystem(rng.uniform(0.5, 2.0, n))
        x, y = rng.normal(size=(2, q, d, n))
        c = angular_momentum_tables(x, y, sys)
        assert np.array_equal(c, -np.swapaxes(c, -1, -2))
        assert not np.einsum("...ii->...i", c).any()
        xm = x * sys.m
        two = exact_antisymmetric(y @ np.swapaxes(xm, -1, -2) - xm @ np.swapaxes(y, -1, -2))
        assert np.abs(c - two).max() <= 1e-15 * np.abs(two).max()


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
    S = inertia_table(x, sys)
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
    assert check_positive(rel)
    # squared distances survive the double-centering
    s_direct = squared_distance_table(z.x.r)
    assert np.allclose(beta_to_distances(rel.beta), s_direct, atol=1e-12)


def test_relative_state_from_state_needs_no_presymmetrized_tables():
    # the constructor takes the symmetric and antisymmetric parts of <r_i, v_j>
    # itself: the same bits as handing it gamma and rho formed beforehand
    rng = np.random.default_rng(32)
    for _ in range(40):
        sys, z = random_state(rng, int(rng.integers(2, 8)), int(rng.integers(1, 5)))
        xr, yr = z.x.r, z.y.r
        xy = xr.T @ yr
        ref = RelativeState(xr.T @ xr, 0.5 * (xy + xy.T), yr.T @ yr, 0.5 * (xy.T - xy))
        rel = RelativeState.from_state(z)
        for a, b in zip((rel.beta, rel.gamma, rel.delta, rel.rho),
                        (ref.beta, ref.gamma, ref.delta, ref.rho)):
            assert np.array_equal(a, b)


def test_reduced_tables_leaves_its_argument_unchanged():
    # the working array is a fresh one: a read-only stack goes through, and
    # its bytes are those it had
    tables = np.random.default_rng(22).normal(size=(3, 4, 5, 5))
    before = tables.tobytes()
    tables.setflags(write=False)
    out = reduced_tables(tables)
    assert tables.tobytes() == before and not np.shares_memory(out, tables)
    assert np.abs(out @ np.ones(5)).max() < 1e-14
    assert np.array_equal(out[:, 3], -np.swapaxes(out[:, 3], -1, -2))


def test_rotation_invariants_match_frequencies():
    rng = np.random.default_rng(21)
    C = Bivector(rng.normal(size=(5, 5)))
    _, om = bivector_norm_and_frequencies(C)
    traces = rotation_invariants(C, 3)
    for k, tr in enumerate(traces, start=1):
        expected = 2.0 * sum((-(w**2)) ** k for w in om)
        assert tr == pytest.approx(expected, rel=1e-10)
