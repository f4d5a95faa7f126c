import math

import numpy as np
import pytest

from hermtensor.hermite import PROBABILIST, product_rows
from hermtensor.quadrature import (
    ATOMIC_MASS,
    BOLTZMANN,
    ExpansionCoefficients,
    NonFiniteIntegrandError,
    QuadratureRule,
    WeightSpec,
    _grid_rows,
    expand,
    gauss_hermite_rule,
    grid_points,
    grid_weights,
    integrate3,
    l2_admissible,
    ortho_matrix,
    reconstruct,
    truncation_error,
)
from hermtensor.symtensor import (
    SymTensor,
    canonical_index_tuples,
    n_components,
    outer_power,
    perm_delta,
    scalar,
)
from hermtensor.transforms import ScalingMap, convergence_probe

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------- rule


def test_order_one_rule():
    rule = gauss_hermite_rule(1)
    np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [SQRT_PI], rtol=1e-14)


def test_order_two_rule():
    rule = gauss_hermite_rule(2)
    np.testing.assert_allclose(sorted(rule.nodes), [-1 / math.sqrt(2), 1 / math.sqrt(2)], rtol=1e-14)
    np.testing.assert_allclose(rule.weights, [SQRT_PI / 2, SQRT_PI / 2], rtol=1e-14)


@pytest.mark.parametrize("order", [2, 5, 12, 20, 64])
def test_rule_moments(order):
    rule = gauss_hermite_rule(order)
    w, x = rule.weights, rule.nodes
    assert np.dot(w, np.ones_like(x)) == pytest.approx(SQRT_PI, rel=1e-12)
    if order >= 2:
        assert np.dot(w, x**2) == pytest.approx(SQRT_PI / 2, rel=1e-12)
    if order >= 3:
        assert np.dot(w, x**4) == pytest.approx(3 * SQRT_PI / 4, rel=1e-12)


def test_rule_order_bounds():
    with pytest.raises(ValueError):
        gauss_hermite_rule(0)
    with pytest.raises(ValueError):
        gauss_hermite_rule(65)


# ---------------------------------------------------------------- integrate3


def test_integrate_constant():
    rule = gauss_hermite_rule(6)
    assert integrate3(lambda z: 1.0, rule) == pytest.approx(math.pi**1.5, rel=1e-12)


def test_integrate_second_moment():
    rule = gauss_hermite_rule(6)
    assert integrate3(lambda z: z[0] ** 2, rule) == pytest.approx(math.pi**1.5 / 2, rel=1e-12)


def test_integrate_odd_vanishes():
    rule = gauss_hermite_rule(6)
    assert integrate3(lambda z: z[0], rule) == pytest.approx(0.0, abs=1e-12)


def test_integrate_vectorized_matches_loop():
    rule = gauss_hermite_rule(8)
    loop = integrate3(lambda z: math.exp(-0.3 * z[1] ** 2) * (1 + z[0] ** 2), rule)
    vec = integrate3(lambda p: np.exp(-0.3 * p[:, 1] ** 2) * (1 + p[:, 0] ** 2), rule, vectorized=True)
    assert vec == pytest.approx(loop, rel=1e-14)


def test_integrate_nonfinite_reports_node():
    rule = gauss_hermite_rule(4)
    with pytest.raises(NonFiniteIntegrandError) as err:
        integrate3(lambda z: float("nan"), rule)
    assert len(err.value.node) == 3


# ---------------------------------------------------------------- orthogonality


def test_ortho_physicist_keystone():
    rule = gauss_hermite_rule(12)
    for m in range(4):
        for n in range(4):
            table = ortho_matrix(m, n, rule)
            expected = np.zeros_like(table)
            if m == n:
                rows = canonical_index_tuples(m, 3)
                for i, ti in enumerate(rows):
                    for j, tj in enumerate(rows):
                        expected[i, j] = 2.0**n * perm_delta(ti, tj)
            assert np.max(np.abs(table - expected)) < 1e-8, (m, n)


def test_ortho_probabilist_keystone():
    rule = gauss_hermite_rule(12)
    for m in range(4):
        for n in range(4):
            table = ortho_matrix(m, n, rule, convention=PROBABILIST)
            expected = np.zeros_like(table)
            if m == n:
                rows = canonical_index_tuples(m, 3)
                for i, ti in enumerate(rows):
                    for j, tj in enumerate(rows):
                        expected[i, j] = perm_delta(ti, tj)
            assert np.max(np.abs(table - expected)) < 1e-8, (m, n)


def test_ortho_diagonal_rank2_value():
    rule = gauss_hermite_rule(10)
    table = ortho_matrix(2, 2, rule)
    assert table[0, 0] == pytest.approx(8.0, abs=1e-10)  # 2**2 * perm_delta((0,0),(0,0))


def test_ortho_insufficient_order_raises():
    rule = gauss_hermite_rule(6)
    with pytest.raises(ValueError):
        ortho_matrix(3, 3, rule)
    with pytest.raises(ValueError):
        ortho_matrix(5, 0, gauss_hermite_rule(16))


# ---------------------------------------------------------------- expansion


def maxwellian(shift):
    s = np.asarray(shift, dtype=np.float64)

    def f(p):
        pts = np.atleast_2d(p)
        out = math.pi ** (-1.5) * np.exp(-np.sum((pts - s) ** 2, axis=1))
        return out if np.asarray(p).ndim > 1 else float(out[0])

    return f


def test_expand_pure_maxwellian():
    rule = gauss_hermite_rule(10)
    coeffs = expand(maxwellian((0, 0, 0)), 3, rule, f0=math.pi ** (-1.5))
    assert coeffs.admissible
    assert coeffs[0][()] == pytest.approx(1.0, rel=1e-12)
    for n in range(1, 4):
        assert np.max(np.abs(coeffs[n].data)) < 1e-12


def test_expand_single_rank_one_mode():
    rule = gauss_hermite_rule(10)

    def f(z):
        return math.pi ** (-1.5) * math.exp(-float(np.dot(z, z))) * (1.0 + 0.25 * 2.0 * z[0])

    coeffs = expand(f, 2, rule, f0=math.pi ** (-1.5))
    assert coeffs[0][()] == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(coeffs[1].data, [0.25, 0.0, 0.0], atol=1e-12)
    assert np.max(np.abs(coeffs[2].data)) < 1e-12


def test_expand_displaced_maxwellian_generating_function():
    # exp(2 z.s - s.s) = sum_n inner(s^(n), H_n(z)) / n! gives a_n = s^(n)/n!
    rule = gauss_hermite_rule(16)
    s = (0.4, -0.2, 0.1)
    coeffs = expand(maxwellian(s), 3, rule, f0=math.pi ** (-1.5), vectorized=True)
    for n in range(4):
        want = outer_power(s, n) / math.factorial(n)
        np.testing.assert_allclose(coeffs[n].data, np.atleast_1d(want.data), atol=1e-10)


def test_expand_reconstruct_roundtrip():
    rng = np.random.default_rng(17)
    coeffs_in = ExpansionCoefficients(
        2,
        (
            scalar(1.0, 3),
            SymTensor(3, 1, rng.standard_normal(3) * 0.2),
            SymTensor(3, 2, rng.standard_normal(6) * 0.1),
        ),
        f0=0.7,
    )
    rule = gauss_hermite_rule(12)
    coeffs_out = expand(lambda p: reconstruct(coeffs_in, p), 3, rule, f0=0.7, vectorized=True)
    for n in range(3):
        np.testing.assert_allclose(
            np.atleast_1d(coeffs_out[n].data), np.atleast_1d(coeffs_in[n].data), atol=1e-11
        )
    assert np.max(np.abs(coeffs_out[3].data)) < 1e-11


def test_expand_inadmissible_sets_flag_and_warns():
    rule = gauss_hermite_rule(8)

    def runaway(p):
        pts = np.atleast_2d(p)
        return np.exp(-0.1 * np.sum(pts**2, axis=1))  # g grows like exp(0.9 z.z)

    with pytest.warns(UserWarning):
        coeffs = expand(lambda p: runaway(p), 1, rule, vectorized=True)
    assert not coeffs.admissible


def test_reconstruct_single_point_matches_batch():
    coeffs = ExpansionCoefficients(1, (scalar(0.8, 3), SymTensor(3, 1, [0.1, -0.2, 0.3])))
    pts = np.array([[0.2, 0.1, -0.5], [1.0, 0.0, 0.0]])
    batch = reconstruct(coeffs, pts)
    for k in range(2):
        assert reconstruct(coeffs, pts[k]) == pytest.approx(float(batch[k]), rel=1e-14)


# ---------------------------------------------------------------- admissibility


def test_admissible_maxwellian():
    rule = gauss_hermite_rule(8)
    result = l2_admissible(maxwellian((0, 0, 0)), rule, vectorized=True)
    assert result.admissible
    # g = f exp(+z.z) is the constant pi**(-3/2), so the probe value is
    # pi**(-3) * Integral exp(-z.z) = pi**(-3/2)
    assert result.value == pytest.approx(math.pi ** (-1.5), rel=1e-10)


def test_inadmissible_gaussian_factor_growth():
    rule = gauss_hermite_rule(8)

    def f(p):
        pts = np.atleast_2d(p)
        return np.exp(-0.1 * np.sum(pts**2, axis=1))

    result = l2_admissible(f, rule, vectorized=True)
    assert not result.admissible


def test_zero_distribution_admissible():
    rule = gauss_hermite_rule(6)
    result = l2_admissible(lambda z: 0.0, rule)
    assert result.admissible
    assert result.value == 0.0


# ---------------------------------------------------------------- truncation


def test_truncation_error_monotone_and_tiny_for_exact_series():
    rule = gauss_hermite_rule(14)
    coeffs = ExpansionCoefficients(
        2, (scalar(1.0, 3), SymTensor(3, 1, [0.3, 0.0, -0.1]), SymTensor(3, 2, 0.05 * np.ones(6)))
    )
    errors = truncation_error(lambda p: reconstruct(coeffs, p), 4, rule, vectorized=True)
    assert np.all(np.diff(errors) <= 1e-9)
    assert errors[2] < 1e-10 and errors[4] < 1e-10
    assert errors[0] > 1e-3


def test_truncation_error_even_distribution_flat_step():
    rule = gauss_hermite_rule(12)
    f = maxwellian((0, 0, 0))

    def widened(p):
        pts = np.atleast_2d(p)
        return np.exp(-0.8 * np.sum(pts**2, axis=1))

    errors = truncation_error(widened, 3, rule, vectorized=True)
    assert errors[0] == pytest.approx(errors[1], rel=1e-12)  # odd ranks add nothing
    assert np.all(np.diff(errors) <= 1e-9)


def test_truncation_error_displaced_maxwellian_strictly_improves():
    rule = gauss_hermite_rule(14)
    errors = truncation_error(maxwellian((0.5, 0.0, 0.0)), 4, rule, f0=math.pi ** (-1.5), vectorized=True)
    assert np.all(np.diff(errors) < 0)


# ----------------------------------------------------------------- contracts


def test_each_grid_sampled_once():
    order = 6
    rule = gauss_hermite_rule(order)
    f = maxwellian((0.3, 0.0, -0.2))
    sampled = []

    def counted(p):
        sampled.append(len(p))
        return f(p)

    expand(counted, 2, rule, f0=math.pi ** (-1.5), vectorized=True)
    assert sampled == [order**3, (2 * order) ** 3]
    sampled.clear()
    truncation_error(counted, 2, rule, f0=math.pi ** (-1.5), vectorized=True)
    assert sampled == [order**3, (2 * order) ** 3]


def unshared_rule(order):
    """A rule equal to the cached one of that order, but with an empty grid of its own."""
    rule = gauss_hermite_rule(order)
    return QuadratureRule(order, rule.nodes.copy(), rule.weights.copy())


def bits(arrays):
    return [a.tobytes() for a in arrays]


def test_grid_cache_matches_fresh_build():
    rule, fresh = unshared_rule(16), unshared_rule(16)
    points = grid_points(rule)
    assert grid_points(rule) is points and grid_weights(rule) is grid_weights(rule)
    assert bits([points, grid_weights(rule)]) == bits([grid_points(fresh), grid_weights(fresh)])
    integrate3(lambda p: np.ones(len(p)), rule, vectorized=True)
    assert rule._grid["gauss"].tobytes() == np.exp(np.sum(grid_points(fresh) ** 2, axis=1)).tobytes()
    for rank in (2, 6, 4):
        rows = _grid_rows(rule, rank)
        assert len(rows) == rank + 1
        assert bits(rows) == bits(product_rows(rank, grid_points(fresh)))
    # rank 4 after rank 6 reads a prefix of the rank-6 table
    assert all(a is b for a, b in zip(_grid_rows(rule, 4), _grid_rows(rule, 6)))


@pytest.mark.parametrize("vectorized", [True, False])
def test_grid_cache_is_read_only(vectorized):
    rule = unshared_rule(6)
    f = maxwellian((0.3, 0.0, -0.2))
    before = expand(f, 2, rule, f0=math.pi ** (-1.5), vectorized=True)
    cached = [grid_points(rule), grid_weights(rule), rule._grid["gauss"], *_grid_rows(rule, 2)]
    assert not any(a.flags.writeable for a in cached)

    def overwrites_points(p):
        p *= 0.0
        return f(p)

    with pytest.raises(ValueError, match="read-only"):
        expand(overwrites_points, 2, rule, f0=math.pi ** (-1.5), vectorized=vectorized)
    after = expand(f, 2, rule, f0=math.pi ** (-1.5), vectorized=True)
    assert bits(c.data for c in after.coeffs) == bits(c.data for c in before.coeffs)


def test_hand_built_rule_has_its_own_grid():
    shared = gauss_hermite_rule(16)
    scaled = QuadratureRule(16, shared.nodes * 1.01, shared.weights)
    f = maxwellian((0.3, 0.0, -0.2))
    np.testing.assert_array_equal(grid_points(scaled), 1.01 * grid_points(unshared_rule(16)))
    assert not np.array_equal(_grid_rows(scaled, 2)[1], _grid_rows(shared, 2)[1])
    assert grid_points(shared).tobytes() == grid_points(unshared_rule(16)).tobytes()
    a = expand(f, 2, shared, f0=math.pi ** (-1.5), vectorized=True)
    b = expand(f, 2, scaled, f0=math.pi ** (-1.5), vectorized=True)
    assert not np.array_equal(a[1].data, b[1].data)
    assert not np.array_equal(scaled._grid["gauss"], shared._grid["gauss"])


def test_rule_too_coarse_for_rank_raises():
    # two nodes alias rank 6: a pure Maxwellian would read |a_6| ~ 3e-3
    rule = gauss_hermite_rule(2)
    with pytest.raises(ValueError, match="insufficient"):
        expand(maxwellian((0, 0, 0)), 6, rule, f0=math.pi ** (-1.5), vectorized=True)
    with pytest.raises(ValueError, match="insufficient"):
        truncation_error(maxwellian((0, 0, 0)), 6, rule, f0=math.pi ** (-1.5), vectorized=True)


@pytest.mark.parametrize("order", [33, 40])
@pytest.mark.parametrize(
    "probe",
    [
        lambda rule: expand(maxwellian((0, 0, 0)), 1, rule, vectorized=True),
        lambda rule: truncation_error(maxwellian((0, 0, 0)), 1, rule, vectorized=True),
        lambda rule: l2_admissible(maxwellian((0, 0, 0)), rule, vectorized=True),
        lambda rule: convergence_probe(ScalingMap(1.0), rule),
    ],
    ids=["expand", "truncation_error", "l2_admissible", "convergence_probe"],
)
def test_order_beyond_doubling_table_raises(order, probe):
    with pytest.raises(ValueError, match="doubl"):
        probe(gauss_hermite_rule(order))


def test_physical_constants_match_scipy():
    from scipy.constants import Boltzmann, atomic_mass

    assert BOLTZMANN == Boltzmann
    assert ATOMIC_MASS == atomic_mass


# ----------------------------------------------------------------- WeightSpec


def test_weight_spec_dimensionless_velocity():
    from scipy.constants import Boltzmann, atomic_mass

    spec = WeightSpec(density=1.0, mass=28 * atomic_mass, temperature=300.0)
    vt = math.sqrt(2 * Boltzmann * 300.0 / (28 * atomic_mass))
    np.testing.assert_allclose(spec.z_of_v((vt, 0.0, 0.0)), [1.0, 0.0, 0.0], rtol=1e-14)
    np.testing.assert_allclose(spec.v_of_z((1.0, 0.0, 0.0)), [vt, 0.0, 0.0], rtol=1e-14)


def test_weight_spec_density_normalization():
    from scipy.constants import atomic_mass

    spec = WeightSpec(density=2.5, mass=16 * atomic_mass, temperature=500.0, v_av=(120.0, 0.0, -80.0))
    rule = gauss_hermite_rule(16)

    def g(p):
        return spec.weight_z(p) * np.exp(np.sum(np.atleast_2d(p) ** 2, axis=1))

    total = integrate3(lambda p: g(p), rule, vectorized=True)
    assert total == pytest.approx(2.5, rel=1e-10)


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec(density=0.0, mass=1.0, temperature=10.0)
