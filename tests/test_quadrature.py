import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermtensor import hermite
from hermtensor.hermite import PHYSICIST, PROBABILIST, _hermite_table
from hermtensor.mixed6 import SpeciesPair, distribution_invariance, mixed_reconstruct, stack_coefficients
from hermtensor.quadrature import (
    ATOMIC_MASS,
    BOLTZMANN,
    ExpansionCoefficients,
    NonFiniteIntegrandError,
    QuadratureRule,
    WeightSpec,
    _axis_table,
    _gram,
    _grid_rows,
    _series,
    _series_plan,
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
    _count_plan,
    canonical_index_tuples,
    multiplicity_vector,
    n_components,
    outer_power,
    perm_delta,
    scalar,
)
from hermtensor.transforms import ScalingMap, TranslationMap, convergence_probe, orthogonality_after_translation

from hermite_oracles import product_rows

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


def test_one_rule_per_order_whatever_its_integer_type():
    # an np.int64 order is served the rule of the int, so one order builds its grid, probe and fold tables once
    rule = gauss_hermite_rule(np.int64(16))
    assert rule is gauss_hermite_rule(16)
    assert type(rule.order) is int


@pytest.mark.parametrize("order", [2, 5, 12, 20, 64])
def test_rule_moments(order):
    rule = gauss_hermite_rule(order)
    w, x = rule.weights, rule.nodes
    assert np.dot(w, np.ones_like(x)) == pytest.approx(SQRT_PI, rel=1e-12)
    if order >= 2:
        assert np.dot(w, x**2) == pytest.approx(SQRT_PI / 2, rel=1e-12)
    if order >= 3:
        assert np.dot(w, x**4) == pytest.approx(3 * SQRT_PI / 4, rel=1e-12)


def gauss_moment(k):
    """Closed-form Integral x**k exp(-x**2) dx and the absolute moment it is measured against."""
    absolute = math.gamma((k + 1) / 2)
    return (absolute if k % 2 == 0 else 0.0), absolute


@given(st.integers(1, 64))
@example(1)
@example(64)
@settings(max_examples=64, deadline=None)
def test_rule_exact_through_degree_2n_minus_1(order):
    rule = gauss_hermite_rule(order)
    for k in range(2 * order):
        exact, absolute = gauss_moment(k)
        assert abs(float(np.dot(rule.weights, rule.nodes**k)) - exact) <= 1e-10 * absolute, k


@st.composite
def order_and_degrees(draw):
    order = draw(st.integers(1, 64))
    return order, tuple(draw(st.integers(0, 2 * order - 1)) for _ in range(3))


@given(order_and_degrees())
@example((1, (1, 0, 1)))
@example((64, (127, 126, 0)))
@example((56, (90, 111, 111)))
@settings(max_examples=30, deadline=None)
def test_product_monomial_exact_through_integrate3(case):
    order, degrees = case
    exact, absolute = (math.prod(m) for m in zip(*map(gauss_moment, degrees)))
    a, b, c = degrees
    rule = gauss_hermite_rule(order)

    def monomial(p):
        return p[:, 0] ** a * p[:, 1] ** b * p[:, 2] ** c

    # |x^a y^b z^c| peaks at the outermost node triple; past float64 range integrate3 must refuse
    with np.errstate(over="ignore"):
        overflows = not np.isfinite(monomial(np.full((1, 3), rule.nodes[-1]))).all()
    if overflows:
        with np.errstate(over="ignore"), pytest.raises(NonFiniteIntegrandError):
            integrate3(monomial, rule, vectorized=True)
    else:
        value = integrate3(monomial, rule, vectorized=True)
        assert abs(value - exact) <= 1e-10 * absolute


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


def exact_gram(m_rank, n_rank, convention):
    """2**n perm_delta (physicist) or perm_delta (probabilist) on the diagonal block, zeros elsewhere."""
    rows, cols = canonical_index_tuples(m_rank, 3), canonical_index_tuples(n_rank, 3)
    if m_rank != n_rank:
        return np.zeros((len(rows), len(cols)))
    factor = 2.0**n_rank if convention is PHYSICIST else 1.0
    return factor * np.array([[perm_delta(i, j) for j in cols] for i in rows])


@pytest.mark.parametrize("convention", [PHYSICIST, PROBABILIST], ids=["physicist", "probabilist"])
@pytest.mark.parametrize("order", [10, 12, 16, 20, 32])
def test_gram_matches_row_oracle(order, convention):
    # the row route: basis rows at every (scaled, shifted) node triple, summed against the grid weights
    rule = gauss_hermite_rule(order)
    top = min(4, order // 2 - 1)
    scale = 1.0 if convention is PHYSICIST else math.sqrt(2.0)
    rng = np.random.default_rng(order)
    for shift in (np.zeros(3), *rng.uniform(-1.0, 1.0, (3, 3))):
        rows = product_rows(top, scale * grid_points(rule) - shift, convention)
        for m in range(top + 1):
            for n in range(top + 1):
                got = _gram(m, n, rule, convention, shift)
                want = math.pi ** (-1.5) * np.einsum("k,ik,jk->ij", grid_weights(rule), rows[m], rows[n])
                assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12, (m, n, shift)
                if not shift.any():
                    assert np.max(np.abs(got - exact_gram(m, n, convention))) <= 5e-13, (m, n)


def test_gram_tables_and_probe_read_no_grid(monkeypatch):
    import hermtensor.quadrature as quadrature
    import hermtensor.transforms as transforms

    def refuse(*args, **kwargs):
        raise AssertionError("a Gram table or probe read the 3-D grid")

    for name in ("grid_points", "grid_weights", "_grid_rows"):
        monkeypatch.setattr(quadrature, name, refuse)
        assert not hasattr(transforms, name)
    assert not hasattr(hermite, "product_rows")
    rule = unshared_rule(12)
    ortho_matrix(3, 2, rule)
    ortho_matrix(3, 3, rule, PROBABILIST)
    orthogonality_after_translation(2, 3, TranslationMap((0.0, 0.0, 0.0), (0.7, 0.2, -0.5)), rule)
    convergence_probe(ScalingMap(1.3, (1.0, 0.0, 0.0)), rule)
    assert rule._grid == {}


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


@st.composite
def truncated_series(draw):
    """A rank 0..4 series with components in [-2, 2], and a rule order from 2N + 2 to 16."""
    top = draw(st.integers(0, 4))
    components = st.floats(-2.0, 2.0)
    tensors = tuple(
        SymTensor(3, n, draw(st.lists(components, min_size=n_components(n, 3), max_size=n_components(n, 3))))
        for n in range(top + 1)
    )
    return ExpansionCoefficients(top, tensors, draw(st.floats(0.1, 10.0))), draw(st.integers(2 * top + 2, 16))


@given(truncated_series())
@settings(max_examples=30, deadline=None)
def test_expand_of_reconstruct_is_idempotent(case):
    coeffs, order = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a truncated series must pass the stability probe
        again = expand(lambda p: reconstruct(coeffs, p), coeffs.max_rank, gauss_hermite_rule(order), coeffs.f0, vectorized=True)
    scale = max(1.0, max(float(np.max(np.abs(c.data))) for c in coeffs.coeffs))
    worst = max(float(np.max(np.abs(a.data - b.data))) for a, b in zip(again.coeffs, coeffs.coeffs))
    assert worst <= 1e-12 * scale


def test_expand_inadmissible_sets_flag_and_warns():
    rule = gauss_hermite_rule(8)

    def runaway(p):
        pts = np.atleast_2d(p)
        return np.exp(-0.1 * np.sum(pts**2, axis=1))  # g grows like exp(0.9 z.z)

    with pytest.warns(UserWarning):
        coeffs = expand(lambda p: runaway(p), 1, rule, vectorized=True)
    assert not coeffs.admissible


@pytest.mark.parametrize(
    "call",
    [
        lambda: ExpansionCoefficients(-1, ()),
        lambda: stack_coefficients(ExpansionCoefficients(-1, ()), ExpansionCoefficients(0, (scalar(1.0, 3),))),
        lambda: reconstruct(ExpansionCoefficients(-1, ()), np.zeros(3)),
    ],
    ids=["construct", "stack_coefficients", "reconstruct"],
)
def test_negative_max_rank_refused_at_construction(call):
    with pytest.raises(ValueError, match="^max_rank must be an integer >= 0, got -1$"):
        call()


def test_reconstruct_single_point_matches_batch():
    coeffs = ExpansionCoefficients(1, (scalar(0.8, 3), SymTensor(3, 1, [0.1, -0.2, 0.3])))
    pts = np.array([[0.2, 0.1, -0.5], [1.0, 0.0, 0.0]])
    batch = reconstruct(coeffs, pts)
    for k in range(2):
        assert reconstruct(coeffs, pts[k]) == float(batch[k])


def test_one_point_series_value_equals_its_batch_value():
    # one point is summed as in any batch: its value does not depend on the points evaluated with it
    rng = np.random.default_rng(29)
    coeffs = ExpansionCoefficients(6, tuple(SymTensor(3, n, rng.normal(size=n_components(n, 3))) for n in range(7)))
    points = rng.uniform(-2.0, 2.0, (256, 3))
    batch = reconstruct(coeffs, points)
    assert [reconstruct(coeffs, p) for p in points] == batch.tolist()


# inputs that are no array of points at all: a ragged list and the text of a point
NOT_POINTS = {"ragged": [[0.1, 0.2, 0.3], [0.1, 0.2]], "text": "0.1,0.2,0.3"}


@pytest.mark.parametrize("shape", [(2, 3, 1), (1, 1, 3), (2, 2), (), (4,), "ragged", "text"], ids=str)
def test_reconstruct_refuses_points_of_the_wrong_shape(shape):
    coeffs = ExpansionCoefficients(1, (scalar(0.8, 3), SymTensor(3, 1, [0.1, -0.2, 0.3])))
    with pytest.raises(ValueError, match="3-vector"):
        reconstruct(coeffs, NOT_POINTS[shape] if shape in NOT_POINTS else np.zeros(shape))


def row_series(tensors, f0, points):
    """The series by the basis-row route: product_rows, then one matvec per rank."""
    rows = product_rows(len(tensors) - 1, points)
    total = sum((multiplicity_vector(n, t.dim) * t.data) @ rows[n] for n, t in enumerate(tensors))
    return f0 * np.exp(-np.sum(points**2, axis=1)) * total


@pytest.mark.parametrize(("dim", "top"), [(3, n) for n in range(7)] + [(6, n) for n in range(5)])
def test_series_matches_row_oracle(dim, top):
    rng = np.random.default_rng(10 * dim + top)
    tensors = [SymTensor(dim, n, rng.normal(size=n_components(n, dim))) for n in range(top + 1)]
    points = rng.uniform(-2.5, 2.5, (64, dim))
    points[0] = 4.7 / math.sqrt(dim)  # |z| = 4.7
    points[1] = 0.0
    points[1, ::2] = -0.0
    points[2] = 0.0
    points[2, -1] = -4.7
    want = row_series(tensors, 0.7, points)
    got = _series(tensors, 0.7, points, False)
    # one bound over the batch: per component with floor 1 is not a valid bound for the 6-D series
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))


def test_series_routes_build_no_basis_rows(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("grid rows built")

    assert not hasattr(hermite, "product_rows")
    monkeypatch.setattr("hermtensor.quadrature._grid_rows", refuse)
    coeff_s = ExpansionCoefficients(2, (scalar(1.0, 3), SymTensor(3, 1, [0.1, 0.0, -0.2]), outer_power([0.1, 0.2, 0.0], 2)))
    coeff_sp = ExpansionCoefficients(1, (scalar(0.5, 3), SymTensor(3, 1, [0.0, 0.3, 0.0])))
    points = np.random.default_rng(5).uniform(-2.0, 2.0, (8, 6))
    assert reconstruct(coeff_s, points[:, :3]).shape == (8,)
    assert mixed_reconstruct(stack_coefficients(coeff_s, coeff_sp), points).shape == (8,)
    assert distribution_invariance(coeff_s, coeff_sp, SpeciesPair(1.0, 4.0, 300.0), points) < 1e-12


@pytest.mark.parametrize(("top", "dim"), [(0, 3), (6, 3), (0, 6), (4, 6)])
def test_series_plan_is_cached_read_only_and_within_components(top, dim):
    plan = _series_plan(top, dim)
    assert _series_plan(top, dim) is plan
    shape, scatter, multiplicities, folds = plan
    components = sum(n_components(n, dim) for n in range(top + 1))
    assert len(scatter) == len(multiplicities) == components and len(folds) == dim - 1
    # no (top + 1)**dim cube: every intermediate holds at most one row per component
    assert shape[0] <= components and all(len(counts) <= components for _, counts, _, _ in folds)
    arrays = [scatter, multiplicities, *(a for _, counts, _, gather in folds for a in (counts, gather) if a is not None)]
    arrays += list(_count_plan(top, dim)[:3])
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


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


def test_admissibility_flag_does_not_depend_on_density():
    # g is scaled by a power of two before squaring, which is exact, so only the value may overflow
    rule = gauss_hermite_rule(8)
    f = maxwellian((0.0, 0.0, 0.0))
    base = l2_admissible(f, rule, vectorized=True)
    for density in (2.0**-500, 1e150, 1e300, 1e308):
        result = l2_admissible(lambda p: density * f(p), rule, vectorized=True)
        assert result.admissible == base.admissible
    assert l2_admissible(lambda p: 2.0**-500 * f(p), rule, vectorized=True).value == base.value * 2.0**-1000
    assert l2_admissible(lambda p: 1e300 * f(p), rule, vectorized=True).value == math.inf


@pytest.mark.parametrize("value", [math.nan, -math.inf])
@pytest.mark.parametrize("grid", ["coarse", "doubled"])
def test_a_non_finite_sample_is_refused_before_any_probe_verdict(grid, value):
    # f is not finite at one node of one of the probe's two grids: every sampling entry raises at that node,
    # with no stability warning ahead of it and no coefficients or probe value after it
    rule = gauss_hermite_rule(8)
    node = grid_points(rule if grid == "coarse" else gauss_hermite_rule(16))[5]
    seen = []

    def f(p):
        seen.append(len(p))
        values = maxwellian((0.0, 0.0, 0.0))(p)
        values[np.all(p == node, axis=1)] = value
        return values

    calls = [
        lambda: l2_admissible(f, rule, vectorized=True),
        lambda: expand(f, 2, rule, vectorized=True),
        lambda: truncation_error(f, 2, rule, vectorized=True),
    ]
    for call in calls:
        seen.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIntegrandError) as err:
                call()
        assert err.value.node == tuple(node)
        # a coarse sample that is not finite is refused before the doubled grid (16**3 nodes) is sampled
        assert sum(seen) == (8**3 if grid == "coarse" else 8**3 + 16**3)


def grid_admissibility(f, rule, vectorized):
    """The probe by the 3-D grid route: g = f exp(+z.z) at every node triple, scaled by the power of two at or
    below max |g| over both orders, then sum w (g / unit)**2 pairwise; (flag, value)."""
    samples = []
    for r in (rule, gauss_hermite_rule(2 * rule.order)):
        points = grid_points(r)
        values = f(points) if vectorized else np.array([f(p) for p in points])
        samples.append((grid_weights(r), values * np.exp(np.sum(points**2, axis=1))))
    unit = math.ldexp(1.0, math.frexp(max(float(np.max(np.abs(g))) for _, g in samples))[1] - 1)
    coarse, fine = (float(np.add.reduce(w * (g / unit) ** 2)) for w, g in samples)
    return abs(fine - coarse) <= 0.05 * max(abs(coarse), abs(fine)), fine * unit * unit


def test_probe_matches_grid_oracle():
    rng = np.random.default_rng(15)
    cases = [(order, True) for order in range(4, 33) for _ in range(3)] + [(order, False) for order in range(4, 11)]
    for order, vectorized in cases:
        u, T = rng.uniform(-0.8, 0.8, 3), float(rng.uniform(0.5, 3.5))
        f = drifting_maxwellian(u, T) if vectorized else lambda p: math.exp(-float((p - u) @ (p - u)) / T)
        rule = gauss_hermite_rule(order)
        got = l2_admissible(f, rule, vectorized=vectorized)
        flag, value = grid_admissibility(f, rule, vectorized)
        assert got.admissible == flag and abs(got.value - value) <= 1e-12 * value, (order, vectorized, u, T)


def test_probe_reads_no_grid_weights_or_gaussian_factor(monkeypatch):
    import hermtensor.quadrature as quadrature

    rule, fine = unshared_rule(8), gauss_hermite_rule(16)
    f = maxwellian((0.3, 0.0, -0.2))
    real_cached, refused = quadrature._cached, {rule, fine}

    def refuse(*args, **kwargs):
        raise AssertionError("the probe read the grid weights")

    def cached(r, key, build):
        if key in ("weights", "gauss") and r in refused:
            raise AssertionError(f"the {key!r} table of an order-{r.order} rule was built")
        return real_cached(r, key, build)

    monkeypatch.setattr(quadrature, "_cached", cached)
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "grid_weights", refuse)
        l2_admissible(f, rule, vectorized=True)
        l2_admissible(f, rule, vectorized=False)
    assert set(rule._grid) == {"points", "probe"}
    refused.remove(rule)  # the projection reads the coarse rule's tables, never the doubled rule's
    expand(f, 2, rule, f0=math.pi ** (-1.5), vectorized=True)
    truncation_error(f, 2, rule, f0=math.pi ** (-1.5), vectorized=False)
    assert {"weights", "gauss"} <= set(rule._grid)


def test_expand_reads_no_grid_table_but_the_points():
    rule = unshared_rule(8)
    expand(maxwellian((0.3, 0.0, -0.2)), 3, rule, f0=math.pi ** (-1.5), vectorized=True)
    assert set(rule._grid) == {"points", "probe", ("axis", 3), ("fold", 3)}  # no "gauss" or "weights"


def test_non_finite_coefficient_raises():
    # f0 / unit underflows to 0, so every coefficient divides by zero
    def f(p):
        return 1e300 * np.exp(-np.sum((p - np.array([0.3, 0.0, 0.0])) ** 2, axis=1))

    rule = gauss_hermite_rule(16)
    for project in (expand, truncation_error):
        with pytest.raises(ArithmeticError, match="coefficient is not finite"):
            project(f, 3, rule, f0=1e-300, vectorized=True)


def test_overflowing_divisor_is_refused():
    # f0 / unit overflows: the coefficients would all read 0.0 and the residual sum NaN, so both functions refuse
    def f(p):
        return 1e-300 * np.exp(-np.sum((p - 0.3) ** 2, axis=1))

    for project in (expand, truncation_error):
        with pytest.raises(ArithmeticError, match=r"divisor 2\*\*m m! f0 overflows"):
            project(f, 2, gauss_hermite_rule(12), f0=1e10, vectorized=True)


def test_truncation_error_scales_bitwise_with_power_of_two():
    # the residual is formed in units of the probe's power of two, so scaling f and f0 by 2**k moves no bit
    rule, f0, f = gauss_hermite_rule(12), math.pi ** (-1.5), drifting_maxwellian((0.3, -0.5, 0.2), 1.3)
    want = truncation_error(f, 4, rule, f0, vectorized=True)
    for k in (-900, 1000):
        scale = 2.0**k
        got = truncation_error(lambda p: scale * f(p), 4, rule, scale * f0, vectorized=True)
        assert got.tobytes() == (scale * want).tobytes(), k


def test_integrate3_forms_no_gaussian_factor():
    rule = unshared_rule(6)
    assert integrate3(lambda p: np.ones(len(p)), rule, vectorized=True) == pytest.approx(math.pi**1.5, rel=1e-12)
    assert "gauss" not in rule._grid


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


def per_rank_truncation_error(f, max_rank, rule, f0, vectorized):
    """Each rank's residual rebuilt from rank 0, as truncation_error once computed it."""
    coeffs = expand(f, max_rank, rule, f0, vectorized=vectorized)
    points, weights = grid_points(rule), grid_weights(rule)
    values = f(points) if vectorized else np.array([f(p) for p in points])
    with np.errstate(over="ignore"):
        g = values * np.exp(np.sum(points**2, axis=1))
    rows = product_rows(max_rank, points)
    errors = []
    for top in range(max_rank + 1):
        series = np.zeros(len(points))
        for n in range(top + 1):
            series += (multiplicity_vector(n, 3) * np.atleast_1d(coeffs[n].data)) @ rows[n]
        residual = g - f0 * series
        # the grid sum is pairwise in a fixed order, not a BLAS dot
        errors.append(math.sqrt(max(0.0, math.pi ** (-1.5) * float(np.add.reduce(weights * (residual * residual))))))
    return np.array(errors)


def drifting_maxwellian(u, T):
    shift = np.asarray(u, dtype=np.float64)
    return lambda z: T**-1.5 * np.exp(-np.sum((z - shift) ** 2, axis=1) / T)


@pytest.mark.parametrize(
    "f, vectorized",
    [
        (drifting_maxwellian((0.3, -0.5, 0.2), 1.0), True),
        (drifting_maxwellian((0.3, -0.5, 0.2), 1.3), True),
        (drifting_maxwellian((0.3, -0.5, 0.2), 3.0), True),
        (lambda p: math.exp(-float(p @ p) / 1.3) * (1.0 + 0.1 * p[0]), False),
    ],
    ids=["T=1", "T=1.3", "T=3", "pointwise"],
)
def test_truncation_error_matches_per_rank_recomputation(f, vectorized):
    rule = gauss_hermite_rule(16)
    f0 = math.pi ** (-1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # T = 3 fails the stability probe by design
        want = per_rank_truncation_error(f, 6, rule, f0, vectorized)
        got = truncation_error(f, 6, rule, f0, vectorized=vectorized)
    assert got.tobytes() == want.tobytes()


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
    sampled.clear()
    l2_admissible(counted, rule, vectorized=True)
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
    truncation_error(maxwellian((0.3, 0.0, -0.2)), 2, rule, f0=math.pi ** (-1.5), vectorized=True)
    assert rule._grid["gauss"].tobytes() == np.exp(np.sum(grid_points(fresh) ** 2, axis=1)).tobytes()
    for rank in (2, 6, 4):
        rows = _grid_rows(rule, rank)
        assert len(rows) == rank + 1
        assert bits(rows) == bits(product_rows(rank, grid_points(fresh)))
    # one array per rank, whichever top rank asked for it
    assert all(a is b for a, b in zip(_grid_rows(rule, 4), _grid_rows(rule, 6)))
    for rank in (2, 6, 4):
        assert _axis_table(rule, rank).tobytes() == _hermite_table(rank, fresh.nodes).tobytes()


def test_grid_points_axis_major():
    rule = unshared_rule(16)
    points = grid_points(rule)
    assert points.shape == (16**3, 3) and points.T.flags.c_contiguous
    x = rule.nodes
    row_major = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    assert points.tobytes() == row_major.tobytes()
    assert not points.flags.writeable and (points.base is None or not points.base.flags.writeable)


def test_rule_equality_is_identity():
    rule = gauss_hermite_rule(4)
    copy = QuadratureRule(4, rule.nodes.copy(), rule.weights.copy())
    assert rule == gauss_hermite_rule(4) and rule == rule
    assert rule != copy and not rule == copy
    keyed = {rule: "cached", copy: "hand-built"}
    assert keyed[gauss_hermite_rule(4)] == "cached" and keyed[copy] == "hand-built"


@pytest.mark.parametrize("vectorized", [True, False])
def test_grid_cache_is_read_only(vectorized):
    rule = unshared_rule(6)
    f = maxwellian((0.3, 0.0, -0.2))
    before = expand(f, 2, rule, f0=math.pi ** (-1.5), vectorized=True)
    truncation_error(f, 2, rule, f0=math.pi ** (-1.5), vectorized=True)  # builds the Gaussian factor and the rows
    cached = [grid_points(rule), grid_weights(rule), rule._grid["gauss"], rule._grid["probe"], _axis_table(rule, 2)]
    cached += [rule._grid[("fold", 2)], *_grid_rows(rule, 2)]
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
    assert not np.array_equal(_axis_table(scaled, 2), _axis_table(shared, 2))
    assert grid_points(shared).tobytes() == grid_points(unshared_rule(16)).tobytes()
    a = expand(f, 2, shared, f0=math.pi ** (-1.5), vectorized=True)
    b = expand(f, 2, scaled, f0=math.pi ** (-1.5), vectorized=True)
    assert not np.array_equal(a[1].data, b[1].data)
    assert not np.array_equal(scaled._grid[("fold", 2)], shared._grid[("fold", 2)])


def row_oracle(f, max_rank, rule, f0):
    """Coefficients by the basis-row route: each rank's rows on the grid against the weighted sample."""
    points = grid_points(rule)
    with np.errstate(over="ignore"):
        weighted = grid_weights(rule) * f(points) * np.exp(np.sum(points**2, axis=1))
    rows = product_rows(max_rank, points)
    return [math.pi ** (-1.5) * (rows[m] @ weighted) / (2.0**m * math.factorial(m) * f0) for m in range(max_rank + 1)]


@pytest.mark.parametrize("max_rank", range(7))
def test_expand_matches_row_oracle(max_rank):
    rng = np.random.default_rng(max_rank)
    f0 = math.pi ** (-1.5)
    for order in range(2 * max_rank + 2, 33):
        shared = gauss_hermite_rule(order)
        for rule in (shared, QuadratureRule(order, shared.nodes * 1.01, shared.weights)):
            f = drifting_maxwellian(rng.uniform(-0.8, 0.8, 3), rng.uniform(0.6, 1.5))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # low orders may fail the stability probe
                got = expand(f, max_rank, rule, f0, vectorized=True)
            for m, want in enumerate(row_oracle(f, max_rank, rule, f0)):
                assert np.max(np.abs(got[m].data - want) / np.maximum(1.0, np.abs(want))) <= 1e-13, (order, m)


def test_expand_builds_no_grid_rows():
    rule = unshared_rule(16)
    expand(maxwellian((0.3, 0.0, -0.2)), 6, rule, f0=math.pi ** (-1.5), vectorized=True)
    assert [key for key in rule._grid if key[0] == "row"] == [] and ("axis", 6) in rule._grid
    truncation_error(maxwellian((0.3, 0.0, -0.2)), 2, rule, f0=math.pi ** (-1.5), vectorized=True)
    assert sorted(key for key in rule._grid if key[0] == "row") == [("row", n) for n in range(3)]


def test_grid_rows_are_bitwise_the_product_rows():
    shared = gauss_hermite_rule(16)
    rules = [unshared_rule(order) for order in range(2, 33)] + [QuadratureRule(16, shared.nodes * 1.01, shared.weights)]
    for rule in rules:
        top = min(6, rule.order // 2 - 1)
        want = product_rows(top, grid_points(rule))
        for n in range(top + 1):
            assert _grid_rows(rule, n)[n].tobytes() == want[n].tobytes(), (rule.order, n)


def test_projection_and_series_run_without_product_rows():
    import hermtensor.quadrature as quadrature

    assert not hasattr(quadrature, "product_rows")
    assert not hasattr(hermite, "product_rows")
    rule, f = unshared_rule(16), maxwellian((0.3, 0.0, -0.2))
    coeffs = expand(f, 6, rule, f0=math.pi ** (-1.5), vectorized=True)
    assert reconstruct(coeffs, grid_points(rule)[:8]).shape == (8,)
    assert truncation_error(f, 6, rule, f0=math.pi ** (-1.5), vectorized=True).shape == (7,)


def test_rule_refuses_an_order_its_nodes_do_not_match():
    # four nodes called order 16 would pass the rank guard and alias silently: ortho_matrix(4, 4)[0, 0] read 1.9e-29
    four = gauss_hermite_rule(4)
    for nodes, weights in ((four.nodes, four.weights), (gauss_hermite_rule(16).nodes, four.weights)):
        with pytest.raises(ValueError, match="order 16"):
            QuadratureRule(16, nodes, weights)
    with pytest.raises(ValueError, match="order 4"):
        QuadratureRule(4, four.nodes.reshape(2, 2), four.weights)


def test_rule_owns_read_only_copies_of_its_nodes_and_weights():
    shared = gauss_hermite_rule(8)
    owner = shared.nodes.copy()
    rule = QuadratureRule(8, owner[:], shared.weights)
    f = maxwellian((0.3, 0.0, -0.2))
    before = expand(f, 2, rule, f0=math.pi ** (-1.5), vectorized=True)
    owner *= 1.01  # the caller's array stays writable, and writing to it does not reach the rule
    assert rule.nodes.tobytes() == shared.nodes.tobytes()
    assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable and rule.weights is not shared.weights
    after = expand(f, 2, rule, f0=math.pi ** (-1.5), vectorized=True)
    assert bits(c.data for c in after.coeffs) == bits(c.data for c in before.coeffs)


@pytest.mark.parametrize("f0", [0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("project", [expand, truncation_error], ids=["expand", "truncation_error"])
def test_f0_must_be_finite_and_nonzero(project, f0):
    with pytest.raises(ValueError, match="f0"):
        project(maxwellian((0, 0, 0)), 2, gauss_hermite_rule(6), f0, vectorized=True)


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


NON_FINITE = (math.inf, math.nan, -math.inf)


@pytest.mark.parametrize(
    "bad",
    [{name: v} for name in ("density", "mass", "temperature") for v in NON_FINITE]
    + [{"v_av": (v, 0.0, 0.0)} for v in NON_FINITE],
    ids=str,
)
def test_weight_spec_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        WeightSpec(**{"density": 1.0, "mass": 28 * ATOMIC_MASS, "temperature": 300.0, **bad})


@pytest.mark.parametrize("v_av", [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0), ((0.0, 0.0, 0.0),), 0.0], ids=repr)
def test_weight_spec_refuses_a_drift_that_is_not_a_3_vector(v_av):
    with pytest.raises(ValueError, match="3-vector"):
        WeightSpec(density=1.0, mass=28 * ATOMIC_MASS, temperature=300.0, v_av=v_av)
