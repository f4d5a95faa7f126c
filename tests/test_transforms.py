import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermtensor.hermite import hermite_phys
from hermtensor.quadrature import gauss_hermite_rule, grid_points, grid_weights, ortho_matrix
from hermtensor.symtensor import SymTensor, inner, max_component_diff, n_components, outer_power, sym_product
from hermtensor.transforms import (
    DIVERGENCE_RATIO,
    TO_AVERAGE,
    TO_CENTERED,
    ProbeResult,
    ScalingMap,
    TranslationMap,
    alpha_from_temperatures,
    convergence_probe,
    orthogonality_after_translation,
    scaling_admissible,
    temperature_window,
    translate_basis,
    translated_hermite,
    translation_roundtrip,
)


def probe_integral_exact(alpha, z0):
    """Closed form of Integral exp(a^2 |z - z0|^2 - 2 |z|^2) d^3 z, a^2 < 2."""
    b = 2.0 - alpha * alpha
    return (math.pi / b) ** 1.5 * math.exp(2.0 * alpha * alpha * float(np.dot(z0, z0)) / b)


# --- maps -----------------------------------------------------------------


def test_scaling_map_apply():
    smap = ScalingMap(2.0, (1.0, 0.0, -1.0))
    assert np.allclose(smap.apply((2.0, 3.0, 0.0)), [2.0, 6.0, 2.0])


def test_scaling_map_batch_apply():
    smap = ScalingMap(0.5, (1.0, 1.0, 1.0))
    pts = np.array([[1.0, 1.0, 1.0], [3.0, 1.0, -1.0]])
    assert np.allclose(smap.apply(pts), [[0.0, 0.0, 0.0], [1.0, 0.0, -1.0]])


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_scaling_map_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        ScalingMap(alpha)


def test_translation_map_shift():
    tmap = TranslationMap((1.0, 2.0, 3.0), (0.0, 0.0, 4.0))
    assert np.allclose(tmap.shift, [-1.0, -2.0, 1.0])


def test_translation_map_rejects_nonfinite():
    with pytest.raises(ValueError):
        TranslationMap((0.0, 0.0, math.nan), (0.0, 0.0, 0.0))


NOT_FINITE_3_VECTORS = [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0), ((0.0, 0.0, 0.0),), 1.0, "abc", (0.0, math.nan, 0.0), (-math.inf, 0.0, 0.0)]


@pytest.mark.parametrize("bad", NOT_FINITE_3_VECTORS, ids=repr)
def test_maps_refuse_centers_that_are_not_finite_3_vectors(bad):
    origin = (0.0, 0.0, 0.0)
    for build in (lambda v: TranslationMap(v, origin), lambda v: TranslationMap(origin, v), lambda v: ScalingMap(1.0, v)):
        with pytest.raises(ValueError, match="finite 3-vector"):
            build(bad)


# --- scaling criterion and temperature window -----------------------------


def test_scaling_admissible_strict_boundary():
    assert scaling_admissible(1.0)
    assert scaling_admissible(1.4)
    assert not scaling_admissible(math.sqrt(2.0))
    assert not scaling_admissible(2.0)


def test_scaling_admissible_rejects_nonpositive():
    with pytest.raises(ValueError):
        scaling_admissible(-0.5)


def test_alpha_from_temperatures():
    assert alpha_from_temperatures(300.0, 300.0) == 1.0
    assert alpha_from_temperatures(400.0, 100.0) == 2.0
    with pytest.raises(ValueError):
        alpha_from_temperatures(-1.0, 10.0)


@pytest.mark.parametrize("T, T_s", [(math.nan, 300.0), (300.0, math.nan), (math.inf, 300.0), (300.0, math.inf)])
def test_alpha_from_temperatures_refuses_non_finite(T, T_s):
    with pytest.raises(ValueError, match="finite"):
        alpha_from_temperatures(T, T_s)


def test_temperature_window_values():
    assert temperature_window(2000.0, 1000.0) == (1000.0, 2000.0)
    assert temperature_window(300.0, 300.0) == (150.0, 600.0)


def test_temperature_window_empty_iff_factor_four():
    assert temperature_window(4000.0, 1000.0) is None  # closed at the boundary
    assert temperature_window(3999.0, 1000.0) == (1999.5, 2000.0)
    assert temperature_window(8000.0, 1000.0) is None


def test_temperature_window_requires_ordering():
    with pytest.raises(ValueError):
        temperature_window(100.0, 200.0)
    with pytest.raises(ValueError):
        temperature_window(100.0, 0.0)


@pytest.mark.parametrize("T_i, T_n", [(math.inf, 1000.0), (math.inf, math.inf), (math.nan, 1000.0), (2000.0, math.nan)])
def test_temperature_window_requires_finite_temperatures(T_i, T_n):
    with pytest.raises(ValueError, match="finite"):
        temperature_window(T_i, T_n)


@given(
    T_n=st.floats(min_value=1.0, max_value=1e4),
    factor=st.floats(min_value=1.0, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_window_interior_serves_both_species(T_n, factor):
    T_i = factor * T_n
    window = temperature_window(T_i, T_n)
    if window is None:
        assert T_i >= 4.0 * T_n * (1.0 - 1e-12)
        return
    lo, hi = window
    T = 0.5 * (lo + hi)
    assert scaling_admissible(alpha_from_temperatures(T_i, T))
    assert scaling_admissible(alpha_from_temperatures(T, T_n))


# --- convergence probe ----------------------------------------------------


def test_probe_matches_closed_form_when_convergent():
    rule = gauss_hermite_rule(20)
    for alpha, z0 in [(0.5, (0.0, 0.0, 0.0)), (1.2, (0.3, -0.2, 0.1))]:
        result = convergence_probe(ScalingMap(alpha, z0), rule)
        exact = probe_integral_exact(alpha, np.asarray(z0))
        assert result.classification == "finite"
        assert result.fine == pytest.approx(exact, rel=1e-12)


def test_probe_identity_map_is_weight_volume():
    result = convergence_probe(ScalingMap(1.0), gauss_hermite_rule(12))
    assert result.coarse == pytest.approx(math.pi**1.5, rel=1e-13)
    assert result.fine == pytest.approx(math.pi**1.5, rel=1e-13)


def test_probe_classification_set():
    # order 12 vs 24; alpha = 1.3 grows (ratio ~4) but stays under the 10x
    # divergence cut, matching alpha**2 < 2
    rule = gauss_hermite_rule(12)
    z0 = (1.0, 0.0, 0.0)
    expected = {0.5: "finite", 1.0: "finite", 1.3: "finite", 1.5: "divergent", 2.0: "divergent"}
    for alpha, verdict in expected.items():
        result = convergence_probe(ScalingMap(alpha, z0), rule)
        assert result.classification == verdict, alpha


def test_probe_agrees_with_admissibility_flag():
    rule = gauss_hermite_rule(12)
    for alpha in (0.5, 0.9, 1.0, 1.3, 1.5, 2.0, 3.0):
        result = convergence_probe(ScalingMap(alpha), rule)
        assert (result.classification == "finite") == scaling_admissible(alpha)


def test_probe_result_fields():
    result = convergence_probe(ScalingMap(0.5), gauss_hermite_rule(8))
    assert isinstance(result, ProbeResult)
    assert result.coarse > 0 and result.fine > 0


def grid_probe(smap, rule):
    """The probe by the 3-D grid route: the integrand summed over every node triple, at both orders."""

    def value(r):
        points = grid_points(r)
        with np.errstate(over="ignore"):
            g = np.exp(np.sum(smap.apply(points) ** 2, axis=1) - np.sum(points**2, axis=1))
            return float(np.add.reduce(grid_weights(r) * g))

    coarse, fine = value(rule), value(gauss_hermite_rule(2 * rule.order))
    divergent = not (math.isfinite(coarse) and math.isfinite(fine)) or fine > DIVERGENCE_RATIO * coarse
    return ProbeResult("divergent" if divergent else "finite", coarse, fine)


def test_probe_matches_grid_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        alpha, z0, order = float(rng.uniform(0.3, 2.5)), tuple(rng.uniform(-2.0, 2.0, 3)), int(rng.integers(2, 33))
        smap, rule = ScalingMap(alpha, z0), gauss_hermite_rule(order)
        got, want = convergence_probe(smap, rule), grid_probe(smap, rule)
        assert got.classification == want.classification, (alpha, z0, order)
        tolerance = 1e-14 if want.classification == "finite" else 1e-12
        for a, b in ((got.coarse, want.coarse), (got.fine, want.fine)):
            if math.isfinite(b):
                assert abs(a - b) <= tolerance * abs(b), (alpha, z0, order)


def test_probe_stays_finite_where_the_grid_sum_overflows():
    smap, rule = ScalingMap(2.1, (-1.3, -0.4, -2.0)), gauss_hermite_rule(16)
    assert grid_probe(smap, rule).fine == math.inf
    result = convergence_probe(smap, rule)
    assert result.classification == "divergent"
    assert math.isfinite(result.fine) and result.fine > 1e271


# --- translation ----------------------------------------------------------


def test_translate_basis_term_structure():
    # with H_p alone nonzero, the result is the binomial term C(3, p) sym(H_p, [2 (za - z00)]^(3-p)), bit for bit
    z00, za = (0.1, -0.3, 0.2), (0.6, 0.4, -0.5)
    tmap = TranslationMap(z00, za)
    values = hermite_phys(3, np.array([0.7, -0.2, 1.1]))
    shift_vector = 2.0 * (np.asarray(za) - np.asarray(z00))
    for p in range(4):
        alone = [v if n == p else SymTensor(3, n, np.zeros(n_components(n, 3))) for n, v in enumerate(values)]
        want = math.comb(3, p) * sym_product(values[p], outer_power(shift_vector, 3 - p))
        assert translate_basis(alone, tmap, TO_CENTERED).data.tobytes() == want.data.tobytes()


def test_translate_basis_validation():
    tmap = TranslationMap((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    values = hermite_phys(7, np.zeros(3))
    with pytest.raises(ValueError, match="translate_basis rank must be an integer within 0..6, got 7"):
        translate_basis(values, tmap, TO_CENTERED)
    with pytest.raises(ValueError, match="direction must be one of"):
        translate_basis(values[:3], tmap, "sideways")


def test_translated_equals_direct_evaluation():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(8):
        tmap = TranslationMap(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(-1, 1, 3)))
        z = rng.uniform(-2.0, 2.0, 3)
        for rank in range(7):
            for direction, center in ((TO_CENTERED, tmap.z00), (TO_AVERAGE, tmap.za)):
                got = translated_hermite(rank, tmap, direction, z)
                want = hermite_phys(rank, z - np.asarray(center))[rank]
                scale = max(1.0, max(abs(v) for v in want.data))
                worst = max(worst, max_component_diff(got, want) / scale)
    assert worst < 1e-10


def test_translation_composes_across_frames():
    # z00 -> za -> zb must agree with the direct z00 -> zb expansion
    rng = np.random.default_rng(23)
    z00, za, zb = (tuple(rng.uniform(-1, 1, 3)) for _ in range(3))
    z = rng.uniform(-1.5, 1.5, 3)
    values_b = hermite_phys(5, z - np.asarray(zb))
    step = TranslationMap(za, zb)
    values_a = [translate_basis(values_b[: p + 1], step, TO_CENTERED) for p in range(6)]
    for rank in range(6):
        via = translate_basis(values_a[: rank + 1], TranslationMap(z00, za), TO_CENTERED)
        direct = translated_hermite(rank, TranslationMap(z00, zb), TO_CENTERED, z)
        assert max_component_diff(via, direct) < 1e-9


def test_translation_roundtrip_residual():
    tmap = TranslationMap((0.2, -0.4, 0.7), (-1.1, 0.5, 0.3))
    assert translation_roundtrip(5, tmap, np.array([0.3, -1.2, 0.8])) < 1e-9
    with pytest.raises(ValueError):
        translation_roundtrip(6, tmap, np.zeros(3))


def test_translation_roundtrip_is_nan_at_a_nan_point():
    tmap = TranslationMap((0.2, -0.4, 0.7), (-1.1, 0.5, 0.3))
    assert math.isnan(translation_roundtrip(3, tmap, [math.nan, 0.0, 0.0]))


@given(
    z00=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    za=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    z=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    rank=st.integers(0, 5),
)
@settings(max_examples=40, deadline=None)
def test_translation_roundtrip_at_random_shifts(z00, za, z, rank):
    assert translation_roundtrip(rank, TranslationMap(z00, za), np.array(z)) <= 1e-9


# --- orthogonality after translation --------------------------------------


def test_zero_shift_reproduces_orthogonality_table():
    rule = gauss_hermite_rule(12)
    tmap = TranslationMap((0.4, -0.1, 0.9), (0.4, -0.1, 0.9))
    for n in range(3):
        for m in range(3):
            gram = orthogonality_after_translation(n, m, tmap, rule)
            assert np.allclose(gram, ortho_matrix(n, m, rule), atol=1e-12)


def test_shifted_gram_frozen_entries():
    # s = (1, 0, 0): <1, H_1(z - s)> = -2 s and
    # <H_1(z - s), H_1(z - s)> = 2 delta + 4 s s
    rule = gauss_hermite_rule(12)
    tmap = TranslationMap((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    g01 = orthogonality_after_translation(0, 1, tmap, rule)
    assert np.allclose(g01, [[-2.0, 0.0, 0.0]], atol=1e-12)
    g11 = orthogonality_after_translation(1, 1, tmap, rule)
    assert np.allclose(g11, np.diag([6.0, 2.0, 2.0]), atol=1e-12)


def test_shifted_gram_is_symmetric_in_rank_order():
    rule = gauss_hermite_rule(14)
    tmap = TranslationMap((0.0, 0.0, 0.0), (0.3, -0.6, 0.2))
    g12 = orthogonality_after_translation(1, 2, tmap, rule)
    g21 = orthogonality_after_translation(2, 1, tmap, rule)
    assert np.allclose(g12, g21.T, atol=1e-12)


def test_unit_shift_breaks_cross_rank_orthogonality():
    rule = gauss_hermite_rule(12)
    tmap = TranslationMap((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    worst = 0.0
    for n in range(4):
        for m in range(4):
            if n == m:
                continue
            gram = orthogonality_after_translation(n, m, tmap, rule)
            worst = max(worst, float(np.max(np.abs(gram))))
    assert worst > 1e-3


def test_shifted_gram_order_requirement():
    tmap = TranslationMap((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        orthogonality_after_translation(3, 3, tmap, gauss_hermite_rule(6))


def test_shifted_gram_quadrature_independent():
    tmap = TranslationMap((0.0, 0.0, 0.0), (0.7, 0.2, -0.5))
    a = orthogonality_after_translation(2, 3, tmap, gauss_hermite_rule(12))
    b = orthogonality_after_translation(2, 3, tmap, gauss_hermite_rule(16))
    assert np.allclose(a, b, atol=1e-10)


# --- cross-module: reconstruction through a detour frame ------------------


def test_series_reconstruction_via_translated_basis():
    # displaced Maxwellian: centered-basis coefficients are s^(x) n / n!
    from hermtensor.symtensor import outer_power

    s = np.array([0.4, -0.3, 0.2])
    coeffs = [outer_power(s, n) / math.factorial(n) for n in range(5)]
    detour = TranslationMap((0.0, 0.0, 0.0), (0.6, 0.1, -0.2))
    rng = np.random.default_rng(5)
    for _ in range(6):
        z = rng.uniform(-1.5, 1.5, 3)
        direct = hermite_phys(4, z)
        via = [translated_hermite(n, detour, TO_CENTERED, z) for n in range(5)]
        total_direct = sum(inner(coeffs[n], direct[n]) for n in range(5))
        total_via = sum(inner(coeffs[n], via[n]) for n in range(5))
        assert total_via == pytest.approx(total_direct, rel=1e-10, abs=1e-12)
