import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import atomic_mass

from hermtensor.hermite import hermite_phys
from hermtensor.mixed6 import (
    COM_RELATIVE_FRAME,
    SPECIES_FRAME,
    BlockRotation,
    MixedPoint,
    SpeciesPair,
    com_relative_from_velocities,
    distribution_invariance,
    equivariance_residual,
    from_com_relative,
    mixed_hermite,
    mixed_reconstruct,
    product_distribution,
    rotate_coefficients,
    rotate_rank_n,
    species_point_from_velocities,
    stack_coefficients,
    to_com_relative,
)
from hermtensor.quadrature import ExpansionCoefficients
from hermtensor.symtensor import SymTensor, _axis_counts, _count_positions, identity, max_component_diff, n_components, scalar

from hermite_oracles import product_oracle

MASS_RATIOS = [1.0, 4.0, 16.0, 1836.0]


def pair_with_ratio(ratio, base=16.0 * atomic_mass, T=300.0):
    return SpeciesPair(base, ratio * base, T)


def coefficients(tensors, f0=1.0):
    return ExpansionCoefficients(len(tensors) - 1, tuple(tensors), f0)


MAXWELLIAN = coefficients([scalar(1.0, 3)])


# --- species pair and rotation --------------------------------------------


def test_reduced_mass_equal_masses():
    pair = SpeciesPair(2.0e-26, 2.0e-26, 300.0)
    assert pair.reduced_mass == pytest.approx(1.0e-26)
    assert pair.total_mass == pytest.approx(4.0e-26)


def test_species_pair_validation():
    with pytest.raises(ValueError):
        SpeciesPair(-1.0, 1.0, 300.0)
    with pytest.raises(ValueError):
        SpeciesPair(1.0e-26, 1.0e-26, 0.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
@pytest.mark.parametrize("slot", range(3))
def test_species_pair_refuses_non_finite(slot, bad):
    args = [1.0e-26, 1.0e-26, 300.0]
    args[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        SpeciesPair(*args)


@pytest.mark.parametrize("ratio", MASS_RATIOS)
def test_block_coefficients_unit_circle(ratio):
    rot = BlockRotation.from_pair(pair_with_ratio(ratio))
    assert abs(rot.y**2 + rot.y_prime**2 - 1.0) < 1e-14


@pytest.mark.parametrize("ratio", MASS_RATIOS)
def test_rotation_symmetric_involutory(ratio):
    R = BlockRotation.from_pair(pair_with_ratio(ratio)).matrix
    assert np.allclose(R, R.T, atol=0.0)
    assert np.max(np.abs(R @ R - np.eye(6))) < 1e-14


def test_equal_masses_give_diagonal_half():
    rot = BlockRotation.from_pair(pair_with_ratio(1.0))
    assert rot.y == pytest.approx(math.sqrt(0.5))
    assert rot.y_prime == pytest.approx(math.sqrt(0.5))


def test_rotation_matrix_blocks():
    rot = BlockRotation(0.6, 0.8)
    R = rot.matrix
    assert np.allclose(R[:3, :3], 0.6 * np.eye(3))
    assert np.allclose(R[:3, 3:], 0.8 * np.eye(3))
    assert np.allclose(R[3:, 3:], -0.6 * np.eye(3))


def test_rotation_matrix_cached_read_only():
    rot = BlockRotation.from_pair(pair_with_ratio(16.0))
    assert rot.matrix is rot.matrix
    with pytest.raises(ValueError, match="read-only"):
        rot.matrix[0, 0] = 1.0


def test_block_rotation_rejects_off_circle():
    with pytest.raises(ValueError):
        BlockRotation(0.5, 0.5)


@pytest.mark.parametrize("y, y_prime", [(math.nan, 0.8), (0.6, math.nan), (math.inf, 0.0), (0.0, -math.inf)])
def test_block_rotation_refuses_non_finite(y, y_prime):
    with pytest.raises(ValueError, match="finite"):
        BlockRotation(y, y_prime)


def test_rotation_preserves_norm():
    rng = np.random.default_rng(3)
    rot = BlockRotation.from_pair(pair_with_ratio(4.0))
    for _ in range(10):
        x = rng.uniform(-2, 2, 6)
        assert np.dot(x, x) == pytest.approx(float(np.dot(rot.apply(x), rot.apply(x))), rel=1e-14)


# --- mixed points and frame changes ---------------------------------------


def test_mixed_point_validation():
    with pytest.raises(ValueError):
        MixedPoint((1.0, 2.0, 3.0), SPECIES_FRAME)
    with pytest.raises(ValueError):
        MixedPoint((0.0,) * 6, "lab")


def test_mixed_point_blocks():
    p = MixedPoint((*(1.0, 2.0, 3.0), *(4.0, 5.0, 6.0)), SPECIES_FRAME)
    assert np.allclose(p.coords[:3], [1.0, 2.0, 3.0])
    assert np.allclose(p.coords[3:], [4.0, 5.0, 6.0])


def test_frame_mismatch_raises():
    pair = pair_with_ratio(1.0)
    species = MixedPoint((0.0,) * 6, SPECIES_FRAME)
    com = MixedPoint((0.0,) * 6, COM_RELATIVE_FRAME)
    with pytest.raises(ValueError):
        to_com_relative(com, pair)
    with pytest.raises(ValueError):
        from_com_relative(species, pair)


def test_equal_masses_equal_velocities_collapse():
    # z_s = z_sp = v gives g = 0 and c = sqrt(2) v
    pair = pair_with_ratio(1.0)
    v = (0.3, -0.7, 1.1)
    p = to_com_relative(MixedPoint((*v, *v), SPECIES_FRAME), pair)
    assert p.frame == COM_RELATIVE_FRAME
    assert np.allclose(p.coords[:3], math.sqrt(2.0) * np.asarray(v), atol=1e-15)
    assert np.allclose(p.coords[3:], 0.0, atol=1e-15)


def test_unit_com_point_splits_evenly():
    pair = pair_with_ratio(1.0)
    p = from_com_relative(MixedPoint((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), COM_RELATIVE_FRAME), pair)
    expected = 1.0 / math.sqrt(2.0)
    assert np.allclose(p.coords[:3], [expected, 0.0, 0.0])
    assert np.allclose(p.coords[3:], [expected, 0.0, 0.0])


def test_zero_point_roundtrip():
    pair = pair_with_ratio(16.0)
    zero = MixedPoint((0.0,) * 6, COM_RELATIVE_FRAME)
    assert from_com_relative(zero, pair).coords == (0.0,) * 6


@pytest.mark.parametrize("ratio", MASS_RATIOS)
def test_frame_roundtrip_residual(ratio):
    pair = pair_with_ratio(ratio)
    rng = np.random.default_rng(17)
    p = MixedPoint(tuple(rng.uniform(-2, 2, 6)), SPECIES_FRAME)
    back = from_com_relative(to_com_relative(p, pair), pair)
    assert max(abs(a - b) for a, b in zip(back.coords, p.coords)) < 1e-14


def test_matrix_route_matches_explicit_formulas():
    # rotation of the stacked z-point vs center-of-mass / relative formulas
    rng = np.random.default_rng(29)
    for ratio in MASS_RATIOS:
        pair = pair_with_ratio(ratio)
        v_s = rng.uniform(-500.0, 500.0, 3)
        v_sp = rng.uniform(-500.0, 500.0, 3)
        via_matrix = to_com_relative(species_point_from_velocities(pair, v_s, v_sp), pair)
        direct = com_relative_from_velocities(pair, v_s, v_sp)
        assert np.allclose(via_matrix.coords, direct.coords, atol=1e-12)


# --- mixed Hermite polynomials --------------------------------------------


def test_mixed_rank_one_is_twice_the_point():
    x = (0.5, -1.0, 2.0, 0.0, 0.25, -0.75)
    h1 = mixed_hermite(1, x)[1]
    assert np.allclose(h1.data, 2.0 * np.asarray(x))


def test_mixed_rank_two_at_origin():
    h2 = mixed_hermite(2, (0.0,) * 6)[2]
    assert max_component_diff(h2, -2.0 * identity(6)) == 0.0


def test_mixed_matches_product_oracle():
    rng = np.random.default_rng(41)
    for _ in range(6):
        x = rng.uniform(-2.0, 2.0, 6)
        values = mixed_hermite(4, x)
        for rank in range(5):
            want = product_oracle(rank, x)
            scale = max(1.0, max(abs(v) for v in want.data))
            assert max_component_diff(values[rank], want) < 1e-10 * scale


def test_block_diagonal_reduction():
    # indices confined to one 3-block reproduce that block's 3-D polynomial
    rng = np.random.default_rng(43)
    x = rng.uniform(-1.5, 1.5, 6)
    h2 = mixed_hermite(2, x)[2]
    upper = hermite_phys(2, x[:3])[2]
    lower = hermite_phys(2, x[3:])[2]
    for i in range(3):
        for j in range(i, 3):
            assert h2[(i, j)] == pytest.approx(upper[(i, j)], rel=1e-13, abs=1e-13)
            assert h2[(i + 3, j + 3)] == pytest.approx(lower[(i, j)], rel=1e-13, abs=1e-13)


def test_mixed_hermite_rank_bounds():
    with pytest.raises(ValueError):
        mixed_hermite(5, (0.0,) * 6)
    with pytest.raises(ValueError):
        mixed_hermite(-1, (0.0,) * 6)
    with pytest.raises(ValueError):
        mixed_hermite(2, (0.0,) * 5)


# --- slot-wise rotation and equivariance ----------------------------------


def test_rotate_rank_zero_and_one():
    rot = BlockRotation.from_pair(pair_with_ratio(4.0))
    s = SymTensor(6, 0, [3.5])
    assert rotate_rank_n(rot, s)[()] == 3.5
    vec = SymTensor(6, 1, [1.0, -2.0, 0.5, 0.0, 2.0, 1.5])
    rotated = rotate_rank_n(rot, vec)
    assert np.allclose(rotated.data, rot.apply([1.0, -2.0, 0.5, 0.0, 2.0, 1.5]))


def test_rotate_identity_is_fixed():
    rot = BlockRotation.from_pair(pair_with_ratio(16.0))
    assert max_component_diff(rotate_rank_n(rot, identity(6)), identity(6)) < 1e-14


def einsum_rotation(matrix, dense):
    """Reference: every slot rotated in one einsum, "ai,bj,...,ij...->ab..."."""
    out, contracted = "abcd"[: dense.ndim], "ijkl"[: dense.ndim]
    subscripts = ",".join([o + i for o, i in zip(out, contracted)] + [contracted]) + "->" + out
    return np.einsum(subscripts, *([matrix] * dense.ndim), dense)


def test_rotate_rank_n_matches_einsum():
    rng = np.random.default_rng(83)
    for ratio in MASS_RATIOS:
        rot = BlockRotation.from_pair(pair_with_ratio(ratio))
        for rank in range(5):
            t = SymTensor(6, rank, rng.uniform(-2.0, 2.0, n_components(rank, 6)))
            want = einsum_rotation(rot.matrix, t.to_dense())
            got = rotate_rank_n(rot, t).to_dense()
            assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, float(np.max(np.abs(want)))), (ratio, rank)


def test_rotate_rank_n_validation():
    rot = BlockRotation.from_pair(pair_with_ratio(1.0))
    with pytest.raises(ValueError):
        rotate_rank_n(rot, identity(3))
    with pytest.raises(ValueError):
        rotate_rank_n(rot, SymTensor(6, 5, np.zeros(252)))


def test_equivariance_trivial_ranks():
    pair = pair_with_ratio(4.0)
    assert equivariance_residual(0, (0.4,) * 6, pair) == 0.0
    assert equivariance_residual(1, (0.5, -1.0, 0.2, 0.9, -0.3, 0.1), pair) < 1e-14


@pytest.mark.parametrize("ratio", MASS_RATIOS)
def test_equivariance_high_rank(ratio):
    pair = pair_with_ratio(ratio)
    rng = np.random.default_rng(int(ratio))
    for _ in range(5):
        x = rng.uniform(-2.0, 2.0, 6)
        assert equivariance_residual(3, x, pair) < 1e-10
    assert equivariance_residual(4, rng.uniform(-1.5, 1.5, 6), pair) < 1e-10


def test_equivariance_residual_is_nan_at_a_nan_point():
    assert math.isnan(equivariance_residual(2, [math.nan] * 6, pair_with_ratio(4.0)))


def test_mixed_reconstruct_refuses_points_of_the_wrong_shape():
    alphas = [SymTensor(6, n, np.ones(n_components(n, 6))) for n in range(3)]
    with pytest.raises(ValueError, match="6-vector"):
        mixed_reconstruct(alphas, np.zeros((2, 6, 1)))


# --- stacked coefficients and distribution invariance ---------------------


def drifted_pair_coefficients():
    coeff_s = coefficients([scalar(1.0, 3), SymTensor(3, 1, [0.1, 0.0, 0.0])])
    coeff_sp = coefficients(
        [scalar(1.0, 3), SymTensor(3, 1, [0.0, -0.05, 0.02]), SymTensor(3, 2, [0.01, 0.0, 0.0, 0.02, 0.0, -0.01])],
        f0=2.0,
    )
    return coeff_s, coeff_sp


def test_stacked_series_equals_product():
    coeff_s, coeff_sp = drifted_pair_coefficients()
    alphas = stack_coefficients(coeff_s, coeff_sp)
    assert [a.rank for a in alphas] == [0, 1, 2, 3]
    rng = np.random.default_rng(53)
    for _ in range(10):
        p = MixedPoint(tuple(rng.uniform(-1.5, 1.5, 6)), SPECIES_FRAME)
        product = product_distribution(coeff_s, coeff_sp, p)
        stacked = mixed_reconstruct(alphas, p, coeff_s.f0 * coeff_sp.f0)
        assert stacked == pytest.approx(product, rel=1e-12, abs=1e-15)


def test_batched_frames_match_pointwise():
    coeff_s, coeff_sp = drifted_pair_coefficients()
    alphas = stack_coefficients(coeff_s, coeff_sp)
    f0 = coeff_s.f0 * coeff_sp.f0
    coords = np.random.default_rng(73).uniform(-2.0, 2.0, (12, 6))
    points = [MixedPoint(tuple(c), SPECIES_FRAME) for c in coords]
    products = [product_distribution(coeff_s, coeff_sp, p) for p in points]
    stacked = [mixed_reconstruct(alphas, p, f0) for p in points]
    assert all(type(v) is float for v in products + stacked)
    assert product_distribution(coeff_s, coeff_sp, coords).tolist() == products
    assert product_distribution(coeff_s, coeff_sp, points).tolist() == products
    assert mixed_reconstruct(alphas, coords, f0).tolist() == stacked
    assert [mixed_reconstruct(alphas, c, f0) for c in coords] == stacked


def test_one_point_series_value_equals_its_batch_value():
    # one point is summed as in any batch: its value does not depend on the points evaluated with it
    rng = np.random.default_rng(29)
    alphas = [SymTensor(6, n, rng.normal(size=n_components(n, 6))) for n in range(5)]
    species = [coefficients([SymTensor(3, n, rng.normal(size=n_components(n, 3))) for n in range(3)]) for _ in range(2)]
    points = rng.uniform(-2.0, 2.0, (256, 6))
    assert [mixed_reconstruct(alphas, p) for p in points] == mixed_reconstruct(alphas, points).tolist()
    assert [product_distribution(*species, p) for p in points] == product_distribution(*species, points).tolist()


def test_batched_frames_refuse_bad_input():
    coeff_s, coeff_sp = drifted_pair_coefficients()
    com = MixedPoint((0.1,) * 6, COM_RELATIVE_FRAME)
    with pytest.raises(ValueError):
        product_distribution(coeff_s, coeff_sp, com)
    with pytest.raises(ValueError):
        product_distribution(coeff_s, coeff_sp, [(0.0,) * 6, com])
    with pytest.raises(ValueError):
        mixed_reconstruct([SymTensor(6, n, np.zeros(n_components(n, 6))) for n in range(6)], (0.0,) * 6)
    with pytest.raises(ValueError):
        mixed_reconstruct([], (0.0,) * 6)
    with pytest.raises(ValueError):
        mixed_reconstruct([scalar(1.0, 6)], (0.0,) * 5)
    for alphas in ([scalar(1.0, 3), SymTensor(3, 1, np.zeros(3))], [SymTensor(6, 1, np.zeros(6))]):
        with pytest.raises(ValueError, match="ranks 0, 1, 2"):
            mixed_reconstruct(alphas, (0.0,) * 6)


def test_bare_6_vector_is_one_point():
    # every 6-D point form reads the same coordinates: a bare 6-vector, a MixedPoint, a one-row batch, a list
    coeff_s, coeff_sp = drifted_pair_coefficients()
    pair, x = pair_with_ratio(4.0), np.array([0.3, -0.2, 0.1, 0.5, -0.4, 0.2])
    batch = product_distribution(coeff_s, coeff_sp, x[None, :])
    for point in (x, tuple(x), MixedPoint(tuple(x), SPECIES_FRAME)):
        assert product_distribution(coeff_s, coeff_sp, point) == batch[0]
    assert product_distribution(coeff_s, coeff_sp, [MixedPoint(tuple(x), SPECIES_FRAME)]).tolist() == batch.tolist()
    assert distribution_invariance(coeff_s, coeff_sp, pair, x) == distribution_invariance(coeff_s, coeff_sp, pair, x[None, :])


def test_stack_rank_overflow():
    deep = coefficients([scalar(1.0, 3), SymTensor(3, 1, np.zeros(3)), SymTensor(3, 2, np.zeros(6)), SymTensor(3, 3, np.zeros(10))])
    with pytest.raises(ValueError):
        stack_coefficients(deep, deep)


def gathered_stack(coeff_s, coeff_sp):
    """Reference: each rank filled in one pass, component by component.

    A sorted 6-D tuple lists its m upper labels first, so only the split (m, N - m) reaches it: its value is
    the primed rank-m component at the upper labels times the unprimed one at the lower labels, over C(N, m).
    """
    top = coeff_s.max_rank + coeff_sp.max_rank
    stacked = []
    for N in range(top + 1):
        counts, values = _axis_counts(N, 6), np.zeros(n_components(N, 6))
        splits = range(max(0, N - coeff_s.max_rank), min(N, coeff_sp.max_rank) + 1)
        for m in splits:
            sel = np.flatnonzero(counts[:, :3].sum(axis=1) == m)
            left = coeff_sp[m].data[_count_positions(counts[sel, :3], m, 3)]
            right = coeff_s[N - m].data[_count_positions(counts[sel, 3:], N - m, 3)]
            values[sel] = (left * right + 0.0) / math.comb(N, m)
        if len(splits) > 1:
            values += 0.0  # the other splits add +0.0 here: an underflowed -0.0 reads +0.0, as in their sum
        stacked.append(SymTensor(6, N, values))
    return stacked


def test_stack_coefficients_closed_form_matches_embedding():
    # the library sums symmetrized products of the block-embedded tensors; the reference gathers each component
    rng = np.random.default_rng(71)
    # subnormal and near-underflow values: a quotient that underflows to -0.0 must keep the sign the sum gives
    values = np.array([0.0, -0.0, -1.25, 0.5, -3e-5, 2.0, -7.0, 5e-324, -5e-324, 3e-160, -3e-165])

    def random_coefficients(rank):
        return coefficients([SymTensor(3, n, rng.choice(values, n_components(n, 3))) for n in range(rank + 1)])

    for rank_s in range(3):
        for rank_sp in range(3):
            for _ in range(8):
                coeff_s, coeff_sp = random_coefficients(rank_s), random_coefficients(rank_sp)
                got = stack_coefficients(coeff_s, coeff_sp)
                want = gathered_stack(coeff_s, coeff_sp)
                assert [t.data.tobytes() for t in got] == [t.data.tobytes() for t in want]


def test_stack_coefficients_builds_no_dense_array(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense array built")

    monkeypatch.setattr(SymTensor, "to_dense", refuse)
    monkeypatch.setattr(SymTensor, "from_dense", refuse)
    coeff_s, coeff_sp = drifted_pair_coefficients()
    got = stack_coefficients(coeff_s, coeff_sp)
    assert [t.data.tobytes() for t in got] == [t.data.tobytes() for t in gathered_stack(coeff_s, coeff_sp)]


def test_rotate_coefficients_involution():
    coeff_s, coeff_sp = drifted_pair_coefficients()
    rot = BlockRotation.from_pair(pair_with_ratio(4.0))
    alphas = stack_coefficients(coeff_s, coeff_sp)
    twice = rotate_coefficients(rotate_coefficients(alphas, rot), rot)
    assert max(max_component_diff(a, b) for a, b in zip(alphas, twice)) < 1e-13


def test_invariance_pure_maxwellians():
    pair = pair_with_ratio(1836.0)
    rng = np.random.default_rng(59)
    points = [MixedPoint(tuple(rng.uniform(-2, 2, 6)), SPECIES_FRAME) for _ in range(20)]
    assert distribution_invariance(MAXWELLIAN, MAXWELLIAN, pair, points) < 1e-14


def test_invariance_with_drift():
    # one species drifting along x, the other Maxwellian
    pair = pair_with_ratio(16.0)
    coeff_s = coefficients([scalar(1.0, 3), SymTensor(3, 1, [0.1, 0.0, 0.0])])
    rng = np.random.default_rng(61)
    points = [MixedPoint(tuple(rng.uniform(-2, 2, 6)), SPECIES_FRAME) for _ in range(100)]
    assert distribution_invariance(coeff_s, MAXWELLIAN, pair, points) < 1e-12


def test_invariance_rank_two_both_species():
    pair = pair_with_ratio(4.0)
    coeff_s, coeff_sp = drifted_pair_coefficients()
    rng = np.random.default_rng(67)
    points = [rng.uniform(-2, 2, 6) for _ in range(50)]
    assert distribution_invariance(coeff_s, coeff_sp, pair, points) < 1e-12


@st.composite
def species_expansion(draw):
    """A rank 0..2 species expansion: a_0 in [0.5, 2], higher components in [-1, 1]."""
    top = draw(st.integers(0, 2))
    tensors = [scalar(draw(st.floats(0.5, 2.0)), 3)]
    for n in range(1, top + 1):
        size = n_components(n, 3)
        tensors.append(SymTensor(3, n, draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))))
    return coefficients(tensors)


@given(
    coeff_s=species_expansion(),
    coeff_sp=species_expansion(),
    log_ratio=st.floats(-3.0, math.log10(2e3)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_invariance_at_random_mass_ratios(coeff_s, coeff_sp, log_ratio, seed):
    pair = pair_with_ratio(10.0**log_ratio)
    points = np.random.default_rng(seed).uniform(-2.0, 2.0, (50, 6))
    peak = float(np.max(np.abs(product_distribution(coeff_s, coeff_sp, points))))
    assert distribution_invariance(coeff_s, coeff_sp, pair, points) <= 1e-10 * peak


def test_invariance_rejects_rank_three():
    pair = pair_with_ratio(1.0)
    deep = coefficients([scalar(1.0, 3), SymTensor(3, 1, np.zeros(3)), SymTensor(3, 2, np.zeros(6)), SymTensor(3, 3, np.zeros(10))])
    with pytest.raises(ValueError):
        distribution_invariance(deep, MAXWELLIAN, pair, [(0.0,) * 6])


def test_invariance_point_forms():
    pair = pair_with_ratio(4.0)
    coeff_s, coeff_sp = drifted_pair_coefficients()
    assert distribution_invariance(coeff_s, coeff_sp, pair, []) == 0.0
    coords = np.random.default_rng(79).uniform(-2.0, 2.0, (20, 6))
    tagged = [MixedPoint(tuple(c), SPECIES_FRAME) for c in coords]
    bare = [tuple(float(x) for x in c) for c in coords]
    residual = distribution_invariance(coeff_s, coeff_sp, pair, tagged)
    assert distribution_invariance(coeff_s, coeff_sp, pair, bare) == residual < 1e-12
    with pytest.raises(ValueError):
        distribution_invariance(coeff_s, coeff_sp, pair, tagged[:2] + [to_com_relative(tagged[2], pair)])
