import math

import numpy as np
import pytest
from scipy.constants import atomic_mass

from hermtensor.hermite import hermite_phys, product_oracle
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
from hermtensor.symtensor import SymTensor, identity, max_component_diff, scalar

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


def test_block_rotation_rejects_off_circle():
    with pytest.raises(ValueError):
        BlockRotation(0.5, 0.5)


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
    p = MixedPoint.stack((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), SPECIES_FRAME)
    assert np.allclose(p.upper, [1.0, 2.0, 3.0])
    assert np.allclose(p.lower, [4.0, 5.0, 6.0])


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
    p = to_com_relative(MixedPoint.stack(v, v, SPECIES_FRAME), pair)
    assert p.frame == COM_RELATIVE_FRAME
    assert np.allclose(p.upper, math.sqrt(2.0) * np.asarray(v), atol=1e-15)
    assert np.allclose(p.lower, 0.0, atol=1e-15)


def test_unit_com_point_splits_evenly():
    pair = pair_with_ratio(1.0)
    p = from_com_relative(MixedPoint((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), COM_RELATIVE_FRAME), pair)
    expected = 1.0 / math.sqrt(2.0)
    assert np.allclose(p.upper, [expected, 0.0, 0.0])
    assert np.allclose(p.lower, [expected, 0.0, 0.0])


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
    upper = hermite_phys(2, x[:3]).values[2]
    lower = hermite_phys(2, x[3:]).values[2]
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


def test_rotate_rank_n_einsum_subscripts(monkeypatch):
    rot = BlockRotation.from_pair(pair_with_ratio(4.0))
    einsum, seen = np.einsum, []

    def recording(subscripts, *operands):
        seen.append(subscripts)
        return einsum(subscripts, *operands)

    monkeypatch.setattr(np, "einsum", recording)
    for rank in range(1, 5):
        rotate_rank_n(rot, SymTensor(6, rank, np.ones(math.comb(rank + 5, 5))))
    assert seen == ["ai,i->a", "ai,bj,ij->ab", "ai,bj,ck,ijk->abc", "ai,bj,ck,dl,ijkl->abcd"]


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


def test_stack_rank_overflow():
    deep = coefficients([scalar(1.0, 3), SymTensor(3, 1, np.zeros(3)), SymTensor(3, 2, np.zeros(6)), SymTensor(3, 3, np.zeros(10))])
    with pytest.raises(ValueError):
        stack_coefficients(deep, deep)


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


def test_invariance_rejects_rank_three():
    pair = pair_with_ratio(1.0)
    deep = coefficients([scalar(1.0, 3), SymTensor(3, 1, np.zeros(3)), SymTensor(3, 2, np.zeros(6)), SymTensor(3, 3, np.zeros(10))])
    with pytest.raises(ValueError):
        distribution_invariance(deep, MAXWELLIAN, pair, [(0.0,) * 6])
