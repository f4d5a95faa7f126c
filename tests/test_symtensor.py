import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermtensor.symtensor import (
    MultiIndex,
    SymTensor,
    canonical_index_tuples,
    canonicalize,
    identity,
    inner,
    multiplicity,
    multiplicity_vector,
    n_components,
    outer_power,
    perm_delta,
    scalar,
    sym_product,
    sym_raw,
)


def random_symtensor(rng, dim, rank):
    return SymTensor(dim, rank, rng.standard_normal(n_components(rank, dim)))


def sym_raw_bruteforce(a, b):
    """Oracle: materialize all (p+q)! permutation terms from dense storage."""
    p, q, dim = a.rank, b.rank, a.dim
    out = []
    for full in canonical_index_tuples(p + q, dim):
        acc = 0.0
        for perm in itertools.permutations(full):
            acc += a[perm[:p]] * b[perm[p:]]
        out.append(acc)
    return SymTensor(dim, p + q, out)


def inner_bruteforce(a, b):
    """Oracle: contract over every one of the d**n ordered index tuples."""
    acc = 0.0
    for full in itertools.product(range(a.dim), repeat=a.rank):
        acc += a[full] * b[full]
    return acc


# ---------------------------------------------------------------- indices


def test_canonicalize_sorts_and_validates():
    m = canonicalize((2, 0, 1, 0), 3)
    assert m.entries == (0, 0, 1, 2)
    assert m.rank == 4
    with pytest.raises(ValueError):
        canonicalize((0, 3), 3)
    with pytest.raises(ValueError):
        canonicalize((0, 1), 4)


def test_multiindex_rejects_unsorted():
    with pytest.raises(ValueError):
        MultiIndex((1, 0), 3)


def test_multiplicity_examples():
    assert multiplicity(canonicalize((0, 1, 2), 3)) == 6
    assert multiplicity(canonicalize((0, 0, 1), 3)) == 3
    assert multiplicity(canonicalize((0, 0, 0), 3)) == 1
    assert multiplicity(canonicalize((), 3)) == 1


@pytest.mark.parametrize("dim", [3, 6])
@pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
def test_multiplicities_sum_to_dim_power_rank(dim, rank):
    assert multiplicity_vector(rank, dim).sum() == dim**rank


@pytest.mark.parametrize("dim,rank,count", [(3, 2, 6), (3, 3, 10), (3, 6, 28), (6, 3, 56), (6, 4, 126)])
def test_component_counts(dim, rank, count):
    assert n_components(rank, dim) == count
    assert len(canonical_index_tuples(rank, dim)) == count


@given(st.lists(st.integers(0, 2), min_size=0, max_size=5))
def test_canonicalize_is_idempotent(labels):
    once = canonicalize(labels, 3)
    assert canonicalize(once.entries, 3) == once


# ---------------------------------------------------------------- storage


def test_permuted_reads_hit_canonical_component():
    rng = np.random.default_rng(7)
    t = random_symtensor(rng, 3, 3)
    for full in itertools.product(range(3), repeat=3):
        assert t[full] == t[tuple(sorted(full))]


def test_symtensor_is_immutable():
    t = identity(3)
    with pytest.raises(AttributeError):
        t.rank = 5
    with pytest.raises(ValueError):
        t.data[0] = 2.0


def test_component_count_enforced():
    with pytest.raises(ValueError):
        SymTensor(3, 2, [1.0, 2.0])


def test_identity_components():
    d = identity(3)
    assert d[0, 0] == 1.0 and d[1, 1] == 1.0 and d[2, 2] == 1.0
    assert d[0, 1] == 0.0 and d[1, 0] == 0.0


def test_dense_roundtrip():
    rng = np.random.default_rng(3)
    t = random_symtensor(rng, 3, 3)
    back = SymTensor.from_dense(t.to_dense())
    assert np.array_equal(back.data, t.data)


@pytest.mark.parametrize("dim", [3, 6])
@pytest.mark.parametrize("rank", range(6))
def test_to_dense_matches_permutation_fill(rank, dim):
    rng = np.random.default_rng(rank)
    for batch in ((), (4,)):
        t = SymTensor(dim, rank, rng.standard_normal((n_components(rank, dim),) + batch))
        expected = np.empty((dim,) * rank + batch)
        for pos, idx in enumerate(canonical_index_tuples(rank, dim)):
            for perm in set(itertools.permutations(idx)):
                expected[perm] = t.data[pos]
        dense = t.to_dense()
        assert dense.dtype == np.float64 and dense.shape == expected.shape
        assert dense.tobytes() == expected.tobytes()


# ---------------------------------------------------------------- sym ops


def test_sym_raw_of_delta_alone_doubles_it():
    # symmetrizing the rank-2 delta over both slots: result is 2*delta
    d = identity(3)
    s = sym_raw(d, scalar(1.0, 3))
    assert np.array_equal(s.data, 2.0 * d.data)


def test_sym_raw_vector_delta_six_terms():
    x = outer_power((1.0, 2.0, 3.0), 1)
    s = sym_raw(x, identity(3))
    # six permutation terms collapse to 2*(x_i d_jk + x_j d_ki + x_k d_ij)
    assert s[0, 0, 0] == pytest.approx(6.0)
    assert s[0, 1, 1] == pytest.approx(2.0)
    assert s[0, 0, 1] == pytest.approx(4.0)
    assert s[0, 1, 2] == pytest.approx(0.0)
    brute = sym_raw_bruteforce(x, identity(3))
    np.testing.assert_allclose(s.data, brute.data, rtol=1e-12)


@pytest.mark.parametrize("dim", [3, 6])
@pytest.mark.parametrize("p,q", [(0, 2), (1, 1), (1, 2), (2, 2), (3, 1)])
def test_sym_raw_matches_bruteforce(dim, p, q):
    rng = np.random.default_rng(100 * p + 10 * q + dim)
    a = random_symtensor(rng, dim, p)
    b = random_symtensor(rng, dim, q)
    got = sym_raw(a, b)
    want = sym_raw_bruteforce(a, b)
    np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=1e-12)


def test_sym_raw_is_factorial_times_sym_product_exactly():
    rng = np.random.default_rng(11)
    for p, q in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        a = random_symtensor(rng, 3, p)
        b = random_symtensor(rng, 3, q)
        raw = sym_raw(a, b)
        prod = sym_product(a, b)
        assert np.array_equal(raw.data, math.factorial(p + q) * prod.data)


def test_sym_product_symmetric_argument_is_projection():
    # symmetrizing an already-symmetric tensor leaves it unchanged
    rng = np.random.default_rng(5)
    t = random_symtensor(rng, 3, 4)
    s = sym_product(t, scalar(1.0, 3))
    np.testing.assert_allclose(s.data, t.data, rtol=1e-15)


# ---------------------------------------------------------------- perm_delta


def test_perm_delta_examples():
    assert perm_delta((0, 1), (0, 1)) == 1
    assert perm_delta((0, 0), (0, 0)) == 2
    assert perm_delta((0, 1), (2, 2)) == 0
    assert perm_delta((), ()) == 1


def test_perm_delta_diagonal_is_product_of_count_factorials():
    for t in canonical_index_tuples(4, 3):
        expected = 1
        for _, grp in itertools.groupby(t):
            expected *= math.factorial(sum(1 for _ in grp))
        assert perm_delta(t, t) == expected


def test_perm_delta_off_diagonal_vanishes_between_different_multisets():
    for ti in canonical_index_tuples(3, 3):
        for tj in canonical_index_tuples(3, 3):
            if ti != tj:
                assert perm_delta(ti, tj) == 0


@given(
    st.lists(st.integers(0, 2), min_size=3, max_size=3),
    st.lists(st.integers(0, 2), min_size=3, max_size=3),
)
@settings(max_examples=50)
def test_perm_delta_is_symmetric_and_order_invariant(i, j):
    assert perm_delta(i, j) == perm_delta(j, i)
    assert perm_delta(sorted(i), sorted(j)) == perm_delta(i, j)


def permanent_bruteforce(i, j):
    """Oracle: count the slot permutations that carry i onto j."""
    return sum(all(i[a] == j[p[a]] for a in range(len(i))) for p in itertools.permutations(range(len(i))))


@pytest.mark.parametrize("dim", [3, 6])
def test_perm_delta_closed_form_matches_bruteforce_permanent(dim):
    rng = np.random.default_rng(dim)
    for rank in range(7):
        for _ in range(20):
            i = tuple(int(a) for a in rng.integers(0, dim, rank))
            for j in (tuple(rng.permutation(i)), tuple(int(a) for a in rng.integers(0, dim, rank))):
                assert perm_delta(i, j) == permanent_bruteforce(i, j), (i, j)


def test_perm_delta_rank_ten():
    i = (2, 0, 1, 0, 2, 1, 0, 2, 1, 0)
    assert perm_delta(i, sorted(i)) == math.factorial(4) * math.factorial(3) ** 2
    assert perm_delta(i, (0,) * 4 + (1,) * 4 + (2,) * 2) == 0
    assert perm_delta((5,) * 10, (5,) * 10) == math.factorial(10)


# ---------------------------------------------------------------- inner


@pytest.mark.parametrize("dim,rank", [(3, 0), (3, 1), (3, 3), (3, 4), (6, 2), (6, 3)])
def test_inner_matches_bruteforce(dim, rank):
    rng = np.random.default_rng(rank + dim)
    a = random_symtensor(rng, dim, rank)
    b = random_symtensor(rng, dim, rank)
    got = inner(a, b)
    want = inner_bruteforce(a, b)
    assert got == pytest.approx(want, rel=1e-12)


def test_inner_delta_with_itself_gives_dim():
    assert inner(identity(3), identity(3)) == pytest.approx(3.0)
    assert inner(identity(6), identity(6)) == pytest.approx(6.0)


def test_inner_rank_mismatch_raises():
    with pytest.raises(ValueError):
        inner(identity(3), scalar(1.0, 3))


# ---------------------------------------------------------------- outer_power


def test_outer_power_components():
    v = (1.0, 2.0, 3.0)
    t = outer_power(v, 2)
    assert t[1, 2] == pytest.approx(6.0)
    assert t[0, 0] == pytest.approx(1.0)
    assert t[2, 2] == pytest.approx(9.0)
    assert outer_power(v, 0)[()] == pytest.approx(1.0)


def test_outer_power_inner_is_dot_power():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(3)
    w = rng.standard_normal(3)
    for k in range(5):
        got = inner(outer_power(v, k), outer_power(w, k))
        assert got == pytest.approx(float(np.dot(v, w)) ** k, rel=1e-12)


# ---------------------------------------------------------------- arithmetic


def test_linear_arithmetic():
    rng = np.random.default_rng(9)
    a = random_symtensor(rng, 3, 2)
    b = random_symtensor(rng, 3, 2)
    np.testing.assert_allclose((a + b).data, a.data + b.data)
    np.testing.assert_allclose((a - b).data, a.data - b.data)
    np.testing.assert_allclose((2.5 * a).data, 2.5 * a.data)
    np.testing.assert_allclose((-a).data, -a.data)
    np.testing.assert_allclose((a / 2).data, a.data / 2)
