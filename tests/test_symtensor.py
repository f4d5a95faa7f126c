import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermtensor import symtensor
from hermtensor.hermite import PolyScalar
from hermtensor.symtensor import (
    SymTensor,
    canonical_index_tuples,
    identity,
    inner,
    multiplicity,
    multiplicity_vector,
    n_components,
    outer_power,
    perm_delta,
    scalar,
    sym_product,
)
from hermtensor.symtensor import _axis_counts, _count_plan, _count_positions, _dense_positions, _split_plan


def random_symtensor(rng, dim, rank):
    return SymTensor(dim, rank, rng.standard_normal(n_components(rank, dim)))


def sym_raw(a, b):
    """Unnormalized symmetrization of a (x) b over all (p+q)! slot permutations: (p+q)! sym_product(a, b)."""
    return math.factorial(a.rank + b.rank) * sym_product(a, b)


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


def test_multiplicity_examples():
    assert multiplicity((0, 1, 2)) == 6
    assert multiplicity((0, 0, 1)) == 3
    assert multiplicity((0, 0, 0)) == 1
    assert multiplicity(()) == 1


@pytest.mark.parametrize("dim", [3, 6])
@pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
def test_multiplicities_sum_to_dim_power_rank(dim, rank):
    assert multiplicity_vector(rank, dim).sum() == dim**rank


def test_one_table_per_rank_whatever_its_integer_type():
    # an np.int64 rank or dimension is served the int's entry, so one rank builds its tuples and multiplicities once
    for rank, dim in ((np.int64(2), 3), (2, np.int64(3)), (np.int64(4), np.int64(6))):
        assert canonical_index_tuples(rank, dim) is canonical_index_tuples(int(rank), int(dim))
        assert multiplicity_vector(rank, dim) is multiplicity_vector(int(rank), int(dim))


@pytest.mark.parametrize(("dim", "top"), [(3, n) for n in range(7)] + [(6, n) for n in range(5)])
def test_count_plan_is_the_per_rank_tables_concatenated(dim, top):
    plan = _count_plan(top, dim)
    assert _count_plan(top, dim) is plan
    counts, multiplicities, cube, ranks, bounds = plan
    assert bounds == tuple(sum(n_components(m, dim) for m in range(n)) for n in range(top + 2))
    for n in range(top + 1):
        lo, hi = bounds[n], bounds[n + 1]
        assert np.array_equal(counts[lo:hi], _axis_counts(n, dim))
        assert multiplicities[lo:hi].tobytes() == multiplicity_vector(n, dim).tobytes()
        assert np.array_equal(cube[lo:hi], np.ravel_multi_index(tuple(_axis_counts(n, dim).T), (top + 1,) * dim))
    for arr in (counts, multiplicities, cube):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.mark.parametrize(("dim", "top"), [(3, n) for n in range(7)] + [(6, n) for n in range(5)])
def test_count_plan_ranks_are_read_only_label_count_totals(dim, top):
    counts, _, _, ranks, bounds = _count_plan(top, dim)
    assert np.array_equal(ranks, np.repeat(np.arange(top + 1), np.diff(bounds)))
    assert np.array_equal(ranks, counts.sum(axis=1))
    with pytest.raises(ValueError, match="read-only"):
        ranks[0] = 0


@pytest.mark.parametrize(("dim", "rank"), [(3, n) for n in range(7)] + [(6, n) for n in range(5)])
def test_count_positions_follow_the_plan_cube_order(dim, rank):
    # the cube position is the one integer encoding of a label-count row
    assert not hasattr(symtensor, "_count_keys")
    _, _, cube, _, bounds = _count_plan(rank, dim)
    cube = cube[bounds[rank] : bounds[rank + 1]]
    assert np.all(np.diff(cube) < 0)  # strictly decreasing in storage order
    storage = np.arange(len(cube))
    counts = _axis_counts(rank, dim)
    assert np.array_equal(_count_positions(counts, rank, dim), storage)
    assert np.array_equal(_count_positions(counts[::-1], rank, dim), storage[::-1])


@pytest.mark.parametrize("dim,rank,count", [(3, 2, 6), (3, 3, 10), (3, 6, 28), (6, 3, 56), (6, 4, 126)])
def test_component_counts(dim, rank, count):
    assert n_components(rank, dim) == count
    assert len(canonical_index_tuples(rank, dim)) == count


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


@pytest.mark.parametrize(
    "components",
    [
        np.ones((3, 4)),
        [np.ones(4), np.ones(4), np.ones(4)],
        [np.ones(2), np.ones(3), np.ones(2)],
        np.array([np.ones(2), np.ones(3), np.ones(2)], dtype=object),
    ],
    ids=["2-D array", "equal rows", "ragged rows", "object array of rows"],
)
def test_components_are_one_scalar_per_tuple(components):
    with pytest.raises(ValueError, match="one scalar per canonical tuple"):
        SymTensor(3, 1, components)


def test_float_and_exact_components_are_accepted():
    assert SymTensor(3, 1, [1, 2.5, np.float64(3)]).data.dtype == np.float64
    assert SymTensor(3, 1, np.arange(3)).data.dtype == np.float64
    exact = SymTensor(3, 1, [PolyScalar.variable(3, a) for a in range(3)])
    assert exact.data.dtype == object and exact.data.shape == (3,)


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
@pytest.mark.parametrize("rank", range(5))
def test_from_dense_is_bitwise_the_tensor(rank, dim):
    rng = np.random.default_rng(rank + 10 * dim)
    n = n_components(rank, dim)
    specials = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e308], n)
    t = SymTensor(dim, rank, np.where(rng.random(n) < 0.3, specials, rng.standard_normal(n)))
    if rank == 0:  # a 0-d array carries no dimension, so it is refused
        with pytest.raises(ValueError, match=r"scalar\(value, dim\)"):
            SymTensor.from_dense(t.to_dense())
        return
    back = SymTensor.from_dense(t.to_dense())
    assert back.rank == rank and back.dim == dim
    assert back.data.dtype == np.float64 and back.data.tobytes() == t.data.tobytes()


@pytest.mark.parametrize("dim", [3, 6])
@pytest.mark.parametrize("rank", range(6))
def test_to_dense_matches_permutation_fill(rank, dim):
    rng = np.random.default_rng(rank)
    t = SymTensor(dim, rank, rng.standard_normal(n_components(rank, dim)))
    expected = np.empty((dim,) * rank)
    for pos, idx in enumerate(canonical_index_tuples(rank, dim)):
        for perm in set(itertools.permutations(idx)):
            expected[perm] = t.data[pos]
    dense = t.to_dense()
    assert dense.dtype == np.float64 and dense.shape == expected.shape
    assert dense.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim, top", [(3, 6), (6, 4)])
def test_dense_positions_are_the_canonical_tuple_positions(dim, top):
    # the table is read from label counts; the reference looks each sorted dense index up in storage order
    rng = np.random.default_rng(dim)
    for rank in range(top + 1):
        tuples = canonical_index_tuples(rank, dim)
        table = _dense_positions(rank, dim)
        assert table.shape == (dim,) * rank
        for i in itertools.product(range(dim), repeat=rank):
            assert table[i] == tuples.index(tuple(sorted(i)))
        if rank:  # a 0-d array carries no dimension, so rank 0 has no round trip
            t = SymTensor(dim, rank, rng.standard_normal(len(tuples)))
            assert SymTensor.from_dense(t.to_dense()).data.tobytes() == t.data.tobytes()


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
    # integer components, those of a multiples of C(p+q, p): every sum and the division are exact, so the split
    # counts must give the brute-force symmetrization to the bit
    rng = np.random.default_rng(11)
    for p, q in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        a = SymTensor(3, p, math.comb(p + q, p) * rng.integers(-3, 4, n_components(p, 3)).astype(np.float64))
        b = SymTensor(3, q, rng.integers(-3, 4, n_components(q, 3)).astype(np.float64))
        assert np.array_equal(sym_raw(a, b).data, sym_raw_bruteforce(a, b).data)


def test_sym_product_symmetric_argument_is_projection():
    # symmetrizing an already-symmetric tensor leaves it unchanged
    rng = np.random.default_rng(5)
    t = random_symtensor(rng, 3, 4)
    s = sym_product(t, scalar(1.0, 3))
    np.testing.assert_allclose(s.data, t.data, rtol=1e-15)


def _grouped_split_sums(a: SymTensor, b: SymTensor) -> list:
    """Per canonical output tuple, sum A[left]*B[right] over position splits.

    Splitting the p+q slots of an output tuple I into p positions for A and
    q for B depends only on the resulting sub-multisets, so equal splits are
    grouped and counted instead of enumerated.
    """
    p, q, dim = a.rank, b.rank, a.dim
    pos_a = {t: i for i, t in enumerate(canonical_index_tuples(p, dim))}
    pos_b = {t: i for i, t in enumerate(canonical_index_tuples(q, dim))}
    out = []
    for full in canonical_index_tuples(p + q, dim):
        groups: dict[tuple, int] = {}
        for comb in itertools.combinations(range(p + q), p):
            left = tuple(full[k] for k in comb)
            it = iter(comb)
            nxt = next(it, None)
            right = []
            for k, label in enumerate(full):
                if k == nxt:
                    nxt = next(it, None)
                else:
                    right.append(label)
            key = (left, tuple(right))
            groups[key] = groups.get(key, 0) + 1
        acc = 0
        for (left, right), count in groups.items():
            term = a.data[pos_a[left]] * b.data[pos_b[right]]
            acc = acc + count * term
        out.append(acc)
    return out


def grouped_sym_product(a, b):
    """Reference: the per-call split enumeration the split plan replaced."""
    binom = math.comb(a.rank + b.rank, a.rank)
    return SymTensor(a.dim, a.rank + b.rank, [s / binom for s in _grouped_split_sums(a, b)])


def assert_same_bits(got, want):
    if want.dtype == object:
        assert list(got) == list(want)
        return
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


SPLIT_CASES = [(3, p, q) for p in range(5) for q in range(5)] + [(6, p, q) for p in range(7) for q in range(7 - p)]


def test_sym_product_matches_grouped_enumeration():
    rng = np.random.default_rng(29)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e-320])

    def monomials(n, dim):
        axes, powers, coeffs = rng.integers(0, dim, n), rng.integers(0, 3, n), rng.integers(-3, 4, n)
        return [PolyScalar(dim, {tuple(k * (a == axis) for a in range(dim)): int(c)}) for axis, k, c in zip(axes, powers, coeffs)]

    for dim, p, q in SPLIT_CASES:
        na, nb = n_components(p, dim), n_components(q, dim)
        rings = [
            (rng.standard_normal(na), rng.standard_normal(nb)),
            (rng.choice(specials, na), rng.choice(specials, nb)),
        ]
        if dim == 3 or p + q <= 4:  # exact products at 6-D ranks 5-6 cost seconds; floats cover those plans
            rings.append((monomials(na, dim), monomials(nb, dim)))
        for x, y in rings:
            a, b = SymTensor(dim, p, x), SymTensor(dim, q, y)
            with np.errstate(over="ignore", invalid="ignore"):
                assert_same_bits(sym_product(a, b).data, grouped_sym_product(a, b).data)

        plan = _split_plan(p, q, dim)
        assert len(plan) == 4 and not any(arr.flags.writeable for arr in plan)
        out, _, _, count = plan
        total = np.zeros(n_components(p + q, dim), dtype=np.intp)
        np.add.at(total, out, count)
        assert np.all(total == math.comb(p + q, p))  # Vandermonde: every position split counted once
        assert np.all(np.diff(out) >= 0)  # output-major: each output sums its terms in canonical order of L


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


def test_outer_power_matches_per_tuple_loop():
    rng = np.random.default_rng(5)
    for dim in (3, 6):
        v = rng.standard_normal(dim)
        for power in range(7):
            want = []
            for t in canonical_index_tuples(power, dim):
                out = 1.0
                for a in t:
                    out = out * v[a]
                want.append(out)
            assert outer_power(v, power).data.tobytes() == np.array(want).tobytes(), (dim, power)
    assert outer_power((1, 2, 3), 2).data.tobytes() == outer_power((1.0, 2.0, 3.0), 2).data.tobytes()


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
