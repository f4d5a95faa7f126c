import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hermtensor.hermite import (
    PHYSICIST,
    PROBABILIST,
    HermiteConvention,
    PolyScalar,
    _hermite_table,
    evaluate_basis,
    grad_check,
    hermite_phys,
    hermite_prob,
    hermite_symbolic,
)
from hermtensor.quadrature import gauss_hermite_rule, grid_points, ortho_matrix
from hermtensor.symtensor import (
    canonical_index_tuples,
    identity,
    max_component_diff,
    sym_product,
)

from hermite_oracles import product_oracle, product_rows


def expected_symbolic_tables(dim=3):
    """Closed forms transcribed directly: 1, 2z, 4zz-2d, 8zzz-4(zd+zd+zd)."""
    z = [PolyScalar.variable(dim, a) for a in range(dim)]
    one = PolyScalar.constant(dim, 1)

    def delta(a, b):
        return one if a == b else PolyScalar.constant(dim, 0)

    tables = {0: {(): one}}
    tables[1] = {(i,): 2 * z[i] for (i,) in canonical_index_tuples(1, dim)}
    tables[2] = {
        (i, j): 4 * z[i] * z[j] - 2 * delta(i, j)
        for (i, j) in canonical_index_tuples(2, dim)
    }
    tables[3] = {
        (i, j, k): 8 * z[i] * z[j] * z[k]
        - 4 * (z[i] * delta(j, k) + z[j] * delta(k, i) + z[k] * delta(i, j))
        for (i, j, k) in canonical_index_tuples(3, dim)
    }
    return tables


# ---------------------------------------------------------------- closed forms


def test_symbolic_tables_match_closed_forms_exactly():
    got = hermite_symbolic(3)
    want = expected_symbolic_tables()
    for rank in range(4):
        for t in canonical_index_tuples(rank, 3):
            assert got[rank][t] == want[rank][t], (rank, t)


def test_symbolic_coefficients_are_integers_up_to_rank_four():
    for rank, table in enumerate(hermite_symbolic(4)):
        for t in canonical_index_tuples(rank, 3):
            for _, coeff in table[t].terms():
                assert isinstance(coeff, Fraction) and coeff.denominator == 1


def test_h2_at_zero_is_minus_two_delta():
    h2 = hermite_phys(2, (0.0, 0.0, 0.0))[2]
    assert max_component_diff(h2, -2.0 * identity(3)) == 0.0


def test_h3_component_000_at_ones():
    h3 = hermite_phys(3, (1.0, 1.0, 1.0))[3]
    assert h3[0, 0, 0] == pytest.approx(-4.0)


def test_h2_cross_component():
    h2 = hermite_phys(2, (1.0, 2.0, 0.3))[2]
    assert h2[0, 1] == pytest.approx(8.0)


# ---------------------------------------------------------------- 1-D recurrence


def test_hermite_1d_first_few():
    x = 0.7
    assert _hermite_table(0, x)[0] == 1.0
    assert _hermite_table(1, x)[1] == pytest.approx(2 * x)
    assert _hermite_table(2, x)[2] == pytest.approx(4 * x * x - 2)
    assert _hermite_table(3, x)[3] == pytest.approx(8 * x**3 - 12 * x)
    assert _hermite_table(2, 1.0)[2] == pytest.approx(2.0)


def test_hermite_1d_matches_numpy():
    x = np.linspace(-3, 3, 11)
    for n in range(7):
        coeffs = [0.0] * n + [1.0]
        np.testing.assert_allclose(_hermite_table(n, x)[n], np.polynomial.hermite.hermval(x, coeffs), rtol=1e-12)


def written_out_table(max_n, x, factor):
    """h_0..h_max_n by the recurrence h_{k+1} = factor x h_k - factor k h_{k-1}, one new array per degree."""
    x = np.asarray(x, dtype=np.float64)
    table = [np.ones_like(x), factor * x]
    for k in range(1, max_n):
        table.append(factor * x * table[k] - factor * k * table[k - 1])
    return np.stack(table[: max_n + 1])


@pytest.mark.parametrize("factor", [2.0, 1.0])
def test_hermite_table_bytes_match_written_out_recurrence(factor):
    points = np.random.default_rng(17).uniform(-4.7, 4.7, (3, 1024))
    points[:, 0] = (0.0, -0.0, 4.7)
    inputs = [points, gauss_hermite_rule(16).nodes, gauss_hermite_rule(32).nodes, 0.37, -0.0]
    for max_n in (0, 1, 2, 6, 9):
        for x in inputs:
            got, want = _hermite_table(max_n, x, factor), written_out_table(max_n, x, factor)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- recursion vs oracle


def test_recursion_matches_product_oracle_randomly():
    rng = np.random.default_rng(42)
    for _ in range(20):
        z = rng.uniform(-3, 3, size=3)
        basis = hermite_phys(6, z)
        for rank in range(7):
            want = product_oracle(rank, z)
            scale = max(1.0, float(np.max(np.abs(want.data))))
            assert max_component_diff(basis[rank], want) < 1e-10 * scale


def recursion_rows(max_rank, points, convention):
    """Rows (#components, K) per rank from one recursion per point."""
    per_point = [evaluate_basis(max_rank, p, dim=points.shape[1], convention=convention) for p in points]
    return [np.stack([basis[n].data for basis in per_point], axis=1) for n in range(max_rank + 1)]


def symbolic_rows(max_rank, points, convention):
    """Rows (#components, K) per rank from the recursion's exact tables, summed term by term at each point."""
    cols = points.T
    return [
        np.array([
            sum(float(c) * np.prod([x**e for x, e in zip(cols, exps)], axis=0) for exps, c in poly.terms())
            for poly in table.data
        ])
        for table in hermite_symbolic(max_rank, points.shape[1], convention)
    ]


def assert_rows_agree(got, want):
    """Per point and rank, relative to max(1, largest |component|) as the pointwise tests scale."""
    assert len(got) == len(want)
    for rank, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape, rank
        scale = np.maximum(1.0, np.max(np.abs(w), axis=0))
        assert np.max(np.abs(g - w) / scale) < 1e-13, rank


@pytest.mark.parametrize("convention", [PHYSICIST, PROBABILIST])
@pytest.mark.parametrize("dim", [3, 6])
def test_product_rows_match_batched_recursion(convention, dim):
    pts = np.random.default_rng(dim).uniform(-4, 4, size=(40, dim))
    assert_rows_agree(product_rows(8, pts, convention), recursion_rows(8, pts, convention))


@pytest.mark.parametrize("convention", [PHYSICIST, PROBABILIST])
def test_grid_basis_rows_match_batched_recursion(convention):
    pts = grid_points(gauss_hermite_rule(16))
    assert_rows_agree(product_rows(6, pts, convention), symbolic_rows(6, pts, convention))


def test_parity():
    rng = np.random.default_rng(1)
    z = rng.uniform(-2, 2, size=3)
    plus = hermite_phys(5, z)
    minus = hermite_phys(5, -z)
    for n in range(6):
        assert max_component_diff(minus[n], (-1.0) ** n * plus[n]) < 1e-12 * max(
            1.0, float(np.max(np.abs(plus[n].data)))
        )


def test_unnormalized_recursion_identity():
    # (n+1)! H_{n+1} equals raw(H_n, H_1) - 2n raw(H_{n-1}, delta), raw = (n+1)! sym_product the unnormalized
    # symmetrization of a rank-(n+1) product
    z = (0.4, -1.2, 2.1)
    basis = hermite_phys(5, z)
    delta = identity(3)
    for n in range(1, 5):
        lhs = math.factorial(n + 1) * basis[n + 1]
        raw = math.factorial(n + 1)
        rhs = raw * sym_product(basis[n], basis[1]) - (2 * n) * (raw * sym_product(basis[n - 1], delta))
        scale = max(1.0, float(np.max(np.abs(lhs.data))))
        assert max_component_diff(lhs, rhs) < 1e-12 * scale


@pytest.mark.parametrize("max_rank", [0, 1, 3])
def test_evaluate_basis_refuses_array_coordinates(max_rank):
    # values at many points come from 1-D tables; the recursion takes one point or exact tables
    with pytest.raises(ValueError, match="one scalar per canonical tuple"):
        evaluate_basis(max_rank, (np.ones(4), np.zeros(4), np.ones(4)))


# ---------------------------------------------------------------- probabilist


def test_probabilist_seeds_and_he2():
    z = (2.0, -0.5, 0.1)
    basis = hermite_prob(2, z)
    assert basis[0][()] == 1.0
    assert basis[1][(0,)] == pytest.approx(2.0)
    assert basis[2][0, 0] == pytest.approx(3.0)  # he2(x) = x^2 - 1 at x=2
    assert basis[2][0, 1] == pytest.approx(-1.0)


def test_probabilist_equals_scaled_physicist():
    rng = np.random.default_rng(8)
    z = rng.uniform(-2, 2, size=3)
    prob = hermite_prob(5, z)
    phys = hermite_phys(5, z / math.sqrt(2.0))
    for n in range(6):
        want = 2.0 ** (-0.5 * n) * phys[n]
        scale = max(1.0, float(np.max(np.abs(want.data))))
        assert max_component_diff(prob[n], want) < 1e-12 * scale


def test_probabilist_symbolic_he2_table():
    got = hermite_symbolic(2, convention=PROBABILIST)
    z = [PolyScalar.variable(3, a) for a in range(3)]
    assert got[1][(2,)] == z[2]
    assert got[2][(0, 0)] == z[0] * z[0] - 1
    assert got[2][(0, 1)] == z[0] * z[1]


# ---------------------------------------------------------------- convention


@pytest.mark.parametrize("entry, convention", [(hermite_phys, PHYSICIST), (hermite_prob, PROBABILIST)])
def test_point_basis_is_the_recursion_list(entry, convention):
    z = (0.3, -0.7, 1.1)
    got = entry(4, z)
    want = evaluate_basis(4, z, convention=convention)
    assert type(got) is list and len(got) == 5
    assert all(g.data.tobytes() == w.data.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("convention", list(HermiteConvention))
def test_convention_name_reads_as_its_member(convention):
    rng = np.random.default_rng(27)
    for dim in (3, 6):
        z = tuple(rng.uniform(-2, 2, size=dim))
        by_name, by_member = evaluate_basis(6, z, dim, convention.value), evaluate_basis(6, z, dim, convention)
        assert [t.data.tobytes() for t in by_name] == [t.data.tobytes() for t in by_member]
    rule = gauss_hermite_rule(10)
    for m, n in ((1, 1), (2, 3), (4, 4)):
        assert ortho_matrix(m, n, rule, convention.value).tobytes() == ortho_matrix(m, n, rule, convention).tobytes()


def test_symbolic_reads_physicist_name():
    z0 = PolyScalar.variable(3, 0)
    assert hermite_symbolic(2, convention="physicist")[2][0, 0] == 4 * z0 * z0 - 2
    assert hermite_symbolic(2, convention="probabilist")[2][0, 0] == z0 * z0 - 1


@pytest.mark.parametrize("convention", ["Physicist", None, 2])
@pytest.mark.parametrize("entry", [
    lambda c: evaluate_basis(2, (0.1, 0.2, 0.3), convention=c),
    lambda c: hermite_symbolic(2, convention=c),
    lambda c: ortho_matrix(1, 1, gauss_hermite_rule(4), c),
], ids=["evaluate_basis", "hermite_symbolic", "ortho_matrix"])
def test_unknown_convention_is_refused(entry, convention):
    message = f"convention must be 'physicist', 'probabilist' or a HermiteConvention, got {convention!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(convention)


# ---------------------------------------------------------------- gradient


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_gradient_identity(rank):
    rng = np.random.default_rng(rank)
    for _ in range(5):
        z = rng.uniform(-2, 2, size=3)
        assert grad_check(rank, z) < 1e-5


def test_grad_check_rejects_rank_zero():
    with pytest.raises(ValueError):
        grad_check(0, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("h", [math.nan, 0.0, -1e-5, math.inf])
def test_grad_check_refuses_a_step_that_is_not_finite_and_positive(h):
    with pytest.raises(ValueError, match=f"^h must be finite and positive, got {h}$"):
        grad_check(2, (0.3, -0.1, 0.5), h=h)


def test_grad_check_reports_nan_at_a_nan_point():
    # a NaN after a finite first residual must not be dropped by the reduction
    assert math.isnan(grad_check(2, (0.3, math.nan, 0.5)))


# ---------------------------------------------------------------- PolyScalar


def test_polyscalar_rejects_floats():
    p = PolyScalar.variable(3, 0)
    with pytest.raises(TypeError):
        p * 0.5
    with pytest.raises(TypeError):
        p + 0.5


def test_polyscalar_division_exact():
    p = (2 * PolyScalar.variable(3, 0)) / 3
    assert p.coefficient((1, 0, 0)) == Fraction(2, 3)


def test_polyscalar_repr_rsub_and_hash():
    # highest total degree first, the constant term last; a zero polynomial reads "0"
    assert repr(hermite_symbolic(2)[2][(0, 0)]) == "4*z0**2 - 2"
    assert repr(PolyScalar(3, {})) == "0"
    assert repr(1 - PolyScalar.variable(3, 1)) == "-1*z1 + 1"
    built = PolyScalar.variable(3, 0) * PolyScalar.variable(3, 0) - 1
    same = PolyScalar(3, {(0, 0, 0): -1, (2, 0, 0): 1})
    assert built == same and hash(built) == hash(same)
    assert len({built, same, PolyScalar.variable(3, 0)}) == 2
