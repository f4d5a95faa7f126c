"""Gauss-Hermite quadrature and Hermite-series expansion of distributions.

Integrals are taken against the weight exp(-x**2) on each axis, tensorized
over three dimensions.  Each basis function factors into 1-D polynomials,
H_n,i(z) = prod_a h_{m_a}(z_a), and so do the weights and exp(+z.z), so
every grid sum but the truncation residual is one contraction, one axis at
a time, of f's values against a 1-D table: w for ``integrate3``,
w exp(2 x**2) for the weighted-L2 probe (on f**2), h_a w exp(x**2) for
projection into a moment cube.  Each Gram entry is a product of three 1-D
sums; a series, in 3 or 6 dimensions, is summed one axis at a time at its
points.  Basis rows on the grid and g = f exp(+z.z) serve truncation
errors only.  The grid (node triples, weights, the factor exp(+z.z)), the
1-D tables and the rows depend only on the rule, so each rule builds each
once, on first use, as one read-only array per key.  The node triples are
stored axis-major, so a sum over a point's coordinates is three contiguous
adds.
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .hermite import PHYSICIST, HermiteConvention, _hermite_table
from .symtensor import (
    SymTensor, _axis_counts, _count_plan, _finite_vector3, _frozen, _read_points, _read_series, _require_integer,
    _require_kind, _require_nonzero, _require_positive,
)

__all__ = [
    "AdmissibilityResult",
    "ExpansionCoefficients",
    "NonFiniteIntegrandError",
    "QuadratureRule",
    "WeightSpec",
    "expand",
    "gauss_hermite_rule",
    "grid_points",
    "grid_weights",
    "integrate3",
    "l2_admissible",
    "ortho_matrix",
    "reconstruct",
    "truncation_error",
]

MAX_ORDER = 64

# CODATA 2022 values as scipy.constants reports them; k_B is exact in SI
BOLTZMANN = 1.380649e-23
ATOMIC_MASS = 1.66053906892e-27


class NonFiniteIntegrandError(ArithmeticError):
    """An integrand evaluated to inf or nan at a quadrature node."""

    def __init__(self, node):
        self.node = tuple(float(c) for c in np.atleast_1d(node))
        super().__init__(f"integrand is not finite at node {self.node}")


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """1-D Gauss-Hermite nodes and weights, tensorized on demand.

    A rule of integer ``order`` >= 1 keeps read-only copies of its ``order``
    nodes and weights (other lengths raise ``ValueError``), and builds each
    table on them once, on first use, read-only; a hand-built rule has
    tables of its own.  Rules compare and hash by identity.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    _grid: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        _require_integer("order", self.order, 1)
        for name in ("nodes", "weights"):  # copies, so a caller's writes cannot move the nodes under the tables
            value = _frozen(np.array(getattr(self, name), dtype=np.float64))
            if value.shape != (self.order,):
                raise ValueError(f"a rule of order {self.order} needs {self.order} {name}, got shape {value.shape}")
            object.__setattr__(self, name, value)


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Rule of the given order for the weight exp(-x**2).

    Nodes are the roots of the order-``order`` 1-D physicist Hermite
    polynomial; with n nodes, polynomials through degree 2n-1 integrate
    exactly.  Rules are cached per order, one rule for 16 and np.int64(16)
    alike, with an int ``order``; their arrays are read-only.
    """
    _require_integer("order", order, 1, MAX_ORDER)
    return _rule(operator.index(order))


@lru_cache(maxsize=None)
def _rule(order: int) -> QuadratureRule:
    return QuadratureRule(order, *np.polynomial.hermite.hermgauss(order))


# top rank of every rank-capped operation, each checked only through _require_rank; "mixed" caps the public 6-D ones
_RANK_CAPS = {
    "ortho_matrix": 4, "mixed": 4, "invariance_per_species": 2, "translate_basis": 6, "translation_roundtrip": 5,
    # CLI commands and verify suites
    "basis": 6, "basis_symbolic": 4, "expand": 4, "verify_rotate": 3,
}


def _require_rank(name: str, rank: int, low: int = 0) -> None:
    _require_integer(f"{name} rank", rank, low, _RANK_CAPS[name])


def _require_order(rule: QuadratureRule, rank: int) -> None:
    """Rank-``rank`` products need rank >= 0 and order >= 2 rank + 2 to integrate without aliasing."""
    _require_kind(QuadratureRule, rule=rule)
    _require_integer("rank", rank)
    if rule.order < 2 * rank + 2:
        raise ValueError(f"rule order {rule.order} insufficient for rank {rank}; need >= {2 * rank + 2}")


def _doubled_rule(rule: QuadratureRule) -> QuadratureRule:
    _require_kind(QuadratureRule, rule=rule)
    if 2 * rule.order > MAX_ORDER:
        raise ValueError(f"the order-doubling probe needs rule order <= {MAX_ORDER // 2}, got {rule.order}")
    return gauss_hermite_rule(2 * rule.order)


def _cached(rule: QuadratureRule, key, build):
    """The rule's table ``key``, built on first use and read-only; the only access to ``rule._grid``."""
    _require_kind(QuadratureRule, rule=rule)
    value = rule._grid.get(key)
    if value is None:
        value = rule._grid[key] = _frozen(build())
    return value


def grid_points(rule: QuadratureRule) -> np.ndarray:
    """All 3-D node triples, shape (order**3, 3), in sorted node order; read-only, stored axis-major."""
    return _cached(rule, "points", lambda: np.stack(np.meshgrid(*[rule.nodes] * 3, indexing="ij")).reshape(3, -1).T.copy("F"))


def grid_weights(rule: QuadratureRule) -> np.ndarray:
    """Product weights of the node triples, in grid_points order; read-only."""
    return _cached(rule, "weights", lambda: ((w := rule.weights)[:, None, None] * w[:, None] * w).ravel())


def _axis_table(rule: QuadratureRule, max_rank: int) -> np.ndarray:
    """1-D physicist h_0..h_max_rank at the rule's nodes, shape (max_rank + 1, order); read-only."""
    return _cached(rule, ("axis", max_rank), lambda: _hermite_table(max_rank, rule.nodes))


def _grid_rows(rule: QuadratureRule, max_rank: int) -> tuple[np.ndarray, ...]:
    """Physicist basis rows of rank 0..max_rank on the rule's grid, one read-only (components, order**3) array per rank.

    Row n is h_c0(x) h_c1(y) h_c2(z) over the node triples, c the axis counts of each component: an outer
    product of 1-D table rows, multiplied axis by axis from the first, so bitwise the product-form rows of the
    test oracle.
    """
    h = _axis_table(rule, max_rank)

    def build(n):
        c = _axis_counts(n, 3).T
        return (h[c[0]][:, :, None, None] * h[c[1]][:, None, :, None] * h[c[2]][:, None, None, :]).reshape(len(c[0]), -1)

    return tuple(_cached(rule, ("row", n), lambda: build(n)) for n in range(max_rank + 1))


def _sample(f, rule: QuadratureRule, vectorized: bool) -> tuple[np.ndarray, float]:
    """Evaluate f once on the rule's node grid: its values, in grid_points order, and max |values|.

    f is called on the whole grid if ``vectorized``, else node by node, and an exception it raises propagates
    as raised; either result is read by one ``np.asarray``, and one that is not one number per point, or not of
    a bool, integer or real dtype (None, text, complex), raises ValueError.  A sample that is not finite raises
    NonFiniteIntegrandError at its first such node.
    """
    points = grid_points(rule)
    values = f(points) if vectorized else [f(p) for p in points]
    try:
        values = np.asarray(values)
    except (TypeError, ValueError):  # ragged
        values = None
    if values is None or values.dtype.kind not in "biuf" or values.shape != (len(points),):
        raise ValueError("integrand must return one number per point")
    values = values.astype(np.float64, copy=False)  # a float64 grid result is read, not copied
    peak = float(np.max(np.abs(values)))
    if not peak < math.inf:  # a finite sample pays this one reduction, no search
        raise NonFiniteIntegrandError(points[int(np.argmax(~np.isfinite(values)))])
    return values, peak


def integrate3(f, rule: QuadratureRule, *, vectorized: bool = False) -> float:
    """Approximate the integral of f(z) exp(-z.z) d^3z.

    ``f`` receives points with the Gaussian factor divided out: one node
    triple per call, or with ``vectorized=True`` an (K, 3) array mapped to
    K values.  The sum is the moment contraction against the 1-D weights.
    """
    values, _ = _sample(f, rule, vectorized)
    return _moments(values, rule.weights[None, :]).item()


def _gram(m_rank: int, n_rank: int, rule: QuadratureRule, convention=PHYSICIST, shift=(0.0, 0.0, 0.0)) -> np.ndarray:
    """pi**(-3/2) sum_k w_k H_m,i H_n,j over the node triples, scaled by 1 (physicist) or sqrt(2), minus ``shift``."""
    _require_order(rule, m_rank)
    _require_order(rule, n_rank)
    convention = HermiteConvention(convention)
    scale, factor = (1.0, 2.0) if convention is PHYSICIST else (math.sqrt(2.0), 1.0)
    rows, cols = _axis_counts(m_rank, 3), _axis_counts(n_rank, 3)
    gram = math.pi ** (-1.5)
    for axis in range(3):  # entry (i, j) is prod_a G_a[count of a in i, count of a in j], G_a = (T_a w) T_a^T
        table = _hermite_table(max(m_rank, n_rank), scale * rule.nodes - shift[axis], factor)
        gram = gram * ((table * rule.weights) @ table.T)[rows[:, axis, None], cols[None, :, axis]]
    return gram


def ortho_matrix(m_rank: int, n_rank: int, rule: QuadratureRule, convention=PHYSICIST) -> np.ndarray:
    """Quadrature table of basis inner products under the normalized weight.

    Physicist: pi**(-3/2) Integral exp(-z.z) H_m,i H_n,j; probabilist: the
    weight (2 pi)**(-3/2) exp(-z.z/2) against He_m,i He_n,j, mapped onto the
    same nodes by the substitution z = sqrt(2) x.  ``convention`` is read as
    in ``evaluate_basis``.  Shape is (#components(m), #components(n)); each
    entry is a product of three 1-D sums.
    """
    _require_rank("ortho_matrix", m_rank)
    _require_rank("ortho_matrix", n_rank)
    return _gram(m_rank, n_rank, rule, convention)


class AdmissibilityResult(NamedTuple):
    admissible: bool
    value: float


def l2_admissible(f, rule: QuadratureRule, *, vectorized: bool = False) -> AdmissibilityResult:
    """Order-doubling stability probe of Integral exp(-z.z) |g|^2 d^3z.

    ``g`` is the integrand with the Gaussian factor divided out, g(z) =
    f(z) exp(+z.z).  The value is admissible when doubling the rule order
    moves it by less than 5 percent relative; the refined value is returned
    either way.  Each grid sum is the moment contraction of f**2 against
    the 1-D table w exp(2 x**2), as w g**2 = w exp(2 z.z) f**2 factorizes,
    with f in units of a power of two.  The probe requires order <= 32.
    """
    return _probe(f, rule, vectorized)[0]


def _probe(f, rule: QuadratureRule, vectorized: bool) -> tuple[AdmissibilityResult, float, np.ndarray]:
    """Sample f once on the rule's grid and once on the doubled one, and probe: (result, divisor, coarse values).

    A sample that is not finite raises NonFiniteIntegrandError at its first such node, before any verdict and
    before the next grid is sampled.
    The divisor is the power of two at or below max |f| over both samples (1.0 if max |f| is not a normal
    float), exact, so a constant factor of f (the density) cannot overflow the squares.  Each sum is
    sum_ijk W_i W_j W_k s_ijk**2, s the scaled f and W = w exp(2 x**2) the rule's 1-D table: the moment
    contraction of s**2 against the one-row table W.  W <= 9.6e47 up to order 64 and |s| < 2, so a scaled
    sum stays below 1e150.
    """
    samples = [(r, *_sample(f, r, vectorized)) for r in (rule, _doubled_rule(rule))]
    peak = max(p for _, _, p in samples)
    unit = math.ldexp(1.0, math.frexp(peak)[1] - 1) if np.finfo(np.float64).tiny <= peak else 1.0

    def total(r, values):
        w = _cached(r, "probe", lambda: r.weights * np.exp(2.0 * r.nodes**2))
        return _moments(np.square(s := values * (1.0 / unit), out=s), w[None, :]).item()

    with np.errstate(over="ignore"):  # a non-finite sum fails the probe
        coarse, fine = (total(r, values) for r, values, _ in samples)
    stable = math.isfinite(coarse) and math.isfinite(fine) and abs(fine - coarse) <= 0.05 * max(abs(coarse), abs(fine))
    return AdmissibilityResult(stable, fine * unit * unit), unit, samples[0][1]


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Hermite-series data: f(z) = f0 exp(-z.z) sum_n inner(a_n, H_n(z))."""

    max_rank: int
    coeffs: tuple[SymTensor, ...]
    f0: float = 1.0
    admissible: bool = True

    def __post_init__(self):
        _require_integer("max_rank", self.max_rank)
        _require_nonzero("f0", self.f0)
        if len(_read_series("coeffs", self.coeffs, 3)) != self.max_rank + 1:
            raise ValueError("need one coefficient tensor per rank 0..max_rank")

    def __getitem__(self, rank: int) -> SymTensor:
        return self.coeffs[rank]


def expand(f, max_rank: int, rule: QuadratureRule, f0: float = 1.0, *, vectorized: bool = False) -> ExpansionCoefficients:
    """Project a distribution onto the physicist tensor Hermite basis.

    Component extraction uses the orthogonality constant 2**m m!:

        a_m[i] = 1 / (2**m m! f0) * Integral pi**(-3/2) f(z) H_m,i(z) d^3z.

    The integrals run over the node grid, axis by axis: each is a moment of
    f's values, in units of the probe's power of two, against the rule's
    cached 1-D table h_a(x) w exp(x**2), so g = f exp(+z.z) is never formed
    and no 3-D table but the node triples is read.  f0 must be finite and
    nonzero.  If the order-doubling stability probe flags f as outside the
    weighted L2 space, a warning is issued and the coefficients are still
    returned with ``admissible=False``; a non-finite coefficient, or a
    divisor 2**m m! f0 that overflows in those units (it would zero its
    coefficients), raises ArithmeticError.  The rule needs an order of at
    least 2 max_rank + 2, and at most 32 for the probe.
    """
    return _project(f, max_rank, rule, f0, vectorized)[0]


def _moments(vector: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Moment cube M[a, b, c] = sum_ijk T_a(x_i) T_b(x_j) T_c(x_k) v_ijk of a grid vector v and a 1-D table T.

    Every grid sum but truncation_error's residual runs here, one axis at a time; a one-row table T = w gives M[0, 0, 0].
    """
    top, order = table.shape
    first = (table @ vector.reshape(order, order * order)).reshape(top * order, order)  # [a, j, k]
    return table @ (first @ table.T).reshape(top, order, top)  # [a, j, c], then b from j


def _project(f, max_rank: int, rule: QuadratureRule, f0: float, vectorized: bool):
    """Probe, then project f: (coefficients, f's values on the rule's grid, the probe's power of two)."""
    _require_nonzero("f0", f0)
    _require_order(rule, max_rank)
    check, unit, values = _probe(f, rule, vectorized)
    if not check.admissible:
        # attributed to the caller of expand or truncation_error
        warnings.warn("distribution failed the weighted-L2 stability probe; coefficients are unreliable", stacklevel=3)
    # w g H_m,i factorizes over the axes, so its grid sum is a moment of f against one 1-D table; f in units of
    # the probe's power of two cannot overflow the contraction, and the divisor takes the scale back
    table = _cached(rule, ("fold", max_rank), lambda: _axis_table(rule, max_rank) * (rule.weights * np.exp(rule.nodes**2)))
    moments = _moments(values * (1.0 / unit), table)
    _, _, cube, bounds = _count_plan(max_rank, 3)
    with np.errstate(all="ignore"):  # an overflowing divisor would zero its coefficients: both are refused
        data = math.pi ** (-1.5) * moments.ravel()[cube]
        for m, (lo, hi) in enumerate(zip(bounds, bounds[1:])):  # the divisor grows with m: the last is the largest
            np.divide(part := data[lo:hi], divisor := 2.0**m * math.factorial(m) * (f0 / unit), out=part)
    if not (math.isfinite(divisor) and np.isfinite(data).all()):
        raise ArithmeticError("an expansion coefficient is not finite, or its divisor 2**m m! f0 overflows in f's units")
    coeffs = tuple(SymTensor(3, m, _frozen(data)[lo:hi]) for m, (lo, hi) in enumerate(zip(bounds, bounds[1:])))
    return ExpansionCoefficients(max_rank, coeffs, f0, check.admissible), values, unit


@lru_cache(maxsize=None)
def _series_plan(top: int, dim: int):
    """Read-only plan of a rank-0..top series over dim axes: (matrix shape, scatter, multiplicities, folds).

    Scatter puts each component, count vector c, at row "prefix c[:-1]" (in first-fold order) and column
    c[-1] of the coefficient matrix.  The fold over axis a is (a, c_a per row, (start, length) per block,
    the output rows the next fold reads).  Its rows are the prefixes c[:a+1] in blocks by c_a; block j
    holds the c[:a] with sum <= top - j in output order, lowest sum first, so it adds onto the leading rows.
    """
    order, rows, folds = [()], [], []
    for axis in range(dim - 1):
        gather = _frozen(np.array([order.index(r) for r in rows])) if rows else None
        rows = [q + (j,) for j in range(top + 1) for q in order if sum(q) + j <= top]
        last = [r[-1] for r in rows]
        blocks = tuple((last.index(j), last.count(j)) for j in range(top + 1))
        folds.insert(0, (axis, _frozen(np.array(last)), blocks, gather))
        order = sorted(rows, key=sum)
    scatter = np.array([rows.index(tuple(c[:-1])) * (top + 1) + c[-1] for c in _count_plan(top, dim)[0].tolist()])
    return (len(rows), top + 1), _frozen(scatter), _count_plan(top, dim)[1], tuple(folds)


def _series(tensors, f0: float, pts: np.ndarray, single: bool):
    """f0 exp(-z.z) sum_n inner(a_n, H_n(z)) for d-D tensors a_0..a_N at (K, d) points; a float if ``single``.

    Summed over h_0..h_N at the coordinates, a matmul for the last axis and a fold for each other axis:
    no basis row is built, and no intermediate outgrows (components, K).  The tensors are read by the
    caller (``_read_series``).
    """
    dim = pts.shape[1]
    shape, scatter, multiplicities, folds = _series_plan(len(tensors) - 1, dim)
    # axis-major: z.z is d contiguous vector adds, left to right as per point; one point is contracted as a
    # two-column batch, so the matmul sums it as it does in any batch (a one-column product would be a gemv)
    coords = np.ascontiguousarray(np.repeat(pts.T, 2, axis=1) if len(pts) == 1 else pts.T)
    table = _hermite_table(shape[1] - 1, coords)
    matrix = np.zeros(shape)
    matrix.flat[scatter] = multiplicities * np.concatenate([t.data for t in tensors])
    partial = matrix @ table[:, dim - 1]
    for axis, counts, ((_, width), *blocks), gather in folds:
        partial *= table[counts, axis]
        out = partial[:width]
        for lo, size in blocks:
            out[:size] += partial[lo : lo + size]
        partial = out if gather is None else out[gather]
    out = f0 * np.exp(-np.sum(coords**2, axis=0)) * partial[0]
    return float(out[0]) if single else out[: len(pts)]


def reconstruct(coeffs: ExpansionCoefficients, z):
    """Evaluate f0 exp(-z.z) sum_n inner(a_n, H_n(z)) at one 3-vector (a float) or a (K, 3) batch, axis by axis."""
    _require_kind(ExpansionCoefficients, coeffs=coeffs)
    return _series(coeffs.coeffs, coeffs.f0, *_read_points("z", z, 3))


def truncation_error(f, max_rank: int, rule: QuadratureRule, f0: float = 1.0, *, vectorized: bool = False) -> np.ndarray:
    """Weighted L2 error of the rank-N truncated series for N = 0..max_rank.

    e_N**2 = Integral pi**(-3/2) exp(+z.z) |f - f_N|^2 d^3z, the norm in
    which the expansion is an orthogonal projection, so the sequence cannot
    increase as ranks are added.  The residual g - f0 S_N (g = f exp(+z.z),
    S_N the rank-N series) is formed in units of the probe's power of two,
    exact in range and finite where g would overflow, and summed pairwise;
    a NaN sum reads NaN.
    """
    coeffs, values, unit = _project(f, max_rank, rule, f0, vectorized)
    g = values * (1.0 / unit) * _cached(rule, "gauss", lambda: np.exp(np.sum(grid_points(rule) ** 2, axis=1)))
    weights, scale = grid_weights(rule), f0 / unit
    errors = np.empty(max_rank + 1)
    partial, residual = np.zeros_like(g), np.empty_like(g)
    _, multiplicities, _, bounds = _count_plan(max_rank, 3)
    for top, row in enumerate(_grid_rows(rule, max_rank)):
        partial += (multiplicities[bounds[top] : bounds[top + 1]] * coeffs[top].data) @ row
        # w (g - f0 partial)**2 in one buffer, summed pairwise in a fixed order
        np.square(np.subtract(g, np.multiply(partial, scale, out=residual), out=residual), out=residual)
        total = np.add.reduce(np.multiply(weights, residual, out=residual))
        errors[top] = math.sqrt(math.pi ** (-1.5) * float(total)) * unit  # a sum of squares: >= 0 or nan
    return errors


@dataclass(frozen=True)
class WeightSpec:
    """Maxwellian reference weight in physical units (SI).

    Defines the dimensionless velocity z = v sqrt(mass / (2 kB T)) and the
    weight n (mass / (2 pi kB T))**(3/2) exp(-mass (v - v_av)^2 / (2 kB T)),
    which becomes n pi**(-3/2) exp(-(z - z_av)^2) per unit z volume.
    """

    density: float
    mass: float
    temperature: float
    v_av: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        _require_positive(density=self.density, mass=self.mass, temperature=self.temperature)
        object.__setattr__(self, "v_av", _finite_vector3("v_av", self.v_av))

    @property
    def thermal_speed(self) -> float:
        return math.sqrt(2.0 * BOLTZMANN * self.temperature / self.mass)

    def z_of_v(self, v) -> np.ndarray:
        return np.asarray(v, dtype=np.float64) / self.thermal_speed

    def v_of_z(self, z) -> np.ndarray:
        return np.asarray(z, dtype=np.float64) * self.thermal_speed

    @property
    def z_av(self) -> np.ndarray:
        return self.z_of_v(self.v_av)

    def weight_z(self, z):
        """Weight per unit dimensionless velocity volume at one 3-vector (a float) or a (K, 3) batch."""
        pts, single = _read_points("z", z, 3)
        out = self.density * math.pi ** (-1.5) * np.exp(-np.sum((pts - self.z_av) ** 2, axis=1))
        return float(out[0]) if single else out
