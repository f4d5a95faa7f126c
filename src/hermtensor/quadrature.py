"""Gauss-Hermite quadrature and Hermite-series expansion of distributions.

Integrals are taken against the weight exp(-x**2) on each axis, tensorized
over three dimensions.  Orthogonality tables, expansion coefficients and
truncation errors are all reduced to weighted sums of basis values on the
node grid; the basis rows come from the product-form kernel of the hermite
module, evaluated on every node at once.  The grid (node triples, weights,
the factor exp(+z.z)) and its physicist basis rows depend only on the rule,
so each rule instance builds them once, on first use, and keeps them
read-only.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .hermite import PHYSICIST, PROBABILIST, product_rows
from .symtensor import SymTensor, multiplicity_vector, n_components

__all__ = [
    "AdmissibilityResult",
    "ExpansionCoefficients",
    "NonFiniteIntegrandError",
    "QuadratureRule",
    "WeightSpec",
    "expand",
    "gauss_hermite_rule",
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


@dataclass(frozen=True)
class QuadratureRule:
    """1-D Gauss-Hermite nodes and weights, tensorized on demand.

    The 3-D grid and its basis rows are built once per rule instance, on
    first use, and are read-only; a rule built by hand with other nodes
    gets a grid of its own.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    _grid: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=None)
def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Rule of the given order for the weight exp(-x**2).

    Nodes are the roots of the order-``order`` 1-D physicist Hermite
    polynomial; with n nodes, polynomials through degree 2n-1 integrate
    exactly.  Rules are cached per order; their arrays are read-only.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be within 1..{MAX_ORDER}, got {order}")
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return QuadratureRule(order, nodes, weights)


def _require_order(rule: QuadratureRule, rank: int) -> None:
    """Rank-``rank`` products need order >= 2 rank + 2 to integrate without aliasing."""
    if rule.order < 2 * rank + 2:
        raise ValueError(f"rule order {rule.order} insufficient for rank {rank}; need >= {2 * rank + 2}")


def _doubled_rule(rule: QuadratureRule) -> QuadratureRule:
    if 2 * rule.order > MAX_ORDER:
        raise ValueError(f"the order-doubling probe needs rule order <= {MAX_ORDER // 2}, got {rule.order}")
    return gauss_hermite_rule(2 * rule.order)


def _cached(rule: QuadratureRule, key: str, build):
    """The rule's grid entry ``key``, built on first use and read-only."""
    value = rule._grid.get(key)
    if value is None:
        value = rule._grid[key] = build()
        value.setflags(write=False)
    return value


def grid_points(rule: QuadratureRule) -> np.ndarray:
    """All 3-D node triples, shape (order**3, 3), in sorted node order; read-only."""
    x = rule.nodes
    return _cached(rule, "points", lambda: np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3))


def grid_weights(rule: QuadratureRule) -> np.ndarray:
    """Product weights of the node triples, in grid_points order; read-only."""
    w = rule.weights
    return _cached(rule, "weights", lambda: (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel())


def _grid_rows(rule: QuadratureRule, max_rank: int) -> tuple[np.ndarray, ...]:
    """Physicist basis rows of rank 0..max_rank on the rule's grid; read-only.

    The table is kept at the highest rank asked for so far; row n does not
    depend on that top rank, so a lower rank reads a prefix of it.
    """
    rows = rule._grid.get("rows", ())
    if len(rows) <= max_rank:
        rows = rule._grid["rows"] = tuple(product_rows(max_rank, grid_points(rule), PHYSICIST))
        for row in rows:
            row.setflags(write=False)
    return rows[: max_rank + 1]


def _sample(f, rule: QuadratureRule, vectorized: bool):
    """Evaluate f once on the rule's node grid: (points, weights, values, g = f exp(+z.z))."""
    points = grid_points(rule)
    if vectorized:
        values = np.asarray(f(points), dtype=np.float64)
        if values.shape != (len(points),):
            raise ValueError("vectorized integrand must return one value per point")
    else:
        values = np.fromiter((f(p) for p in points), dtype=np.float64, count=len(points))
    with np.errstate(over="ignore"):
        g = values * _cached(rule, "gauss", lambda: np.exp(np.sum(points**2, axis=1)))
    return points, grid_weights(rule), values, g


def _require_finite(values: np.ndarray, points: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        raise NonFiniteIntegrandError(points[int(np.argmax(bad))])


def integrate3(f, rule: QuadratureRule, *, vectorized: bool = False) -> float:
    """Approximate the integral of f(z) exp(-z.z) d^3z.

    ``f`` receives points with the Gaussian factor already divided out.  By
    default ``f`` is called once per node triple; pass ``vectorized=True``
    for a callable that maps an (K, 3) array to K values.
    """
    points, weights, values, _ = _sample(f, rule, vectorized)
    _require_finite(values, points)
    return float(np.dot(weights, values))


def _gram(m_rank: int, n_rank: int, rule: QuadratureRule, points=None, convention=PHYSICIST) -> np.ndarray:
    """pi**(-3/2) sum_k w_k H_m,i(p_k) H_n,j(p_k) over the rule's weights, at the given points or its nodes."""
    top = max(m_rank, n_rank)
    _require_order(rule, top)
    rows = _grid_rows(rule, top) if points is None else product_rows(top, points, convention)
    return math.pi ** (-1.5) * np.einsum("k,ik,jk->ij", grid_weights(rule), rows[m_rank], rows[n_rank])


def ortho_matrix(m_rank: int, n_rank: int, rule: QuadratureRule, convention=PHYSICIST) -> np.ndarray:
    """Quadrature table of basis inner products under the normalized weight.

    Physicist: pi**(-3/2) Integral exp(-z.z) H_m,i H_n,j; probabilist: the
    weight (2 pi)**(-3/2) exp(-z.z/2) against He_m,i He_n,j, mapped onto the
    same nodes by the substitution z = sqrt(2) x.  Shape is (#components(m),
    #components(n)).
    """
    if max(m_rank, n_rank) > 4:
        raise ValueError("orthogonality tables are supported for ranks <= 4")
    if convention is PROBABILIST:
        return _gram(m_rank, n_rank, rule, math.sqrt(2.0) * grid_points(rule), PROBABILIST)
    return _gram(m_rank, n_rank, rule)


class AdmissibilityResult(NamedTuple):
    admissible: bool
    value: float


def l2_admissible(f, rule: QuadratureRule, *, vectorized: bool = False) -> AdmissibilityResult:
    """Order-doubling stability probe of Integral exp(-z.z) |g|^2 d^3z.

    ``g`` is the integrand with the Gaussian factor divided out, g(z) =
    f(z) exp(+z.z).  The value is admissible when doubling the rule order
    moves it by less than 5 percent relative; the refined value is returned
    either way.  The probe requires order <= 32 so the doubled rule exists.
    """
    fine_rule = _doubled_rule(rule)
    return _admissibility(_sample(f, rule, vectorized), _sample(f, fine_rule, vectorized))


def _admissibility(coarse_sample, fine_sample) -> AdmissibilityResult:
    with np.errstate(over="ignore"):
        coarse, fine = (float(np.dot(w, g * g)) for _, w, _, g in (coarse_sample, fine_sample))
    if not (np.isfinite(coarse) and np.isfinite(fine)):
        return AdmissibilityResult(False, fine)
    scale = max(abs(coarse), abs(fine))
    return AdmissibilityResult(abs(fine - coarse) <= 0.05 * scale, fine)


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Hermite-series data: f(z) = f0 exp(-z.z) sum_n inner(a_n, H_n(z))."""

    max_rank: int
    coeffs: tuple[SymTensor, ...]
    f0: float = 1.0
    admissible: bool = True

    def __post_init__(self):
        if len(self.coeffs) != self.max_rank + 1:
            raise ValueError("need one coefficient tensor per rank 0..max_rank")
        for n, c in enumerate(self.coeffs):
            if c.rank != n or c.dim != 3:
                raise ValueError(f"coefficient {n} has wrong rank or dim")

    def __getitem__(self, rank: int) -> SymTensor:
        return self.coeffs[rank]


def expand(f, max_rank: int, rule: QuadratureRule, f0: float = 1.0, *, vectorized: bool = False) -> ExpansionCoefficients:
    """Project a distribution onto the physicist tensor Hermite basis.

    Component extraction uses the orthogonality constant 2**m m!:

        a_m[i] = 1 / (2**m m! f0) * Integral pi**(-3/2) f(z) H_m,i(z) d^3z.

    The integrals run over the node grid with the Gaussian factor divided
    out of f.  If the order-doubling stability probe flags f as outside the
    weighted L2 space, a warning is issued and the coefficients are still
    returned with ``admissible=False``.  The rule needs an order of at
    least 2 max_rank + 2, and at most 32 for the probe.
    """
    return _project(f, max_rank, rule, f0, vectorized)[0]


def _project(f, max_rank: int, rule: QuadratureRule, f0: float, vectorized: bool):
    """Probe, then project f: (coefficients, the rule's sample, rank 0..max_rank basis rows)."""
    if f0 == 0.0:
        raise ValueError("f0 must be nonzero")
    _require_order(rule, max_rank)
    fine_rule = _doubled_rule(rule)
    sample = _sample(f, rule, vectorized)
    check = _admissibility(sample, _sample(f, fine_rule, vectorized))
    if not check.admissible:
        # attributed to the caller of expand or truncation_error
        warnings.warn("distribution failed the weighted-L2 stability probe; coefficients are unreliable", stacklevel=3)
    points, weights, values, g = sample
    _require_finite(values, points)
    weighted = weights * g
    rows = _grid_rows(rule, max_rank)
    coeffs = []
    for m in range(max_rank + 1):
        integrals = math.pi ** (-1.5) * rows[m] @ weighted
        coeffs.append(SymTensor(3, m, integrals / (2.0**m * math.factorial(m) * f0)))
    return ExpansionCoefficients(max_rank, tuple(coeffs), f0, check.admissible), sample, rows


def _series(coeffs: ExpansionCoefficients, points: np.ndarray, top: int, rows=None) -> np.ndarray:
    if rows is None:
        rows = product_rows(top, points, PHYSICIST)
    total = np.zeros(len(points))
    for n in range(top + 1):
        mult = multiplicity_vector(n, 3)
        total += (mult * np.atleast_1d(coeffs[n].data)) @ rows[n]
    return total


def reconstruct(coeffs: ExpansionCoefficients, z):
    """Evaluate f0 exp(-z.z) sum_n inner(a_n, H_n(z)) at one point or a batch."""
    pts = np.asarray(z, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != 3:
        raise ValueError("points must be 3-vectors")
    out = coeffs.f0 * np.exp(-np.sum(pts**2, axis=1)) * _series(coeffs, pts, coeffs.max_rank)
    return float(out[0]) if single else out


def truncation_error(f, max_rank: int, rule: QuadratureRule, f0: float = 1.0, *, vectorized: bool = False) -> np.ndarray:
    """Weighted L2 error of the rank-N truncated series for N = 0..max_rank.

    e_N**2 = Integral pi**(-3/2) exp(+z.z) |f - f_N|^2 d^3z, the norm in
    which the expansion is an orthogonal projection, so the sequence cannot
    increase as ranks are added.
    """
    coeffs, (points, weights, _, g), rows = _project(f, max_rank, rule, f0, vectorized)
    errors = np.empty(max_rank + 1)
    for top in range(max_rank + 1):
        residual = g - f0 * _series(coeffs, points, top, rows)
        errors[top] = math.sqrt(max(0.0, math.pi ** (-1.5) * float(np.dot(weights, residual * residual))))
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
        if self.density <= 0 or self.mass <= 0 or self.temperature <= 0:
            raise ValueError("density, mass and temperature must be positive")
        object.__setattr__(self, "v_av", tuple(float(c) for c in self.v_av))

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
        """Weight per unit dimensionless velocity volume."""
        pts = np.atleast_2d(np.asarray(z, dtype=np.float64))
        out = self.density * math.pi ** (-1.5) * np.exp(-np.sum((pts - self.z_av) ** 2, axis=1))
        return float(out[0]) if np.asarray(z).ndim == 1 else out
