"""Tensor Hermite polynomials in the physicist and probabilist conventions.

The physicist family starts from H0 = 1, H1 = 2z and obeys the three-term
tensor recursion

    H_{n+1} = sym_product(H_n, H_1) - 2n sym_product(H_{n-1}, I),

the normalized symmetrization of H_n H_1 - 2n H_{n-1} I.  The probabilist
family (Grad's He) uses seeds He0 = 1, He1 = z and the factor n in place of
2n; the two are linked by He_n(z) = 2**(-n/2) H_n(z / sqrt(2)).

The recursion (the paper's definition) serves points and exact PolyScalar
tables.  Values at many points follow the product factorization
H_n,i(z) = prod_a h_{m_a}(z_a): the quadrature module builds them one axis
at a time from the 1-D table h_0..h_n here.  The tests hold the product
form at whole points as the oracle of both routes.
"""
from __future__ import annotations

import enum
import numbers
from fractions import Fraction

import numpy as np

from .symtensor import (
    SymTensor, _check_dim, _read_points, _require_integer, _require_positive, canonical_index_tuples, max_component_diff,
    scalar, sym_product,
)

__all__ = [
    "HermiteConvention",
    "PHYSICIST",
    "PROBABILIST",
    "PolyScalar",
    "evaluate_basis",
    "grad_check",
    "hermite_phys",
    "hermite_prob",
    "hermite_symbolic",
]


class HermiteConvention(enum.Enum):
    PHYSICIST = "physicist"
    PROBABILIST = "probabilist"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"convention must be 'physicist', 'probabilist' or a HermiteConvention, got {value!r}")


PHYSICIST = HermiteConvention.PHYSICIST
PROBABILIST = HermiteConvention.PROBABILIST


class PolyScalar:
    """Polynomial in d scalar variables with exact Fraction coefficients.

    Arithmetic is closed over PolyScalar and rational numbers; floats are
    rejected so exactness cannot be lost silently.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs):
        self.dim = dim
        self.coeffs = {tuple(e): Fraction(c) for e, c in dict(coeffs).items() if c != 0}

    @classmethod
    def constant(cls, dim: int, value) -> "PolyScalar":
        return cls(dim, {(0,) * dim: Fraction(value)})

    @classmethod
    def variable(cls, dim: int, axis: int) -> "PolyScalar":
        exponents = [0] * dim
        exponents[axis] = 1
        return cls(dim, {tuple(exponents): Fraction(1)})

    def coefficient(self, exponents) -> Fraction:
        return self.coeffs.get(tuple(exponents), Fraction(0))

    def terms(self):
        """(exponents, coefficient) pairs, highest total degree first."""
        return sorted(self.coeffs.items(), key=lambda kv: (-sum(kv[0]), kv[0]))

    def _coerce(self, other):
        if isinstance(other, PolyScalar):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            return other
        if isinstance(other, numbers.Rational):
            return PolyScalar.constant(self.dim, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return PolyScalar(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return PolyScalar(self.dim, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return PolyScalar(self.dim, out)

    __rmul__ = __mul__

    def __truediv__(self, divisor):
        if not isinstance(divisor, numbers.Rational):
            return NotImplemented
        return self * (Fraction(1) / divisor)

    def __eq__(self, other):
        if isinstance(other, numbers.Rational):
            other = PolyScalar.constant(self.dim, other)
        if not isinstance(other, PolyScalar):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for exponents, coeff in self.terms():
            factors = []
            if coeff != 1 or not any(exponents):
                factors.append(str(coeff))
            for axis, e in enumerate(exponents):
                if e == 1:
                    factors.append(f"z{axis}")
                elif e > 1:
                    factors.append(f"z{axis}**{e}")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


def evaluate_basis(max_rank, components, dim=3, convention=PHYSICIST):
    """Hermite tensors of rank 0..max_rank at one point via the three-term recursion.

    ``components`` holds the d coordinates, either floats or exact
    PolyScalars (then the tensors are coefficient tables).  Array
    coordinates are refused with ``ValueError``; values at many points come
    from the quadrature module's 1-D tables.  ``convention`` is a
    HermiteConvention or its value, "physicist" or "probabilist"; anything
    else raises ``ValueError``.  Returns a list of SymTensor, one per rank.
    """
    _check_dim(dim)
    _require_integer("max_rank", max_rank)
    convention = HermiteConvention(convention)
    comps = list(components)
    if len(comps) != dim:
        raise ValueError(f"expected {dim} coordinates, got {len(comps)}")
    seed_factor = 2 if convention is PHYSICIST else 1
    exact = isinstance(comps[0], PolyScalar)
    one, zero = (PolyScalar.constant(dim, 1), PolyScalar.constant(dim, 0)) if exact else (1.0, 0.0)
    # H_1 is built even for max_rank 0, so array coordinates are refused at every rank
    values = [scalar(one, dim), SymTensor(dim, 1, [seed_factor * c for c in comps])][: max_rank + 1]
    delta = SymTensor(dim, 2, [one if i == j else zero for i, j in canonical_index_tuples(2, dim)])
    for n in range(1, max_rank):
        step = sym_product(values[n], values[1]) - (seed_factor * n) * sym_product(values[n - 1], delta)
        values.append(step)
    return values


def hermite_phys(max_rank: int, z) -> list[SymTensor]:
    """Physicist tensor Hermite polynomials H_0..H_max_rank at a 3- or 6-vector z."""
    return _basis(max_rank, z, PHYSICIST)


def hermite_prob(max_rank: int, z) -> list[SymTensor]:
    """Probabilist (Grad) tensor Hermite polynomials He_0..He_max_rank at a 3- or 6-vector z."""
    return _basis(max_rank, z, PROBABILIST)


def _basis(max_rank: int, z, convention: HermiteConvention) -> list[SymTensor]:
    point = _read_points("z", z, batch=False)[0][0].tolist()
    return evaluate_basis(max_rank, point, len(point), convention)


def hermite_symbolic(max_rank: int, dim: int = 3, convention=PHYSICIST):
    """Coefficient tables: each component is an exact PolyScalar in z."""
    _check_dim(dim)
    variables = [PolyScalar.variable(dim, axis) for axis in range(dim)]
    return evaluate_basis(max_rank, variables, dim=dim, convention=convention)


def _hermite_table(max_n: int, x, factor: float = 2.0) -> np.ndarray:
    """1-D h_0..h_max_n at x on a new leading axis: h_{k+1} = factor x h_k - factor k h_{k-1}."""
    _require_integer("max_n", max_n)
    x = np.asarray(x, dtype=np.float64)
    table = np.empty((max_n + 1, *x.shape))
    table[0], table[1:2] = 1.0, factor * x
    for k in range(1, max_n):  # (factor x) h_k - (factor k) h_{k-1} in place; [k + 1, ...] is a view even for a scalar x
        np.multiply(table[1], table[k], out=table[k + 1, ...])
        table[k + 1, ...] -= factor * k * table[k - 1]
    return table


def grad_check(rank: int, z, h: float = 1e-5) -> float:
    """Residual of the gradient identity grad_i H_n = 2 delta_i H_{n-1}.

    Central finite differences of each component against the symmetrized
    right-hand side 2n sym_product(e_i, H_{n-1}); returns the largest
    absolute deviation over axes and components.
    """
    _require_integer("rank", rank, 1)
    _require_positive(h=h)
    zs = _read_points("z", z, batch=False)[0][0]
    dim = len(zs)
    lower = evaluate_basis(rank - 1, zs, dim=dim)[rank - 1]
    residuals = []
    for axis in range(dim):
        e_axis = np.eye(dim)[axis]
        plus = evaluate_basis(rank, zs + h * e_axis, dim=dim)[rank]
        minus = evaluate_basis(rank, zs - h * e_axis, dim=dim)[rank]
        fd = (plus - minus) / (2.0 * h)
        rhs = (2 * rank) * sym_product(SymTensor(dim, 1, e_axis), lower)
        residuals.append(max_component_diff(fd, rhs))
    return float(np.max(residuals))
