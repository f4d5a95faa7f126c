"""Scaling and translation of the tensor Hermite basis.

Scaling z' = alpha (z - z0) keeps Hermite expansions convergent only while
alpha**2 < 2; in temperature language alpha**2 = T / T_S, so a species at
T_S can absorb an expansion at T exactly when 2 T_S > T.  Translation is
exact at any shift through a binomial sum over lower ranks, but the
translated basis is no longer orthogonal under the original weight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hermite import hermite_phys
from .quadrature import QuadratureRule, _doubled_rule, _gram, _require_rank
from .symtensor import (
    SymTensor, _finite_vector3, _read_points, _read_series, _require_kind, _require_positive, max_component_diff,
    outer_power, sym_product,
)

__all__ = [
    "ProbeResult",
    "ScalingMap",
    "TranslationMap",
    "alpha_from_temperatures",
    "convergence_probe",
    "orthogonality_after_translation",
    "scaling_admissible",
    "temperature_window",
    "translate_basis",
    "translated_hermite",
    "translation_roundtrip",
]

TO_CENTERED = "r->0"
TO_AVERAGE = "0->r"
_DIRECTIONS = (TO_CENTERED, TO_AVERAGE)

# convergence_probe calls a doubled-order value above this multiple of the coarse one divergent
DIVERGENCE_RATIO = 10.0


@dataclass(frozen=True)
class ScalingMap:
    """The affine map z' = alpha (z - z0)."""

    alpha: float
    z0: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        _require_positive(alpha=self.alpha)
        object.__setattr__(self, "z0", _finite_vector3("z0", self.z0))

    def apply(self, z) -> np.ndarray:
        """z' at one 3-vector (a 3-vector) or a (K, 3) batch (a batch)."""
        pts, single = _read_points("z", z, 3)
        out = self.alpha * (pts - np.asarray(self.z0))
        return out[0] if single else out


@dataclass(frozen=True)
class TranslationMap:
    """Two frame centers: basis arguments z - z00 versus z - za."""

    z00: tuple[float, float, float]
    za: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "z00", _finite_vector3("z00", self.z00))
        object.__setattr__(self, "za", _finite_vector3("za", self.za))

    @property
    def shift(self) -> np.ndarray:
        """Offset za - z00 between the two centers."""
        return np.asarray(self.za) - np.asarray(self.z00)


def scaling_admissible(alpha: float) -> bool:
    """Strict convergence criterion alpha**2 < 2 for the scaled expansion."""
    _require_positive(alpha=alpha)
    return alpha * alpha < 2.0


def alpha_from_temperatures(T: float, T_s: float) -> float:
    """Scaling factor sqrt(T / T_s) between a distribution at T and a basis at T_s."""
    _require_positive(T=T, T_s=T_s)
    return math.sqrt(T / T_s)


def temperature_window(T_i: float, T_n: float):
    """Open interval of basis temperatures serving both finite T_i and T_n.

    A basis at T must satisfy 2T > T_i and T < 2 T_n simultaneously, giving
    (T_i / 2, 2 T_n).  Returns None when the interval is empty, which for
    T_i >= T_n happens exactly when T_i >= 4 T_n.
    """
    _require_positive(T_i=T_i, T_n=T_n)
    if T_i < T_n:
        raise ValueError(f"need T_i >= T_n, got T_i={T_i}, T_n={T_n}")
    lo, hi = T_i / 2.0, 2.0 * T_n
    return (lo, hi) if lo < hi else None


class ProbeResult(NamedTuple):
    classification: str
    coarse: float
    fine: float


def convergence_probe(smap: ScalingMap, rule: QuadratureRule) -> ProbeResult:
    """Order-doubling classification of Integral exp(|z'|^2 - 2 |z|^2) d^3z.

    The integrand is exp((alpha**2 - 2) |z - c|^2 + ...), convergent exactly
    when alpha**2 < 2.  The quadrature value is taken at the rule's order
    and at double the order: a non-finite value, or a doubled-order value
    above DIVERGENCE_RATIO times the coarse one, is classified divergent,
    anything else finite; both values are returned, each a product of three
    1-D sums, one per factor of the integrand.  Near the alpha**2 = 2
    boundary a two-point probe is indecisive by construction.  Needs rule
    order <= 32.
    """
    _require_kind(ScalingMap, smap=smap)
    fine_rule = _doubled_rule(rule)

    def value(r):
        with np.errstate(over="ignore"):
            sums = [float(np.add.reduce(r.weights * np.exp((smap.alpha * (r.nodes - c)) ** 2 - r.nodes**2))) for c in smap.z0]
        return sums[0] * sums[1] * sums[2]

    coarse = value(rule)
    fine = value(fine_rule)
    divergent = not (math.isfinite(coarse) and math.isfinite(fine)) or fine > DIVERGENCE_RATIO * coarse
    return ProbeResult("divergent" if divergent else "finite", coarse, fine)


def translate_basis(values, tmap: TranslationMap, direction: str) -> SymTensor:
    """One frame's H_n at a point, re-expanded from the other frame's H_0..H_n there.

    Direction "r->0" takes ``values`` = H_0..H_n(z - za) and returns H_n(z - z00) = sum_p C(n,p)
    sym_product(H_p(z - za), [2 (za - z00)]^(n-p)), summed left to right from p = 0; direction "0->r"
    swaps the roles, negating the shift.
    """
    rank = len(_read_series("values", values, 3)) - 1
    _require_rank("translate_basis", rank)
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}")
    _require_kind(TranslationMap, tmap=tmap)
    shift_vector = 2.0 * (tmap.shift if direction == TO_CENTERED else -tmap.shift)
    pieces = [math.comb(rank, p) * sym_product(values[p], outer_power(shift_vector, rank - p)) for p in range(rank + 1)]
    return sum(pieces[1:], pieces[0])


def translated_hermite(rank: int, tmap: TranslationMap, direction: str, z) -> SymTensor:
    """Evaluate one frame's H_rank at a 3-vector z going through the other frame's basis."""
    _require_rank("translate_basis", rank)
    _require_kind(TranslationMap, tmap=tmap)
    center = tmap.za if direction == TO_CENTERED else tmap.z00
    partner = hermite_phys(rank, _read_points("z", z, 3, batch=False)[0][0] - np.asarray(center))
    return translate_basis(partner, tmap, direction)


def translation_roundtrip(rank: int, tmap: TranslationMap, z) -> float:
    """Residual of translating rank 0..rank forward and back at a 3-vector z."""
    _require_rank("translation_roundtrip", rank)
    return _roundtrip(rank, tmap, z)[1]


def _roundtrip(rank: int, tmap: TranslationMap, z) -> tuple[list[SymTensor], float]:
    """H_0..H_rank at z - z00 assembled from the frame at za ("r->0"), and the residual of translating them back."""
    _require_kind(TranslationMap, tmap=tmap)
    original = hermite_phys(rank, _read_points("z", z, 3, batch=False)[0][0] - np.asarray(tmap.za))
    forward = [translate_basis(original[: k + 1], tmap, TO_CENTERED) for k in range(rank + 1)]
    back = [translate_basis(forward[: k + 1], tmap, TO_AVERAGE) for k in range(rank + 1)]
    return forward, float(np.max([max_component_diff(back[k], original[k]) for k in range(rank + 1)]))


def orthogonality_after_translation(n_rank: int, m_rank: int, tmap: TranslationMap, rule: QuadratureRule) -> np.ndarray:
    """Inner products of the translated basis under the untranslated weight.

    Entries are pi**(-3/2) Integral exp(-z.z) H_n,i(z - s) H_m,j(z - s) d^3z
    with s = za - z00.  At s = 0 this is the orthogonality table; any other
    shift breaks both the cross-rank zeros and the diagonal normalization.
    """
    _require_kind(TranslationMap, tmap=tmap)
    return _gram(n_rank, m_rank, rule, shift=tmap.shift)
