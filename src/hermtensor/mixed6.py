"""Two-species coordinates and order-6 mixed Hermite machinery.

A pair of species with masses m_s and m_sp at a common temperature has
two natural 6-D coordinate frames: the stacked per-species velocities
(z_sp above z_s) and the center-of-mass / relative pair (c above g).
The frames are linked by a symmetric involutory block rotation, so the
6-D Gaussian weight is the same in both and a product of two species
expansions can be rewritten as a single 6-D expansion in either frame.

The upper block always belongs to the primed species; the lower block
to the unprimed one.  All frame math is dimensionless, with physical
velocities converted only at the input boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .hermite import PHYSICIST, evaluate_basis
from .quadrature import BOLTZMANN, ExpansionCoefficients, _require_rank, _series
from .symtensor import (
    SymTensor, _axis_counts, _count_positions, _frozen, _is_real, _read_points, _read_series, _require_kind,
    _require_nonzero, _require_positive, max_component_diff, n_components, sym_product,
)

__all__ = [
    "BOLTZMANN",
    "BlockRotation",
    "COM_RELATIVE_FRAME",
    "MixedPoint",
    "SPECIES_FRAME",
    "SpeciesPair",
    "com_relative_from_velocities",
    "distribution_invariance",
    "equivariance_residual",
    "from_com_relative",
    "mixed_hermite",
    "mixed_reconstruct",
    "product_distribution",
    "rotate_coefficients",
    "rotate_rank_n",
    "species_point_from_velocities",
    "stack_coefficients",
    "to_com_relative",
]

SPECIES_FRAME = "species"
COM_RELATIVE_FRAME = "com-relative"
_FRAMES = (SPECIES_FRAME, COM_RELATIVE_FRAME)


@dataclass(frozen=True)
class SpeciesPair:
    """Masses of the two species and their common temperature (kg, kg, K)."""

    m_s: float
    m_sp: float
    T: float

    def __post_init__(self):
        _require_positive(m_s=self.m_s, m_sp=self.m_sp, T=self.T)

    @property
    def reduced_mass(self) -> float:
        return self.m_s * self.m_sp / (self.m_s + self.m_sp)

    @property
    def total_mass(self) -> float:
        return self.m_s + self.m_sp

    def z_scale(self, mass: float) -> float:
        """Velocity-to-dimensionless factor sqrt(mass / (2 k_B T))."""
        return math.sqrt(mass / (2.0 * BOLTZMANN * self.T))


@dataclass(frozen=True)
class BlockRotation:
    """Symmetric involutory map [[y I, y' I], [y' I, -y I]] between frames.

    y**2 is the reduced mass over the unprimed mass and y'**2 over the
    primed mass, so y**2 + y'**2 = 1 and the matrix is orthogonal.
    """

    y: float
    y_prime: float

    def __post_init__(self):
        if not (_is_real(self.y) and _is_real(self.y_prime) and abs(self.y * self.y + self.y_prime * self.y_prime - 1.0) <= 1e-12):
            raise ValueError("block coefficients must be finite and satisfy y**2 + y'**2 == 1")

    @classmethod
    def from_pair(cls, pair: SpeciesPair) -> "BlockRotation":
        _require_kind(SpeciesPair, pair=pair)
        mu = pair.reduced_mass
        return cls(math.sqrt(mu / pair.m_s), math.sqrt(mu / pair.m_sp))

    @cached_property
    def matrix(self) -> np.ndarray:
        return _frozen(np.kron([[self.y, self.y_prime], [self.y_prime, -self.y]], np.eye(3)))

    def apply(self, x) -> np.ndarray:
        """The rotated 6-vector x."""
        return self.matrix @ _read_points("x", x, 6, batch=False)[0][0]


@dataclass(frozen=True)
class MixedPoint:
    """A 6-vector with a frame tag, read through ``coords``.

    In the species frame the coordinates are (z_sp, z_s) stacked; in the
    com-relative frame they are (c, g): the upper block is ``coords[:3]``,
    the lower ``coords[3:]``.
    """

    coords: tuple[float, ...]
    frame: str

    def __post_init__(self):
        coords = tuple(_read_points("coords", self.coords, 6, batch=False)[0][0].tolist())
        if self.frame not in _FRAMES:
            raise ValueError(f"frame must be one of {_FRAMES}")
        object.__setattr__(self, "coords", coords)


def _frame_coords(p: MixedPoint, frame: str | None) -> tuple[float, ...]:
    _require_kind(MixedPoint, p=p)
    if frame not in (None, p.frame):
        raise ValueError(f"point is in frame {p.frame!r}, expected {frame!r}")
    return p.coords


def to_com_relative(p: MixedPoint, pair: SpeciesPair) -> MixedPoint:
    """Rotate a stacked species-frame point into (c, g) coordinates."""
    return MixedPoint(tuple(BlockRotation.from_pair(pair).apply(_frame_coords(p, SPECIES_FRAME))), COM_RELATIVE_FRAME)


def from_com_relative(p: MixedPoint, pair: SpeciesPair) -> MixedPoint:
    """Rotate (c, g) back to the stacked species frame; R is its own inverse."""
    return MixedPoint(tuple(BlockRotation.from_pair(pair).apply(_frame_coords(p, COM_RELATIVE_FRAME))), SPECIES_FRAME)


def species_point_from_velocities(pair: SpeciesPair, v_s, v_sp) -> MixedPoint:
    """Nondimensionalize two physical velocities into the stacked frame."""
    _require_kind(SpeciesPair, pair=pair)
    z_s = _read_points("v_s", v_s, 3, batch=False)[0][0] * pair.z_scale(pair.m_s)
    z_sp = _read_points("v_sp", v_sp, 3, batch=False)[0][0] * pair.z_scale(pair.m_sp)
    return MixedPoint((*z_sp, *z_s), SPECIES_FRAME)


def com_relative_from_velocities(pair: SpeciesPair, v_s, v_sp) -> MixedPoint:
    """Center-of-mass and relative coordinates straight from velocities.

    c is the center-of-mass velocity scaled with the total mass and g is
    the relative velocity v_sp - v_s scaled with the reduced mass.  This
    route never touches the rotation matrix, so agreement with
    ``to_com_relative`` is a real consistency check.
    """
    _require_kind(SpeciesPair, pair=pair)
    v_s = _read_points("v_s", v_s, 3, batch=False)[0][0]
    v_sp = _read_points("v_sp", v_sp, 3, batch=False)[0][0]
    v_cm = (pair.m_s * v_s + pair.m_sp * v_sp) / pair.total_mass
    c = v_cm * pair.z_scale(pair.total_mass)
    g = (v_sp - v_s) * pair.z_scale(pair.reduced_mass)
    return MixedPoint((*c, *g), COM_RELATIVE_FRAME)


def _points6(name: str, x, frame: str | None = None, batch: bool = True) -> tuple[np.ndarray, bool]:
    """``x`` as (K, 6) float coordinates, and whether it was one point, read by ``_read_points``.

    One point is a 6-vector or a MixedPoint, in ``frame`` when one is named; with ``batch``, a (K, 6) array
    or a list or tuple of points is K points.  Anything else raises ValueError naming ``name``.
    """
    if isinstance(x, MixedPoint):
        x = _frame_coords(x, frame)
    elif isinstance(x, (list, tuple)):
        x = [_frame_coords(p, frame) if isinstance(p, MixedPoint) else p for p in x]
    return _read_points(name, x, 6, batch, "6-vector or MixedPoint")


def mixed_hermite(N: int, x) -> list[SymTensor]:
    """Physicist tensor Hermite polynomials of a 6-vector, ranks 0..N.

    The recursion is the 3-D one run in dimension 6, which makes each
    component factor into a product of two 3-D polynomials, one per block.
    """
    _require_rank("mixed", N)
    return evaluate_basis(N, _points6("x", x, batch=False)[0][0], dim=6, convention=PHYSICIST)


def rotate_rank_n(rot: BlockRotation, t: SymTensor) -> SymTensor:
    """Apply the block rotation to every slot of a symmetric 6-D tensor."""
    _require_kind(BlockRotation, rot=rot)
    _require_kind(SymTensor, t=t)
    if t.dim != 6:
        raise ValueError("tensor must have dimension 6")
    _require_rank("mixed", t.rank)
    dense = t.to_dense()
    for _ in range(t.rank):
        # contract the leading slot; the rotated slot goes last, so after rank passes the order is back
        dense = np.tensordot(dense, rot.matrix, axes=(0, 1))
    return SymTensor.from_dense(dense) if t.rank else t


def equivariance_residual(N: int, x, pair: SpeciesPair) -> float:
    """Max deviation of rotate-then-evaluate from evaluate-then-rotate."""
    rot = BlockRotation.from_pair(pair)
    coords = _points6("x", x, batch=False)[0][0]
    at_rotated = mixed_hermite(N, rot.apply(coords))
    rotated = [rotate_rank_n(rot, t) for t in mixed_hermite(N, coords)]
    return float(np.max([max_component_diff(a, b) for a, b in zip(at_rotated, rotated)]))


@lru_cache(maxsize=None)
def _block_positions(rank: int, first: int) -> np.ndarray:
    """Read-only storage positions, in a rank-``rank`` 6-D tensor, of the 3-D tuples put on labels first..first+2."""
    counts = np.zeros((n_components(rank, 3), 6), dtype=np.intp)
    counts[:, first : first + 3] = _axis_counts(rank, 3)
    return _frozen(_count_positions(counts, rank, 6))


def _block(t: SymTensor, first: int) -> SymTensor:
    """The 3-D tensor ``t`` on labels first..first+2 of a 6-D tensor, zero elsewhere, placed by label counts."""
    data = np.zeros(n_components(t.rank, 6))
    data[_block_positions(t.rank, first)] = t.data
    return SymTensor(6, t.rank, _frozen(data))


def stack_coefficients(coeff_s: ExpansionCoefficients, coeff_sp: ExpansionCoefficients) -> list[SymTensor]:
    """Merge two 3-D expansions into stacked 6-D coefficient tensors.

    Rank N sums, over every split m + n = N, the symmetrized product of the
    block-embedded tensors: the primed rank-m tensor on the upper block
    (labels 0..2) with the unprimed rank-n tensor on the lower block (labels
    3..5).  Contracting the result against the mixed basis reproduces the
    product of the two series.
    """
    _require_kind(ExpansionCoefficients, coeff_s=coeff_s, coeff_sp=coeff_sp)
    top = coeff_s.max_rank + coeff_sp.max_rank
    _require_rank("mixed", top)
    upper, lower = [_block(t, 0) for t in coeff_sp.coeffs], [_block(t, 3) for t in coeff_s.coeffs]
    stacked = []
    for N in range(top + 1):
        terms = [sym_product(u, lower[N - m]) for m, u in enumerate(upper) if 0 <= N - m < len(lower)]
        stacked.append(sum(terms[1:], terms[0]))
    return stacked


def rotate_coefficients(alphas, rot: BlockRotation) -> list[SymTensor]:
    """Rotate every stacked coefficient tensor slot-wise into the other frame."""
    return [rotate_rank_n(rot, a) for a in _read_series("alphas", alphas, 6)]


def mixed_reconstruct(alphas, x, f0: float = 1.0):
    """Evaluate f0 w(x) sum_N inner(alpha_N, H_N(x)) at one 6-vector or MixedPoint (a float) or a batch of them."""
    _require_rank("mixed", len(_read_series("alphas", alphas, 6)) - 1)
    _require_nonzero("f0", f0)
    return _series(alphas, f0, *_points6("x", x))


def product_distribution(coeff_s: ExpansionCoefficients, coeff_sp: ExpansionCoefficients, points):
    """Species distributions multiplied at one species-frame point (a float) or a batch of them (an array).

    Points are as for ``mixed_reconstruct``, but a MixedPoint must be in the species frame.
    """
    _require_kind(ExpansionCoefficients, coeff_s=coeff_s, coeff_sp=coeff_sp)
    return _product(coeff_s, coeff_sp, *_points6("points", points, SPECIES_FRAME))


def _product(coeff_s: ExpansionCoefficients, coeff_sp: ExpansionCoefficients, coords: np.ndarray, single: bool = False):
    """Both species' series multiplied at (K, 6) species-frame coordinates (primed upper); a float if ``single``."""
    primed = _series(coeff_sp.coeffs, coeff_sp.f0, coords[:, :3], single)
    return _series(coeff_s.coeffs, coeff_s.f0, coords[:, 3:], single) * primed


def distribution_invariance(coeff_s: ExpansionCoefficients, coeff_sp: ExpansionCoefficients, pair: SpeciesPair, points) -> float:
    """Max mismatch between the species-frame product and its rotated form.

    The stacked coefficients are rotated into the com-relative frame and
    the reconstruction is evaluated at the rotated points; both routes
    describe the same distribution, so the residual is pure round-off.
    Points are as for ``product_distribution``; with none the mismatch is 0.0.
    """
    _require_kind(ExpansionCoefficients, coeff_s=coeff_s, coeff_sp=coeff_sp)
    _require_rank("invariance_per_species", max(coeff_s.max_rank, coeff_sp.max_rank))
    coords = _points6("points", points, SPECIES_FRAME)[0]
    rot = BlockRotation.from_pair(pair)
    betas = rotate_coefficients(stack_coefficients(coeff_s, coeff_sp), rot)
    direct = _product(coeff_s, coeff_sp, coords)
    rotated = _series(betas, coeff_s.f0 * coeff_sp.f0, coords @ rot.matrix.T, False)
    return float(np.max(np.abs(direct - rotated), initial=0.0))
