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

import numpy as np

from .hermite import PHYSICIST, evaluate_basis
from .quadrature import BOLTZMANN, ExpansionCoefficients, reconstruct
from .symtensor import (
    SymTensor,
    canonical_index_tuples,
    inner,
    max_component_diff,
    multiplicity_vector,
    n_components,
    sym_product,
)

__all__ = [
    "BOLTZMANN",
    "BlockRotation",
    "COM_RELATIVE_FRAME",
    "MAX_MIXED_RANK",
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

# rank cap for the public 6-D operations; C(9, 5) = 126 components at the top
MAX_MIXED_RANK = 4

# the subscript labels np.einsum accepts
_EINSUM_LABELS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class SpeciesPair:
    """Masses of the two species and their common temperature (kg, kg, K)."""

    m_s: float
    m_sp: float
    T: float

    def __post_init__(self):
        if not (self.m_s > 0 and self.m_sp > 0 and self.T > 0):
            raise ValueError("masses and temperature must be positive")

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
        if abs(self.y * self.y + self.y_prime * self.y_prime - 1.0) > 1e-12:
            raise ValueError("block coefficients must satisfy y**2 + y'**2 == 1")

    @classmethod
    def from_pair(cls, pair: SpeciesPair) -> "BlockRotation":
        mu = pair.reduced_mass
        return cls(math.sqrt(mu / pair.m_s), math.sqrt(mu / pair.m_sp))

    @property
    def matrix(self) -> np.ndarray:
        eye = np.eye(3)
        return np.block([[self.y * eye, self.y_prime * eye], [self.y_prime * eye, -self.y * eye]])

    def apply(self, x) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=np.float64)


@dataclass(frozen=True)
class MixedPoint:
    """A 6-vector with a frame tag.

    In the species frame the coordinates are (z_sp, z_s) stacked; in the
    com-relative frame they are (c, g).
    """

    coords: tuple[float, ...]
    frame: str

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        if len(coords) != 6:
            raise ValueError("need exactly 6 coordinates")
        if self.frame not in _FRAMES:
            raise ValueError(f"frame must be one of {_FRAMES}")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def stack(cls, upper, lower, frame: str) -> "MixedPoint":
        return cls(tuple(upper) + tuple(lower), frame)

    @property
    def upper(self) -> np.ndarray:
        return np.asarray(self.coords[:3])

    @property
    def lower(self) -> np.ndarray:
        return np.asarray(self.coords[3:])


def _require_frame(p: MixedPoint, frame: str):
    if p.frame != frame:
        raise ValueError(f"point is in frame {p.frame!r}, expected {frame!r}")


def to_com_relative(p: MixedPoint, pair: SpeciesPair) -> MixedPoint:
    """Rotate a stacked species-frame point into (c, g) coordinates."""
    _require_frame(p, SPECIES_FRAME)
    rot = BlockRotation.from_pair(pair)
    return MixedPoint(tuple(rot.apply(p.coords)), COM_RELATIVE_FRAME)


def from_com_relative(p: MixedPoint, pair: SpeciesPair) -> MixedPoint:
    """Rotate (c, g) back to the stacked species frame; R is its own inverse."""
    _require_frame(p, COM_RELATIVE_FRAME)
    rot = BlockRotation.from_pair(pair)
    return MixedPoint(tuple(rot.apply(p.coords)), SPECIES_FRAME)


def species_point_from_velocities(pair: SpeciesPair, v_s, v_sp) -> MixedPoint:
    """Nondimensionalize two physical velocities into the stacked frame."""
    z_s = np.asarray(v_s, dtype=np.float64) * pair.z_scale(pair.m_s)
    z_sp = np.asarray(v_sp, dtype=np.float64) * pair.z_scale(pair.m_sp)
    return MixedPoint.stack(z_sp, z_s, SPECIES_FRAME)


def com_relative_from_velocities(pair: SpeciesPair, v_s, v_sp) -> MixedPoint:
    """Center-of-mass and relative coordinates straight from velocities.

    c is the center-of-mass velocity scaled with the total mass and g is
    the relative velocity v_sp - v_s scaled with the reduced mass.  This
    route never touches the rotation matrix, so agreement with
    ``to_com_relative`` is a real consistency check.
    """
    v_s = np.asarray(v_s, dtype=np.float64)
    v_sp = np.asarray(v_sp, dtype=np.float64)
    v_cm = (pair.m_s * v_s + pair.m_sp * v_sp) / pair.total_mass
    c = v_cm * pair.z_scale(pair.total_mass)
    g = (v_sp - v_s) * pair.z_scale(pair.reduced_mass)
    return MixedPoint.stack(c, g, COM_RELATIVE_FRAME)


def _coords6(x) -> tuple[float, ...]:
    if isinstance(x, MixedPoint):
        return x.coords
    coords = tuple(float(c) for c in np.asarray(x, dtype=np.float64))
    if len(coords) != 6:
        raise ValueError("need a 6-vector")
    return coords


def mixed_hermite(N: int, x) -> list[SymTensor]:
    """Physicist tensor Hermite polynomials of a 6-vector, ranks 0..N.

    The recursion is the 3-D one run in dimension 6, which makes each
    component factor into a product of two 3-D polynomials, one per block.
    """
    if not 0 <= N <= MAX_MIXED_RANK:
        raise ValueError(f"N must be within 0..{MAX_MIXED_RANK}")
    return evaluate_basis(N, _coords6(x), dim=6, convention=PHYSICIST)


def rotate_rank_n(rot: BlockRotation, t: SymTensor) -> SymTensor:
    """Apply the block rotation to every slot of a symmetric 6-D tensor."""
    if t.dim != 6:
        raise ValueError("tensor must have dimension 6")
    if not t.rank <= MAX_MIXED_RANK:
        raise ValueError(f"rank must be within 0..{MAX_MIXED_RANK}")
    if t.rank == 0:
        return t
    matrix = rot.matrix
    contracted = _EINSUM_LABELS[8 : 8 + t.rank]  # "ijkl..."
    out = "".join(c for c in _EINSUM_LABELS if c not in contracted)[: t.rank]  # "abcd..."
    subscripts = ",".join(o + i for o, i in zip(out, contracted)) + "," + contracted + "->" + out
    dense = np.einsum(subscripts, *([matrix] * t.rank), t.to_dense())
    return SymTensor.from_dense(dense)


def equivariance_residual(N: int, x, pair: SpeciesPair) -> float:
    """Max deviation of rotate-then-evaluate from evaluate-then-rotate."""
    rot = BlockRotation.from_pair(pair)
    coords = _coords6(x)
    at_rotated = mixed_hermite(N, rot.apply(coords))
    rotated = [rotate_rank_n(rot, t) for t in mixed_hermite(N, coords)]
    return max(max_component_diff(a, b) for a, b in zip(at_rotated, rotated))


def _embed_block(t: SymTensor, offset: int) -> SymTensor:
    """Lift a 3-D tensor into dimension 6 on one block of axes."""
    if t.rank == 0:
        return SymTensor(6, 0, [float(t.data[0])])
    values = np.zeros(n_components(t.rank, 6))
    source = {idx: v for idx, v in zip(canonical_index_tuples(t.rank, 3), t.data)}
    for pos, idx in enumerate(canonical_index_tuples(t.rank, 6)):
        shifted = tuple(i - offset for i in idx)
        if all(0 <= i <= 2 for i in shifted):
            values[pos] = source[shifted]
    return SymTensor(6, t.rank, values)


def stack_coefficients(coeff_s: ExpansionCoefficients, coeff_sp: ExpansionCoefficients) -> list[SymTensor]:
    """Merge two 3-D expansions into stacked 6-D coefficient tensors.

    Rank N collects every split n + m = N as the symmetrized product of
    the primed rank-m tensor on the upper block with the unprimed rank-n
    tensor on the lower block.  Contracting the result against the mixed
    basis reproduces the product of the two series.
    """
    if coeff_s.max_rank + coeff_sp.max_rank > MAX_MIXED_RANK:
        raise ValueError(f"combined rank exceeds {MAX_MIXED_RANK}")
    top = coeff_s.max_rank + coeff_sp.max_rank
    stacked = []
    for N in range(top + 1):
        total = None
        for n in range(coeff_s.max_rank + 1):
            m = N - n
            if not 0 <= m <= coeff_sp.max_rank:
                continue
            piece = sym_product(_embed_block(coeff_sp[m], 0), _embed_block(coeff_s[n], 3))
            total = piece if total is None else total + piece
        stacked.append(total if total is not None else SymTensor(6, N, np.zeros(n_components(N, 6))))
    return stacked


def rotate_coefficients(alphas, rot: BlockRotation) -> list[SymTensor]:
    """Rotate every stacked coefficient tensor slot-wise into the other frame."""
    return [rotate_rank_n(rot, a) for a in alphas]


def mixed_reconstruct(alphas, x, f0: float = 1.0) -> float:
    """Evaluate f0 w(x) sum_N inner(alpha_N, H_N(x)) for a 6-D point."""
    coords = _coords6(x)
    top = len(alphas) - 1
    basis = mixed_hermite(top, coords)
    series = sum(inner(alphas[N], basis[N]) for N in range(top + 1))
    return f0 * math.exp(-sum(c * c for c in coords)) * series


def product_distribution(coeff_s: ExpansionCoefficients, coeff_sp: ExpansionCoefficients, p: MixedPoint) -> float:
    """Pointwise product of the two species distributions, species frame."""
    _require_frame(p, SPECIES_FRAME)
    return float(reconstruct(coeff_s, p.lower)) * float(reconstruct(coeff_sp, p.upper))


def distribution_invariance(coeff_s: ExpansionCoefficients, coeff_sp: ExpansionCoefficients, pair: SpeciesPair, points) -> float:
    """Max mismatch between the species-frame product and its rotated form.

    The stacked coefficients are rotated into the com-relative frame and
    the reconstruction is evaluated at the rotated points; both routes
    describe the same distribution, so the residual is pure round-off.
    """
    if coeff_s.max_rank > 2 or coeff_sp.max_rank > 2:
        raise ValueError("per-species expansions must have rank <= 2")
    rot = BlockRotation.from_pair(pair)
    alphas = stack_coefficients(coeff_s, coeff_sp)
    betas = rotate_coefficients(alphas, rot)
    f0 = coeff_s.f0 * coeff_sp.f0
    worst = 0.0
    for point in points:
        p = point if isinstance(point, MixedPoint) else MixedPoint(tuple(point), SPECIES_FRAME)
        direct = product_distribution(coeff_s, coeff_sp, p)
        rotated = mixed_reconstruct(betas, rot.apply(p.coords), f0)
        worst = max(worst, abs(direct - rotated))
    return worst
