"""Symmetric tensor algebra on compressed canonical storage.

A fully symmetric rank-n tensor over d axes is determined by one value per
multiset of axis labels, C(n+d-1, d-1) values in total.  Tensors here store
exactly those canonical components, ordered lexicographically by sorted index
tuple, so a rank-6 tensor over 3 axes keeps 28 numbers instead of 729.

Components are float64 in ordinary use.  The same operations also accept
components from other rings that support +, * and division by integers:
batched evaluation stores one numpy row per component, and the coefficient
tables of the Hermite module use exact polynomial scalars.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SUPPORTED_DIMS",
    "MultiIndex",
    "SymTensor",
    "canonical_index_tuples",
    "canonicalize",
    "identity",
    "inner",
    "max_component_diff",
    "multiplicity",
    "multiplicity_vector",
    "n_components",
    "outer_power",
    "perm_delta",
    "scalar",
    "sym_product",
    "sym_raw",
]

SUPPORTED_DIMS = (3, 6)


def _check_dim(dim: int) -> None:
    if dim not in SUPPORTED_DIMS:
        raise ValueError(f"dimension must be one of {SUPPORTED_DIMS}, got {dim}")


@dataclass(frozen=True)
class MultiIndex:
    """A canonical (sorted, non-decreasing) tuple of axis labels."""

    entries: tuple[int, ...]
    dim: int

    def __post_init__(self):
        _check_dim(self.dim)
        if any(not (0 <= a < self.dim) for a in self.entries):
            raise ValueError(f"axis labels out of range for dim {self.dim}: {self.entries}")
        if any(a > b for a, b in zip(self.entries, self.entries[1:])):
            raise ValueError(f"entries are not sorted: {self.entries}")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def canonicalize(indices, dim: int) -> MultiIndex:
    """Sort an index tuple into its canonical multiset representative."""
    return MultiIndex(tuple(sorted(int(a) for a in indices)), dim)


def n_components(rank: int, dim: int) -> int:
    """Number of independent components of a symmetric rank-``rank`` tensor."""
    return math.comb(rank + dim - 1, dim - 1)


@lru_cache(maxsize=None)
def canonical_index_tuples(rank: int, dim: int) -> tuple[tuple[int, ...], ...]:
    """All canonical index tuples of the given rank, in lexicographic order."""
    _check_dim(dim)
    if rank < 0:
        raise ValueError("rank must be non-negative")
    return tuple(itertools.combinations_with_replacement(range(dim), rank))


@lru_cache(maxsize=None)
def _positions(rank: int, dim: int) -> dict[tuple[int, ...], int]:
    return {t: i for i, t in enumerate(canonical_index_tuples(rank, dim))}


@lru_cache(maxsize=None)
def _dense_positions(rank: int, dim: int) -> np.ndarray:
    """(dim,)*rank table: the storage position of each dense index's canonical tuple."""
    positions = _positions(rank, dim)
    table = np.array([positions[tuple(sorted(i))] for i in itertools.product(range(dim), repeat=rank)], dtype=np.intp)
    table = table.reshape((dim,) * rank)
    table.setflags(write=False)
    return table


def multiplicity(index) -> int:
    """Number of distinct orderings of a canonical index tuple.

    For a rank-n tuple whose labels repeat with counts m_0, m_1, ... this is
    n! / (m_0! m_1! ...); summed over all canonical tuples it gives d**n.
    """
    entries = tuple(index)
    count = math.factorial(len(entries))
    for _, group in itertools.groupby(entries):
        count //= math.factorial(sum(1 for _ in group))
    return count


@lru_cache(maxsize=None)
def multiplicity_vector(rank: int, dim: int) -> np.ndarray:
    out = np.array([multiplicity(t) for t in canonical_index_tuples(rank, dim)], dtype=np.float64)
    out.setflags(write=False)
    return out


def _component_array(values) -> np.ndarray:
    values = list(values)
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        arr = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            arr[i] = v
    arr.setflags(write=False)
    return arr


class SymTensor:
    """Fully symmetric tensor stored by canonical components.

    ``data`` holds one entry per canonical index tuple.  Entries are scalars
    for pointwise values or equal-length numpy rows for batched evaluation
    (``data`` is then a 2-D float array).  Instances are immutable; all
    operations return new tensors.
    """

    __slots__ = ("dim", "rank", "data")

    def __init__(self, dim: int, rank: int, components):
        _check_dim(dim)
        if rank < 0:
            raise ValueError("rank must be non-negative")
        arr = components if isinstance(components, np.ndarray) else _component_array(components)
        if len(arr) != n_components(rank, dim):
            raise ValueError(
                f"expected {n_components(rank, dim)} components for rank {rank}, dim {dim}, got {len(arr)}"
            )
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SymTensor is immutable")

    @classmethod
    def from_function(cls, dim: int, rank: int, fn) -> "SymTensor":
        """Build a tensor by evaluating ``fn`` on every canonical tuple."""
        return cls(dim, rank, [fn(t) for t in canonical_index_tuples(rank, dim)])

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SymTensor":
        """Read the canonical components out of a dense array.

        Only the canonical entries are consulted; the caller is responsible
        for the array actually being symmetric.
        """
        dense = np.asarray(dense)
        rank = dense.ndim
        dim = dense.shape[0] if rank else 3
        if rank and any(s != dim for s in dense.shape):
            raise ValueError("dense array must be hypercubic")
        if rank == 0:
            return cls(dim, 0, [float(dense)])
        return cls(dim, rank, [dense[t] for t in canonical_index_tuples(rank, dim)])

    def to_dense(self) -> np.ndarray:
        """Expand to a dense ``(dim,)*rank`` float array."""
        if self.data.dtype == object:
            raise TypeError("to_dense requires numeric components")
        if self.rank == 0:
            return np.asarray(self.data[0])
        return self.data[_dense_positions(self.rank, self.dim)].astype(np.float64, copy=False)

    def indices(self):
        """Canonical MultiIndex objects in storage order."""
        for t in canonical_index_tuples(self.rank, self.dim):
            yield MultiIndex(t, self.dim)

    def items(self):
        for t, v in zip(canonical_index_tuples(self.rank, self.dim), self.data):
            yield MultiIndex(t, self.dim), v

    def __getitem__(self, key):
        if isinstance(key, MultiIndex):
            entries = key.entries
        else:
            entries = tuple(sorted(int(a) for a in key))
        if len(entries) != self.rank:
            raise ValueError(f"index of rank {len(entries)} for rank-{self.rank} tensor")
        try:
            pos = _positions(self.rank, self.dim)[entries]
        except KeyError:
            raise ValueError(f"axis labels out of range for dim {self.dim}: {entries}") from None
        return self.data[pos]

    def _binary(self, other, op):
        if not isinstance(other, SymTensor):
            return NotImplemented
        if (other.dim, other.rank) != (self.dim, self.rank):
            raise ValueError("rank/dim mismatch")
        return SymTensor(self.dim, self.rank, op(self.data, other.data))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __neg__(self):
        return SymTensor(self.dim, self.rank, -self.data)

    def __mul__(self, factor):
        if isinstance(factor, SymTensor):
            return NotImplemented
        return SymTensor(self.dim, self.rank, self.data * factor)

    __rmul__ = __mul__

    def __truediv__(self, divisor):
        return SymTensor(self.dim, self.rank, self.data / divisor)

    def __repr__(self):
        return f"SymTensor(dim={self.dim}, rank={self.rank}, n_components={len(self.data)})"


def scalar(value, dim: int) -> SymTensor:
    """Rank-0 tensor holding a single value."""
    return SymTensor(dim, 0, [value])


def identity(dim: int) -> SymTensor:
    """The rank-2 Kronecker delta."""
    return SymTensor.from_function(dim, 2, lambda t: 1.0 if t[0] == t[1] else 0.0)


def outer_power(vector, power: int) -> SymTensor:
    """Symmetric outer power v^(k): component at (i1..ik) is v_i1 * ... * v_ik."""
    vec = list(vector)
    _check_dim(len(vec))
    if power < 0:
        raise ValueError("power must be non-negative")

    def component(t):
        out = 1.0
        for a in t:
            out = out * vec[a]
        return out

    return SymTensor.from_function(len(vec), power, component)


def _grouped_split_sums(a: SymTensor, b: SymTensor) -> list:
    """Per canonical output tuple, sum A[left]*B[right] over position splits.

    Splitting the p+q slots of an output tuple I into p positions for A and
    q for B depends only on the resulting sub-multisets, so equal splits are
    grouped and counted instead of enumerated.
    """
    p, q, dim = a.rank, b.rank, a.dim
    pos_a = _positions(p, dim)
    pos_b = _positions(q, dim)
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


def sym_product(a: SymTensor, b: SymTensor) -> SymTensor:
    """Normalized symmetrized product: symmetrization of a (x) b divided by (p+q)!."""
    if a.dim != b.dim:
        raise ValueError("dim mismatch")
    sums = _grouped_split_sums(a, b)
    binom = math.comb(a.rank + b.rank, a.rank)
    return SymTensor(a.dim, a.rank + b.rank, [s / binom for s in sums])


def sym_raw(a: SymTensor, b: SymTensor) -> SymTensor:
    """Unnormalized symmetrization of a (x) b over all (p+q)! slot permutations."""
    product = sym_product(a, b)
    factor = math.factorial(a.rank + b.rank)
    return SymTensor(a.dim, a.rank + b.rank, [factor * v for v in product.data])


def perm_delta(i, j) -> int:
    """Generalized Kronecker delta of two rank-n index tuples.

    Permanent of the 0/1 matrix M[a][b] = [i_a == j_b]: zero unless i and j
    are one multiset, else the product of its label counts' factorials.
    """
    ti, tj = sorted(i), sorted(j)
    if len(ti) != len(tj):
        raise ValueError("index ranks differ")
    return math.factorial(len(ti)) // multiplicity(ti) if ti == tj else 0


def inner(a: SymTensor, b: SymTensor) -> float:
    """Full contraction over all d**n index tuples via compressed storage.

    Equals sum over canonical tuples of multiplicity * A * B.
    """
    if (a.dim, a.rank) != (b.dim, b.rank):
        raise ValueError("rank/dim mismatch")
    mult = multiplicity_vector(a.rank, a.dim)
    acc = 0
    for m, x, y in zip(mult, a.data, b.data):
        acc = acc + m * (x * y)
    return acc


def max_component_diff(a: SymTensor, b: SymTensor) -> float:
    """Largest absolute component difference (numeric tensors only)."""
    if (a.dim, a.rank) != (b.dim, b.rank):
        raise ValueError("rank/dim mismatch")
    return float(np.max(np.abs(np.asarray(a.data, dtype=np.float64) - np.asarray(b.data, dtype=np.float64))))
