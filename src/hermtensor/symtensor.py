"""Symmetric tensor algebra on compressed canonical storage.

A fully symmetric rank-n tensor over d axes is determined by one value per
multiset of axis labels, C(n+d-1, d-1) values in total.  Tensors here store
exactly those canonical components, ordered lexicographically by sorted index
tuple, so a rank-6 tensor over 3 axes keeps 28 numbers instead of 729.

The module owns the label-count table of canonical storage (how often each
axis appears in each tuple) and the count plan of a series of ranks 0..N
(counts, multiplicities, count-cube positions and ranks, rank after rank).
A count row's cube position is its one integer encoding, and every storage
position is found by searching it: a keyed read, a dense index, a block
embedding, a product split.  A symmetrized product is one unbuffered
scatter-add over a flat split plan built once per rank pair.
It sits at the bottom of the import graph, so it also holds the generic
input guards every module calls: the dimension, integer parameters such as
ranks, degrees and orders, positive real numbers, the series scale f0 (a
finite, nonzero real number), points (one d-vector or a (K, d) batch),
finite 3-vectors, series (float tensors of ranks 0, 1, 2, ...), the kind of
a library object and a pair of tensors of one rank, dimension and kind
(exact or float), each refused with a ValueError that names the parameter.

A tensor holds one scalar per canonical tuple in a flat vector: float64 in
ordinary use, or an exact ring element that supports +, * and division by
integers, as the PolyScalar coefficient tables of the Hermite module do.
Values at many points are not tensors: the quadrature module builds them
from 1-D tables, one axis at a time.
"""
from __future__ import annotations

import itertools
import math
import numbers
import operator
from functools import lru_cache

import numpy as np

__all__ = [
    "SUPPORTED_DIMS",
    "SymTensor",
    "canonical_index_tuples",
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
]

SUPPORTED_DIMS = (3, 6)


def _check_dim(dim: int) -> None:
    """Refuse a dimension that is not an integer (``3.0 in (3, 6)`` is true) or not one of SUPPORTED_DIMS."""
    if not (hasattr(dim, "__index__") and dim in SUPPORTED_DIMS):
        raise ValueError(f"dimension must be one of {SUPPORTED_DIMS}, got {dim}")


def _is_real(value) -> bool:
    """Whether ``value`` is one real number: an int, float or numpy real scalar, not a bool, an array or a str."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _require_integer(name: str, value: int, low: int = 0, high: int | None = None) -> None:
    """Refuse an integer parameter (a rank, a degree, an order) that is not an integer within low..high, naming it.

    An integer has ``__index__`` (int, np.int64); a float, np.float64 or str does not, and a bool is refused
    too.  Plain positional calls, no keyword dict, and an inline ``try``: every SymTensor construction runs
    one, through n_components.
    """
    try:
        if low <= operator.index(value) and (high is None or value <= high) and not isinstance(value, bool):
            return
    except TypeError:
        pass
    bound = f">= {low}" if high is None else f"within {low}..{high}"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _read_points(name: str, x, dim: int | None = None, batch: bool = True, vector: str = "") -> tuple[np.ndarray, bool]:
    """``x`` as (K, d) float64 coordinates, and whether it was one point (a d-vector).

    With ``batch``, a (K, d) array or an empty list is K points.  With no ``dim`` a point is a d-vector
    for d = 3 or 6, and a vector of another length is refused as a dimension.  Anything else (another
    shape, ragged or non-numeric input) raises one ValueError naming ``name`` and what one point is,
    ``vector`` or a d-vector.  A float64 (K, d) array is read, not copied.
    """
    try:
        shape = (pts := np.asarray(x, dtype=np.float64)).shape
    except (TypeError, ValueError):  # ragged, or not numbers
        shape = None
    if dim is None and shape is not None and len(shape) == 1:
        _check_dim(dim := shape[0])
    single = shape == (dim,)
    if not (single or batch and (shape == (0,) or shape is not None and shape[1:] == (dim,))):
        vector = vector or (f"{dim}-vector" if dim else " or ".join(f"{d}-vector" for d in SUPPORTED_DIMS))
        kind = f"a {vector}" + (f", or a (K, {dim}) batch of them" if batch else "")
        raise ValueError(f"{name} must be {kind}, got {'ragged or non-numeric input' if shape is None else f'shape {shape}'}")
    return pts.reshape(-1, dim), single


def _read_series(name: str, tensors, dim: int):
    """``tensors`` if it is a list or tuple of d-D SymTensors of ranks 0, 1, 2, ... in order, with float components.

    Anything else raises one ValueError naming ``name``; exact (object) components are refused after the shape,
    since every series reader answers in floats.
    """
    if not (isinstance(tensors, (list, tuple))
            and all(isinstance(t, SymTensor) and (t.dim, t.rank) == (dim, n) for n, t in enumerate(tensors))):
        raise ValueError(f"{name} must be a list or tuple of {dim}-D SymTensors of ranks 0, 1, 2, ... in order")
    if any(t.data.dtype != np.float64 for t in tensors):
        raise ValueError(f"{name} must hold float components, got exact ones")
    return tensors


def _require_positive(**named: float) -> None:
    """Refuse each keyword value that is not one finite, positive real number, naming it."""
    for name, value in named.items():
        if not (_is_real(value) and 0 < value < math.inf):
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _require_nonzero(name: str, value: float) -> None:
    """Refuse a value that is not one finite, nonzero real number, of either sign, naming it: the one reader of f0."""
    if not (_is_real(value) and -math.inf < value < math.inf and value != 0):
        raise ValueError(f"{name} must be finite and nonzero, got {value}")


def _finite_vector3(name: str, value) -> tuple[float, float, float]:
    """``value`` as a tuple of three finite floats, read by ``_read_points``; anything else raises ValueError naming it."""
    try:
        if np.isfinite(vector := _read_points(name, value, 3, batch=False)[0][0]).all():
            return tuple(vector.tolist())
    except ValueError:  # not a 3-vector
        pass
    raise ValueError(f"{name} must be a finite 3-vector, got {value!r}")


def _require_kind(kind: type, **named) -> None:
    """Refuse each keyword value that is not a ``kind``, naming it and the type it got."""
    for name, value in named.items():
        if not isinstance(value, kind):
            article = "an" if kind.__name__[0] in "AEIOU" else "a"
            raise ValueError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")


def _require_pair(a, b, same_rank: bool = True) -> None:
    """Refuse a non-SymTensor ``a`` or ``b``, naming it, then a pair of other dimension or rank, or exact with float.

    ``sym_product`` passes ``same_rank=False``: its factors may differ in rank.
    """
    _require_kind(SymTensor, a=a, b=b)
    if a.dim != b.dim or same_rank and a.rank != b.rank:
        raise ValueError("rank/dim mismatch" if same_rank else "dim mismatch")
    if a.data.dtype != b.data.dtype:
        raise ValueError("a and b must both hold exact or both hold float components")


def n_components(rank: int, dim: int) -> int:
    """Number of independent components of a symmetric rank-``rank`` tensor."""
    _require_integer("rank", rank)
    return math.comb(rank + dim - 1, dim - 1)


def _shape_key(rank: int, dim: int) -> tuple[int, int]:
    """(rank, dim) as ints once the guards pass: a cache key with one entry for 2 and np.int64(2), none for 2.0."""
    _check_dim(dim)
    _require_integer("rank", rank)
    return operator.index(rank), operator.index(dim)


def canonical_index_tuples(rank: int, dim: int) -> tuple[tuple[int, ...], ...]:
    """All canonical index tuples of the given rank, in lexicographic order (cached per rank and dimension)."""
    return _index_tuples(*_shape_key(rank, dim))


@lru_cache(maxsize=None)
def _index_tuples(rank: int, dim: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.combinations_with_replacement(range(dim), rank))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _dense_positions(rank: int, dim: int) -> np.ndarray:
    """(dim,)*rank table: the storage position of each dense index's canonical tuple, read from its label counts."""
    labels = np.indices((dim,) * rank).reshape(rank, dim**rank, 1)
    table = _count_positions((labels == np.arange(dim)).sum(axis=0), rank, dim)
    return _frozen(table.reshape((dim,) * rank))


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


def multiplicity_vector(rank: int, dim: int) -> np.ndarray:
    """Multiplicity of each canonical tuple, read-only float64 (cached per rank and dimension)."""
    return _multiplicities(*_shape_key(rank, dim))


@lru_cache(maxsize=None)
def _multiplicities(rank: int, dim: int) -> np.ndarray:
    return _frozen(np.array([multiplicity(t) for t in _index_tuples(rank, dim)], dtype=np.float64))


def _component_array(values) -> np.ndarray:
    """Float64 vector of the values, or an object vector when one is not a number (an exact ring element)."""
    values = list(values)
    try:
        arr = np.asarray(values, dtype=np.float64)
    except TypeError:
        arr = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            arr[i] = v
    except ValueError as exc:
        raise ValueError("expected one scalar per canonical tuple, got ragged or non-numeric components") from exc
    return _frozen(arr)


class SymTensor:
    """Fully symmetric tensor stored by canonical components.

    ``data`` is a read-only flat vector with one scalar per canonical index
    tuple, float64 or exact (object dtype).  Any other shape, such as a 2-D
    array or a list of arrays, is refused with ``ValueError``.  Instances
    are immutable; all operations return new tensors.
    """

    __slots__ = ("dim", "rank", "data")

    def __init__(self, dim: int, rank: int, components):
        _check_dim(dim)
        size = n_components(rank, dim)  # refuses the rank
        is_float = isinstance(components, np.ndarray) and components.dtype == np.float64
        arr = components if is_float else _component_array(components)
        if arr.shape != (size,):
            raise ValueError(
                f"expected one scalar per canonical tuple, {size} for rank {rank}, dim {dim};"
                f" got components of shape {arr.shape}"
            )
        if arr.flags.writeable:
            arr = _frozen(arr.copy())
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SymTensor is immutable")

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SymTensor":
        """Read the canonical components out of a dense array in one gather.

        Only the canonical entries are consulted; the caller is responsible
        for the array actually being symmetric.  A 0-d array has no dimension.
        """
        dense = np.asarray(dense)
        rank = dense.ndim
        if rank == 0:
            raise ValueError("a 0-d array carries no dimension; use scalar(value, dim) for a rank-0 tensor")
        dim = dense.shape[0]
        if any(s != dim for s in dense.shape):
            raise ValueError("dense array must be hypercubic")
        return cls(dim, rank, dense[tuple(_index_columns(rank, dim))])

    def to_dense(self) -> np.ndarray:
        """Expand to a dense ``(dim,)*rank`` float array."""
        if self.data.dtype == object:
            raise ValueError("to_dense requires numeric components")
        if self.rank == 0:
            return np.asarray(self.data[0])
        return self.data[_dense_positions(self.rank, self.dim)].astype(np.float64, copy=False)

    def __getitem__(self, key):
        if not (isinstance(key, (tuple, list)) and all(hasattr(a, "__index__") and not isinstance(a, bool) for a in key)):
            raise ValueError(f"key must be a tuple or list of integer axis labels, got {key!r}")
        entries = tuple(sorted(operator.index(a) for a in key))
        if len(entries) != self.rank:
            raise ValueError(f"index of rank {len(entries)} for rank-{self.rank} tensor")
        if entries and not (0 <= entries[0] and entries[-1] < self.dim):
            raise ValueError(f"axis labels out of range for dim {self.dim}: {entries}")
        return self.data[_count_positions([entries.count(a) for a in range(self.dim)], self.rank, self.dim)]

    def _binary(self, other, op):
        if not isinstance(other, SymTensor):
            return NotImplemented
        _require_pair(self, other)
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
    return SymTensor(dim, 2, [1.0 if i == j else 0.0 for i, j in canonical_index_tuples(2, dim)])


def outer_power(vector, power: int) -> SymTensor:
    """Symmetric outer power v^(k): component at (i1..ik) is v_i1 * ... * v_ik."""
    vec = _read_points("vector", vector, batch=False)[0][0]  # refuses the dimension
    columns = _index_columns(power, len(vec))  # canonical_index_tuples refuses the power
    out = np.ones(columns.shape[1])
    for column in columns:  # left to right from 1.0
        out = out * vec[column]
    return SymTensor(len(vec), power, _frozen(out))


@lru_cache(maxsize=None)
def _index_columns(rank: int, dim: int) -> np.ndarray:
    """(rank, components) table: row k holds the k-th index of each canonical tuple."""
    return _frozen(np.array(canonical_index_tuples(rank, dim), dtype=np.intp).T.copy())


@lru_cache(maxsize=None)
def _axis_counts(rank: int, dim: int) -> np.ndarray:
    """(components, dim) table: how often each axis appears in each canonical tuple."""
    return _frozen(np.array([[t.count(a) for a in range(dim)] for t in canonical_index_tuples(rank, dim)], dtype=np.intp))


def _count_positions(counts: np.ndarray, rank: int, dim: int) -> np.ndarray:
    """Storage positions of the rank-``rank`` tuples with the given label-count rows, found by their cube positions.

    The rank-``rank`` slice of the count plan's cube positions strictly decreases in storage order (storage is
    lexicographic in the tuples, so descending in the counts), so its reversed view is searched.
    """
    cube = _count_plan(rank, dim)[2][::-1][: n_components(rank, dim)]
    return len(cube) - 1 - np.searchsorted(cube, np.ravel_multi_index(tuple(np.asarray(counts).T), (rank + 1,) * dim))


@lru_cache(maxsize=None)
def _count_plan(top: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Read-only (label counts, multiplicities, cube positions, ranks, rank bounds) of the tuples of ranks 0..top.

    The ranks are concatenated in storage order, rank n at bounds[n]:bounds[n + 1].  A tuple's cube position
    is the flat index of its label counts in the (top + 1)**dim count cube, the one integer encoding of a
    label-count row; its rank is its label count total.
    """
    counts = np.concatenate([_axis_counts(n, dim) for n in range(top + 1)])
    multiplicities = np.concatenate([_multiplicities(n, dim) for n in range(top + 1)])
    cube = np.ravel_multi_index(tuple(counts.T), (top + 1,) * dim)
    bounds = tuple(np.cumsum([0] + [n_components(n, dim) for n in range(top + 1)]).tolist())
    return _frozen(counts), _frozen(multiplicities), _frozen(cube), _frozen(counts.sum(axis=1)), bounds


@lru_cache(maxsize=None)
def _split_plan(p: int, q: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flat plan (out, left, right, count) of read-only arrays for rank-p times rank-q products.

    An output tuple I with label counts c splits into a rank-p sub-multiset
    L <= c and the rank-q rest I - L in prod_a C(c_a, L_a) of its C(p+q, p)
    position splits.  Entry k is one split, output-major (``out`` never
    decreases) and in canonical order of L within an output: its output
    position, the storage positions of L and of I - L, and that split count.
    """
    full = _axis_counts(p + q, dim)
    sub = _axis_counts(p, dim)
    out, left = np.nonzero(np.all(sub[None, :, :] <= full[:, None, :], axis=2))
    c, ell = full[out], sub[left]
    right = _count_positions(c - ell, q, dim)
    binom = np.array([[math.comb(n, k) for k in range(p + q + 1)] for n in range(p + q + 1)], dtype=np.intp)
    count = np.prod(binom[c, ell], axis=1)
    return _frozen(out), _frozen(left), _frozen(right), _frozen(count)


def sym_product(a: SymTensor, b: SymTensor) -> SymTensor:
    """Normalized symmetrized product: symmetrization of a (x) b divided by (p+q)!.

    One unbuffered scatter-add (np.add.at) over a flat plan sums count *
    A[L] * B[I - L] into each output from zero, term by term in canonical
    order of L, then divides by C(p+q, p); float and exact alike.
    """
    _require_pair(a, b, same_rank=False)
    p, q = a.rank, b.rank
    x, y = a.data, b.data
    out, left, right, count = _split_plan(p, q, a.dim)
    acc = np.zeros(n_components(p + q, a.dim), dtype=np.result_type(x, y, np.float64))
    np.add.at(acc, out, count * (x[left] * y[right]))
    return SymTensor(a.dim, p + q, acc / math.comb(p + q, p))


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
    _require_pair(a, b)
    mult = multiplicity_vector(a.rank, a.dim)
    acc = 0
    for m, x, y in zip(mult, a.data, b.data):
        acc = acc + m * (x * y)
    return acc


def max_component_diff(a: SymTensor, b: SymTensor) -> float:
    """Largest absolute component difference (float tensors only)."""
    _require_pair(a, b)
    if a.data.dtype != np.float64:
        raise ValueError("a and b must hold float components, got exact ones")
    return float(np.max(np.abs(a.data - b.data)))
