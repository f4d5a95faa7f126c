"""The product-form reference kernel of the tensor Hermite basis, for tests only.

H_n,i(z) = prod_a h_{m_a}(z_a), m_a the count of axis a in i: no library route evaluates the basis this way at
whole points, so it is the bitwise reference of the quadrature grid rows and the reference of the series
evaluator and of the three-term recursion.
"""
import numpy as np

from hermtensor.hermite import PHYSICIST, _hermite_table
from hermtensor.symtensor import SymTensor, _axis_counts, _require_integer


def product_rows(max_rank: int, points, convention=PHYSICIST) -> list[np.ndarray]:
    """Rows H_n,i = prod_a h_{m_a}(z_a), m_a the count of axis a in i, at points of shape (K, d).

    Entry n, for n = 0..max_rank, has shape (#components(n), K); coordinates are read axis-major, as (d, K).
    """
    _require_integer("max_rank", max_rank)
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must have shape (K, d)")
    table = _hermite_table(max_rank, np.ascontiguousarray(pts.T), 2.0 if convention is PHYSICIST else 1.0)
    rows = []
    for n in range(max_rank + 1):
        counts = _axis_counts(n, pts.shape[1])
        row = table[counts[:, 0], 0]
        for axis in range(1, pts.shape[1]):
            row *= table[counts[:, axis], axis]
        rows.append(row)
    return rows


def product_oracle(rank: int, z) -> SymTensor:
    """Physicist H_rank at one point by per-axis products of 1-D polynomials."""
    return SymTensor(len(z), rank, product_rows(rank, [z])[rank][:, 0])
