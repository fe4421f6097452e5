"""Dense matrices and low-rank updates for the matrix chain experiments.

Matrices are modelled two ways (matching the paper's two runtimes):

* as relations mapping index pairs to scalar payloads, consumed by the
  ring-based engines ("DBToaster hash map" runtime);
* as numpy arrays, consumed by the dense engines (the "Octave"/BLAS
  runtime).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import List, Optional, Tuple

import numpy as np

from repro.data.relation import DeferredRelation, Relation
from repro.rings.numeric import REAL_RING

__all__ = [
    "random_matrix",
    "matrix_as_relation",
    "relation_as_matrix",
    "vector_as_relation",
    "row_update",
    "rank_r_update",
]


def random_matrix(n_rows: int, n_cols: int, rng: np.random.Generator) -> np.ndarray:
    """A dense matrix with entries uniform in (-1, 1), as in Section 7."""
    return rng.uniform(-1.0, 1.0, size=(n_rows, n_cols))


def matrix_as_relation(
    name: str, matrix: np.ndarray, row_var: str, col_var: str, ring=REAL_RING
) -> Relation:
    """Encode a matrix as a binary relation with scalar payloads."""
    matrix = np.asarray(matrix, dtype=float)
    # All entries but those ``ring.is_zero`` holds (over ℝ: its tolerance).
    rows, cols = np.nonzero(~ring.kernel_ops().zero_mask(matrix))
    rel = Relation(name, (row_var, col_var), ring)
    rel._data = dict(
        zip(zip(rows.tolist(), cols.tolist()), matrix[rows, cols].tolist())
    )
    return rel


def _flat_index(keys, shape) -> np.ndarray:
    """``(row, col)`` keys as flat indices into an array of ``shape``."""
    index = np.fromiter(
        chain.from_iterable(keys), np.intp, 2 * len(keys)
    ).reshape(-1, 2)
    return np.ravel_multi_index(index.T, shape)


def relation_as_matrix(
    rel: Relation, shape: Tuple[int, int], scatter: Optional[dict] = None
) -> np.ndarray:
    """Decode a binary relation (row, col) → value back into a dense array.

    A relation that is packed (:class:`DeferredRelation`) is read from its
    column and keeps its map unbuilt; ``scatter``, a dict the caller keeps
    between calls over one ``shape``, then holds the flat index of the
    last key table."""
    out = np.zeros(shape)
    packed = rel._packed_form
    if packed is None:  # a map is no key table: nothing to keep
        data = rel._data
        packed = data, np.fromiter(data.values(), float, len(data))
        scatter = None
    keys, column = packed
    if scatter is None:
        scatter = {}
    if scatter.get("keys") is not keys:
        scatter.update(keys=keys, index=_flat_index(keys, shape))
    out.reshape(-1)[scatter["index"]] = column
    return out


@lru_cache(maxsize=32)
def _full_keys(n: int) -> Tuple[Tuple[int], ...]:
    """The key table of a length-``n`` vector with full support: one
    object per length, so the programs such vectors reach recognize it by
    identity."""
    return tuple(zip(range(n)))


def vector_as_relation(
    name: str, vector: np.ndarray, var: str, ring=REAL_RING
) -> Relation:
    """Encode a vector as a unary relation (one factor of a rank-1 delta).

    The relation is born packed — keys plus one float64 column, what the
    array factor programs consume — and builds its map only if read.  A
    vector with full support shares its key table (:func:`_full_keys`)."""
    column = np.array(vector, dtype=float)
    zero = ring.kernel_ops().zero_mask(column)
    if np.count_nonzero(zero):
        (support,) = np.nonzero(~zero)
        keys, column = tuple(zip(support.tolist())), column[support]
    else:
        keys = _full_keys(len(column))
    return DeferredRelation(name, (var,), ring, packed=(keys, column))


def row_update(
    n: int, row: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """A one-row change as a rank-1 pair: ``δA = e_row · vᵀ``."""
    u = np.zeros(n)
    u[row] = 1.0
    v = rng.uniform(-1.0, 1.0, size=n)
    return u, v


def rank_r_update(
    n: int, rank: int, rng: np.random.Generator
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """A rank-r change as r rank-1 terms ``δA = Σ uᵢ vᵢᵀ`` (Section 5)."""
    return [
        (rng.uniform(-1.0, 1.0, size=n), rng.uniform(-1.0, 1.0, size=n))
        for _ in range(rank)
    ]
