"""Matrix chain multiplication as a join-aggregate query (Section 6.1).

A chain ``A = A₁ ··· A_k`` becomes the query::

    A[X₁, X_{k+1}] = ⊕_{X₂} ... ⊕_{X_k}  ⊗_i  Aᵢ[Xᵢ, Xᵢ₊₁]

with matrices encoded as binary relations carrying scalar payloads.  The
optimal variable order corresponds to the textbook optimal parenthesization
(dynamic program included); rank-1 changes ``δA = u vᵀ`` propagate as
factorizable updates in O(p²) instead of O(p³) — the LINVIEW [33] idea that
F-IVM subsumes.

Two runtimes mirror the paper's Figure 6 setup:

* :class:`MatrixChainIVM` — the ring-relational engine (the "DBToaster hash
  map" runtime), supporting arbitrary chain lengths and update targets;
* :class:`DenseChainFIVM` / :class:`DenseChainFirstOrder` /
  :class:`DenseChainReeval` — numpy/BLAS dense engines (the "Octave"
  runtime) for ``A = A₁A₂A₃`` under updates to ``A₂``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import FIVMEngine
from repro.core.factorized_update import FactorizedUpdate
from repro.core.query import Query
from repro.core.variable_order import VariableOrder
from repro.data.database import Database
from repro.datasets.matrices import (
    matrix_as_relation,
    relation_as_matrix,
    vector_as_relation,
)
from repro.rings.numeric import REAL_RING

__all__ = [
    "matrix_chain_order",
    "chain_variable_order",
    "chain_query",
    "chain_database",
    "rank_one_update",
    "MatrixChainIVM",
    "DenseChainFIVM",
    "DenseChainFirstOrder",
    "DenseChainReeval",
]


def matrix_chain_order(dims: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """The textbook matrix-chain DP [13]: cost table and split points.

    ``dims`` has length k+1 for a chain of k matrices (Aᵢ is
    dims[i-1]×dims[i]).  Returns (m, s) with m[i][j] the minimal scalar
    multiplication count for Aᵢ..Aⱼ and s[i][j] the optimal split.
    """
    k = len(dims) - 1
    if k < 1:
        raise ValueError("need at least one matrix")
    m = np.zeros((k + 1, k + 1))
    s = np.zeros((k + 1, k + 1), dtype=int)
    for length in range(2, k + 1):
        for i in range(1, k - length + 2):
            j = i + length - 1
            m[i][j] = np.inf
            for split in range(i, j):
                cost = (
                    m[i][split]
                    + m[split + 1][j]
                    + dims[i - 1] * dims[split] * dims[j]
                )
                if cost < m[i][j]:
                    m[i][j] = cost
                    s[i][j] = split
    return m, s


def chain_variable_order(
    k: int, dims: Optional[Sequence[int]] = None
) -> VariableOrder:
    """Variable order for a k-matrix chain: free X₁, X_{k+1} on top, then
    the (optimal, if dims given, else balanced) split tree of bound indices.

    For k = 4 this reproduces Example 6.1's ω = X₁ - X₅ - X₃ - {X₂, X₄}.
    """
    split_table = None
    if dims is not None:
        _, split_table = matrix_chain_order(dims)

    def split_of(i: int, j: int) -> int:
        if split_table is not None:
            return int(split_table[i][j])
        return (i + j) // 2

    def bound_tree(i: int, j: int):
        if i >= j:
            return None
        s = split_of(i, j)
        children = [t for t in (bound_tree(i, s), bound_tree(s + 1, j)) if t]
        return (f"X{s + 1}", children)

    inner = bound_tree(1, k)
    top = (f"X{k + 1}", [inner] if inner else [])
    return VariableOrder.from_spec(("X1", [top]))


def chain_query(k: int, ring=REAL_RING) -> Query:
    """The chain query over relations A1..Ak with free endpoints."""
    relations = {f"A{i}": (f"X{i}", f"X{i + 1}") for i in range(1, k + 1)}
    return Query(
        f"chain{k}", relations, free=("X1", f"X{k + 1}"), ring=ring
    )


def chain_database(matrices: Sequence[np.ndarray], ring=REAL_RING) -> Database:
    """The chain's matrices as relations ``A1..Ak`` over ``X1..X{k+1}``."""
    return Database(
        matrix_as_relation(f"A{i + 1}", matrix, f"X{i + 1}", f"X{i + 2}", ring)
        for i, matrix in enumerate(matrices)
    )


def rank_one_update(
    index: int, u: np.ndarray, v: np.ndarray, ring=REAL_RING
) -> FactorizedUpdate:
    """``δA_index = u vᵀ`` as a factorizable update."""
    name = f"A{index}"
    return FactorizedUpdate.rank_one(
        name,
        [
            vector_as_relation(f"{name}_u", u, f"X{index}", ring),
            vector_as_relation(f"{name}_v", v, f"X{index + 1}", ring),
        ],
    )


class MatrixChainIVM:
    """Ring-relational maintenance of a matrix chain product."""

    def __init__(
        self,
        matrices: Sequence[np.ndarray],
        updatable: Optional[Sequence[str]] = None,
        use_optimal_order: bool = True,
        ring=REAL_RING,
    ):
        self.k = len(matrices)
        if self.k < 1:
            raise ValueError("need at least one matrix")
        dims = [matrices[0].shape[0]]
        for index, matrix in enumerate(matrices):
            if matrix.shape[0] != dims[-1]:
                raise ValueError(f"dimension mismatch at matrix {index + 1}")
            dims.append(matrix.shape[1])
        self.dims = tuple(dims)
        self.query = chain_query(self.k, ring)
        order = chain_variable_order(
            self.k, self.dims if use_optimal_order else None
        )
        self.engine = FIVMEngine(
            self.query, order, updatable=updatable,
            db=chain_database(matrices, ring),
        )
        #: :func:`relation_as_matrix`'s index arrays for the packed result.
        self._scatter: dict = {}

    def apply_rank_one(self, index: int, u: np.ndarray, v: np.ndarray) -> None:
        """Apply ``δA_index = u vᵀ`` as a factorizable update."""
        self.engine.apply_factorized_update(
            rank_one_update(index, u, v, self.query.ring)
        )

    def apply_rank_r(
        self, index: int, terms: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> None:
        """Apply a rank-r update as a sequence of rank-1 terms."""
        for u, v in terms:
            self.apply_rank_one(index, u, v)

    def apply_dense_delta(self, index: int, delta: np.ndarray) -> None:
        """Apply an arbitrary delta matrix in listing form (no factorization)."""
        name = f"A{index}"
        self.engine.apply_update(
            matrix_as_relation(
                name, delta, f"X{index}", f"X{index + 1}", self.query.ring
            )
        )

    def result_matrix(self) -> np.ndarray:
        """The maintained product as a dense array."""
        return relation_as_matrix(
            self.engine.result(), (self.dims[0], self.dims[-1]), self._scatter
        )


class DenseChainFIVM:
    """Dense F-IVM for A₁A₂A₃ with rank-1 updates to A₂ (LINVIEW).

    Propagates ``u₁ = A₁u`` and ``v₁ = vᵀA₃`` and adds the outer product —
    two matrix-vector products plus an O(n²) result update.
    """

    def __init__(self, a1: np.ndarray, a2: np.ndarray, a3: np.ndarray):
        self.a1 = a1.copy()
        self.a2 = a2.copy()
        self.a3 = a3.copy()
        self.result = a1 @ a2 @ a3

    def apply_rank_one(self, u: np.ndarray, v: np.ndarray) -> None:
        u1 = self.a1 @ u
        v1 = v @ self.a3
        self.result += np.outer(u1, v1)
        self.a2 += np.outer(u, v)

    def apply_rank_r(self, terms: Sequence[Tuple[np.ndarray, np.ndarray]]) -> None:
        for u, v in terms:
            self.apply_rank_one(u, v)


class DenseChainFirstOrder:
    """Dense 1-IVM: recompute ``δA = A₁ δA₂ A₃`` per update.

    For a one-row change the left product is an outer product (O(n²)) but
    the right product is a full matrix-matrix multiplication — the single
    O(nᵅ) multiply the paper attributes to 1-IVM.
    """

    def __init__(self, a1: np.ndarray, a2: np.ndarray, a3: np.ndarray):
        self.a1 = a1.copy()
        self.a2 = a2.copy()
        self.a3 = a3.copy()
        self.result = a1 @ a2 @ a3

    def apply_rank_one(self, u: np.ndarray, v: np.ndarray) -> None:
        delta12 = np.outer(self.a1 @ u, v)
        self.result += delta12 @ self.a3
        self.a2 += np.outer(u, v)


class DenseChainReeval:
    """Dense re-evaluation: two full matrix products per update."""

    def __init__(self, a1: np.ndarray, a2: np.ndarray, a3: np.ndarray):
        self.a1 = a1.copy()
        self.a2 = a2.copy()
        self.a3 = a3.copy()
        self.result = a1 @ a2 @ a3

    def apply_rank_one(self, u: np.ndarray, v: np.ndarray) -> None:
        self.a2 += np.outer(u, v)
        self.result = self.a1 @ self.a2 @ self.a3

    def apply_dense_delta(self, delta: np.ndarray) -> None:
        self.a2 += delta
        self.result = self.a1 @ self.a2 @ self.a3
