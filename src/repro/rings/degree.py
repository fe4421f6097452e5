"""The degree-indexed ring: SQL-OPT's explicit encoding of cofactor payloads.

SQL-OPT (Section 7) arranges the quadratically many regression aggregates
into a single aggregate column indexed by the degree of each query variable.
Algebraically this is the truncated polynomial ring
``ℝ[x₁..x_m] / ⟨monomials of degree ≥ 3⟩`` — the same quotient the
degree-m matrix ring of Definition 6.2 implements with dense vectors and
matrices.  Here the payload is a sparse dict from monomials to floats:

* ``()``        → the count aggregate,
* ``(i,)``      → SUM(Xᵢ),
* ``(i, j)``    → SUM(Xᵢ·Xⱼ)  (indices sorted, i ≤ j).

Keeping both encodings lets the benchmarks reproduce the paper's F-IVM vs
SQL-OPT comparison: identical view trees and maintenance strategy, different
payload representation costs.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.rings.base import Ring

__all__ = ["DegreeRing", "DegreeKernelOps"]

Monomial = Tuple[int, ...]
Poly = Dict[Monomial, float]


class DegreeKernelOps:
    """Stacked-array hooks for :class:`DegreeRing` payload columns.

    A column of n sparse polynomials packs into one dense ``(n, M)``
    coefficient matrix over the column's monomial *vocabulary* (the sorted
    union of monomials present) — the layout, in the sense of the packed
    protocol.  Ring operations become array arithmetic:

    * addition is matrix addition after adapting both operands onto the
      union vocabulary,
    * the truncated product gathers all monomial pairs of total degree
      ≤ 2 (memoized, grouped by the monomial they land on), multiplies
      them column-wise and sums each group with one ``reduceat``, and
    * the grouped ``Ring.sum`` is one ``np.add.at`` over group ids.

    Truncation semantics: the dict payloads drop sub-tolerance coefficients
    *per step*; the packed pipeline keeps full coefficients in the arrays
    and applies the tolerance once at :meth:`unpack` / :meth:`zero_mask`.
    On exactly-cancelling (integer-valued) data the results coincide; on
    general floats they agree within the ring's ``eq`` tolerance.
    """

    __slots__ = ("tolerance", "_adapt_cache", "_mul_cache")

    vectorizes_triggers = True

    def __init__(self, ring: "DegreeRing"):
        self.tolerance = ring.tolerance
        self._adapt_cache: Dict[tuple, tuple] = {}
        self._mul_cache: Dict[tuple, tuple] = {}

    # -- packing --------------------------------------------------------

    def pack(self, column, n):
        vocab_set = set()
        for poly in column:
            vocab_set.update(poly)
        vocab = tuple(sorted(vocab_set))
        index = {monomial: j for j, monomial in enumerate(vocab)}
        mat = np.zeros((n, len(vocab)), dtype=np.float64)
        for i, poly in enumerate(column):
            for monomial, coeff in poly.items():
                mat[i, index[monomial]] = coeff
        return (mat, vocab)

    def payload_layout(self, payload):
        return tuple(sorted(payload))

    def pack_lift(self, lift_fn, values, n):
        """Pack a lifted column straight from the raw values:
        ``x ↦ 1 + x·xⱼ + x²·xⱼ²`` is the dense ``(1, x, x²)`` row on the
        vocabulary ``((), (j,), (j, j))``.  ``None`` for lift functions
        this ring did not produce."""
        tag = getattr(lift_fn, "_kernel_lift", None)
        if tag is None or tag[0] != "degree":
            return None
        j = tag[1]
        x = np.fromiter((float(v) for v in values), dtype=np.float64, count=n)
        mat = np.empty((n, 3), dtype=np.float64)
        mat[:, 0] = 1.0
        mat[:, 1] = x
        mat[:, 2] = x * x
        return (mat, ((), (j,), (j, j)))

    def unpack(self, packed):
        mat, vocab = packed
        tolerance = self.tolerance
        out = []
        for row in mat.tolist():
            out.append(
                {
                    monomial: coeff
                    for monomial, coeff in zip(vocab, row)
                    if abs(coeff) > tolerance
                }
            )
        return out

    # -- arithmetic -----------------------------------------------------

    def _adapt_map(self, vocab, union):
        """Column positions of ``vocab`` inside ``union`` (memoized)."""
        key = (vocab, union)
        hit = self._adapt_cache.get(key)
        if hit is None:
            where = {monomial: j for j, monomial in enumerate(union)}
            hit = np.array([where[m] for m in vocab], dtype=np.intp)
            self._adapt_cache[key] = hit
        return hit

    def _adapt(self, packed, union):
        mat, vocab = packed
        if vocab == union:
            return mat
        out = np.zeros((mat.shape[0], len(union)), dtype=np.float64)
        if vocab:
            out[:, self._adapt_map(vocab, union)] = mat
        return out

    def _union(self, va, vb):
        if va == vb:
            return va
        return tuple(sorted(set(va) | set(vb)))

    def add_packed(self, a, b):
        union = self._union(a[1], b[1])
        return (self._adapt(a, union) + self._adapt(b, union), union)

    def neg_packed(self, a):
        return (-a[0], a[1])

    def mul_packed(self, a, b, n):
        """Truncated polynomial product: the column-pair products, summed
        per output monomial (pairs are laid out grouped by the monomial
        they land on, so the sum is one ``reduceat`` along the columns)."""
        mat_a, va = a
        mat_b, vb = b
        key = (va, vb)
        hit = self._mul_cache.get(key)
        if hit is None:
            pairs = sorted(
                (tuple(sorted(ma + mb)), ia, ib)
                for ia, ma in enumerate(va)
                for ib, mb in enumerate(vb)
                if len(ma) + len(mb) <= 2  # quotient: degree ≥ 3 vanishes
            )
            out_vocab = tuple(sorted({pair[0] for pair in pairs}))
            starts = np.array(
                [i for i, pair in enumerate(pairs)
                 if i == 0 or pair[0] != pairs[i - 1][0]],
                dtype=np.intp,
            )
            ia_arr = np.array([pair[1] for pair in pairs], dtype=np.intp)
            ib_arr = np.array([pair[2] for pair in pairs], dtype=np.intp)
            hit = (out_vocab, ia_arr, ib_arr, starts)
            self._mul_cache[key] = hit
        out_vocab, ia_arr, ib_arr, starts = hit
        if not out_vocab:
            return (np.zeros((n, 0), dtype=np.float64), out_vocab)
        prod = mat_a[:, ia_arr] * mat_b[:, ib_arr]
        return (np.add.reduceat(prod, starts, axis=1), out_vocab)

    def reduce(self, packed, group_ids, n_groups):
        mat, vocab = packed
        out = np.zeros((n_groups, len(vocab)), dtype=np.float64)
        np.add.at(out, group_ids, mat)
        return (out, vocab)

    def zero_mask(self, packed):
        mat, vocab = packed
        if not vocab:
            return np.ones(mat.shape[0], dtype=bool)
        return (np.abs(mat) <= self.tolerance).all(axis=1)

    # -- store hooks ----------------------------------------------------

    def alloc(self, cap, layout=()):
        return (np.zeros((cap, len(layout)), dtype=np.float64), tuple(layout))

    def grow(self, block, used, cap):
        mat, vocab = block
        out = np.zeros((cap, len(vocab)), dtype=np.float64)
        out[:used] = mat[:used]
        return (out, vocab)

    def take(self, block, rows):
        mat, vocab = block
        return (mat[rows], vocab)

    def _unify_block(self, block, packed):
        """Widen ``block`` and/or adapt ``packed`` onto a shared vocab."""
        mat, vocab = block
        union = self._union(vocab, packed[1])
        if union != vocab:
            widened = np.zeros((mat.shape[0], len(union)), dtype=np.float64)
            if vocab:
                widened[:, self._adapt_map(vocab, union)] = mat
            block = (widened, union)
        return block, self._adapt(packed, union)

    def put(self, block, rows, packed):
        block, values = self._unify_block(block, packed)
        block[0][rows] = values
        return block

    def add_at(self, block, rows, packed):
        block, values = self._unify_block(block, packed)
        np.add.at(block[0], rows, values)
        return block

    def zero_rows(self, block, rows):
        block[0][rows] = 0.0
        return block


class DegreeRing(Ring):
    """Sparse truncated polynomials of total degree ≤ 2 over m variables."""

    def __init__(self, degree: int, tolerance: float = 1e-7):
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.tolerance = tolerance
        self.name = f"degree[{degree}]"
        self._zero: Poly = {}
        self._one: Poly = {(): 1.0}

    @property
    def zero(self) -> Poly:
        return self._zero

    @property
    def one(self) -> Poly:
        return self._one

    def add(self, a: Poly, b: Poly) -> Poly:
        out = dict(a)
        for monomial, coeff in b.items():
            merged = out.get(monomial, 0.0) + coeff
            if abs(merged) <= self.tolerance:
                out.pop(monomial, None)
            else:
                out[monomial] = merged
        return out

    def mul(self, a: Poly, b: Poly) -> Poly:
        out: Poly = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                if len(m1) + len(m2) > 2:
                    continue  # quotient: monomials of degree ≥ 3 vanish
                monomial = tuple(sorted(m1 + m2))
                merged = out.get(monomial, 0.0) + c1 * c2
                if abs(merged) <= self.tolerance:
                    out.pop(monomial, None)
                else:
                    out[monomial] = merged
        return out

    def neg(self, a: Poly) -> Poly:
        return {monomial: -coeff for monomial, coeff in a.items()}

    def eq(self, a: Poly, b: Poly) -> bool:
        for monomial in set(a) | set(b):
            if abs(a.get(monomial, 0.0) - b.get(monomial, 0.0)) > self.tolerance:
                return False
        return True

    def is_zero(self, a: Poly) -> bool:
        return all(abs(c) <= self.tolerance for c in a.values())

    def sum(self, items) -> Poly:
        """Stacked sum: one shared coefficient accumulator for the batch.

        Bit-for-bit the base class's pairwise :meth:`add` fold — including
        the per-step tolerance truncation, so sub-tolerance contributions
        are dropped at exactly the same points — but a batch of n
        polynomials costs one dict-merge pass instead of n-1 intermediate
        dict copies: the degree-ring analogue of the cofactor ring's
        vectorized sum, feeding the deferred per-key accumulation of the
        compiled triggers.
        """
        out: Poly = {}
        get = out.get
        tolerance = self.tolerance
        for poly in items:
            for monomial, coeff in poly.items():
                merged = get(monomial, 0.0) + coeff
                if abs(merged) <= tolerance:
                    out.pop(monomial, None)
                else:
                    out[monomial] = merged
        return out

    def from_int(self, n: int) -> Poly:
        return {(): float(n)} if n else {}

    def lift(self, index: int) -> Callable[[object], Poly]:
        """Lifting for variable ``index``: ``x ↦ 1 + x·xᵢ + x²·xᵢ²``."""
        if not 0 <= index < self.degree:
            raise ValueError(f"variable index {index} out of range")

        def _lift(value: object) -> Poly:
            x = float(value)  # type: ignore[arg-type]
            return {(): 1.0, (index,): x, (index, index): x * x}

        #: Tag for the kernel backend: a lifted column packs directly from
        #: the raw values — see :meth:`DegreeKernelOps.pack_lift`.
        _lift._kernel_lift = ("degree", index)
        return _lift

    def kernel_ops(self):
        ops = getattr(self, "_kernel_ops", None)
        if ops is None:
            ops = DegreeKernelOps(self)
            self._kernel_ops = ops
        return ops
