"""The degree-m matrix ring of regression triples (Definition 6.2).

A payload is a triple ``(c, s, Q)`` where ``c`` counts tuples, ``s`` is the
m-vector of per-variable sums, and ``Q`` is the m×m matrix of sums of
pairwise products.  Together they are the sufficient statistics (cofactor
matrix) for learning linear regression models over the join result
(Section 6.2).

The ring product *shares computation across the quadratically many
aggregates* — the headline reason F-IVM beats scalar-payload IVM on this
workload::

    a ∗ b = (c_a c_b,
             c_b s_a + c_a s_b,
             c_b Q_a + c_a Q_b + s_a s_bᵀ + s_b s_aᵀ)

Following the paper's implementation note — "we only store as payloads
blocks of matrices with non-zero values and assemble larger matrices as the
computation progresses towards the root" — a triple stores its statistics
restricted to its *support*: the sorted tuple of variable indices it has
seen.  Payloads near the leaves involve one or two variables and stay tiny;
only towards the root do they grow to the full degree.

**The payload row.**  A triple is one float64 row: the upper triangle,
row-major, of its local extended moment matrix ``[[c, sᵀ], [s, Q]]`` over
the support.  Its first matrix row is ``[c, s]``, so the row reads::

    [ c | s_0 … s_k-1 | Q_00 Q_01 … Q_0,k-1 | Q_11 … Q_1,k-1 | … | Q_k-1,k-1 ]

— w = 1 + k + k(k+1)/2 scalars for a support of size k.  ``Q`` is
symmetric, so its lower triangle is never stored, and a ring operation is
a handful of array expressions over rows, through index maps memoized per
pair of supports (:func:`_pair_maps`).  The product is one gather-multiply:
every cell of the union row is a sum of products of one cell of each
operand, listed once per support pair in a *term table*.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import is_
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.rings.base import Ring

__all__ = ["CofactorTriple", "CofactorRing", "CofactorKernelOps"]


class CofactorTriple:
    """An immutable regression triple ``(c, s, Q)`` of degree ``m``.

    ``support`` lists the variable indices the triple covers and ``row``
    stores its statistics (module docstring).  An empty support means ``s``
    and ``Q`` are entirely zero (count-only payloads — the ring's 0 and 1,
    and every leaf payload); the row is then ``[c]``.  All operations
    return new triples; rows are never mutated.
    """

    __slots__ = ("degree", "support", "row")

    def __init__(
        self,
        degree: int,
        count: float,
        sums: Optional[np.ndarray] = None,
        quads: Optional[np.ndarray] = None,
        support: Optional[Sequence[int]] = None,
    ):
        self.degree = degree
        if sums is None and quads is None and support is None:
            support = ()
        elif support is None:
            # Dense construction: the triple covers every variable.
            support = range(degree)
        self.support = tuple(support)
        k = len(self.support)
        if not k:
            self.row = np.array([float(count)])
            return
        sums = np.zeros(k) if sums is None else np.asarray(sums, dtype=float)
        quads = (
            np.zeros((k, k)) if quads is None
            else np.asarray(quads, dtype=float)
        )
        if sums.shape != (k,) or quads.shape != (k, k):
            raise ValueError(
                f"blocks {sums.shape}/{quads.shape} do not match "
                f"support of size {k}"
            )
        if not np.allclose(quads, quads.T):
            raise ValueError("Q must be symmetric")
        self.row = np.concatenate(
            ([float(count)], sums, quads[np.triu_indices(k)])
        )

    def __reduce__(self):
        return (_triple, (self.degree, self.support, self.row))

    # -- the statistics, derived from the row ---------------------------

    @property
    def count(self) -> float:
        return float(self.row[0])

    @property
    def sums(self) -> Optional[np.ndarray]:
        """``s`` over the support (``None`` for an empty support)."""
        if not self.support:
            return None
        view = self.row[1:len(self.support) + 1]
        view.flags.writeable = False
        return view

    @property
    def quads(self) -> Optional[np.ndarray]:
        """``Q`` over the support, expanded to symmetric k×k."""
        return self._local()[1:, 1:] if self.support else None

    def _local(self) -> np.ndarray:
        """The (k+1)×(k+1) extended moment matrix over the support: one
        gather of the row through the layout's cell table."""
        return self.row.take(_layout(self.support)[1])

    def dense_sums(self) -> np.ndarray:
        """The sum vector over all m variables (zero blocks materialized)."""
        return self.moment_matrix()[0, 1:]

    def dense_quads(self) -> np.ndarray:
        """The quadratic matrix over all m variables."""
        return self.moment_matrix()[1:, 1:]

    def moment_matrix(self) -> np.ndarray:
        """The (m+1)×(m+1) extended moment matrix ``[[c, sᵀ], [s, Q]]``.

        Row/column 0 corresponds to the constant feature 1; this is exactly
        ``MᵀM`` for the design matrix extended with an all-ones column.
        """
        local = self._local()
        if len(self.support) == self.degree:
            return local
        index = [0] + [1 + i for i in self.support]
        out = np.zeros((self.degree + 1, self.degree + 1))
        out[np.ix_(index, index)] = local
        return out

    def scalar_entries(self) -> int:
        """Float64 values this triple stores: its row, support-sized."""
        return self.row.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CofactorTriple(m={self.degree}, c={self.count}, "
            f"support={self.support})"
        )


_new = object.__new__


def _triple(degree: int, support: tuple, row: np.ndarray) -> CofactorTriple:
    """Internal fast constructor (and the unpickler): no coercion, no
    validation — callers guarantee a float64 row laid out for ``support``.
    IVM allocates a triple per ring operation on the update hot path."""
    triple = _new(CofactorTriple)
    triple.degree = degree
    triple.support = support
    triple.row = row
    return triple


#: Row maps, memoized: per support (a tuple of variable indices) its
#: layout (:func:`_layout`), per ordered pair of supports (a tuple of two
#: tuples) its embed maps and product term table (:func:`_pair_maps`).
#: Supports along a view tree repeat on every update, so each map is built
#: once per shape.
_ROW_MAPS: Dict[tuple, tuple] = {}


def _layout(support: tuple) -> tuple:
    """``(size, tri, key)`` for a support of k = size - 1 variables:
    ``tri[r, c]`` is the row position of extended-matrix cell ``(r, c)``
    in either order (coordinate 0 is the constant, 1 + i the i-th support
    variable); ``key`` is the memo's own tuple, which products take as
    their support, so later lookups match it by identity."""
    layout = _ROW_MAPS.get(support)
    if layout is None:
        size = len(support) + 1
        rows, cols = np.triu_indices(size)
        tri = np.empty((size, size), dtype=np.intp)
        tri[rows, cols] = tri[cols, rows] = np.arange(rows.size)
        layout = _ROW_MAPS[support] = (size, tri, support)
    return layout


def _pair_maps(left: tuple, right: tuple) -> tuple:
    """``(union, width, emb_l, emb_r, ia, ib, starts)`` for the ordered
    support pair ``(left, right)``, built once by :func:`_term_table`.

    ``emb_l``/``emb_r`` give the union-row position (of ``width`` cells)
    of each cell of an operand's row; ``add`` and ``eq`` write through
    them.  ``(union, ia, ib, starts)`` is the product's term table.
    """
    key = (left, right)
    maps = _ROW_MAPS.get(key)
    if maps is None:
        maps = _ROW_MAPS[key] = _term_table(left, right)
    return maps


def _term_table(left: tuple, right: tuple) -> tuple:
    """Build :func:`_pair_maps`' entry for a support pair.

    The product is bilinear, so each cell of the union row is a sum of
    terms ``ra[i] * rb[j]``: ``c_a c_b``; each ``s``/``Q`` cell of ``a``
    times ``c_b`` and of ``b`` times ``c_a``; ``s_a,u s_b,v`` on ``Q_uv``
    for each u in ``left`` and v in ``right``, counted twice on ``Q_vv``
    for a variable in both supports.  ``ia``/``ib`` list the terms sorted by
    destination cell, so the product row is ``ra[ia] * rb[ib]``, reduced
    per cell by ``np.add.reduceat(…, starts)``.  Every cell gets at least
    one term; ``starts`` is ``None`` when each gets exactly one, which
    holds for every pair of disjoint supports.
    """
    union = tuple(sorted(set(left) | set(right)))
    size, tri, union = _layout(union)
    ext_l = np.array([0] + [1 + union.index(i) for i in left], np.intp)
    ext_r = np.array([0] + [1 + union.index(i) for i in right], np.intp)

    def embed(ext):
        rows, cols = np.triu_indices(ext.size)
        return tri[ext[rows], ext[cols]]

    emb_l, emb_r = embed(ext_l), embed(ext_r)
    # Terms as (destination cell, ia, ib): a's cells times c_b (its cell 0
    # is c_a c_b), b's other cells times c_a, then s_a ⊗ s_b (s_i sits
    # at row position 1 + i), a shared variable's diagonal once more.
    s_l, s_r = np.indices((len(left), len(right))).reshape(2, -1) + 1
    twice = ext_l[s_l] == ext_r[s_r]
    s_l = np.concatenate([s_l, s_l[twice]])
    s_r = np.concatenate([s_r, s_r[twice]])
    ia = np.concatenate(
        [np.arange(emb_l.size), np.zeros(emb_r.size - 1, np.intp), s_l]
    )
    ib = np.concatenate(
        [np.zeros(emb_l.size, np.intp), np.arange(1, emb_r.size), s_r]
    )
    dest = np.concatenate([emb_l, emb_r[1:], tri[ext_l[s_l], ext_r[s_r]]])
    order = np.argsort(dest, kind="stable")
    width = size * (size + 1) // 2
    starts = None
    if dest.size > width:
        starts = np.flatnonzero(np.diff(dest[order], prepend=-1))
    return (union, width, emb_l, emb_r, ia[order], ib[order], starts)


class CofactorRing(Ring):
    """The degree-m matrix ring ``(D, +_D, ∗_D, 0, 1)`` of Definition 6.2."""

    def __init__(self, degree: int, tolerance: float = 1e-7):
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.tolerance = tolerance
        self.name = f"cofactor[{degree}]"
        self._zero = CofactorTriple(degree, 0.0)
        self._one = CofactorTriple(degree, 1.0)

    @property
    def zero(self) -> CofactorTriple:
        return self._zero

    @property
    def one(self) -> CofactorTriple:
        return self._one

    def add(self, a: CofactorTriple, b: CofactorTriple) -> CofactorTriple:
        if a.support == b.support:
            return _triple(self.degree, a.support, a.row + b.row)
        union, width, emb_a, emb_b, *_ = _pair_maps(a.support, b.support)
        row = np.zeros(width)
        row[emb_a] = a.row
        row[emb_b] += b.row
        return _triple(self.degree, union, row)

    def mul(self, a: CofactorTriple, b: CofactorTriple) -> CofactorTriple:
        ra, rb = a.row, b.row
        if not b.support:
            if rb[0] == 1.0:
                # b = 1: triples are immutable, so the product *is* a.
                return a
            # b is count-only: its count scales every cell of a.
            return _triple(self.degree, a.support, ra * rb)
        if not a.support:
            if ra[0] == 1.0:
                return b
            return _triple(self.degree, b.support, rb * ra)
        union, _, _, _, ia, ib, starts = _pair_maps(a.support, b.support)
        row = ra[ia]
        row *= rb[ib]
        if starts is not None:
            row = np.add.reduceat(row, starts)
        return _triple(self.degree, union, row)

    def neg(self, a: CofactorTriple) -> CofactorTriple:
        return _triple(self.degree, a.support, -a.row)

    def eq(self, a: CofactorTriple, b: CofactorTriple) -> bool:
        ra, rb = a.row, b.row
        if abs(ra[0] - rb[0]) > self.tolerance:
            return False
        if a.support != b.support:
            _, width, emb_a, emb_b, *_ = _pair_maps(a.support, b.support)
            ra, rb = np.zeros(width), np.zeros(width)
            ra[emb_a] = a.row
            rb[emb_b] = b.row
        return bool(np.allclose(ra, rb, atol=self.tolerance))

    def is_zero(self, a: CofactorTriple) -> bool:
        row = a.row
        if abs(row[0]) > self.tolerance:
            return False
        return not a.support or not (np.abs(row) > self.tolerance).any()

    def from_int(self, n: int) -> CofactorTriple:
        return _triple(self.degree, (), np.array([float(n)]))

    def kernel_ops(self) -> "CofactorKernelOps":
        ops = getattr(self, "_kernel_ops", None)
        if ops is None:
            ops = CofactorKernelOps(self.degree, self.tolerance)
            self._kernel_ops = ops
        return ops

    def lift(self, index: int) -> Callable[[object], CofactorTriple]:
        """The lifting function ``g_{X_j}`` of Section 6.2 for variable ``j``.

        Maps a value ``x`` to ``(1, s, Q)`` with ``s[j] = x`` and
        ``Q[j, j] = x²`` — the row ``[1, x, x²]`` on support ``(j,)``.
        """
        if not 0 <= index < self.degree:
            raise ValueError(f"variable index {index} out of range")
        support = (index,)

        degree = self.degree
        #: Lifted rows memoized per value: streams revisit domain values
        #: constantly, and rows are never mutated.  Bounded so continuous
        #: features (mostly-distinct floats) cannot grow it without limit
        #: — on overflow the memo simply resets.
        memo: Dict[object, np.ndarray] = {}
        memo_cap = 1 << 16

        def _rows(value: object) -> np.ndarray:
            row = memo.get(value)
            if row is None:
                x = float(value)  # type: ignore[arg-type]
                row = np.array([1.0, x, x * x])
                if len(memo) >= memo_cap:
                    memo.clear()
                memo[value] = row
            return row

        def _lift(value: object) -> CofactorTriple:
            return _triple(degree, support, _rows(value))

        #: Tag for the kernel backend: a whole column of lifted values
        #: packs directly from the raw floats (no per-row triples) — see
        #: :meth:`CofactorKernelOps.pack_lift`.  ``rows`` gives the row
        #: alone, for the generated triggers' row form.
        _lift._kernel_lift = ("cofactor", index)
        _lift.rows = _rows
        return _lift


# ----------------------------------------------------------------------
# Array pack/unpack hooks (the NumPy kernel backend)
# ----------------------------------------------------------------------


class CofactorKernelOps:
    """Batched triple arithmetic for the kernel backend, and the layout of
    a stored view.

    A column of n same-support triples packs into ``(block, support)``:
    their rows stacked into one (n, w) float64 block.  The ring product of
    two packed columns is the scalar :meth:`CofactorRing.mul` with a batch
    axis — the same term table, one column gather per operand and one
    multiply — and the per-output-key fold is one sort + one
    ``np.add.reduceat`` over the block: n ring operations collapse into a
    handful of array expressions.

    The same pair is how a view over this ring stores its payloads
    (``block_views``; :class:`~repro.data.relation.BlockRelation`): the
    payloads of a view share one support — the variables lifted below it
    (§6.2) — so the view is a key → row table plus one block, and
    a triple carries its ``row`` and ``support``, and :attr:`payload`
    builds the triple over a row.

    A mixed-support column (rare: payloads at one tree node share their
    support by construction, since support = the variables lifted below)
    packs laid out for the union of its supports.

    The hooks keep the ring's degree and tolerance, not the ring, so ring
    and hooks form no reference cycle.
    """

    __slots__ = ("degree", "tolerance")

    vectorizes_triggers = True

    #: Stored views over this ring are payload blocks: a triple's
    #: ``row`` laid out for its ``support``.
    block_views = True

    def __init__(self, degree: int, tolerance: float):
        self.degree = degree
        self.tolerance = tolerance

    def payload(self, support: tuple, row) -> CofactorTriple:
        """The triple whose row is ``row`` (not copied)."""
        return _triple(self.degree, support, row)

    # -- the block layout of a view ------------------------------------

    @staticmethod
    def widen(support: tuple, other: tuple) -> tuple:
        """``(union, width, emb, emb_other)``: the union of two supports,
        its row width, and where each support's row cells sit in it."""
        union, width, emb, emb_other, *_ = _pair_maps(support, other)
        return union, width, emb, emb_other

    @staticmethod
    def terms(support: tuple, other: tuple) -> tuple:
        """``(union, ia, ib, starts)``: the product's support and term
        table for a row laid out for ``support`` times one laid out for
        ``other`` (:func:`_term_table`, memoized process-wide)."""
        union, _, _, _, ia, ib, starts = _pair_maps(support, other)
        return union, ia, ib, starts

    @staticmethod
    def lift_support(lift_fn) -> Optional[tuple]:
        """The support of what ``lift_fn`` returns if it is one of this
        ring's lifts (``ring.lift(j)``: ``(j,)``), else ``None``."""
        tag = getattr(lift_fn, "_kernel_lift", None)
        return (tag[1],) if tag is not None and tag[0] == "cofactor" else None

    # -- packing -------------------------------------------------------

    def pack(self, column, n: int):
        """Stack a payload column.  A column that repeats one payload
        object (a delta's shared payload) tiles its row once; one of mixed
        supports is laid out for their union."""
        first = column[0]
        if all(map(is_, column, repeat(first))):
            return (np.tile(first.row, (n, 1)), first.support)
        support = first.support
        if all(triple.support == support for triple in column):
            rows = np.concatenate([triple.row for triple in column])
            return (rows.reshape(n, -1), support)
        support = reduce(
            lambda a, b: _pair_maps(a, b)[0], {t.support for t in column})
        block = np.zeros((n, _pair_maps(support, support)[1]))
        for row, triple in zip(block, column):
            row[_pair_maps(support, triple.support)[3]] = triple.row
        return (block, support)

    def pack_lift(self, lift_fn, values, n: int):
        """Pack a lifted column straight from the raw values.

        ``ring.lift(j)`` maps ``x`` to the row ``[1, x, x²]`` on support
        ``(j,)``, so a whole column of lift results is one (n, 3) block —
        no per-row triple construction.  Returns ``None`` for lift
        functions this ring did not produce (custom liftings take the
        generic per-row path).
        """
        support = self.lift_support(lift_fn)
        if support is None:
            return None
        x = np.fromiter(map(float, values), dtype=float, count=n)
        block = np.empty((n, 3))
        block[:, 0] = 1.0
        block[:, 1] = x
        block[:, 2] = x * x
        return (block, support)

    # -- the vectorized ring product -----------------------------------

    def mul_packed(self, a, b, n: int):
        """The ring product of two packed columns, row by row."""
        block_a, supa = a
        block_b, supb = b
        if not supb:
            return (block_a * block_b, supa)
        if not supa:
            return (block_b * block_a, supb)
        union, _, _, _, ia, ib, starts = _pair_maps(supa, supb)
        out = block_a.take(ia, axis=1)
        out *= block_b.take(ib, axis=1)
        if starts is not None:
            out = np.add.reduceat(out, starts, axis=1)
        return (out, union)

    # -- grouped reduction ---------------------------------------------

    def reduce(self, packed, group_ids, n_groups: int):
        """Fold rows per output key: sort on the group id, then one
        ``np.add.reduceat`` over the block.  Every group id in
        ``range(n_groups)`` must occur (the kernel program assigns ids
        first-seen), so the reduceat segments line up with the group
        numbering.  Ids in order already (first-seen ids that form one
        run per group, as one group does) are not sorted.  Over more than
        two groups per three rows most groups are one row: those rows
        are copied and only the colliding groups' rows reduced — the same
        segments in the same order, so the same bits."""
        block, support = packed
        order = None
        if (group_ids[1:] < group_ids[:-1]).any():
            order = np.argsort(group_ids, kind="stable")
            group_ids = group_ids[order]
        starts = np.searchsorted(group_ids, np.arange(n_groups))
        if 3 * n_groups <= 2 * len(group_ids):
            block = block if order is None else block[order]
            return (np.add.reduceat(block, starts, axis=0), support)
        sizes = np.diff(starts, append=len(group_ids))
        multi = sizes > 1
        rows = np.arange(len(group_ids)) if order is None else order
        out, runs = block[rows[starts]], sizes[multi]
        out[multi] = np.add.reduceat(
            block[rows[np.repeat(multi, sizes)]], np.cumsum(runs) - runs, axis=0)
        return (out, support)

    def unpack(self, reduced):
        """Per-group :class:`CofactorTriple` views over the block's rows
        (safe to share: triples never mutate their rows)."""
        block, support = reduced
        degree = self.degree
        return [_triple(degree, support, row) for row in block]

    def zero_mask(self, packed):
        return (np.abs(packed[0]) <= self.tolerance).all(axis=1)

    def take(self, packed, rows):
        """The packed column's rows ``rows`` (an index array), in order."""
        block, support = packed
        return (block[rows], support)
