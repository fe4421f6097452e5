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
computation progresses towards the root" — a triple stores ``s``/``Q``
restricted to its *support*: the sorted tuple of variable indices it has
seen.  Payloads near the leaves involve one or two variables and stay tiny;
only towards the root do they grow to the full degree.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.rings.base import Ring

__all__ = ["CofactorTriple", "CofactorRing", "CofactorKernelOps"]


class CofactorTriple:
    """An immutable regression triple ``(c, s, Q)`` of degree ``m``.

    ``support`` lists the variable indices the stored blocks cover; ``sums``
    has one entry per support index, ``quads`` is |support|×|support|.  An
    empty support means ``s`` and ``Q`` are entirely zero (count-only
    payloads — the ring's 0 and 1, and every leaf payload).  All operations
    return new triples; wrapped arrays are never mutated.
    """

    __slots__ = ("degree", "count", "support", "sums", "quads")

    def __init__(
        self,
        degree: int,
        count: float,
        sums: Optional[np.ndarray] = None,
        quads: Optional[np.ndarray] = None,
        support: Optional[Sequence[int]] = None,
    ):
        self.degree = degree
        self.count = float(count)
        if sums is None and quads is None and support is None:
            self.support: Tuple[int, ...] = ()
            self.sums: Optional[np.ndarray] = None
            self.quads: Optional[np.ndarray] = None
            return
        if support is None:
            # Dense construction: blocks cover every variable.
            support = tuple(range(degree))
        self.support = tuple(support)
        if not self.support:
            # Normalize: empty support always means None blocks.
            self.sums = None
            self.quads = None
            return
        k = len(self.support)
        self.sums = np.zeros(k) if sums is None else np.asarray(sums, dtype=float)
        self.quads = (
            np.zeros((k, k)) if quads is None
            else np.asarray(quads, dtype=float)
        )
        if self.sums.shape != (k,) or self.quads.shape != (k, k):
            raise ValueError(
                f"blocks {self.sums.shape}/{self.quads.shape} do not match "
                f"support of size {k}"
            )

    # ------------------------------------------------------------------

    @classmethod
    def _make(
        cls,
        degree: int,
        count: float,
        sums: Optional[np.ndarray],
        quads: Optional[np.ndarray],
        support: Tuple[int, ...],
    ) -> "CofactorTriple":
        """Internal fast constructor: no coercion, no shape validation.

        Callers (the ring operations) guarantee the invariants the public
        ``__init__`` enforces — blocks already float arrays shaped to the
        support, empty support ⇔ ``None`` blocks.  Skipping the per-triple
        ``np.asarray``/shape checks matters: IVM allocates a triple per ring
        operation on the update hot path.
        """
        triple = object.__new__(cls)
        triple.degree = degree
        triple.count = count
        triple.support = support
        triple.sums = sums
        triple.quads = quads
        return triple

    def dense_sums(self) -> np.ndarray:
        """The sum vector over all m variables (zero blocks materialized)."""
        out = np.zeros(self.degree)
        if self.sums is not None:
            out[list(self.support)] = self.sums
        return out

    def dense_quads(self) -> np.ndarray:
        """The quadratic matrix over all m variables."""
        out = np.zeros((self.degree, self.degree))
        if self.quads is not None:
            index = list(self.support)
            out[np.ix_(index, index)] = self.quads
        return out

    def moment_matrix(self) -> np.ndarray:
        """The (m+1)×(m+1) extended moment matrix ``[[c, sᵀ], [s, Q]]``.

        Row/column 0 corresponds to the constant feature 1; this is exactly
        ``MᵀM`` for the design matrix extended with an all-ones column.
        """
        m = self.degree
        out = np.zeros((m + 1, m + 1))
        out[0, 0] = self.count
        dense_s = self.dense_sums()
        out[0, 1:] = dense_s
        out[1:, 0] = dense_s
        out[1:, 1:] = self.dense_quads()
        return out

    def scalar_entries(self) -> int:
        """Stored scalars (for logical memory accounting): support-sized."""
        total = 1
        if self.sums is not None:
            total += self.sums.size
        if self.quads is not None:
            total += self.quads.size
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CofactorTriple(m={self.degree}, c={self.count}, "
            f"support={self.support})"
        )


#: Embedding maps memoized per (source support, target support): the sum
#: positions plus the *flattened* indices of the source's quadratic block
#: inside the target matrix.  Supports along a view tree repeat on every
#: update, and flat 1-D fancy indexing is about twice as fast as the
#: equivalent 2-D mesh assignment, so blocks are scattered through these.
_EMBED_MAPS: Dict[
    Tuple[Tuple[int, ...], Tuple[int, ...]],
    Tuple[np.ndarray, np.ndarray],
] = {}

#: Merge maps memoized per (left support, right support): the union
#: support and every index vector a pairwise add/mul needs — one cache hit
#: per ring operation.
_MERGE_MAPS: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], tuple] = {}


def _embed_maps(
    source: Tuple[int, ...], target: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    key = (source, target)
    maps = _EMBED_MAPS.get(key)
    if maps is None:
        positions = np.array(
            [target.index(i) for i in source], dtype=np.intp
        )
        k = len(target)
        flat = (positions[:, None] * k + positions[None, :]).ravel()
        maps = (positions, flat)
        _EMBED_MAPS[key] = maps
    return maps


def _merge_maps(left: Tuple[int, ...], right: Tuple[int, ...]) -> tuple:
    """``(union, k, pos_l, pos_r, flat_ll, flat_rr, flat_lr, flat_rl)``
    for scattering both operands (and their cross blocks) onto the union."""
    key = (left, right)
    maps = _MERGE_MAPS.get(key)
    if maps is None:
        union = tuple(sorted(set(left) | set(right)))
        k = len(union)
        pos_l = np.array([union.index(i) for i in left], dtype=np.intp)
        pos_r = np.array([union.index(i) for i in right], dtype=np.intp)
        maps = (
            union,
            k,
            pos_l,
            pos_r,
            (pos_l[:, None] * k + pos_l[None, :]).ravel(),
            (pos_r[:, None] * k + pos_r[None, :]).ravel(),
            (pos_l[:, None] * k + pos_r[None, :]).ravel(),
            (pos_r[:, None] * k + pos_l[None, :]).ravel(),
        )
        _MERGE_MAPS[key] = maps
    return maps




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
        make = CofactorTriple._make
        if not b.support:
            return make(
                self.degree, a.count + b.count, a.sums, a.quads, a.support
            )
        if not a.support:
            return make(
                self.degree, a.count + b.count, b.sums, b.quads, b.support
            )
        if a.support == b.support:
            return make(
                self.degree,
                a.count + b.count,
                a.sums + b.sums,
                a.quads + b.quads,
                a.support,
            )
        union, k, pos_a, pos_b, flat_aa, flat_bb, _, _ = _merge_maps(
            a.support, b.support
        )
        if union == a.support:
            sums = a.sums.copy()
            quads = a.quads.copy()
            sums[pos_b] += b.sums
            quads.ravel()[flat_bb] += b.quads.ravel()
        elif union == b.support:
            sums = b.sums.copy()
            quads = b.quads.copy()
            sums[pos_a] += a.sums
            quads.ravel()[flat_aa] += a.quads.ravel()
        else:
            sums = np.zeros(k)
            sums[pos_a] = a.sums
            sums[pos_b] += b.sums
            flat = np.zeros(k * k)
            flat[flat_aa] = a.quads.ravel()
            flat[flat_bb] += b.quads.ravel()
            quads = flat.reshape(k, k)
        return make(self.degree, a.count + b.count, sums, quads, union)

    def mul(self, a: CofactorTriple, b: CofactorTriple) -> CofactorTriple:
        count = a.count * b.count
        make = CofactorTriple._make
        if not b.support:
            if b.count == 1.0:
                # b = 1: triples are immutable, so the product *is* a.
                return a
            if not a.support:
                return make(self.degree, count, None, None, ())
            # b is count-only: pure scaling of a's blocks.
            return make(
                self.degree, count,
                b.count * a.sums, b.count * a.quads, a.support,
            )
        if not a.support:
            if a.count == 1.0:
                return b
            return make(
                self.degree, count,
                a.count * b.sums, a.count * b.quads, b.support,
            )
        if a.support == b.support:
            # Equal supports: dense arithmetic, no scatter needed.
            cross = a.sums[:, None] * b.sums[None, :]
            return make(
                self.degree,
                count,
                b.count * a.sums + a.count * b.sums,
                b.count * a.quads + a.count * b.quads + cross + cross.T,
                a.support,
            )
        union, k, pos_a, pos_b, flat_aa, flat_bb, flat_ab, flat_ba = (
            _merge_maps(a.support, b.support)
        )
        if union == a.support and len(b.support) == 1:
            # The hot shape of the trigger loop: an accumulated payload times
            # a lifted single variable already inside its support.  The cross
            # term touches one row and one column only; everything else is a
            # scalar scale (or, for lifts with count 1, a plain copy).
            j = pos_b[0]
            sb0 = b.sums[0]
            if b.count == 1.0:
                sums = a.sums.copy()
                quads = a.quads.copy()
            else:
                sums = b.count * a.sums
                quads = b.count * a.quads
            sums[j] += a.count * sb0
            quads[j, j] += a.count * b.quads[0, 0]
            cross_line = a.sums * sb0
            quads[:, j] += cross_line
            quads[j, :] += cross_line
            return make(self.degree, count, sums, quads, union)
        # General case: assemble the result blocks directly on the union
        # support.  Each input contributes only on its own positions, and the
        # cross term ``s_a s_bᵀ + s_b s_aᵀ`` is non-zero only on the
        # (a-positions × b-positions) blocks — scattering input-sized blocks
        # through the cached flat maps avoids materializing two union-sized
        # embeddings per multiplication.
        cross = a.sums[:, None] * b.sums[None, :]
        if k == len(pos_a) + len(pos_b):
            # Disjoint supports (a node's payload times a sibling subtree's
            # — the variables lifted below two siblings never overlap): the
            # aa, bb, ab and ba blocks partition the k×k result, so every
            # cell is written exactly once — no zero fill, no ``+=``.
            sums = np.empty(k)
            sums[pos_a] = b.count * a.sums
            sums[pos_b] = a.count * b.sums
            flat = np.empty(k * k)
            flat[flat_aa] = (b.count * a.quads).ravel()
            flat[flat_bb] = (a.count * b.quads).ravel()
            flat[flat_ab] = cross.ravel()
            flat[flat_ba] = cross.T.ravel()
            return make(self.degree, count, sums, flat.reshape(k, k), union)
        if union == a.support:
            sums = b.count * a.sums
            sums[pos_b] += a.count * b.sums
            quads = b.count * a.quads
            flat = quads.ravel()
            flat[flat_bb] += (a.count * b.quads).ravel()
        elif union == b.support:
            sums = a.count * b.sums
            sums[pos_a] += b.count * a.sums
            quads = a.count * b.quads
            flat = quads.ravel()
            flat[flat_aa] += (b.count * a.quads).ravel()
        else:
            sums = np.zeros(k)
            sums[pos_a] = b.count * a.sums
            sums[pos_b] += a.count * b.sums
            flat = np.zeros(k * k)
            flat[flat_aa] = (b.count * a.quads).ravel()
            flat[flat_bb] += (a.count * b.quads).ravel()
            quads = flat.reshape(k, k)
        flat[flat_ab] += cross.ravel()
        flat[flat_ba] += cross.T.ravel()
        return make(self.degree, count, sums, quads, union)

    def neg(self, a: CofactorTriple) -> CofactorTriple:
        if not a.support:
            return CofactorTriple._make(self.degree, -a.count, None, None, ())
        return CofactorTriple._make(
            self.degree, -a.count, -a.sums, -a.quads, a.support
        )

    def eq(self, a: CofactorTriple, b: CofactorTriple) -> bool:
        if abs(a.count - b.count) > self.tolerance:
            return False
        if a.support == b.support:
            if a.sums is None:
                return True
            return bool(
                np.allclose(a.sums, b.sums, atol=self.tolerance)
                and np.allclose(a.quads, b.quads, atol=self.tolerance)
            )
        if not np.allclose(a.dense_sums(), b.dense_sums(), atol=self.tolerance):
            return False
        return bool(
            np.allclose(a.dense_quads(), b.dense_quads(), atol=self.tolerance)
        )

    def is_zero(self, a: CofactorTriple) -> bool:
        if abs(a.count) > self.tolerance:
            return False
        if a.sums is not None and np.any(np.abs(a.sums) > self.tolerance):
            return False
        if a.quads is not None and np.any(np.abs(a.quads) > self.tolerance):
            return False
        return True

    def sum(self, items) -> CofactorTriple:
        """Vectorized sum: stack same-support blocks, scatter across groups.

        Same result as the base class's pairwise fold (ring addition is
        commutative), but a batch of n same-support triples costs two
        stacked ``np.sum`` calls instead of n-1 pairs of allocations — the
        backbone of the batched update trigger.
        """
        triples = items if isinstance(items, list) else list(items)
        if not triples:
            return self._zero
        if len(triples) == 1:
            return triples[0]
        count = 0.0
        groups: Dict[Tuple[int, ...], list] = {}
        for triple in triples:
            count += triple.count
            if triple.support:
                groups.setdefault(triple.support, []).append(triple)
        make = CofactorTriple._make
        if not groups:
            return make(self.degree, count, None, None, ())
        partials = []
        for support, members in groups.items():
            if len(members) == 1:
                partials.append((support, members[0].sums, members[0].quads))
            else:
                partials.append((
                    support,
                    np.sum([t.sums for t in members], axis=0),
                    np.sum([t.quads for t in members], axis=0),
                ))
        if len(partials) == 1:
            # Sharing the group's arrays is safe: triples never mutate
            # their blocks, whatever triple they end up wrapped in.
            support, sums, quads = partials[0]
            return make(self.degree, count, sums, quads, support)
        union_set: set = set()
        for support, _, _ in partials:
            union_set |= set(support)
        union = tuple(sorted(union_set))
        k = len(union)
        total_sums = np.zeros(k)
        total_flat = np.zeros(k * k)
        for support, sums, quads in partials:
            positions, flat = _embed_maps(support, union)
            total_sums[positions] += sums
            total_flat[flat] += quads.ravel()
        return make(
            self.degree, count, total_sums, total_flat.reshape(k, k), union
        )

    def from_int(self, n: int) -> CofactorTriple:
        return CofactorTriple(self.degree, float(n))

    def kernel_ops(self) -> "CofactorKernelOps":
        ops = getattr(self, "_kernel_ops", None)
        if ops is None:
            ops = CofactorKernelOps(self)
            self._kernel_ops = ops
        return ops

    def lift(self, index: int) -> Callable[[object], CofactorTriple]:
        """The lifting function ``g_{X_j}`` of Section 6.2 for variable ``j``.

        Maps a value ``x`` to ``(1, s, Q)`` with ``s[j] = x`` and
        ``Q[j, j] = x²`` — stored as single-variable blocks.
        """
        if not 0 <= index < self.degree:
            raise ValueError(f"variable index {index} out of range")
        support = (index,)

        degree = self.degree
        make = CofactorTriple._make
        #: Lifted triples memoized per value: streams revisit domain values
        #: constantly, and lifted triples (like all triples) are immutable.
        #: Bounded so continuous features (mostly-distinct floats) cannot
        #: grow it without limit — on overflow the memo simply resets.
        memo: Dict[object, CofactorTriple] = {}
        memo_cap = 1 << 16

        def _lift(value: object) -> CofactorTriple:
            triple = memo.get(value)
            if triple is None:
                x = float(value)  # type: ignore[arg-type]
                triple = make(
                    degree,
                    1.0,
                    np.array([x]),
                    np.array([[x * x]]),
                    support,
                )
                if len(memo) >= memo_cap:
                    memo.clear()
                memo[value] = triple
            return triple

        #: Tag for the kernel backend: a whole column of lifted values
        #: packs directly from the raw floats (no per-row triples) — see
        #: :meth:`CofactorKernelOps.pack_lift`.
        _lift._kernel_lift = ("cofactor", index)
        return _lift


# ----------------------------------------------------------------------
# Array pack/unpack hooks (the NumPy kernel backend)
# ----------------------------------------------------------------------


class CofactorKernelOps:
    """Batched triple arithmetic for the kernel backend.

    A column of n same-support triples packs into ``(counts (n,), sums
    (n, k), quads (n, k, k), support)`` — the structure-of-arrays twin of
    :class:`CofactorTriple`.  The ring product of two packed columns is
    the vectorized Definition 6.2 formula (cross terms scattered through
    the cached flat merge maps, exactly like the scalar :meth:`mul`), and
    the per-output-key fold is one sort + ``np.add.reduceat`` pass over
    the stacked blocks — n ring operations collapse into a handful of
    array expressions.

    Mixed-support columns (rare: payloads at one tree node share their
    support by construction, since support = the variables lifted below)
    return ``None`` from :meth:`pack`, signalling the kernel program to
    fall back to the scalar ring fold for that batch — a correctness
    escape hatch, not a soundness condition.
    """

    __slots__ = ("ring", "degree")

    vectorizes_triggers = True

    def __init__(self, ring: "CofactorRing"):
        self.ring = ring
        self.degree = ring.degree

    # -- packing -------------------------------------------------------

    def pack(self, column, n: int):
        """Stack a payload column; ``None`` when supports are mixed."""
        first = column[0].support
        for triple in column:
            if triple.support != first:
                return None
        counts = np.fromiter(
            (triple.count for triple in column), dtype=float, count=n
        )
        if not first:
            return (counts, None, None, ())
        sums = np.array([triple.sums for triple in column])
        quads = np.array([triple.quads for triple in column])
        return (counts, sums, quads, first)

    def pack_lift(self, lift_fn, values, n: int):
        """Pack a lifted column straight from the raw values.

        ``ring.lift(j)`` maps ``x`` to ``(1, s[j]=x, Q[jj]=x²)``, so a
        whole column of lift results is ``(ones, x, x²)`` on support
        ``(j,)`` — no per-row triple construction.  Returns ``None`` for
        lift functions this ring did not produce (custom liftings take
        the generic per-row path).
        """
        tag = getattr(lift_fn, "_kernel_lift", None)
        if tag is None or tag[0] != "cofactor":
            return None
        x = np.fromiter((float(v) for v in values), dtype=float, count=n)
        return (
            np.ones(n, dtype=float),
            x[:, None],
            (x * x)[:, None, None],
            (tag[1],),
        )

    # -- the vectorized ring product -----------------------------------

    def _mul(self, a, b, n: int):
        ca, sa, qa, supa = a
        cb, sb, qb, supb = b
        count = ca * cb
        if not supb:
            if not supa:
                return (count, None, None, ())
            return (count, cb[:, None] * sa, cb[:, None, None] * qa, supa)
        if not supa:
            return (count, ca[:, None] * sb, ca[:, None, None] * qb, supb)
        if supa == supb:
            cross = sa[:, :, None] * sb[:, None, :]
            return (
                count,
                cb[:, None] * sa + ca[:, None] * sb,
                cb[:, None, None] * qa + ca[:, None, None] * qb
                + cross + cross.transpose(0, 2, 1),
                supa,
            )
        union, k, pos_a, pos_b, flat_aa, flat_bb, flat_ab, flat_ba = (
            _merge_maps(supa, supb)
        )
        sums = np.zeros((n, k))
        sums[:, pos_a] = cb[:, None] * sa
        sums[:, pos_b] += ca[:, None] * sb
        flat = np.zeros((n, k * k))
        flat[:, flat_aa] = cb[:, None] * qa.reshape(n, -1)
        flat[:, flat_bb] += ca[:, None] * qb.reshape(n, -1)
        cross = sa[:, :, None] * sb[:, None, :]
        flat[:, flat_ab] += cross.reshape(n, -1)
        flat[:, flat_ba] += cross.transpose(0, 2, 1).reshape(n, -1)
        return (count, sums, flat.reshape(n, k, k), union)

    # -- grouped reduction ---------------------------------------------

    def reduce(self, packed, group_ids, n_groups: int):
        """Fold rows per output key: counts via ``np.bincount``, blocks by
        sorting on the group id and one ``np.add.reduceat`` per block kind.
        Every group id in ``range(n_groups)`` must occur (the kernel
        program assigns ids first-seen), so the reduceat segments line up
        with the group numbering."""
        counts, sums, quads, support = packed
        red_counts = np.bincount(group_ids, weights=counts, minlength=n_groups)
        if sums is None:
            return (red_counts, None, None, ())
        n = len(group_ids)
        order = np.argsort(group_ids, kind="stable")
        sorted_ids = group_ids[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_ids[1:] != sorted_ids[:-1]]
        )
        red_sums = np.add.reduceat(sums[order], starts, axis=0)
        red_quads = np.add.reduceat(
            quads.reshape(n, -1)[order], starts, axis=0
        )
        k = len(support)
        return (red_counts, red_sums, red_quads.reshape(-1, k, k), support)

    def unpack(self, reduced):
        """Per-group :class:`CofactorTriple` views over the reduced blocks
        (safe to share: triples never mutate their blocks)."""
        counts, sums, quads, support = reduced
        make = CofactorTriple._make
        degree = self.degree
        if sums is None:
            return [
                make(degree, count, None, None, ()) for count in counts
            ]
        return [
            make(degree, counts[g], sums[g], quads[g], support)
            for g in range(len(counts))
        ]

    # -- packed-column protocol (zero-pack kernels + columnar storage) --

    def payload_layout(self, payload):
        return payload.support

    def mul_packed(self, a, b, n: int):
        return self._mul(a, b, n)

    def _embed(self, packed, union):
        """Re-express a packed column on a superset support (zero-filled)."""
        counts, sums, quads, support = packed
        if support == union:
            return packed
        n = len(counts)
        k = len(union)
        out_sums = np.zeros((n, k))
        out_flat = np.zeros((n, k * k))
        if support:
            positions, flat = _embed_maps(support, union)
            out_sums[:, positions] = sums
            out_flat[:, flat] = quads.reshape(n, -1)
        return (counts, out_sums, out_flat.reshape(n, k, k), union)

    def add_packed(self, a, b):
        if a[3] != b[3]:
            union = tuple(sorted(set(a[3]) | set(b[3])))
            a = self._embed(a, union)
            b = self._embed(b, union)
        counts = a[0] + b[0]
        if a[1] is None:
            return (counts, None, None, ())
        return (counts, a[1] + b[1], a[2] + b[2], a[3])

    def neg_packed(self, a):
        counts, sums, quads, support = a
        if sums is None:
            return (-counts, None, None, ())
        return (-counts, -sums, -quads, support)

    def zero_mask(self, packed):
        counts, sums, quads, _ = packed
        tolerance = self.ring.tolerance
        mask = np.abs(counts) <= tolerance
        if sums is not None:
            n = len(counts)
            mask = mask & (np.abs(sums) <= tolerance).all(axis=1)
            mask = mask & (
                np.abs(quads.reshape(n, -1)) <= tolerance
            ).all(axis=1)
        return mask

    # -- store hooks (preallocated blocks, in-place row updates) --------

    def alloc(self, cap: int, layout=()):
        support = tuple(layout)
        if not support:
            return (np.zeros(cap), None, None, ())
        k = len(support)
        return (np.zeros(cap), np.zeros((cap, k)), np.zeros((cap, k, k)), support)

    def grow(self, block, used: int, cap: int):
        counts, sums, quads, support = block
        out = self.alloc(cap, support)
        out[0][:used] = counts[:used]
        if support:
            out[1][:used] = sums[:used]
            out[2][:used] = quads[:used]
        return out

    def take(self, block, rows):
        counts, sums, quads, support = block
        if sums is None:
            return (counts[rows], None, None, ())
        return (counts[rows], sums[rows], quads[rows], support)

    def _unify_block(self, block, packed):
        """Widen ``block`` and/or embed ``packed`` onto a shared support."""
        support = block[3]
        if packed[3] != support:
            union = tuple(sorted(set(support) | set(packed[3])))
            if union != support:
                cap = len(block[0])
                widened = self.alloc(cap, union)
                widened[0][:] = block[0]
                if support:
                    positions, flat = _embed_maps(support, union)
                    widened[1][:, positions] = block[1]
                    widened[2].reshape(cap, -1)[:, flat] = block[2].reshape(
                        cap, -1
                    )
                block = widened
            packed = self._embed(packed, union)
        return block, packed

    def put(self, block, rows, packed):
        block, packed = self._unify_block(block, packed)
        block[0][rows] = packed[0]
        if block[3]:
            block[1][rows] = packed[1]
            block[2][rows] = packed[2]
        return block

    def add_at(self, block, rows, packed):
        block, packed = self._unify_block(block, packed)
        np.add.at(block[0], rows, packed[0])
        if block[3]:
            np.add.at(block[1], rows, packed[1])
            np.add.at(block[2], rows, packed[2])
        return block

    def zero_rows(self, block, rows):
        block[0][rows] = 0.0
        if block[3]:
            block[1][rows] = 0.0
            block[2][rows] = 0.0
        return block
