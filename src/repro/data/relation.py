"""Relations over rings: finitely supported maps from keys to payloads.

This is the paper's data model (Section 2): a relation ``R`` over schema
``S`` and ring ``D`` is a function ``Dom(S) → D`` that is non-zero on
finitely many tuples.  Keys with payload ``0`` are eagerly dropped, so
``t ∈ R`` iff ``R[t] ≠ 0`` and ``|R|`` matches the paper's size notion.

The three query-language operators are methods here:

* ``⊎`` (union):           :meth:`Relation.union` — pointwise payload ``+``;
* ``⊗`` (natural join):    :meth:`Relation.join` — payload ``*`` on matches;
* ``⊕_X`` (marginalization): :meth:`Relation.marginalize` — group by the
  remaining attributes, multiplying payloads by the lifting function of the
  marginalized variable.

The ring is duck-typed (any object with ``zero/one/add/mul/neg/is_zero``);
this module deliberately avoids importing :mod:`repro.rings` so that ring
implementations (e.g. the relational data ring) can themselves build nested
relations without an import cycle.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain, compress, count, repeat
from operator import add, itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.data.schema import (
    SchemaError,
    as_schema,
    key_projector,
    merge_schemas,
    schema_positions,
)

__all__ = [
    "Relation", "DeferredRelation", "BlockRelation", "float_column_ops",
    "MIN_PACKED_ROWS", "MIN_PACKED_SUM_ROWS", "MIN_BLOCK_MERGE_ROWS",
]

Payload = Any
Key = Tuple[Any, ...]
LiftFn = Callable[[Any], Payload]

#: Below this many input rows (both sides together) the scalar loop of
#: :meth:`Relation.join_project` beats the packed evaluation of a join
#: that fans out, whose ≈ 50 NumPy calls cost a fixed ≈ 40 µs; measured
#: on the ℝ matrix-chain constructor (docs/architecture.md §4).
MIN_PACKED_ROWS = 32

#: The same crossover for :meth:`Relation.marginalize`, which has no match
#: pairs to vectorize — only the per-row lifting and grouping.
MIN_PACKED_SUM_ROWS = 512

#: Below this many rows a listing delta is written into a
#: :class:`BlockRelation` row by row: packing it and absorbing the block
#: costs more (docs/architecture.md §3).
MIN_BLOCK_MERGE_ROWS = 12


class Relation:
    """A finitely supported map from keys (tuples over a schema) to payloads."""

    __slots__ = ("name", "schema", "ring", "_data", "_indexes")

    #: ``(key table, packed payloads)`` when the contents exist in packed
    #: form (see :class:`DeferredRelation`); plain relations have none.
    _packed_form = None

    def __init__(
        self,
        name: str,
        schema: Iterable[str],
        ring,
        data: Optional[Mapping[Key, Payload]] = None,
    ):
        self.name = name
        self.schema = as_schema(schema)
        self.ring = ring
        self._data: Dict[Key, Payload] = {}
        #: Secondary indexes: attrs → (projector, {subkey → {key → payload}}).
        #: Registered by the IVM engine on materialized views so delta joins
        #: probe rather than scan (the paper's multi-indexed maps).
        self._indexes: Dict[Tuple[str, ...], tuple] = {}
        if data:
            width = len(self.schema)
            for key, payload in data.items():
                key = tuple(key)
                if len(key) != width:
                    raise SchemaError(
                        f"key {key} does not match schema {self.schema}"
                    )
                if not ring.is_zero(payload):
                    self._data[key] = payload

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_tuples(
        cls,
        name: str,
        schema: Iterable[str],
        ring,
        tuples: Iterable[Sequence[Any]],
        payload: Optional[Payload] = None,
    ) -> "Relation":
        """Build a relation mapping each tuple to ``payload`` (default ``1``).

        Repeated tuples accumulate (payloads add up), matching multiset
        semantics under the ℤ ring.  Distinct tuples share ``payload``:
        the map is built in one pass, with one zero test.
        """
        rel = cls(name, schema, ring)
        value = ring.one if payload is None else payload
        if ring.is_zero(value):
            return rel
        rows = tuples if tuples.__class__ is list else list(tuples)
        if len(rows) == 1:
            rel._data = {tuple(rows[0]): value}
            return rel
        data = dict.fromkeys(map(tuple, rows), value)
        if len(data) == len(rows):
            rel._data = data
        else:
            for row in rows:
                rel.add(row, value)
        return rel

    def copy(self, name: Optional[str] = None) -> "Relation":
        """A shallow copy (payloads are shared; they are treated immutably).

        Registered secondary indexes are *not* copied: the copy starts
        index-free, and callers that probe it must :meth:`register_index`
        what they need (the engine registers indexes per stored view, and
        copies are used as transient deltas that are only scanned).
        """
        out = Relation(name or self.name, self.schema, self.ring)
        out._data = dict(self._data)
        return out

    # ------------------------------------------------------------------
    # Lookup and mutation
    # ------------------------------------------------------------------

    def payload(self, key: Key) -> Payload:
        """``R[t]``: the payload of ``key`` (ring zero when absent)."""
        return self._data.get(tuple(key), self.ring.zero)

    def __getitem__(self, key: Key) -> Payload:
        return self.payload(key)

    def __contains__(self, key: Key) -> bool:
        return tuple(key) in self._data

    def add(self, key: Key, payload: Payload) -> None:
        """Accumulate ``payload`` onto ``key`` in place, dropping zeros.

        This is the single mutation primitive; maintenance (``V := V ⊎ δV``)
        and bulk loading are built on it.  Registered secondary indexes are
        kept in sync.  The key is coerced to a tuple so list/other-sequence
        keys land on the same entry that :meth:`payload` and
        ``__contains__`` (which coerce too) will find.
        """
        ring = self.ring
        if ring.is_zero(payload):
            return
        key = tuple(key)
        data = self._data
        current = data.get(key)
        if current is None:
            data[key] = payload
            if self._indexes:
                self._index_set(key, payload, payload)
            return
        merged = ring.add(current, payload)
        if ring.is_zero(merged):
            del data[key]
            if self._indexes:
                self._index_drop(key, ring.neg(current))
        else:
            data[key] = merged
            if self._indexes:
                self._index_set(key, merged, payload)

    # ------------------------------------------------------------------
    # Secondary indexes (multi-indexed maps, as in DBToaster's runtime)
    # ------------------------------------------------------------------

    def register_index(self, attrs: Sequence[str]) -> None:
        """Maintain a secondary index on ``attrs`` from now on.

        An index maps each projection subkey to the bucket of (key, payload)
        entries sharing it, letting delta joins probe this relation in time
        proportional to the matches instead of scanning it.  Each bucket
        also maintains the ring sum of its payloads, so group-aware joins
        read one value instead of the whole bucket.
        """
        attrs = tuple(attrs)
        if attrs == self.schema or attrs in self._indexes:
            return  # the primary map already serves full-key lookups
        projector = key_projector(self.schema, attrs)
        buckets: Dict[tuple, Dict[Key, Payload]] = {}
        sums: Dict[tuple, Payload] = {}
        ring = self.ring
        for key, payload in self._data.items():
            subkey = projector(key)
            buckets.setdefault(subkey, {})[key] = payload
            current = sums.get(subkey)
            sums[subkey] = payload if current is None else ring.add(current, payload)
        self._indexes[attrs] = (projector, buckets, sums)

    def lookup(self, attrs: Tuple[str, ...], subkey: tuple):
        """Entries whose projection on ``attrs`` equals ``subkey``.

        Falls back to the primary map for full-schema lookups; raises if no
        index was registered for a proper subset of attributes (the engine
        registers every index it needs up front).
        """
        if attrs == self.schema:
            payload = self._data.get(subkey)
            return ((subkey, payload),) if payload is not None else ()
        if not attrs:
            return self._data.items()
        entry = self._indexes.get(attrs)
        if entry is None:
            raise KeyError(
                f"relation {self.name!r} has no index on {attrs}"
            )
        bucket = entry[1].get(subkey)
        return bucket.items() if bucket else ()

    def _index_set(self, key: Key, payload: Payload, delta: Payload) -> None:
        ring = self.ring
        for projector, buckets, sums in self._indexes.values():
            subkey = projector(key)
            buckets.setdefault(subkey, {})[key] = payload
            current = sums.get(subkey)
            sums[subkey] = delta if current is None else ring.add(current, delta)

    def _index_drop(self, key: Key, delta: Payload) -> None:
        ring = self.ring
        for projector, buckets, sums in self._indexes.values():
            subkey = projector(key)
            bucket = buckets.get(subkey)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del buckets[subkey]
                    sums.pop(subkey, None)
                    continue
            current = sums.get(subkey)
            if current is not None:
                # The bucket is still non-empty; keep the (possibly zero)
                # cancelled sum so lookups stay consistent.
                sums[subkey] = ring.add(current, delta)

    def absorb(self, delta: "Relation") -> None:
        """In-place union: ``self := self ⊎ delta`` (schemas must agree)."""
        self.absorb_bulk(delta)

    def absorb_bulk(self, delta: "Relation") -> None:
        """Bulk in-place union: single-pass dict merge + one index sweep.

        Semantically identical to per-tuple :meth:`add` over ``delta``, but
        the ring operations are bound to locals, the primary map is merged
        in one pass, and each registered secondary index is maintained in
        one sweep over the effective updates instead of a per-tuple
        ``_index_set``/``_index_drop`` round-trip.
        """
        if delta.schema != self.schema:
            raise SchemaError(
                f"cannot absorb {delta.schema} into {self.schema}"
            )
        self._merge(delta)

    def _merge(self, delta: "Relation") -> None:
        """The merge of :meth:`absorb_bulk`, schemas checked."""
        if (
            delta._packed_form is not None
            and not self._indexes
            and float_column_ops(self.ring) is not None
        ):
            self._absorb_packed(*delta._packed_form)
            return
        ring = self.ring
        radd = ring.add
        rzero = ring.is_zero
        data = self._data
        if not self._indexes:
            # Delta payloads are never zero (the relation invariant), so the
            # merge only needs the cancellation test on existing keys.
            for key, payload in delta._data.items():
                current = data.get(key)
                if current is None:
                    data[key] = payload
                else:
                    merged = radd(current, payload)
                    if rzero(merged):
                        del data[key]
                    else:
                        data[key] = merged
            return
        rneg = ring.neg
        #: (key, stored payload after the merge or None if deleted, applied
        #: payload delta) — replayed once per index below.
        updates: list = []
        for key, payload in delta._data.items():
            current = data.get(key)
            if current is None:
                data[key] = payload
                updates.append((key, payload, payload))
            else:
                merged = radd(current, payload)
                if rzero(merged):
                    del data[key]
                    updates.append((key, None, rneg(current)))
                else:
                    data[key] = merged
                    updates.append((key, merged, payload))
        for projector, buckets, sums in self._indexes.values():
            for key, stored, applied in updates:
                subkey = projector(key)
                if stored is None:
                    bucket = buckets.get(subkey)
                    if bucket is not None:
                        bucket.pop(key, None)
                        if not bucket:
                            del buckets[subkey]
                            sums.pop(subkey, None)
                            continue
                    current = sums.get(subkey)
                    if current is not None:
                        # Keep the (possibly zero) cancelled sum while the
                        # bucket is non-empty, as _index_drop does.
                        sums[subkey] = radd(current, applied)
                else:
                    bucket = buckets.get(subkey)
                    if bucket is None:
                        buckets[subkey] = {key: stored}
                    else:
                        bucket[key] = stored
                    current = sums.get(subkey)
                    sums[subkey] = (
                        applied if current is None else radd(current, applied)
                    )

    def _absorb_packed(self, keys, column):
        """:meth:`absorb_bulk` of distinct ``keys`` with their packed
        payload ``column`` (explicit zeros allowed) into an index-free
        map, through the ring's array hooks: one gather, add, zero mask
        (the ring's ``is_zero``) and ``dict.update``.  Returns the merged
        column — fresh, aligned with ``keys`` — when every key is stored
        afterwards, ``None`` when some cancelled."""
        kops = self.ring.kernel_ops()
        data = self._data
        stored = list(map(data.get, keys, repeat(self.ring.zero)))
        merged = kops.add_packed(kops.pack(stored, len(keys)), column)
        return merged if _fold_packed(data, keys, merged, kops) else None

    def clear(self) -> None:
        """Remove all keys (registered indexes are emptied too)."""
        self._data.clear()
        for _, buckets, sums in self._indexes.values():
            buckets.clear()
            sums.clear()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def items(self) -> Iterator[Tuple[Key, Payload]]:
        return iter(self._data.items())

    def keys(self) -> Iterator[Key]:
        return iter(self._data.keys())

    def __iter__(self) -> Iterator[Key]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    @property
    def is_empty(self) -> bool:
        return not self._data

    def total(self) -> Payload:
        """Sum of all payloads (the full aggregate with no group-by)."""
        return self.ring.sum(self._data.values())

    def same_as(self, other: "Relation") -> bool:
        """Ring-aware equality: same schema, same keys, equal payloads."""
        if self.schema != other.schema or len(self) != len(other):
            return False
        ring = self.ring
        for key, payload in self._data.items():
            if key not in other._data:
                return False
            if not ring.eq(payload, other._data[key]):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.name}{list(self.schema)}, {len(self)} keys)"

    def pretty(self, limit: int = 20) -> str:
        """A small table rendering, handy in examples and error messages."""
        header = f"{self.name}[{', '.join(self.schema)}]"
        lines = [header]
        for i, (key, payload) in enumerate(sorted(self._data.items(), key=repr)):
            if i >= limit:
                lines.append(f"  ... ({len(self) - limit} more)")
                break
            lines.append(f"  {key} -> {payload}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Ring-level operators (Section 2)
    # ------------------------------------------------------------------

    def union(self, other: "Relation", name: Optional[str] = None) -> "Relation":
        """``self ⊎ other``: pointwise payload addition."""
        if other.schema != self.schema:
            raise SchemaError(
                f"union over different schemas: {self.schema} vs {other.schema}"
            )
        out = self.copy(name or f"({self.name}+{other.name})")
        out.absorb_bulk(other)
        return out

    def negate(self, name: Optional[str] = None) -> "Relation":
        """The relation mapping each key to the additive inverse payload."""
        out = Relation(name or f"(-{self.name})", self.schema, self.ring)
        neg = self.ring.neg
        out._data = {key: neg(payload) for key, payload in self._data.items()}
        return out

    def join(self, other: "Relation", name: Optional[str] = None) -> "Relation":
        """``self ⊗ other``: natural join with payload multiplication.

        Payload order is ``self * other`` (left to right), which matters for
        non-commutative rings such as matrix payloads.
        """
        return self.join_project(
            other, (), None, name or f"({self.name}*{other.name})"
        )

    def _drop_zeros(self, data: Dict[Key, Payload]) -> Dict[Key, Payload]:
        """Remove ring-zero payloads (the deferred form of ``add``'s test)."""
        is_zero = self.ring.is_zero
        return {k: v for k, v in data.items() if not is_zero(v)}

    def join_project(
        self,
        other: "Relation",
        drop: Sequence[str],
        lifting: Optional[Mapping[str, LiftFn]] = None,
        name: Optional[str] = None,
    ) -> "Relation":
        """``⊕_drop (self ⊗ other)``: join with on-the-fly marginalization.

        Semantically ``self.join(other).marginalize(drop, lifting)``, but the
        full join is never materialized: each match is lifted and accumulated
        straight onto its reduced key (the fused form of Section 5's
        "marginalization pushed past joins").  With ``drop`` empty this is a
        plain join — :meth:`join` delegates here; with variables to drop it
        is the last join of every view
        :func:`~repro.core.view_tree.compute_view` evaluates.  Output
        tuples accumulate in a plain dict (the output is fresh and
        index-free); zero payloads are dropped in one final sweep.

        Over a ring whose payloads pack as one float64
        (:func:`float_column_ops`) a fused join that can fan out — each
        side has an attribute outside the common sub-key, so matches can
        outnumber input rows — of :data:`MIN_PACKED_ROWS` input rows or
        more, neither side bringing a ready index on the common
        attributes, runs on arrays instead (:func:`_packed_join`): the
        same products in the same order, summed by ``np.bincount`` rather
        than in probe order.
        """
        merged = merge_schemas(self.schema, other.schema)
        drop_set = set(drop)
        if len(drop_set) != len(tuple(drop)) or not drop_set <= set(merged):
            raise SchemaError(
                f"cannot drop {tuple(drop)} from join schema {merged}"
            )
        out_schema = tuple(a for a in merged if a not in drop_set)
        out = Relation(
            name or f"sum({self.name}*{other.name})", out_schema, self.ring
        )
        ring = self.ring
        lifts = [
            (v, lift) for v in drop
            if lifting and (lift := lifting.get(v)) is not None
        ]
        common = tuple(a for a in self.schema if a in set(other.schema))
        if (
            drop_set
            and 0 < len(common) < min(len(self.schema), len(other.schema))
            and len(self) + len(other) >= MIN_PACKED_ROWS
            and common not in self._indexes
            and common not in other._indexes
        ):
            kops = float_column_ops(ring)
            if kops is not None:
                out._data = _packed_join(kops, self, other, common, lifts, out_schema)
                return out
        mul = ring.mul
        radd = ring.add
        # With nothing to drop, the merged key IS the output key; skip the
        # per-match projector call on that (hot, plain-join) path.
        identity = not drop_set
        keep = key_projector(merged, out_schema)
        lifted = [(merged.index(v), lift) for v, lift in lifts]
        data_out: Dict[Key, Payload] = {}

        if not common:
            # Cartesian product; delta optimization (Section 5) avoids
            # materializing these except at small final results.
            for lkey, lpay in self._data.items():
                for rkey, rpay in other._data.items():
                    mkey = lkey + rkey
                    value = mul(lpay, rpay)
                    for position, lift in lifted:
                        value = mul(value, lift(mkey[position]))
                    group = mkey if identity else keep(mkey)
                    current = data_out.get(group)
                    data_out[group] = (
                        value if current is None else radd(current, value)
                    )
            out._data = self._drop_zeros(data_out)
            return out

        # Hash join: index the smaller side on the common attributes — but a
        # side with a registered secondary index on exactly the common
        # attributes is reused as the build side for free.
        self_entry = self._indexes.get(common)
        other_entry = other._indexes.get(common)
        if self_entry is not None and other_entry is None:
            build, probe, index = self, other, self_entry[1]
        elif other_entry is not None and self_entry is None:
            build, probe, index = other, self, other_entry[1]
        else:
            if len(self) <= len(other):
                build, probe = self, other
                entry = self_entry
            else:
                build, probe = other, self
                entry = other_entry
            if entry is not None:
                index = entry[1]
            else:
                build_common = key_projector(build.schema, common)
                index = {}
                for key, payload in build._data.items():
                    index.setdefault(build_common(key), {})[key] = payload
        probe_common = key_projector(probe.schema, common)
        left_is_build = build is self
        right_residual = tuple(a for a in other.schema if a not in set(self.schema))
        left_proj = key_projector(self.schema, self.schema)
        right_proj = key_projector(other.schema, right_residual)
        for pkey, ppay in probe._data.items():
            matches = index.get(probe_common(pkey))
            if not matches:
                continue
            for bkey, bpay in matches.items():
                if left_is_build:
                    lkey, lpay, rkey, rpay = bkey, bpay, pkey, ppay
                else:
                    lkey, lpay, rkey, rpay = pkey, ppay, bkey, bpay
                mkey = left_proj(lkey) + right_proj(rkey)
                value = mul(lpay, rpay)
                for position, lift in lifted:
                    value = mul(value, lift(mkey[position]))
                group = mkey if identity else keep(mkey)
                current = data_out.get(group)
                data_out[group] = (
                    value if current is None else radd(current, value)
                )
        out._data = self._drop_zeros(data_out)
        return out

    def marginalize(
        self,
        variables: Sequence[str],
        lifting: Optional[Mapping[str, LiftFn]] = None,
        name: Optional[str] = None,
    ) -> "Relation":
        """``⊕_{X1} ... ⊕_{Xk} self``: aggregate the given variables away.

        Each marginalized value is lifted into the ring (default: constant
        ``1``) and multiplied onto the payload, innermost variable first, so
        ``marginalize(["X", "Y"])`` equals ``⊕_Y (⊕_X self)``.  From
        :data:`MIN_PACKED_SUM_ROWS` rows, over a ring whose payloads pack
        as one float64, the rows are lifted, grouped and summed as
        columns (:func:`_packed_sum`, the tail of the packed join).
        """
        if not variables:
            return self.copy(name or self.name)
        var_set = set(variables)
        if len(var_set) != len(variables):
            raise SchemaError(f"duplicate variables to marginalize: {variables}")
        remaining = tuple(a for a in self.schema if a not in var_set)
        if len(remaining) + len(variables) != len(self.schema):
            raise SchemaError(
                f"variables {variables} not all in schema {self.schema}"
            )
        out = Relation(name or f"sum_{''.join(variables)}({self.name})", remaining, self.ring)
        # Lifts are applied in the order given (innermost-first semantics).
        lifts = [
            (v, lift) for v in variables
            if lifting and (lift := lifting.get(v)) is not None
        ]
        if len(self) >= MIN_PACKED_SUM_ROWS:
            kops = float_column_ops(self.ring)
            if kops is not None:
                data = self._data
                column = kops.pack(list(data.values()), len(data))
                out._data = _packed_sum(
                    kops, column, [(self.schema, list(data), None)], lifts, remaining
                )
                return out
        keep = key_projector(self.schema, remaining)
        mul = self.ring.mul
        radd = self.ring.add
        lifted = [(self.schema.index(v), lift) for v, lift in lifts]
        data_out: Dict[Key, Payload] = {}
        for key, payload in self._data.items():
            for position, lift in lifted:
                payload = mul(payload, lift(key[position]))
            group = keep(key)
            current = data_out.get(group)
            data_out[group] = (
                payload if current is None else radd(current, payload)
            )
        out._data = self._drop_zeros(data_out)
        return out

    def group_by(
        self,
        attrs: Sequence[str],
        lifting: Optional[Mapping[str, LiftFn]] = None,
        name: Optional[str] = None,
    ) -> "Relation":
        """Marginalize every variable *not* in ``attrs`` (schema order)."""
        keep = set(attrs)
        bound = [a for a in self.schema if a not in keep]
        out = self.marginalize(bound, lifting, name)
        if tuple(attrs) != out.schema:
            out = out.reorder(attrs)
        return out

    def reorder(self, attrs: Sequence[str], name: Optional[str] = None) -> "Relation":
        """Reorder the schema columns to ``attrs`` (a permutation)."""
        if set(attrs) != set(self.schema) or len(attrs) != len(self.schema):
            raise SchemaError(f"{attrs} is not a permutation of {self.schema}")
        data = self._data
        positions = schema_positions(self.schema, attrs)
        out = Relation(name or self.name, attrs, self.ring)
        out._data = dict(zip(_projected(list(data), positions), data.values()))
        return out

    def partition(
        self, attr, shards: int, hasher: Callable[[Any], int]
    ) -> list:
        """Hash-partition on an attribute (or compound key) into ``shards``.

        ``attr`` is one attribute name or a sequence of names: fragment
        ``i`` holds exactly the keys whose ``attr`` value — the single
        component, or the tuple of components for a compound key —
        hashes to ``i`` (``hasher(value) % shards``), so fragments have
        pairwise-disjoint supports and their union (``⊎``) is this
        relation — the decomposition property the sharded engine's
        ring-merge relies on.  Fragments start index-free.
        """
        if shards <= 0:
            raise SchemaError("shard count must be positive")
        attrs = (attr,) if isinstance(attr, str) else tuple(attr)
        if not attrs:
            raise SchemaError("a compound partition key must not be empty")
        for name in attrs:
            if name not in self.schema:
                raise SchemaError(
                    f"cannot partition {self.name!r} on {name!r}: "
                    f"not in schema {self.schema}"
                )
        positions = [self.schema.index(name) for name in attrs]
        single = positions[0] if len(positions) == 1 else None
        datas: list = [{} for _ in range(shards)]
        for key, payload in self._data.items():
            value = (
                key[single] if single is not None
                else tuple(key[p] for p in positions)
            )
            datas[hasher(value) % shards][key] = payload
        fragments = []
        for data in datas:
            fragment = Relation(self.name, self.schema, self.ring)
            fragment._data = data
            fragments.append(fragment)
        return fragments


def float_column_ops(ring):
    """The ring's array hooks when a payload packs as one exact float64
    (ℝ), else ``None``: ℤ stays on unbounded Python ints, compound rings
    on their scalar loops and factor programs.  Duck-typed like the ring
    itself — of the hook classes only the scalar rings' carries a dtype."""
    hook = getattr(ring, "kernel_ops", None)
    kops = hook() if hook is not None else None
    return kops if getattr(kops, "dtype", None) is np.float64 else None


def _projected(keys, positions):
    """``keys`` projected onto ``positions``, as tuples, with no Python
    call per key."""
    if len(positions) == 1:
        return zip(map(itemgetter(positions[0]), keys))
    if not positions:
        return repeat((), len(keys))
    return map(itemgetter(*positions), keys)


def _encode(values, n):
    """Dictionary-encode ``n`` ``values`` in one pass: the distinct ones
    in first-seen order and, per value, its position among them."""
    first = {}  # value → the first row holding it
    rows = np.fromiter(map(first.setdefault, values, count()), np.intp, n)
    dense = np.empty(n, np.intp)
    dense[np.fromiter(first.values(), np.intp, len(first))] = np.arange(len(first))
    return list(first), dense[rows]


def _packed_join(kops, left, right, common, lifts, out_schema) -> Dict[Key, Payload]:
    """``⊕ (left ⊗ right)`` on packed columns: encode the ``common``
    sub-key of both sides, lay out the ``(left row, right row)`` index
    pair of every match (left-major; no Python loop per match), multiply
    the gathered payload columns and hand the rows to :func:`_packed_sum`.
    The index arrays live for this call only."""
    ldata, rdata = left._data, right._data
    lkeys, rkeys = list(ldata), list(rdata)
    subkeys, codes = _encode(chain(
        _projected(lkeys, schema_positions(left.schema, common)),
        _projected(rkeys, schema_positions(right.schema, common)),
    ), len(lkeys) + len(rkeys))
    lcodes, rcodes = codes[:len(lkeys)], codes[len(lkeys):]
    # Right rows sorted by code; each left row pairs with its code's run.
    order = np.argsort(rcodes, kind="stable")
    counts = np.bincount(rcodes, minlength=len(subkeys))
    matches = counts[lcodes]
    lrows = np.repeat(np.arange(len(lkeys)), matches)
    run_starts = (np.cumsum(counts) - counts)[lcodes]
    pair_starts = np.cumsum(matches) - matches
    rrows = order[np.repeat(run_starts - pair_starts, matches) + np.arange(len(lrows))]
    column = (
        kops.pack(list(ldata.values()), len(lkeys))[lrows]
        * kops.pack(list(rdata.values()), len(rkeys))[rrows]
    )
    sides = [(left.schema, lkeys, lrows), (right.schema, rkeys, rrows)]
    return _packed_sum(kops, column, sides, lifts, out_schema)


def _packed_sum(kops, column, sides, lifts, out_schema) -> Dict[Key, Payload]:
    """Lift, group and sum packed rows: the tail every packed evaluation
    shares.  ``column`` holds one payload per row; each of ``sides`` is
    ``(schema, keys, rows)`` — a relation's keys and, per row of
    ``column``, the index of the key behind it (``None``: the rows *are*
    the keys, a marginalization).  An attribute is read from the first
    side that has it.  Each of ``lifts`` (``(variable, lift)``, in
    application order) is evaluated once per key of its side — not per
    row — and multiplied in as a gathered column; rows are then summed
    per distinct ``out_schema`` key by ``kops.reduce`` and sums the ring
    holds for zero are dropped."""
    if not column.size:
        return {}
    where: Dict[str, Tuple[int, int]] = {}
    for i, (schema, _, _) in enumerate(sides):
        for position, attr in enumerate(schema):
            where.setdefault(attr, (i, position))
    for variable, lift in lifts:
        i, position = where[variable]
        _, keys, rows = sides[i]
        lifted = kops.pack(
            list(map(lift, map(itemgetter(position), keys))), len(keys)
        )
        column = column * (lifted if rows is None else lifted[rows])
    # Group id: the sides' surviving key parts as mixed-radix digits.
    groups, span, parts = 0, 1, []
    for i, (_, keys, rows) in enumerate(sides):
        kept = [where[a][1] for a in out_schema if where[a][0] == i]
        distinct, codes = _encode(_projected(keys, kept), len(keys))
        groups = groups * len(distinct) + (codes if rows is None else codes[rows])
        span *= len(distinct)
        parts.append(distinct)
    cells = None
    if span > 2 * len(column):  # sparse output: number the cells that occur
        cells, groups = np.unique(groups, return_inverse=True)
        span = len(cells)
    sums = kops.reduce(column, groups, span)
    live = np.flatnonzero(~kops.zero_mask(sums))
    cells = live if cells is None else cells[live]
    pieces = []
    for distinct in reversed(parts):
        cells, digit = np.divmod(cells, len(distinct))
        pieces.insert(0, map(distinct.__getitem__, digit.tolist()))
    keys = pieces[0] if len(pieces) == 1 else map(add, *pieces)
    return dict(zip(keys, kops.unpack(sums[live])))


def _fold_packed(data: Dict[Key, Payload], keys, column, kops) -> bool:
    """Write distinct ``keys`` with their packed payload ``column`` into
    the map ``data``: keys whose payload is the ring zero are dropped, the
    rest assigned.  True when none was dropped."""
    dead = kops.zero_mask(column)
    entries = zip(keys, kops.unpack(column))
    if dead.any():
        for key in compress(keys, dead.tolist()):
            data.pop(key, None)
        data.update(compress(entries, (~dead).tolist()))
        return False
    data.update(entries)
    return True


#: The slot descriptor behind ``Relation._data``, captured before
#: :class:`DeferredRelation` shadows it with a resolving property.
_DATA_SLOT = Relation.__dict__["_data"]


class DeferredRelation(Relation):
    """A relation whose payload map materializes lazily, on first access.

    Name, schema and ring are known up front; what is pending is one of:

    * ``resolver`` — a callable producing the map.  The deferred-delta
      facade of the pipelined shard executor: a pipelined ``apply_update``
      returns one of these immediately and ``resolver()`` (drain the
      in-flight acks, ring-merge the per-shard root deltas) runs the
      first time anything touches ``_data``.  Callers that ignore the
      return value never pay the round trip; callers that read it get
      the exact eager semantics, just later.
    * ``packed`` — the contents as ``(key table, packed payloads)`` in the
      ring's array layout (keys distinct, explicit zeros allowed; the
      relation owns the payloads): an ℝ float64 column, a cofactor
      ``(block, support)``.  This is how the array factor programs
      (:mod:`repro.core.kernels`) take factors and emit flattened deltas
      and how the array triggers emit theirs: :meth:`Relation.absorb_bulk`,
      a :class:`BlockRelation` and the programs consume ``_packed_form``
      and never build the map.

    The first access to ``_data`` — any inherited method — folds what is
    pending into the map and drops it, so a map somebody has seen (and
    may mutate) is never second-guessed by a stale column: **a set
    ``_packed_form`` is always the whole relation.**

    A stored view of this class (the ℝ root of
    :class:`~repro.core.engine.FIVMEngine`) can *re-arm*: when a packed
    delta has been absorbed eagerly, no key cancelled and its key table
    covers the whole view, the view keeps ``(table, merged column)`` as
    its packed form; further packed deltas over the same table object are
    one in-place column add that leaves the map alone — stale, unseen —
    until the next access folds the column into that same dict object
    (ring zeros deleted).  Packed readers
    (:func:`repro.datasets.matrices.relation_as_matrix`) skip the map.

    Implementation: the parent class stores payloads in a ``_data``
    slot; this subclass shadows that slot descriptor with a property
    whose getter resolves and then reads the captured slot, so every
    inherited method (``payload``, ``join``, ``same_as``, iteration, …)
    transparently forces resolution.
    """

    __slots__ = ("_resolver", "_packed_form")

    def __init__(self, name: str, schema, ring, resolver=None, packed=None):
        super().__init__(name, schema, ring)  # its _data write clears both
        self._resolver = resolver
        self._packed_form = packed

    @property
    def _data(self):
        """The payload map, resolving what is pending first."""
        packed = self._packed_form
        if packed is not None:
            self._resolver = self._packed_form = None
            _fold_packed(
                _DATA_SLOT.__get__(self), *packed, self.ring.kernel_ops()
            )
        elif self._resolver is not None:
            resolver, self._resolver = self._resolver, None
            _DATA_SLOT.__set__(self, resolver())
        return _DATA_SLOT.__get__(self)

    @_data.setter
    def _data(self, value):
        self._resolver = self._packed_form = None
        _DATA_SLOT.__set__(self, value)

    @property
    def resolved(self) -> bool:
        """True while the payload map is current: nothing is pending
        (reads force that; a stored view can leave the state again, see
        the class docstring)."""
        return self._resolver is None and self._packed_form is None

    def _columns_with(self, other: "Relation"):
        """``(key table, own column, other's column)`` when both relations
        are packed over the same key-table object, else ``None``."""
        mine, theirs = self._packed_form, other._packed_form
        if (
            mine is not None
            and theirs is not None
            and mine[0] is theirs[0]
            and other.schema == self.schema
        ):
            return mine[0], mine[1], theirs[1]
        return None

    def absorb_bulk(self, delta: "Relation") -> None:
        """:meth:`Relation.absorb_bulk`; a packed delta over the key table
        this relation is packed over adds into the column in place."""
        shared = self._columns_with(delta)
        if shared is None:
            super().absorb_bulk(delta)
        else:
            _, column, added = shared
            column += added

    def _absorb_packed(self, keys, column):
        merged = super()._absorb_packed(keys, column)
        if merged is not None and len(keys) == len(_DATA_SLOT.__get__(self)):
            self._packed_form = (keys, merged)
        return merged

    def __reduce__(self):
        """Pickle as the plain relation this resolves to (resolvers are
        closures; factors cross process boundaries in sharded engines)."""
        return Relation, (self.name, self.schema, self.ring, self._data)


# ----------------------------------------------------------------------
# Block views: payloads as rows of one float64 block
# ----------------------------------------------------------------------


class _Rows:
    """Rows of one ``(capacity, w)`` float64 block laid out for
    ``support``, handed out and taken back: free rows are zero, and a
    freed row is reused before the block grows.

    ``cache`` holds per key a copy of its row as a trigger read it
    (:meth:`read`) until the key's next write drops it: one object per
    unchanged row (the lifted-sibling memo tests identity) that pins no
    block.  Generated triggers bind the dict; it is never replaced.
    """

    __slots__ = ("kops", "support", "block", "free", "top", "cache")

    def __init__(self, kops):
        self.kops = kops
        self.cache: dict = {}
        self.reset(None, 1)

    def reset(self, support, width: int) -> None:
        self.cache.clear()
        self.support = support
        self.block = np.zeros((4, width))
        self.free: list = []
        self.top = 0

    def read(self, key, i: int):
        """A copy of row ``i``, cached under ``key`` (not cached yet)."""
        row = self.cache[key] = self.block[i].copy()
        return row

    def peek(self, key, i: int):
        """The payload in row ``i``, over its cached copy or a new one."""
        row = self.cache.get(key)
        return self.kops.payload(
            self.support, self.block[i].copy() if row is None else row)

    def alloc(self) -> int:
        if self.free:
            return self.free.pop()
        i = self.top
        if i == len(self.block):
            self._regrow(i + i // 4)
        self.top = i + 1
        return i

    def alloc_many(self, n: int) -> list:
        """``n`` row indices: freed rows first, then fresh ones."""
        free = self.free
        reused = free[len(free) - n:] if n < len(free) else free
        self.free = free[:len(free) - len(reused)]
        fresh = n - len(reused)
        if not fresh:
            return reused
        top = self.top
        if top + fresh > len(self.block):
            self._regrow(max(len(self.block) * 5 // 4, top + fresh))
        self.top = top + fresh
        return reused + list(range(top, top + fresh))

    def release(self, rows) -> None:
        """Zero and free one row (an int) or several (a list)."""
        self.block[rows] = 0.0
        if isinstance(rows, int):
            self.free.append(rows)
        else:
            self.free.extend(rows)

    def _regrow(self, capacity: int) -> None:
        block = np.zeros((capacity, self.block.shape[1]))
        block[:self.top] = self.block[:self.top]
        self.block = block

    def widen(self, support, width: int, emb) -> None:
        """Lay every row out for a wider ``support`` (old cells at
        ``emb``)."""
        self.cache.clear()
        block = np.zeros((len(self.block), width))
        block[:, emb] = self.block
        self.block = block
        self.support = support


class _BlockIndex(_Rows):
    """A secondary index of a :class:`BlockRelation`: per subkey the
    bucket of its keys (key → row of the view's block ``rows``) and, from
    the first request on (:meth:`keep_sums`), the bucket's payload sum, a
    row of this index's own block."""

    __slots__ = ("projector", "positions", "buckets", "sums", "rows")

    def __init__(self, kops, schema, attrs, rows):
        self.projector = key_projector(schema, attrs)
        self.positions = schema_positions(schema, attrs)
        self.buckets: Dict[tuple, Dict[Key, int]] = {}
        self.sums: Optional[Dict[tuple, int]] = None
        self.rows = rows
        super().__init__(kops)

    def reset(self, support, width: int) -> None:
        super().reset(support, width)
        self.buckets.clear()
        if self.sums is not None:
            self.sums.clear()

    def keep_sums(self) -> dict:
        """The bucket sums: built from the buckets at the first call, kept."""
        if self.sums is None:
            self.sums = {}
            for subkey, bucket in self.buckets.items():
                j = self.sums[subkey] = self.alloc()
                self.block[j] = np.add.reduce(self.rows.block[list(bucket.values())])
        return self.sums


class _Payloads(Mapping):
    """A read-only map ``key → payload`` over a map ``key → row``, each
    payload read through ``read(key, row)``: how code written against
    payload dicts (the reference interpreter, factor programs, snapshots)
    reads a :class:`BlockRelation`.  The generated triggers read rows
    instead.  Pickles as a plain dict."""

    __slots__ = ("_rows", "_read")

    def __init__(self, rows: dict, read):
        self._rows = rows
        self._read = read

    def __getitem__(self, key):
        return self._read(key, self._rows[key])

    def get(self, key, default=None):
        row = self._rows.get(key)
        return default if row is None else self._read(key, row)

    def __contains__(self, key) -> bool:
        return key in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __reduce__(self):
        return dict, (list(self.items()),)


class _Sums(_Payloads):
    """A block view's ``_indexes[attrs][2]``: an index's bucket sums as a
    read-only payload map, kept from the first read on."""

    __slots__ = ("_index",)

    def __init__(self, index: _BlockIndex):
        self._index, self._read = index, index.peek

    _rows = property(lambda self: self._index.keep_sums())


class _Frozen(Mapping):
    """A payload map over ``keys`` and a block of their rows (row i is
    key i's), both immutable — a snapshot of a :class:`BlockRelation`.
    Payloads are built on read, over the block's rows; pickles as a plain
    dict of payloads, equal rows as one payload."""

    __slots__ = ("_keys", "_block", "_support", "_make", "_at")

    def __init__(self, keys: tuple, block, support, make):
        self._keys = keys
        self._block = block
        self._support = support
        self._make = make
        self._at = None

    def __getitem__(self, key):
        if self._at is None:
            self._at = {k: i for i, k in enumerate(self._keys)}
        return self._make(self._support, self._block[self._at[key]])

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __reduce__(self):
        # Equal rows pickle as one shared payload, as the lifted payloads
        # a dict view shares do.
        make, support, shared = self._make, self._support, {}
        items = []
        for key, row in zip(self._keys, self._block):
            cells = row.tobytes()
            payload = shared.get(cells)
            if payload is None:
                payload = shared[cells] = make(support, row)
            items.append((key, payload))
        return dict, (items,)


class BlockRelation(Relation):
    """A stored view whose payloads are rows of one float64 block.

    The layout of the cofactor ring's views (§6.2: a view's payloads share
    one support, the variables lifted below it): ``_slot`` maps each key
    to a row of one ``(capacity, w)`` block (:class:`_Rows`), freed rows
    are reused, and each secondary index keeps buckets of keys → rows
    plus its bucket sums as rows of a small second block
    (:class:`_BlockIndex`).  The ring decides: stored views are blocks
    when its kernel ops say ``block_views``, and its hooks convert
    between rows and payloads.

    An absorb is one indexed add and one zero test over the touched rows
    (:meth:`_absorb_rows`); a packed delta (``_packed_form``, a trigger's
    output) is absorbed without any payload object.  The generated
    triggers read rows: a copy per key, cached until that key's next
    write (:class:`_Rows`), so repeated reads return the same object (the
    lifted-sibling memo validates by identity).  Public reads
    (:meth:`payload`, :meth:`items`) build payloads over the cached copy
    or a fresh one.  ``_data`` and the indexes' bucket and sum maps are
    read-only payload maps over the rows (:class:`_Payloads`) for code
    written against dicts; writes go through :meth:`add` and
    :meth:`absorb_bulk`.  A payload whose support is not the view's
    widens the block to the union of the two; ``support`` lays out an
    empty view ahead of the first (the engine plans it, and re-plans
    through :meth:`relayout`).  :meth:`clear` keeps the layout.
    """

    __slots__ = ("_kops", "_slot", "_store", "_blocks", "_view")

    def __init__(self, name: str, schema: Iterable[str], ring, support=None):
        self.name = name
        self.schema = as_schema(schema)
        self.ring = ring
        self._kops = ring.kernel_ops()
        self._slot: Dict[Key, int] = {}
        self._store = _Rows(self._kops)
        if support is not None:
            self._store.reset(*self._kops.widen((), support)[:2])
        self._indexes: Dict[Tuple[str, ...], tuple] = {}
        self._blocks: Dict[Tuple[str, ...], _BlockIndex] = {}
        self._view = _Payloads(self._slot, self._store.peek)

    @property
    def _data(self):
        """The contents as a read-only payload map."""
        return self._view

    @_data.setter
    def _data(self, value):
        self.clear()
        loaded = Relation(self.name, self.schema, self.ring)
        loaded._data = dict(value)
        self.absorb_bulk(loaded)

    def __reduce__(self):
        return Relation, (self.name, self.schema, self.ring, dict(self.items()))

    def frozen(self) -> Mapping:
        """The contents as of now, as a read-only payload map that the
        view's later writes do not change: the key table and the rows,
        copied compactly (:class:`_Frozen`)."""
        store = self._store
        return _Frozen(
            tuple(self._slot), store.block[list(self._slot.values())],
            store.support, self._kops.payload,
        )

    # -- reads ---------------------------------------------------------

    def payload(self, key: Key) -> Payload:
        key = tuple(key)
        i = self._slot.get(key)
        return self.ring.zero if i is None else self._store.peek(key, i)

    def __contains__(self, key: Key) -> bool:
        return tuple(key) in self._slot

    def items(self) -> Iterator[Tuple[Key, Payload]]:
        peek = self._store.peek
        return ((key, peek(key, i)) for key, i in self._slot.items())

    def keys(self) -> Iterator[Key]:
        return iter(self._slot)

    def __len__(self) -> int:
        return len(self._slot)

    def total(self) -> Payload:
        if not self._slot:
            return self.ring.zero
        store = self._store
        rows = store.block[list(self._slot.values())]
        return self._kops.payload(store.support, np.add.reduce(rows))

    def lookup(self, attrs: Tuple[str, ...], subkey: tuple):
        if attrs == self.schema:
            i = self._slot.get(subkey)
            return ((subkey, self._store.peek(subkey, i)),) if i is not None else ()
        if not attrs:
            return self.items()
        bucket = self._index(attrs).buckets.get(subkey)
        peek = self._store.peek
        return [(key, peek(key, i)) for key, i in bucket.items()] if bucket else ()

    def _index(self, attrs) -> _BlockIndex:
        index = self._blocks.get(attrs)
        if index is None:
            raise KeyError(f"relation {self.name!r} has no index on {attrs}")
        return index

    # -- writes --------------------------------------------------------

    def _conform(self, rows, support: tuple):
        """``rows`` (one row or a block) laid out for ``support``, laid out
        for the view instead — adopting ``support`` on an empty view,
        widening the view when ``support`` is not within its own."""
        store = self._store
        if store.support is None:
            width = rows.shape[-1]
            for index in (store, *self._blocks.values()):
                index.reset(support, width)
            return rows
        union, width, emb, emb_other = self._kops.widen(store.support, support)
        if union != store.support:
            for index in (store, *self._blocks.values()):
                index.widen(union, width, emb)
        out = np.zeros(rows.shape[:-1] + (width,))
        out[..., emb_other] = rows
        return out

    def relayout(self, support: tuple) -> None:
        """Lay the view out for ``support``, a superset of its own."""
        self._conform(np.zeros((0, self._kops.widen((), support)[1])), support)

    def add(self, key: Key, payload: Payload) -> None:
        if self.ring.is_zero(payload):
            return
        self._write(tuple(key), payload.row, payload.support)

    def _write(self, key: Key, row, support: tuple) -> None:
        """:meth:`add` of a non-zero payload's ``row``, laid out for
        ``support``, under a tuple key (what the generated one-row paths
        call)."""
        store, slot = self._store, self._slot
        if support is not store.support and support != store.support:
            row = self._conform(row, support)
        i = slot.get(key)
        if i is None:
            free = store.free
            if free:
                i = free.pop()
            else:
                i = store.top
                if i == len(store.block):
                    store._regrow(i + i // 4)
                store.top = i + 1
            store.block[i] = row
            slot[key] = i
            if self._blocks:
                self._index_row(key, i, row)
            return
        if store.cache:
            store.cache.pop(key, None)
        stored = store.block[i]
        stored += row
        tolerance = self._kops.tolerance
        if abs(stored[0]) <= tolerance and not (np.abs(stored) > tolerance).any():
            if self._blocks:  # the sums lose the old row: row - what is left
                self._index_row(key, None, row - stored)
            del slot[key]
            store.release(i)
        elif self._blocks:
            self._index_row(key, i, row)

    def _index_row(self, key: Key, i: Optional[int], applied) -> None:
        """Index upkeep for one write: ``key`` now in row ``i`` (``None``:
        deleted), its bucket sums moved by ``applied``."""
        for index in self._blocks.values():
            subkey = index.projector(key)
            buckets, sums = index.buckets, index.sums
            bucket = buckets.get(subkey)
            if i is not None:
                if bucket is None:
                    buckets[subkey] = {key: i}
                else:
                    bucket[key] = i
            elif bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    # The bucket's sum goes with it, as in Relation.
                    del buckets[subkey]
                    j = None if sums is None else sums.pop(subkey, None)
                    if j is not None:
                        index.cache.pop(subkey, None)
                        index.release(j)
                    continue
            if sums is None:
                continue
            j = sums.get(subkey)
            if j is None:
                if i is not None:
                    j = sums[subkey] = index.alloc()
                    index.block[j] = applied
                continue
            if index.cache:
                index.cache.pop(subkey, None)
            index.block[j] += applied

    def _merge(self, delta: Relation) -> None:
        """``self := self ⊎ delta`` as one block update
        (:meth:`_absorb_rows`); a packed delta's block is absorbed as is.
        Below :data:`MIN_BLOCK_MERGE_ROWS` rows each is written alone (a
        packed delta of so few rows — a scalar trigger's — holds no zero
        row)."""
        packed = delta._packed_form
        if packed is not None:
            keys, (rows, support) = packed
            if len(keys) >= MIN_BLOCK_MERGE_ROWS:
                self._absorb_rows(list(keys), rows, support)
            else:
                for key, row in zip(keys, rows):
                    self._write(key, row, support)
            return
        data = delta._data
        if len(data) >= MIN_BLOCK_MERGE_ROWS:
            self._absorb_rows(
                list(data), *self._kops.pack(list(data.values()), len(data)))
            return
        for key, payload in data.items():
            if not self.ring.is_zero(payload):
                self._write(key, payload.row, payload.support)

    def _absorb_rows(self, keys: list, rows, support: tuple) -> None:
        """Add ``rows`` (laid out for ``support``) onto distinct ``keys``:
        one indexed add, one zero test over the touched rows, and one
        sweep per index.  Rows that are zero afterwards are freed."""
        store = self._store
        if support != store.support:
            rows = self._conform(rows, support)
        slot = self._slot
        at = list(map(slot.get, keys))
        if None in at:
            new = [p for p, i in enumerate(at) if i is None]
            for p, i in zip(new, store.alloc_many(len(new))):
                at[p] = slot[keys[p]] = i
        if store.cache:
            for key in keys:
                store.cache.pop(key, None)
        rows_at = at  # the key table's own ints, shared with the buckets
        at = np.fromiter(at, np.intp, len(keys))
        block = store.block
        block[at] += rows
        tolerance = self._kops.tolerance
        dead = (np.abs(block[at]) <= tolerance).all(axis=1)
        applied = rows
        if dead.any():
            dead_at = np.flatnonzero(dead)
            if self._blocks:  # a dead row's sums lose the old row
                applied = rows.copy()
                applied[dead_at] -= block[at[dead_at]]
            for p in dead_at.tolist():
                del slot[keys[p]]
            store.release(at[dead_at].tolist())
        for index in self._blocks.values():
            _index_rows(index, keys, rows_at, dead.tolist(), applied)

    def register_index(self, attrs: Sequence[str]) -> None:
        attrs = tuple(attrs)
        if attrs == self.schema or attrs in self._indexes:
            return
        store = self._store
        index = _BlockIndex(self._kops, self.schema, attrs, store)
        index.reset(store.support, store.block.shape[1])
        self._blocks[attrs] = index
        peek = store.peek
        self._indexes[attrs] = (
            index.projector,
            _Payloads(index.buckets, lambda _, bucket: _Payloads(bucket, peek)),
            _Sums(index),
        )
        if self._slot:
            keys, at = list(self._slot), list(self._slot.values())
            _index_rows(index, keys, at, [False] * len(keys), store.block[at])

    def clear(self) -> None:
        self._slot.clear()
        store = self._store
        layout = (store.support, store.block.shape[1])
        for index in (store, *self._blocks.values()):
            index.reset(*layout)


def _index_rows(index: _BlockIndex, keys, at, dead, applied) -> None:
    """The index sweep of :meth:`BlockRelation._absorb_rows`: bucket
    membership in update order, then every sum move as one
    ``np.add.at``.  A bucket that empties drops its sum row, which is
    freed after the adds, so a bucket refilled in the same sweep starts a
    fresh row — the sums :meth:`Relation.absorb_bulk` keeps."""
    buckets, sums = index.buckets, index.sums
    targets = []  # per update: its sum row, -1 for none
    retired = []
    subkeys = _projected(keys, index.positions)
    for key, i, gone, subkey in zip(keys, at, dead, subkeys):
        bucket = buckets.get(subkey)
        if not gone:
            if bucket is None:
                buckets[subkey] = {key: i}
            else:
                bucket[key] = i
        elif bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del buckets[subkey]
                j = None if sums is None else sums.pop(subkey, None)
                if j is not None:
                    index.cache.pop(subkey, None)
                    retired.append(j)
                targets.append(-1)
                continue
        if sums is None:
            continue
        j = sums.get(subkey)
        if j is None:
            if gone:
                targets.append(-1)
                continue
            j = sums[subkey] = index.alloc()
        elif index.cache:
            index.cache.pop(subkey, None)
        targets.append(j)
    if sums is None:
        return
    targets = np.fromiter(targets, np.intp, len(targets))
    moved = targets >= 0
    if moved.all():
        np.add.at(index.block, targets, applied)
    else:
        np.add.at(index.block, targets[moved], applied[moved])
    if retired:
        index.release(retired)
