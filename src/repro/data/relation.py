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

from itertools import chain, compress, count, repeat
from operator import add, itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.schema import (
    SchemaError,
    as_schema,
    key_projector,
    merge_schemas,
    schema_positions,
)

__all__ = [
    "Relation", "DeferredRelation", "float_column_ops",
    "MIN_PACKED_ROWS", "MIN_PACKED_SUM_ROWS",
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


class Relation:
    """A finitely supported map from keys (tuples over a schema) to payloads."""

    __slots__ = ("name", "schema", "ring", "_data", "_indexes")

    #: ``(key tuple, float64 payload column)`` when the contents exist in
    #: packed form (see :class:`DeferredRelation`); plain relations have none.
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
        semantics under the ℤ ring.
        """
        rel = cls(name, schema, ring)
        value = ring.one if payload is None else payload
        for row in tuples:
            rel.add(tuple(row), value)
        return rel

    @classmethod
    def empty(cls, name: str, schema: Iterable[str], ring) -> "Relation":
        """The empty relation (maps every tuple to ``0``)."""
        return cls(name, schema, ring)

    def spawn(self, name: str, schema: Iterable[str]) -> "Relation":
        """An empty relation over the same ring with a new name/schema."""
        return Relation(name, schema, self.ring)

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
        (``lookup_sum``) touch one value instead of the whole bucket.
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

    def lookup_sum(self, attrs: Tuple[str, ...], subkey: tuple) -> Payload:
        """Ring sum of the payloads matching ``subkey`` on ``attrs``.

        The group-aware probe: when a delta join needs a sibling view only
        up to these attributes (no downstream use of the rest), one lookup
        replaces iterating the whole bucket — this is how star-join roots
        stay O(1) per update.
        """
        if attrs == self.schema:
            payload = self._data.get(subkey)
            return payload if payload is not None else self.ring.zero
        if not attrs:
            return self.ring.sum(self._data.values())
        entry = self._indexes.get(attrs)
        if entry is None:
            raise KeyError(
                f"relation {self.name!r} has no index on {attrs}"
            )
        total = entry[2].get(subkey)
        return total if total is not None else self.ring.zero

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
        if delta._packed_form is not None and not self._indexes:
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

    def project(self, attrs: Sequence[str], name: Optional[str] = None) -> "Relation":
        """Group by ``attrs`` summing payloads (no lifting); order follows ``attrs``."""
        return self.group_by(attrs, None, name)

    def reorder(self, attrs: Sequence[str], name: Optional[str] = None) -> "Relation":
        """Reorder the schema columns to ``attrs`` (a permutation)."""
        if set(attrs) != set(self.schema) or len(attrs) != len(self.schema):
            raise SchemaError(f"{attrs} is not a permutation of {self.schema}")
        data = self._data
        positions = schema_positions(self.schema, attrs)
        out = Relation(name or self.name, attrs, self.ring)
        out._data = dict(zip(_projected(list(data), positions), data.values()))
        return out

    def rename(self, mapping: Mapping[str, str], name: Optional[str] = None) -> "Relation":
        """Rename attributes via ``mapping`` (missing names are unchanged)."""
        schema = tuple(mapping.get(a, a) for a in self.schema)
        out = Relation(name or self.name, schema, self.ring)
        out._data = dict(self._data)
        return out

    def filter(
        self, predicate: Callable[[Key], bool], name: Optional[str] = None
    ) -> "Relation":
        """Keep only keys satisfying ``predicate``."""
        out = Relation(name or f"filter({self.name})", self.schema, self.ring)
        out._data = {k: p for k, p in self._data.items() if predicate(k)}
        return out

    def scale(self, factor: Payload, side: str = "right", name: Optional[str] = None) -> "Relation":
        """Multiply every payload by a constant (left or right for
        non-commutative rings)."""
        mul = self.ring.mul
        out = Relation(name or self.name, self.schema, self.ring)
        for key, payload in self._data.items():
            value = mul(payload, factor) if side == "right" else mul(factor, payload)
            out.add(key, value)
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

    def indicator(self, attrs: Sequence[str], name: Optional[str] = None) -> "Relation":
        """Static indicator projection ``∃_A R`` (Appendix B).

        Projects keys with non-zero payload onto ``attrs`` and assigns them
        payload ``1``.  For incrementally maintained indicators with
        count-based deltas see :class:`repro.data.indicator.IndicatorView`.
        """
        proj = key_projector(self.schema, attrs)
        out = Relation(name or f"exists_{self.name}", tuple(attrs), self.ring)
        one = self.ring.one
        for key in self._data:
            out._data[proj(key)] = one
        return out


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
    * ``packed`` — the contents as ``(key tuple, float64 column)`` (keys
      distinct, explicit zeros allowed; the relation owns the column).
      This is how the array factor programs (:mod:`repro.core.kernels`)
      take factors and emit flattened deltas: :meth:`Relation.absorb_bulk`
      and the programs consume ``_packed_form`` and never build the map.

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

    def union(self, other: "Relation", name: Optional[str] = None) -> "Relation":
        """:meth:`Relation.union`; two packed relations over one key table
        (the terms of a rank-r update at the root) add as columns — ring
        zeros clamped — and the sum stays packed."""
        shared = self._columns_with(other)
        if shared is None:
            return super().union(other, name)
        table, mine, theirs = shared
        kops = self.ring.kernel_ops()
        column = kops.add_packed(mine, theirs)
        column[kops.zero_mask(column)] = 0.0
        return DeferredRelation(
            name or f"({self.name}+{other.name})", self.schema, self.ring,
            packed=(table, column),
        )

    def _absorb_packed(self, keys, column):
        merged = super()._absorb_packed(keys, column)
        if merged is not None and len(keys) == len(_DATA_SLOT.__get__(self)):
            self._packed_form = (keys, merged)
        return merged

    def __reduce__(self):
        """Pickle as the plain relation this resolves to (resolvers are
        closures; factors cross process boundaries in sharded engines)."""
        return Relation, (self.name, self.schema, self.ring, self._data)
