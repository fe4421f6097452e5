"""Durability and recovery: engine snapshots + the sequence-numbered
update journal.

The paper's asymmetry — incremental maintenance is orders of magnitude
cheaper than recomputation — is exactly the asymmetry a recovery story
should exploit.  Before this module the only way to bring an engine back
after a process death was ``initialize(db)``: a full from-scratch join of
the base data.  Now recovery is **snapshot + idempotent tail replay**:

* :func:`take_snapshot` captures an engine's *portable* state — every
  materialized view as a plain ``{key: payload}`` dict (both the dict
  and columnar storages flatten to the same wire form), indicator-view
  support counts, and partial-mode active sets — tagged with the journal
  sequence number it reflects;
* :class:`UpdateJournal` records every applied update group under a
  monotonically increasing sequence number, in the same packed
  ``(name, schema, dict)`` wire format the sharded executor ships over
  pipes (the pack/unpack helpers live here and are shared);
* :func:`restore_snapshot` loads a snapshot back into a *compatible*
  fresh engine (same view names and schemas) without touching the
  planner: views absorb their saved contents, registered secondary
  indexes rebuild through the normal absorb path, and the probe cache is
  dropped;
* :class:`JournaledFIVMEngine` ties the three together for a single
  engine: updates are journaled then applied, :meth:`~JournaledFIVMEngine.
  checkpoint` snapshots and truncates, and :meth:`~JournaledFIVMEngine.
  recover_into` rebuilds a dead engine as snapshot + ``apply_batch`` of
  the journal tail.  Replay is idempotent by sequence number: entries at
  or below the snapshot's ``seq`` are excluded by
  :meth:`UpdateJournal.tail`, so a group is applied exactly once no
  matter how recovery is retried.

``benchmarks/test_recovery.py`` measures the payoff (snapshot + tail
replay vs. ``initialize``), and :mod:`repro.core.sharded` runs the same
machinery per shard: the supervisor checkpoints workers, journals routed
requests, and restarts a dead or hung worker from its shard snapshot +
journal tail.
"""

from __future__ import annotations

import pickle
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.factorized_update import FactorizedUpdate
from repro.data.relation import Relation

__all__ = [
    "SNAPSHOT_VERSION",
    "JournaledFIVMEngine",
    "UpdateJournal",
    "pack_item",
    "pack_relation",
    "plain_data",
    "restore_snapshot",
    "tail_handoff",
    "take_snapshot",
    "unpack_item",
    "unpack_relation",
]

#: Bumped whenever the set of views an engine of one configuration
#: stores changes, so a file from the other side of the change is named
#: as such instead of failing on whichever view it lacks.  2: views that
#: copy their only child are no longer stored
#: (:func:`repro.core.view_tree.elide_copies`).
SNAPSHOT_VERSION = 2


# ----------------------------------------------------------------------
# The packed wire/journal format: relations as plain picklable triples
# ----------------------------------------------------------------------


def plain_data(data) -> dict:
    """Materialize a relation's primary map as a plain dict (columnar
    relations expose a facade; snapshots, journals, and the shard wire
    format all want real dicts)."""
    return data if isinstance(data, dict) else dict(data)


def pack_relation(relation: Relation, copy: bool = False) -> tuple:
    """``(name, schema, {key: payload})`` — the packed form journals and
    the shard pipes carry.  ``copy=True`` detaches the dict from the live
    relation (journals outlive the delta they recorded)."""
    data = plain_data(relation._data)
    if copy and data is relation._data:
        data = dict(data)
    return (relation.name, relation.schema, data)


def unpack_relation(packed: tuple, ring) -> Relation:
    """Rebuild a :class:`Relation` from its packed tuple under ``ring``."""
    name, schema, data = packed
    out = Relation(name, schema, ring)
    out._data = data if isinstance(data, dict) else dict(data)
    return out


def pack_item(item, copy: bool = False) -> tuple:
    """Pack one update item (a listing delta or a
    :class:`FactorizedUpdate`) as tagged plain data."""
    if isinstance(item, FactorizedUpdate):
        return (
            "factorized",
            (
                item.relation,
                [
                    [pack_relation(f, copy=copy) for f in term]
                    for term in item.terms
                ],
            ),
        )
    return ("update", pack_relation(item, copy=copy))


def unpack_item(packed: tuple, ring):
    """Rebuild an update item (delta or factorized) from its tagged pack."""
    tag, payload = packed
    if tag == "factorized":
        relation, terms = payload
        return FactorizedUpdate(
            relation,
            [[unpack_relation(f, ring) for f in term] for term in terms],
            ring=ring,
        )
    return unpack_relation(payload, ring)


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


def take_snapshot(engine, seq: Optional[int] = None) -> dict:
    """A portable snapshot of ``engine``'s maintained state.

    Captures every materialized view (bases and interior views alike) as
    plain dicts, indicator-view support counts and contents, and — in
    partial mode — the active sets with their LRU order, costs, drop
    records, and serving counters.  The planner, IR, and compiled
    programs are *not* captured: they are functions of the query and are
    rebuilt by constructing a fresh engine; only state that updates have
    accumulated needs to travel.
    """
    views = {
        name: {
            "schema": tuple(view.schema),
            "data": dict(plain_data(view._data)),
        }
        for name, view in engine.views.items()
    }
    indicators = {}
    for node_name, ivs in engine._indicator_views.items():
        indicators[node_name] = [
            {
                "name": iv.name,
                "counts": dict(iv._counts),
                "data": dict(plain_data(iv.relation._data)),
            }
            for iv in ivs
        ]
    partial = {}
    for name, active in engine.partial.items():
        partial[name] = {
            "entries": [[key, cost] for key, cost in active.entries.items()],
            "total_cost": active.total_cost,
            "dropped": list(active.dropped),
            "stats": dict(active.stats),
        }
    return {
        "version": SNAPSHOT_VERSION,
        "seq": seq,
        "root": engine.tree.root.name,
        "views": views,
        "indicators": indicators,
        "partial": partial,
    }


def restore_snapshot(engine, snapshot: dict) -> None:
    """Load a snapshot into a compatible engine (the inverse of
    :func:`take_snapshot`).

    The snapshot must be of this :data:`SNAPSHOT_VERSION` and the engine
    must maintain the same view set over the same schemas — i.e. be built
    from the same query, order, and flags; anything else raises
    ``ValueError`` before any state is touched.
    View contents are written through the raw absorb path (registered
    secondary indexes rebuild in the same sweep); the partial-mode choke
    point is deliberately bypassed because active sets are restored
    verbatim alongside the payloads they admitted.
    """
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {snapshot.get('version')!r} != "
            f"{SNAPSHOT_VERSION}"
        )
    views = snapshot["views"]
    if set(views) != set(engine.views):
        raise ValueError(
            f"snapshot views {sorted(views)} != engine views "
            f"{sorted(engine.views)}"
        )
    for name, saved in views.items():
        if tuple(saved["schema"]) != tuple(engine.views[name].schema):
            raise ValueError(
                f"snapshot schema {saved['schema']} != "
                f"{engine.views[name].schema} of view {name!r}"
            )
    engine._drop_caches()
    for name, saved in views.items():
        view = engine.views[name]
        view.clear()
        fragment = Relation(name, view.schema, engine.query.ring)
        fragment._data = dict(saved["data"])
        view.absorb_bulk(fragment)
    for node_name, ivs in engine._indicator_views.items():
        saved_list = snapshot["indicators"].get(node_name, [])
        if len(saved_list) != len(ivs):
            raise ValueError(
                f"snapshot indicators for {node_name!r} do not match"
            )
        for iv, saved in zip(ivs, saved_list):
            iv._counts = dict(saved["counts"])
            iv.relation.clear()
            fragment = Relation(iv.name, iv.attrs, engine.query.ring)
            fragment._data = dict(saved["data"])
            iv.relation.absorb_bulk(fragment)
    for name, active in engine.partial.items():
        saved = snapshot["partial"].get(name)
        if saved is None:
            raise ValueError(f"snapshot lacks active set for {name!r}")
        active.entries.clear()
        for key, cost in saved["entries"]:
            active.entries[tuple(key)] = cost
        active.total_cost = saved["total_cost"]
        active.dropped = {tuple(k) for k in saved["dropped"]}
        active.stats.update(saved["stats"])


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------


class UpdateJournal:
    """A sequence-numbered log of applied update groups.

    Entries are ``(seq, payload)`` with strictly increasing ``seq``;
    ``payload`` is whatever packed form the owner appends (the journaled
    engine stores packed item lists, the shard supervisor stores packed
    requests).  :meth:`truncate_through` drops everything a checkpoint
    has made redundant; :meth:`tail` yields the entries a recovery must
    replay — strictly after the snapshot's sequence number, which is
    what makes replay idempotent under retries.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: List[Tuple[int, object]] = []

    def append(self, seq: int, payload) -> None:
        """Record ``payload`` under ``seq`` (strictly increasing)."""
        if self._entries and seq <= self._entries[-1][0]:
            raise ValueError(
                f"journal sequence {seq} is not after {self._entries[-1][0]}"
            )
        self._entries.append((seq, payload))

    def tail(self, after_seq: int) -> List[Tuple[int, object]]:
        """Entries with ``seq > after_seq``, in order."""
        return [entry for entry in self._entries if entry[0] > after_seq]

    def truncate_through(self, seq: int) -> int:
        """Drop entries with ``seq <= seq``; returns how many were cut."""
        kept = [entry for entry in self._entries if entry[0] > seq]
        cut = len(self._entries) - len(kept)
        self._entries = kept
        return cut

    def clear(self) -> None:
        """Drop every journal entry."""
        self._entries = []

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest entry (0 when empty)."""
        return self._entries[-1][0] if self._entries else 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)


def tail_handoff(
    snapshot: Optional[Tuple[int, dict]], journal: UpdateJournal
) -> dict:
    """Bundle everything a restarted shard needs, as one plain object.

    ``snapshot`` is the supervisor's ``(base_seq, snapshot_data)`` pair
    (or ``None`` when no checkpoint has been taken); the handoff carries
    the snapshot plus the journal entries strictly after ``base_seq`` —
    the exact replay set that rebuilds the lost state.  Every recovery
    transport (pipe respawn, socket reconnect) consumes the same bundle,
    so the restart contract cannot drift between executors, and because
    the bundle is plain picklable data it can cross a wire to a remote
    :class:`~repro.serve.ShardHost` unchanged.
    """
    base_seq = snapshot[0] if snapshot is not None else 0
    return {
        "version": 1,
        "base_seq": base_seq,
        "snapshot": snapshot[1] if snapshot is not None else None,
        "tail": journal.tail(base_seq),
    }


# ----------------------------------------------------------------------
# The journaled engine: durability for a single FIVMEngine
# ----------------------------------------------------------------------


class JournaledFIVMEngine:
    """Write-ahead durability around one :class:`FIVMEngine`.

    Every update group is journaled (packed, detached from the caller's
    relations) *before* it is applied, under the next sequence number;
    :meth:`checkpoint` snapshots the engine and truncates the journal;
    :meth:`recover_into` rebuilds a fresh engine of the same
    configuration as snapshot + ``apply_batch`` replay of the tail.  The
    triggers mirror the engine facade, so callers (and the serving
    writer) can wrap an engine without changing their write path.

    ``checkpoint_every`` (optional) auto-checkpoints after that many
    journaled groups — the knob bounding both journal memory and
    recovery replay length.
    """

    def __init__(self, engine, checkpoint_every: Optional[int] = None):
        self.engine = engine
        self.journal = UpdateJournal()
        self.checkpoint_every = checkpoint_every
        #: Sequence number of the last applied group (acked state).
        self.applied_seq = 0
        self._next_seq = 0
        #: The latest checkpoint snapshot (``None`` until the first
        #: :meth:`checkpoint`; recovery then starts from an empty engine
        #: and replays the whole journal).
        self.snapshot: Optional[dict] = None

    # -- the write path -------------------------------------------------

    def apply_update(self, delta: Relation) -> Relation:
        """Journal and apply one delta (a one-item :meth:`apply_batch`)."""
        return self.apply_batch([delta])

    def apply_factorized_update(self, update: FactorizedUpdate) -> Relation:
        """Journal and apply one factorized update as its own group."""
        return self.apply_batch([update])

    def apply_batch(self, deltas: Iterable) -> Relation:
        """Journal the group write-ahead, then apply it to the engine."""
        items = list(deltas)
        self._next_seq += 1
        seq = self._next_seq
        self.journal.append(seq, [pack_item(i, copy=True) for i in items])
        result = self.engine.apply_batch(items)
        self.applied_seq = seq
        if (
            self.checkpoint_every is not None
            and len(self.journal) >= self.checkpoint_every
        ):
            self.checkpoint()
        return result

    def initialize(self, db) -> None:
        """(Re)load the engine and reset durability state to a fresh
        checkpoint of the loaded contents — the journal describes updates
        *since* an initialize, never across one."""
        self.engine.initialize(db)
        self.journal.clear()
        self.applied_seq = self._next_seq
        self.checkpoint()

    # -- checkpoint / recovery ------------------------------------------

    def checkpoint(self) -> dict:
        """Snapshot the engine at the last applied sequence number and
        truncate the journal through it."""
        self.snapshot = take_snapshot(self.engine, seq=self.applied_seq)
        self.journal.truncate_through(self.applied_seq)
        return self.snapshot

    def recover_into(self, engine) -> int:
        """Rebuild ``engine`` (a fresh, compatible instance) from the
        latest snapshot plus the journal tail; returns the number of
        replayed groups.  Safe to retry: replay covers exactly the
        entries after the snapshot's sequence number."""
        after = 0
        if self.snapshot is not None:
            restore_snapshot(engine, self.snapshot)
            after = self.snapshot["seq"] or 0
        replayed = 0
        ring = engine.query.ring
        for _seq, packed_items in self.journal.tail(after):
            engine.apply_batch(
                [unpack_item(p, ring) for p in packed_items]
            )
            replayed += 1
        return replayed

    # -- durability to disk ---------------------------------------------

    def save(self, path) -> None:
        """Persist snapshot + journal tail with :mod:`pickle` (payloads
        are ring values — ints, tuples, numpy arrays — all picklable)."""
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "snapshot": self.snapshot,
                    "journal": list(self.journal),
                    "applied_seq": self.applied_seq,
                },
                fh,
            )

    def load(self, path) -> None:
        """Load durability state saved by :meth:`save` (the engine itself
        is rebuilt separately via :meth:`recover_into`)."""
        with open(path, "rb") as fh:
            state = pickle.load(fh)
        self.snapshot = state["snapshot"]
        self.journal.clear()
        for seq, payload in state["journal"]:
            self.journal.append(seq, payload)
        self.applied_seq = state["applied_seq"]
        self._next_seq = max(self.applied_seq, self.journal.last_seq)

    # -- read-through ----------------------------------------------------

    def result(self) -> Relation:
        """The wrapped engine's maintained query result."""
        return self.engine.result()

    def contents(self, view_name: str) -> Relation:
        """Contents of one of the wrapped engine's materialized views."""
        return self.engine.contents(view_name)

    @property
    def views(self) -> Dict[str, Relation]:
        """The wrapped engine's materialized views, by name."""
        return self.engine.views
