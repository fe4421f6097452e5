"""Partial materialization and the point-lookup serving layer.

Full materialization maintains every key of every view on every update —
but real read traffic is point lookups over a skewed key distribution,
and most maintained entries are never read.  This module implements the
Noria-style alternative (*Partial IVM for request-serving*, see
SNIPPETS.md): a view in **partial** mode only holds entries for keys in
its *active set* — the keys someone has actually looked up — and the
engine drops root deltas for every other key before doing the root's
probe work.

The three moving parts:

* :class:`ActiveSet` — per partial view: the LRU-ordered registered keys
  with their logical-scalar costs (the memory accounting of
  :mod:`repro.bench.memory`), the *drop records* for deltas discarded on
  unregistered keys, and the serving statistics.  The engine's write
  choke point (:meth:`FIVMEngine._write_view`) filters every absorb into
  a partial view through it, and the clock-style LRU evictor trims the
  set back under its scalar budget after every admit;
* :func:`upquery` — the cold-key read path: a single-key probe cascade
  down the factorized view tree.  The binding (the looked-up key) is
  pushed into each child as an index probe on the shared attributes
  (:meth:`Relation.lookup` — the same secondary-index machinery the
  delta-join plans use), unmaterialized children recurse to *their*
  children, and the surviving slices are joined and marginalized exactly
  like a view delta (:func:`compute_view`).  Because every view below a
  partial view is maintained fully (the engine forces the upquery
  support set at construction), the recomputed value is correct no
  matter which deltas were previously dropped — which is what makes
  drop-then-reregister sound;
* :class:`ViewClient` — the request-shaped front door:
  ``lookup(view_name, key)``.  Hot keys are answered
  from the maintained partial view (and LRU-touched); cold keys trigger
  an upquery, register the key (clearing its drop record), and are
  incrementally maintained from then on.  Against a full-materialization
  engine the client degrades to plain view reads, so callers can switch
  modes without changing their read path.

The asyncio request loop (many readers, one writer, epoch handoff) sits
one level up in :mod:`repro.serve`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.bench.memory import payload_scalars
from repro.core.view_tree import ViewNode, compute_view
from repro.data.relation import Relation

__all__ = ["ActiveSet", "ViewClient", "upquery", "view_slice"]

Key = Tuple[object, ...]


class ActiveSet:
    """The served-key registry of one partial view.

    Tracks, in LRU order, every key registered for maintenance together
    with its logical-scalar cost (``key width + payload scalars``, the
    unit of :mod:`repro.bench.memory`), the drop records for deltas
    discarded on unregistered keys, and the serving counters.  The
    engine owns the stored payloads; this class only decides *which*
    keys are resident and which must go when ``budget`` is exceeded.
    """

    __slots__ = ("name", "width", "budget", "entries", "total_cost",
                 "dropped", "stats")

    def __init__(self, name: str, keys: Sequence[str],
                 budget: Optional[int] = None):
        self.name = name
        self.width = max(1, len(tuple(keys)))
        #: Logical-scalar budget for the active entries (``None``:
        #: unbounded).  Measured exactly like
        #: :func:`repro.bench.memory.relation_scalars` measures views.
        self.budget = budget
        self.entries: "OrderedDict[Key, int]" = OrderedDict()
        self.total_cost = 0
        #: Keys whose deltas were dropped while unregistered — the
        #: invalidation records.  Registration must clear the record (the
        #: upquery recomputes from fully maintained children, so the
        #: dropped deltas are already reflected in the recomputed value).
        #: A set, not a counter: the hot write path records whole delta
        #: key-sets with one C-speed union.
        self.dropped: set = set()
        self.stats = {
            "hits": 0, "misses": 0, "upqueries": 0, "evictions": 0,
            "dropped_deltas": 0, "reactivations": 0,
        }

    def __contains__(self, key: Key) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def touch(self, key: Key) -> None:
        """Mark ``key`` most-recently-used."""
        self.entries.move_to_end(key)

    def admit(self, key: Key, payload_cost: int = 0) -> None:
        """Register ``key`` as actively maintained (most-recently-used)."""
        if key in self.entries:
            self.touch(key)
            return
        cost = self.width + payload_cost
        self.entries[key] = cost
        self.total_cost += cost
        if key in self.dropped:
            self.dropped.discard(key)
            self.stats["reactivations"] += 1

    def update_cost(self, key: Key, payload_cost: int) -> None:
        """Re-account an active key after its stored payload changed."""
        old = self.entries.get(key)
        if old is None:
            return
        cost = self.width + payload_cost
        self.entries[key] = cost
        self.total_cost += cost - old

    def record_drops(self, keys) -> None:
        """Record that deltas to ``keys`` were dropped (one set union —
        the write hot path)."""
        n = len(keys)
        if n:
            self.dropped.update(keys)
            self.stats["dropped_deltas"] += n

    def over_budget(self) -> bool:
        """Whether stored cost exceeds the configured budget."""
        return self.budget is not None and self.total_cost > self.budget

    def pop_lru(self) -> Key:
        """Evict the least-recently-used key from the registry."""
        key, cost = self.entries.popitem(last=False)
        self.total_cost -= cost
        self.stats["evictions"] += 1
        return key


# ----------------------------------------------------------------------
# Upqueries: the single-key probe cascade
# ----------------------------------------------------------------------


def _restrict(relation: Relation, binding: Dict[str, object]) -> Relation:
    """The slice of ``relation`` matching ``binding`` on shared attrs.

    Probes through a secondary index on the shared attributes (registered
    on demand — idempotent, then maintained by the normal write path),
    through the primary map when the binding covers the whole schema, or
    returns the relation untouched when nothing is shared (the upquery
    then joins it wholesale, exactly as a delta plan would scan it).
    """
    shared = tuple(a for a in relation.schema if a in binding)
    if not shared:
        return relation
    subkey = tuple(binding[a] for a in shared)
    if shared != relation.schema:
        relation.register_index(shared)
    out = Relation(relation.name, relation.schema, relation.ring)
    out._data = dict(relation.lookup(shared, subkey))
    return out


def view_slice(engine, node: ViewNode, binding: Dict[str, object]) -> Relation:
    """Contents of ``node`` restricted to ``binding``, probing stored
    state where it exists and recursing where it does not.

    * a fully materialized view (or stored base) answers with one index
      probe on the bound attributes;
    * a partial view never answers from its own (incomplete) storage —
      it recomputes from its children, like an unmaterialized view;
    * an unmaterialized inner view joins its children's slices and
      marginalizes, via the same :func:`compute_view` the initializer
      uses — restriction commutes with join/marginalize because the
      bound attributes are key attributes and pass through unchanged.
    """
    stored = engine.views.get(node.name)
    if stored is not None and node.name not in engine.partial:
        return _restrict(stored, binding)
    if node.is_leaf:
        raise RuntimeError(
            f"upquery reached unmaterialized base {node.leaf_of!r}; "
            "partial engines must force the upquery support set"
        )
    child_slices = [
        view_slice(engine, child, binding) for child in node.children
    ]
    ind_slices = [
        _restrict(iv.relation, binding) for iv in engine._indicators_at(node)
    ]
    return compute_view(node, child_slices, engine.query, ind_slices)


def upquery(engine, view_name: str, key: Key):
    """Recompute one key's payload through the view tree (cold read).

    The factorized structure makes this a probe cascade: the key binds
    the view's key attributes, each child contributes its matching slice
    (an index probe on stored children, a recursive cascade on
    unmaterialized or partial ones), and the slices are joined and
    marginalized like a single-view evaluation.  Returns the ring
    payload (ring zero when the key has no support).
    """
    node = _node_by_name(engine, view_name)
    key = tuple(key)
    if len(key) != len(node.keys):
        raise KeyError(
            f"key {key} does not match {view_name} keys {node.keys}"
        )
    binding = dict(zip(node.keys, key))
    if node.is_leaf:
        raise KeyError(f"{view_name} is a base relation, not a served view")
    result = view_slice(
        engine, node, binding
    ) if node.name in engine.partial or node.name not in engine.views else (
        _restrict(engine.views[node.name], binding)
    )
    if node.name in engine.partial:
        active = engine.partial[node.name]
        active.stats["upqueries"] += 1
    return result.payload(key)


def _node_by_name(engine, view_name: str) -> ViewNode:
    for node in engine.tree.nodes:
        if node.name == view_name:
            return node
    raise KeyError(f"no view named {view_name!r}")


# ----------------------------------------------------------------------
# The request-shaped read path
# ----------------------------------------------------------------------


class ViewClient:
    """Point lookups on maintained views — the serving front door.

    ``lookup(view_name, key)`` answers from the maintained view when the
    key is hot (registered in the view's active set, LRU-touched on every
    hit), and runs an :func:`upquery` when it is cold — registering the
    key afterwards so it is incrementally maintained until evicted.
    Against a full-materialization engine every key is "hot" and the
    client is a thin wrapper over ``view.payload``; the read path is the
    same either way, which is what the differential oracle leans on.
    """

    def __init__(self, engine):
        self.engine = engine

    # -- reads ----------------------------------------------------------

    def lookup(self, view_name: str, key: Iterable):
        """The payload of ``key`` in ``view_name`` (ring zero when absent)."""
        engine = self.engine
        key = tuple(key)
        active = engine.partial.get(view_name)
        if active is None:
            view = engine.views.get(view_name)
            if view is None:
                raise KeyError(f"view {view_name!r} is not materialized")
            return view.payload(key)
        if key in active:
            active.stats["hits"] += 1
            active.touch(key)
            return engine.views[view_name].payload(key)
        active.stats["misses"] += 1
        return self._activate(view_name, active, key)

    # -- cold-key registration -----------------------------------------

    def _activate(self, view_name: str, active: ActiveSet, key: Key):
        """Upquery a cold key, register it, and store its value.

        Order matters: the key is admitted to the active set *before*
        the recomputed payload is written, so the engine's choke point
        accepts the write (and accounts its cost / evicts over budget)
        instead of dropping it as unregistered.
        """
        engine = self.engine
        value = upquery(engine, view_name, key)
        active.admit(key)
        if not engine.query.ring.is_zero(value):
            registered = Relation(
                view_name, engine.views[view_name].schema, engine.query.ring
            )
            registered._data = {key: value}
            engine._write_view(view_name, registered)
        else:
            engine._evict_over_budget(active)
        return value

    # -- introspection --------------------------------------------------

    def stats(self, view_name: str) -> Dict[str, int]:
        """A copy of the serving counters for one partial view."""
        active = self.engine.partial.get(view_name)
        if active is None:
            return {}
        out = dict(active.stats)
        out["active_keys"] = len(active)
        out["active_scalars"] = active.total_cost
        return out


def active_payload_cost(ring, payload) -> int:
    """Logical scalars a stored payload costs (bench/memory accounting)."""
    if ring.is_zero(payload):
        return 0
    return payload_scalars(payload)
