"""Many maintained queries over one shared database (the multi-view engine).

A single :class:`~repro.core.engine.FIVMEngine` maintains *one* query
eagerly per update.  Production view services (Snowflake Dynamic Tables,
Materialize) invert both assumptions: **hundreds of registered queries**
share one database, and each view declares a **target lag** — how stale it
may be — instead of refreshing on every write.  This module grows the
engine in those two directions while staying exact:

* **Common sub-view sharing (CSE on the variable order).**  At
  registration every subtree of the query's variable order is
  canonicalized into a sharing key (:func:`repro.core.view_tree.
  subtree_signature`).  When two registered queries agree on a key, the
  sub-view is *cut out*: a dedicated shared sub-engine maintains it once,
  and each subscriber's query is rewritten to read a pseudo-relation fed
  by the shared root's deltas.  The rewrite is the paper's own view-tree
  decomposition — ``⊕`` over the subtree's bound variables distributes
  over the factors outside the subtree (commutative rings only), so
  subscriber results are exactly those of the unshared plan.  Signatures
  seen once are *published*; when a later registration matches a published
  signature, the host view is rebuilt with the cut (promotion), so sharing
  needs no global planning pass.
* **Target-lag scheduling.**  Updates are ingested as per-relation count
  deltas into the shared database immediately, but each view only
  *refreshes* when its oldest pending update is older than its
  ``target_lag`` (an injectable ``clock`` makes this testable).  Pending
  deltas coalesce through the engine's existing
  :meth:`~repro.core.engine.FIVMEngine.apply_batch` path — one merged
  delta per relation per refresh, the paper's batching effect applied
  across time instead of across a batch.  ``target_lag=0`` refreshes
  inline on ingest (the classic eager engine); :meth:`MultiViewEngine.
  tick` drains overdue views most-overdue-first, and
  :meth:`MultiViewEngine.drain` forces everything fresh.
* **Incremental-vs-recompute switching.**  Per refresh, if the coalesced
  pending deltas touch more than ``recompute_fraction`` (default ~30%) of
  the view's base, maintaining incrementally is a loss (the paper's
  IVM-vs-reevaluation crossover, :mod:`repro.baselines.reeval`); the
  refresh then recomputes via :meth:`~repro.core.engine.FIVMEngine.
  initialize` from the shared database instead of propagating deltas.

All per-view and shared engines share one
:class:`~repro.core.plan_exec.ProgramLibrary`, so isomorphic triggers
across hundreds of registrations are generated once and only re-bound per
engine (ring and lifting bindings happen at bind time, making the cache
safe across queries).

Reads go through :class:`MultiViewClient` (or
:class:`repro.serve.ViewServer`, which accepts a multi-view engine and
adds freshness metadata to its reads); every read answers from the view's
last refreshed state, with :meth:`MultiViewEngine.freshness` reporting
how stale that state is.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.engine import FIVMEngine
from repro.core.plan_exec import ProgramLibrary
from repro.core.query import Query
from repro.core.variable_order import VariableOrder, VONode
from repro.core.view_tree import subtree_signature
from repro.data.database import Database
from repro.data.relation import Relation
from repro.rings import INT_RING
from repro.rings.lifting import Lifting

__all__ = ["MultiViewEngine", "MultiViewClient", "RegisteredView", "SharedSubView"]

#: Prefix of the generated pseudo-relation names shared sub-views publish
#: under; user relations may not start with it.
SHARED_PREFIX = "__sv"


class SharedSubView:
    """One shared sub-view: a mini engine maintained once for many views.

    Holds the cut sub-query (relations of the shared subtree, output
    variables as free, subtree-bound variables marginalized with their
    original lifts), the :class:`~repro.core.engine.FIVMEngine` that
    maintains it, the set of subscribing view names, and the pending
    count-deltas not yet applied.  On refresh the root delta fans out to
    every subscriber's inbox as a delta of the pseudo-relation
    :attr:`name` — maintained once, consumed everywhere.
    """

    __slots__ = (
        "name",
        "signature",
        "query",
        "engine",
        "relations",
        "schema",
        "subscribers",
        "pending",
        "pending_since",
        "stats",
    )

    def __init__(self, name: str, signature, query: Query, engine: FIVMEngine):
        self.name = name
        self.signature = signature
        self.query = query
        self.engine = engine
        #: Base relations the sub-view reads (update routing key).
        self.relations = frozenset(query.relations)
        #: Schema of the fanned-out pseudo-relation (the shared root keys).
        self.schema: Tuple[str, ...] = engine.tree.root.keys
        self.subscribers: set = set()
        #: Un-applied ``(relation, counts)`` deltas, in arrival order.
        self.pending: List[Tuple[str, Dict[tuple, int]]] = []
        self.pending_since: Optional[float] = None
        self.stats = {"refreshes": 0, "recomputes": 0, "hits": 0, "fanouts": 0}


class RegisteredView:
    """One registered query: its engine, lag budget, and pending inbox.

    The engine maintains the *rewritten* query (shared subtrees replaced
    by pseudo-relations); :attr:`inbox` holds ring-converted deltas —
    direct base deltas stamped at ingest plus shared-root deltas stamped
    at the shared view's refresh — which one refresh coalesces through
    ``apply_batch`` (or discards, when the refresh recomputes).
    """

    __slots__ = (
        "name",
        "query",
        "order",
        "target_lag",
        "engine",
        "rewritten",
        "deps",
        "direct",
        "inbox",
        "pending_since",
        "last_refresh_at",
        "stats",
    )

    def __init__(
        self, name: str, query: Query, order: VariableOrder, target_lag: float
    ):
        self.name = name
        self.query = query
        self.order = order
        self.target_lag = target_lag
        self.engine: Optional[FIVMEngine] = None
        self.rewritten: Optional[Query] = None
        #: Shared sub-views this view subscribes to, by pseudo-relation name.
        self.deps: Dict[str, SharedSubView] = {}
        #: Base relations the rewritten query reads directly.
        self.direct: frozenset = frozenset()
        self.inbox: List[Relation] = []
        self.pending_since: Optional[float] = None
        self.last_refresh_at: Optional[float] = None
        self.stats = {"refreshes": 0, "incremental": 0, "recomputes": 0}


class MultiViewEngine:
    """Hundreds of registered queries over one shared database.

    Parameters
    ----------
    storage:
        Passed to every per-view and shared engine (see
        :class:`~repro.core.engine.FIVMEngine`); all engines share one
        :class:`~repro.core.plan_exec.ProgramLibrary`.
    sharing:
        Whether to cut common sub-views across registrations (on by
        default; per-query it also requires a commutative ring).
    recompute_fraction:
        A refresh whose coalesced deltas touch more than this fraction of
        the view's base recomputes instead of maintaining incrementally.
    clock:
        Monotonic time source for lag scheduling (injectable for tests).

    The database is **count-based**: updates arrive as
    ``(relation, {key: int})`` multiplicity deltas (or ℤ-ring
    :class:`~repro.data.relation.Relation` deltas) and are converted into
    each registered query's payload ring via ``ring.from_int`` — one
    shared base state, many ring views of it.
    """

    def __init__(
        self,
        storage: Optional[str] = None,
        *,
        sharing: bool = True,
        recompute_fraction: float = 0.3,
        clock: Callable[[], float] = time.monotonic,
        program_library: Optional[ProgramLibrary] = None,
    ):
        self.storage = storage
        self.sharing = sharing
        self.recompute_fraction = recompute_fraction
        self._clock = clock
        self._library = program_library or ProgramLibrary()
        #: The authoritative base state: one ℤ-ring relation per name.
        self._db = Database()
        self._views: Dict[str, RegisteredView] = {}
        #: Instantiated shared sub-views by signature and by name.
        self._shared: Dict[tuple, SharedSubView] = {}
        self._shared_by_name: Dict[str, SharedSubView] = {}
        #: Signatures seen exactly once so far: sig → names of the views
        #: currently computing that subtree inline (promotion candidates).
        self._published: Dict[tuple, List[str]] = {}
        #: Update routing: base relation → views reading it directly /
        #: shared sub-views reading it.
        self._rel_users: Dict[str, set] = {}
        self._rel_shared: Dict[str, set] = {}
        self._counter = 0
        self.stats = {"updates": 0, "shared_hits": 0, "fanouts": 0}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        query: Query,
        order: Optional[VariableOrder] = None,
        *,
        target_lag: float = 0.0,
        name: Optional[str] = None,
    ) -> str:
        """Register ``query`` for maintenance; returns its view name.

        Admits the query's relations into the shared database (schemas
        must agree with prior registrations), plans sharing cuts against
        the current pool — possibly *promoting* published signatures of
        earlier views, which are then rebuilt with the cut — and brings
        the view's engine up to date with the current database.  The view
        refreshes whenever its staleness would exceed ``target_lag``
        seconds (``0`` means eagerly, on every ingest).
        """
        name = name or query.name
        if name in self._views:
            raise ValueError(f"view {name!r} is already registered")
        for rel, schema in query.relations.items():
            if rel.startswith(SHARED_PREFIX):
                raise ValueError(
                    f"relation name {rel!r} collides with the "
                    f"{SHARED_PREFIX}* pseudo-relation namespace"
                )
            self._admit_relation(rel, schema)
        if order is None:
            order = VariableOrder.auto(query)
        order.validate(query)
        view = RegisteredView(name, query, order, float(target_lag))
        self._views[name] = view
        try:
            self._build(view)
        except Exception:
            self._views.pop(name, None)
            self._unlink(view)
            for shared in view.deps.values():
                shared.subscribers.discard(name)
            raise
        return name

    def deregister(self, name: str) -> None:
        """Drop a registered view, freeing shared sub-views that lose
        their last subscriber (their engines and pending deltas go with
        them) and retracting the view's published signatures."""
        view = self._views.pop(name)
        self._unlink(view)
        for shared in view.deps.values():
            shared.subscribers.discard(name)
            if not shared.subscribers:
                self._free_shared(shared)

    def view_names(self) -> Tuple[str, ...]:
        """Sorted names of the registered views."""
        return tuple(sorted(self._views))

    def set_target_lag(self, name: str, target_lag: float) -> None:
        """Change a view's lag budget (takes effect at the next tick)."""
        self._views[name].target_lag = float(target_lag)

    def _admit_relation(self, rel: str, schema: Tuple[str, ...]) -> None:
        if rel in self._db:
            existing = self._db.relation(rel).schema
            if existing != tuple(schema):
                raise ValueError(
                    f"relation {rel!r} registered with schema "
                    f"{list(schema)} but the shared database has "
                    f"{list(existing)}"
                )
            return
        self._db.add(Relation(rel, schema, INT_RING))

    # ------------------------------------------------------------------
    # Sharing: cut planning, promotion, rebuild
    # ------------------------------------------------------------------

    def _plan_cuts(self, query: Query, order: VariableOrder):
        """Walk the variable order pre-order and cut at the topmost vars
        whose canonical subtree signature matches the shared pool
        (promoting published signatures on the way); signatures of
        candidate subtrees kept inline are returned for publication."""
        cuts: List[SharedSubView] = []
        publications: List[tuple] = []
        if not (self.sharing and query.ring.is_commutative):
            return cuts, publications

        def visit(node: VONode) -> None:
            """Pre-order cut/publish decision for one subtree."""
            sig, relations, marginalized = subtree_signature(
                query, order, node.var
            )
            if relations and (len(relations) > 1 or marginalized):
                shared = self._shared.get(sig)
                if shared is None and self._published.get(sig):
                    shared = self._promote(sig, query, relations, marginalized)
                if shared is not None:
                    cuts.append(shared)
                    return  # shared subtrees do not nest
                publications.append(sig)
            for child in node.children:
                visit(child)

        for root in order.roots:
            visit(root)
        return cuts, publications

    def _promote(
        self, sig: tuple, query: Query, relations, marginalized
    ) -> SharedSubView:
        """A second query matched a published signature: instantiate the
        shared sub-view from the current database and rebuild every view
        that was computing the subtree inline so it subscribes too."""
        shared = self._make_shared(sig, query, relations, marginalized)
        for host in self._published.pop(sig, ()):  # now maintained shared
            self._rebuild(self._views[host])
        return shared

    def _make_shared(
        self, sig: tuple, query: Query, relations, marginalized
    ) -> SharedSubView:
        self._counter += 1
        name = f"{SHARED_PREFIX}{self._counter}__"
        free = tuple(
            sorted(
                {a for schema in relations.values() for a in schema}
                - marginalized
            )
        )
        sub_query = Query(
            name,
            dict(relations),
            free=free,
            ring=query.ring,
            lifting=Lifting(
                query.ring, query.lifting.restricted(marginalized)
            ),
        )
        engine = FIVMEngine(
            sub_query,
            storage=self.storage,
            program_library=self._library,
        )
        engine.initialize(self._ring_database(sub_query.relations, query.ring))
        shared = SharedSubView(name, sig, sub_query, engine)
        self._shared[sig] = shared
        self._shared_by_name[name] = shared
        for rel in shared.relations:
            self._rel_shared.setdefault(rel, set()).add(name)
        return shared

    def _free_shared(self, shared: SharedSubView) -> None:
        self._shared.pop(shared.signature, None)
        self._shared_by_name.pop(shared.name, None)
        for rel in shared.relations:
            users = self._rel_shared.get(rel)
            if users is not None:
                users.discard(shared.name)
                if not users:
                    del self._rel_shared[rel]

    def _build(self, view: RegisteredView) -> None:
        """Plan cuts, build the view's engine over the rewritten query,
        and load it from the current database (so registration and
        rebuild both leave the view fully fresh)."""
        cuts, publications = self._plan_cuts(view.query, view.order)
        query = view.query
        if cuts:
            cut_rels = frozenset().union(*(s.relations for s in cuts))
            relations: Dict[str, Tuple[str, ...]] = {
                rel: schema
                for rel, schema in query.relations.items()
                if rel not in cut_rels
            }
            for shared in cuts:
                relations[shared.name] = shared.schema
            bound = {
                a for schema in relations.values() for a in schema
            } - set(query.free)
            rewritten = Query(
                query.name,
                relations,
                free=query.free,
                ring=query.ring,
                lifting=Lifting(query.ring, query.lifting.restricted(bound)),
            )
            order = None
        else:
            rewritten = query
            order = view.order
        view.rewritten = rewritten
        view.deps = {shared.name: shared for shared in cuts}
        view.direct = frozenset(
            rel for rel in rewritten.relations if rel not in view.deps
        )
        # A shared dependency with pending deltas must refresh before the
        # snapshot below, or the new view would initialize from a stale
        # shared root and serve a mixed-version state until the next
        # fanout.  (The fanout goes to the *existing* subscribers; this
        # view is subscribed after its engine is loaded.)
        now = self._clock()
        for shared in cuts:
            if shared.pending:
                self._refresh_shared(shared, now)
        view.engine = FIVMEngine(
            rewritten,
            order=order,
            storage=self.storage,
            program_library=self._library,
        )
        view.engine.initialize(self._view_database(view))
        for shared in cuts:
            shared.subscribers.add(view.name)
        for rel in view.direct:
            self._rel_users.setdefault(rel, set()).add(view.name)
        for sig in publications:
            self._published.setdefault(sig, []).append(view.name)

    def _rebuild(self, view: RegisteredView) -> None:
        """Re-plan and re-initialize a view against the current pool (used
        by promotion).  The rebuilt engine is loaded from the database, so
        the inbox is cleared — the view comes back fully fresh."""
        self._unlink(view)
        for shared in view.deps.values():
            shared.subscribers.discard(view.name)
        view.deps = {}
        self._build(view)
        view.inbox = []
        view.pending_since = None

    def _unlink(self, view: RegisteredView) -> None:
        """Retract a view's update routing and published signatures."""
        for rel in view.direct:
            users = self._rel_users.get(rel)
            if users is not None:
                users.discard(view.name)
                if not users:
                    del self._rel_users[rel]
        for sig in list(self._published):
            hosts = self._published[sig]
            if view.name in hosts:
                hosts.remove(view.name)
                if not hosts:
                    del self._published[sig]

    # ------------------------------------------------------------------
    # Ring conversion of the count-based base state
    # ------------------------------------------------------------------

    def _base_relation(self, rel: str, schema, ring) -> Relation:
        """The shared database's contents for ``rel``, embedded in
        ``ring`` via ``from_int`` (the multiplicity homomorphism)."""
        out = Relation(rel, schema, ring)
        if rel in self._db:
            counts = self._db.relation(rel)._data
            if ring is INT_RING:
                out._data = dict(counts)
            else:
                from_int = ring.from_int
                is_zero = ring.is_zero
                data = {}
                for key, count in counts.items():
                    payload = from_int(count)
                    if not is_zero(payload):
                        data[key] = payload
                out._data = data
        return out

    def _ring_database(self, relations: Mapping[str, Tuple[str, ...]], ring):
        return Database(
            self._base_relation(rel, schema, ring)
            for rel, schema in relations.items()
        )

    def _view_database(self, view: RegisteredView) -> Database:
        """A database snapshot for a view's (re)compute: ring-converted
        base relations plus the current shared roots as pseudo-relations."""
        ring = view.query.ring
        db = Database(
            self._base_relation(rel, view.rewritten.relations[rel], ring)
            for rel in view.direct
        )
        for shared in view.deps.values():
            root = Relation(shared.name, shared.schema, ring)
            root._data = {key: value for key, value in shared.engine.result().items()}
            db.add(root)
        return db

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def apply_update(self, relation, counts: Optional[Mapping] = None):
        """Ingest one count delta — ``apply_update("R", {key: n})`` or a
        ℤ-ring :class:`~repro.data.relation.Relation` — and tick."""
        if counts is None:
            return self.apply_batch([relation])
        return self.apply_batch([(relation, counts)])

    def apply_batch(self, items: Iterable) -> List[str]:
        """Ingest a group of count deltas, then tick the scheduler.

        Each item is ``(relation_name, {key: multiplicity})`` or a ℤ-ring
        :class:`~repro.data.relation.Relation` delta.  The shared database
        absorbs every delta immediately (it is the authoritative state);
        per-view work is deferred into inboxes and pending queues, to be
        coalesced at refresh time.  Views whose target lag is already
        exceeded — in particular eager ``target_lag=0`` views — refresh
        before this returns.  Returns the names of the views refreshed by
        the closing tick.
        """
        now = self._clock()
        for item in items:
            rel, counts = self._coerce(item)
            if rel not in self._db:
                raise KeyError(f"unknown relation {rel!r}")
            if not counts:
                continue
            self.stats["updates"] += 1
            base = self._db.relation(rel)
            delta = Relation(rel, base.schema, INT_RING, counts)
            if delta.is_empty:
                continue
            base.absorb(delta)
            for name in self._rel_shared.get(rel, ()):
                shared = self._shared_by_name[name]
                shared.pending.append((rel, dict(delta._data)))
                if shared.pending_since is None:
                    shared.pending_since = now
                for subscriber in shared.subscribers:
                    sub = self._views[subscriber]
                    if sub.pending_since is None:
                        sub.pending_since = now
            for subscriber in self._rel_users.get(rel, ()):
                view = self._views[subscriber]
                ring = view.query.ring
                view.inbox.append(
                    self._count_delta(rel, delta._data, view, ring)
                )
                if view.pending_since is None:
                    view.pending_since = now
        return self.tick(now=now)

    @staticmethod
    def _coerce(item) -> Tuple[str, Mapping]:
        if isinstance(item, Relation):
            return item.name, item._data
        rel, counts = item
        return rel, counts

    def _count_delta(self, rel: str, counts, view: RegisteredView, ring):
        schema = view.rewritten.relations[rel]
        out = Relation(rel, schema, ring)
        if ring is INT_RING:
            out._data = dict(counts)
        else:
            from_int = ring.from_int
            is_zero = ring.is_zero
            data = {}
            for key, count in counts.items():
                payload = from_int(count)
                if not is_zero(payload):
                    data[key] = payload
            out._data = data
        return out

    # ------------------------------------------------------------------
    # The lag scheduler
    # ------------------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> List[str]:
        """Refresh every view whose staleness exceeds its target lag,
        most-overdue-first; returns the refreshed view names."""
        if now is None:
            now = self._clock()
        due: List[Tuple[float, str]] = []
        for view in self._views.values():
            if view.pending_since is None and not view.inbox:
                continue
            since = now if view.pending_since is None else view.pending_since
            overdue = (now - since) - view.target_lag
            if overdue >= 0:
                due.append((overdue, view.name))
        due.sort(key=lambda entry: (-entry[0], entry[1]))
        refreshed = []
        for _, name in due:
            view = self._views.get(name)
            if view is not None:
                self._refresh(view, now)
                refreshed.append(name)
        return refreshed

    def refresh(self, name: str) -> None:
        """Force one view fresh now, regardless of its target lag."""
        self._refresh(self._views[name], self._clock())

    def drain(self) -> List[str]:
        """Force every stale view fresh (the shutdown / test barrier)."""
        now = self._clock()
        refreshed = []
        for name in self.view_names():
            view = self._views[name]
            if (
                view.pending_since is not None
                or view.inbox
                or any(shared.pending for shared in view.deps.values())
            ):
                self._refresh(view, now)
                refreshed.append(name)
        return refreshed

    def _refresh(self, view: RegisteredView, now: float) -> None:
        """Bring one view up to date with the shared database.

        Shared dependencies refresh first (delivering their root deltas to
        *every* subscriber's inbox, not just this view's), so the inbox
        then holds exactly the difference between the view's state and the
        current database; it is applied incrementally through
        ``apply_batch`` — or discarded in favour of an
        ``initialize``-recompute when it touches more than
        ``recompute_fraction`` of the base (the reevaluation arm of
        :mod:`repro.baselines.reeval`, kept inside the engine so later
        increments continue from the recomputed state).
        """
        for shared in view.deps.values():
            if shared.pending:
                self._refresh_shared(shared, now)
            else:
                shared.stats["hits"] += 1
                self.stats["shared_hits"] += 1
        inbox = view.inbox
        if inbox:
            touched_by_rel: Dict[str, set] = {}
            for delta in inbox:
                touched_by_rel.setdefault(delta.name, set()).update(
                    delta._data
                )
            touched = sum(len(keys) for keys in touched_by_rel.values())
            if touched / max(1, self._view_base_size(view)) > self.recompute_fraction:
                view.engine.initialize(self._view_database(view))
                view.stats["recomputes"] += 1
            else:
                view.engine.apply_batch(inbox)
                view.stats["incremental"] += 1
        view.inbox = []
        view.pending_since = None
        view.last_refresh_at = now
        view.stats["refreshes"] += 1

    def _view_base_size(self, view: RegisteredView) -> int:
        size = sum(
            len(self._db.relation(rel)) for rel in view.direct
            if rel in self._db
        )
        for shared in view.deps.values():
            size += len(shared.engine.result())
        return size

    def _refresh_shared(self, shared: SharedSubView, now: float) -> None:
        """Apply a shared sub-view's pending deltas once and fan the root
        delta out to every subscriber's inbox (stamped with the pseudo-
        relation name the subscribers' rewritten queries read)."""
        ring = shared.query.ring
        pending, shared.pending = shared.pending, []
        shared.pending_since = None
        shared.stats["refreshes"] += 1
        touched_by_rel: Dict[str, set] = {}
        for rel, counts in pending:
            touched_by_rel.setdefault(rel, set()).update(counts)
        touched = sum(len(keys) for keys in touched_by_rel.values())
        base = sum(
            len(self._db.relation(rel)) for rel in shared.relations
        )
        if touched / max(1, base) > self.recompute_fraction:
            before = dict(shared.engine.result().items())
            shared.engine.initialize(
                self._ring_database(shared.query.relations, ring)
            )
            shared.stats["recomputes"] += 1
            root_data = self._diff(before, shared.engine.result(), ring)
        else:
            items = []
            for rel, counts in pending:
                delta = Relation(rel, shared.query.relations[rel], ring)
                if ring is INT_RING:
                    delta._data = dict(counts)
                else:
                    from_int = ring.from_int
                    is_zero = ring.is_zero
                    delta._data = {
                        key: payload
                        for key, count in counts.items()
                        if not is_zero(payload := from_int(count))
                    }
                items.append(delta)
            root_data = dict(shared.engine.apply_batch(items)._data)
        if not root_data:
            return
        for subscriber in shared.subscribers:
            fan = Relation(shared.name, shared.schema, ring)
            fan._data = dict(root_data)
            self._views[subscriber].inbox.append(fan)
            shared.stats["fanouts"] += 1
            self.stats["fanouts"] += 1

    @staticmethod
    def _diff(before: Dict, after: Relation, ring) -> Dict:
        """``after − before`` as a payload dict (the root delta a
        recomputed shared view owes its subscribers)."""
        delta: Dict = {}
        sub, neg, is_zero = ring.sub, ring.neg, ring.is_zero
        for key, value in after.items():
            old = before.pop(key, None)
            change = value if old is None else sub(value, old)
            if not is_zero(change):
                delta[key] = change
        for key, old in before.items():
            delta[key] = neg(old)
        return delta

    # ------------------------------------------------------------------
    # Reads and introspection
    # ------------------------------------------------------------------

    def result(self, name: str) -> Relation:
        """The maintained result of a registered view, keyed in the
        query's declared free-variable order (as of its last refresh)."""
        view = self._views[name]
        root = view.engine.result()
        free = tuple(view.query.free)
        if tuple(root.schema) == free or set(root.schema) != set(free):
            return root
        positions = [root.schema.index(attr) for attr in free]
        out = Relation(root.name, free, view.query.ring)
        out._data = {
            tuple(key[p] for p in positions): value
            for key, value in root.items()
        }
        return out

    def freshness(self, name: str) -> Dict:
        """How stale a view's served state is: seconds since its oldest
        un-applied update (``0.0`` when fully fresh), pending delta count
        (inbox entries plus pending deltas of its shared dependencies),
        the lag budget, and the last refresh timestamp."""
        view = self._views[name]
        now = self._clock()
        pending = len(view.inbox) + sum(
            len(shared.pending) for shared in view.deps.values()
        )
        staleness = (
            0.0 if view.pending_since is None else now - view.pending_since
        )
        return {
            "target_lag": view.target_lag,
            "pending": pending,
            "staleness": staleness,
            "last_refresh_at": view.last_refresh_at,
        }

    def view_stats(self, name: str) -> Dict:
        """Per-view refresh counters plus the freshness snapshot."""
        view = self._views[name]
        out = dict(view.stats)
        out["shared_deps"] = tuple(sorted(view.deps))
        out.update(self.freshness(name))
        return out

    def shared_stats(self) -> Dict[str, Dict]:
        """Per-shared-sub-view counters: subscribers, refreshes (actual
        maintenance passes), hits (refreshes a subscriber skipped because
        the shared state was already fresh), and fanouts."""
        out = {}
        for name in sorted(self._shared_by_name):
            shared = self._shared_by_name[name]
            entry = dict(shared.stats)
            entry["subscribers"] = len(shared.subscribers)
            entry["relations"] = tuple(sorted(shared.relations))
            out[name] = entry
        return out

    def client(self) -> "MultiViewClient":
        """The read front door (duck-compatible with
        :class:`~repro.core.serving.ViewClient` for
        :class:`repro.serve.ViewServer`)."""
        return MultiViewClient(self)


class MultiViewClient:
    """Point lookups over a :class:`MultiViewEngine`'s registered views.

    Mirrors :class:`~repro.core.serving.ViewClient`'s surface — ``lookup``
    / ``lookup_many`` / ``stats`` — so :class:`repro.serve.ViewServer`
    serves a multi-view engine through the same read path; keys are given
    in the registered query's free-variable order.  Reads answer from the
    view's last refreshed state; consult
    :meth:`MultiViewEngine.freshness` (or the server's ``lookup_fresh``)
    for how stale that is.
    """

    def __init__(self, engine: MultiViewEngine):
        self.engine = engine

    def lookup(self, view_name: str, key: Iterable):
        """The payload of ``key`` (in query free order) in a view's
        maintained result, ring zero when absent."""
        view = self.engine._views[view_name]
        root = view.engine.result()
        key = tuple(key)
        free = tuple(view.query.free)
        if tuple(root.schema) != free and set(root.schema) == set(free):
            order = {attr: i for i, attr in enumerate(free)}
            key = tuple(key[order[attr]] for attr in root.schema)
        return root.payload(key)

    def lookup_many(self, view_name: str, keys: Iterable[Iterable]) -> List:
        """Batched :meth:`lookup` (payloads in input order)."""
        return [self.lookup(view_name, key) for key in keys]

    def stats(self, view_name: str) -> Dict:
        """The view's refresh counters and freshness snapshot."""
        return self.engine.view_stats(view_name)
