"""The F-IVM engine: factorized higher-order incremental view maintenance.

Ties the pieces together (Sections 3–5 of the paper):

* builds the view tree τ(ω, F) for the query (Figure 3) and drops from it
  every view that copies its only child
  (:func:`~repro.core.view_tree.elide_copies`),
* decides which views µ(τ, U) materializes (Figure 5),
* compiles, for every possible delta entry point, a *delta-join plan* that
  probes materialized sibling views through secondary indexes — the
  operational form of the delta trees of Figure 4 — so a single-tuple update
  costs time proportional to the matched keys, not to view sizes,
* executes update triggers: list-form deltas via :meth:`apply_update`,
  batched multi-relation deltas via :meth:`apply_batch`, factorizable
  (rank-1/rank-r) deltas via :meth:`apply_factorized_update`
  with marginalization pushed past joins (the ``Optimize`` step, Section 5),
* maintains indicator projections for cyclic queries (Appendix B), with
  changes propagated along their own leaf-to-root paths in sequence.

Plan compilation pipeline
-------------------------

Delta propagation runs in three stages; plans and IR are fixed at
construction time:

1. **plan** — :meth:`_compile_plans` builds, per ``(node, source)`` entry
   point, a greedy left-deep probe order over the node's stored siblings
   and indicators (a list of :class:`_PlanStep`), marks group-aware steps,
   and registers the secondary indexes the probes need;
2. **IR** — each plan is lowered once to the typed delta-program IR of
   :mod:`repro.core.ir` (:func:`~repro.core.ir.lower_delta_plan`): every
   live attribute gets an explicit register, every probe an explicit op;
3. **execution** — every IR program is generated as a specialized
   Python trigger (:mod:`repro.core.plan_exec`: zero dict allocation per
   delta tuple, shard-shareable through a
   :class:`~repro.core.plan_exec.ProgramLibrary`).  Where the payload
   ring's array hooks (``Ring.kernel_ops``) beat its scalar arithmetic
   *and* the program joins at least two payloads that carry lifted
   variables, the same IR also has an array form
   (:mod:`repro.core.kernels`), built the first time a delta of at least
   :data:`~repro.core.kernels.MIN_TRIGGER_ROWS` rows reaches the node;
   :meth:`FIVMEngine._delta_at_node` picks between the two from the size
   of the delta it is handed.  ``backend="interpreter"`` instead walks
   the IR directly (:mod:`repro.core.ir`) — the executable reference
   semantics the differential tests hold both trigger forms to.

The factorized path is compiled the same way: each rank-1 term of a
:class:`FactorizedUpdate` runs through one *factor program* per node,
lowered lazily per ``(node, source, factor partition)`` since partitions
depend on the update stream, generated as source and — over ℝ, for the
matrix–vector-shaped programs — also realized over packed factors
(:class:`~repro.core.kernels.ArrayFactorProgram`), which
:meth:`FIVMEngine._propagate_factored` picks at a node some factor reaches
with :data:`~repro.core.kernels.MIN_VECTOR_ROWS` rows.  Sibling
collapses — including partial-match bucket probes, reduced to their
surviving extends — are memoized in a per-view **probe cache** shared
across the terms of one update, the relations of one :meth:`apply_batch`
pass, and consecutive updates; every view write invalidates that view's
entries (:meth:`_invalidate`), which is what makes the sharing sound.

Batched-trigger contract
------------------------

:meth:`apply_batch` takes any iterable of per-relation deltas (in arrival
order), coalesces them into **one merged delta per relation**, absorbs each
stored base once, and propagates one merged delta per leaf-to-root path.
Because single-relation propagation is linear in the delta and the final
view state is a function of the final database only, the maintained views
and the returned total root delta equal those of applying the deltas one by
one — while paths and indexes are touched once per relation instead of once
per delta (the paper's Figure 12 batching effect).  Items may also be
:class:`FactorizedUpdate` instances, whose terms coalesce per relation and
propagate in product form through the same pass.

Partial materialization (serving mode)
--------------------------------------

``materialization="partial"`` puts the root view — the served surface —
in Noria-style partial mode (:mod:`repro.core.serving`): it only holds
entries for keys in its **active set** (keys registered by
:class:`~repro.core.serving.ViewClient` lookups), deltas for every other
key are dropped at the root *before* the root's sibling probes run (with
an explicit drop record so later registration is observable), and a
cold-key lookup recomputes its value with a single-key upquery cascade
over the interior views, which stay fully maintained.  Construction
forces the **upquery support set**: every view (or, failing that, base
leaf) the cascade can reach is materialized even when µ alone would skip
it.  An LRU evictor bounds the active set under ``partial_budget``
logical scalars (the accounting of :mod:`repro.bench.memory`).  In this
mode root deltas returned by the triggers are restricted to the active
set, and :meth:`result` only covers served keys — reads go through the
client, not :meth:`contents`.

Every write into a materialized view — delta absorbs on both propagate
paths, factorized flattens, stored-base absorbs, and
:meth:`initialize`'s loads — flows through the single
:meth:`_write_view` choke point, which applies the partial filter and
the probe-cache invalidation together so no write path can bypass
either.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.factorized_update import FactorizedUpdate
from repro.core import kernels
from repro.core.ir import (
    InterpreterDeltaProgram,
    InterpreterFactorProgram,
    lower_delta_plan,
    lower_factor_plan,
)
from repro.core.materialization import delta_sources, resolve_flags
from repro.core.plan_exec import (
    ProgramLibrary,
    canonical_partition,
    compile_factor_program,
    compile_slot_program,
)
from repro.core.query import Query
from repro.core.variable_order import VariableOrder
from repro.core.view_tree import (
    ViewNode,
    ViewTree,
    build_view_tree,
    compute_view,
    elide_copies,
)
from repro.data.columnar import ColumnarRelation
from repro.data.database import Database
from repro.data.indicator import IndicatorView
from repro.data.relation import DeferredRelation, Relation

__all__ = [
    "DeferredRelation",
    "FIVMEngine",
    "check_delta",
    "check_factorized",
    "STORAGES",
    "MATERIALIZATIONS",
    "resolve_storage",
    "resolve_materialization",
]

#: How materialized views store their payloads: ``"dict"`` keeps the
#: classic ``{key: payload}`` maps, ``"columnar"`` stores packed ring
#: blocks behind a dict-compatible facade
#: (:class:`repro.data.columnar.ColumnarRelation`) — absorbs, index
#: maintenance, and the array form of the triggers then run over packed
#: blocks end-to-end.
STORAGES = ("dict", "columnar")

#: How much of the view tree is maintained: ``"full"`` keeps every
#: materialized view complete (the classic mode), ``"partial"`` keeps the
#: root view only for actively served keys (see the module docstring and
#: :mod:`repro.core.serving`).
MATERIALIZATIONS = ("full", "partial")


def resolve_storage(storage: Optional[str]) -> str:
    """Validate the ``storage=`` parameter (shared with the sharding
    facade); ``None`` means the classic dict storage."""
    if storage is None:
        return "dict"
    if storage not in STORAGES:
        raise ValueError(
            f"unknown storage {storage!r}; expected one of {STORAGES}"
        )
    return storage


def resolve_materialization(materialization: Optional[str]) -> str:
    """Validate the ``materialization=`` parameter; ``None`` means the
    classic full materialization."""
    if materialization is None:
        return "full"
    if materialization not in MATERIALIZATIONS:
        raise ValueError(
            f"unknown materialization {materialization!r}; "
            f"expected one of {MATERIALIZATIONS}"
        )
    return materialization

#: A delta source at a node: ("child", i) for the i-th child subtree,
#: ("ind", i) for the i-th hosted indicator projection.
Source = Tuple[str, int]


def check_delta(tree: ViewTree, updatable: frozenset, delta: Relation) -> ViewNode:
    """Validate a listing delta against the updatable set and leaf schema.

    Part of the shard-safe engine facade: the single-engine triggers and
    the sharding router (:mod:`repro.core.sharded`, which holds a stateless
    reference tree rather than a full engine) apply the same admission
    checks through this one helper.  Returns the relation's leaf node.
    """
    rel = delta.name
    if rel not in updatable:
        raise KeyError(f"relation {rel!r} is not updatable")
    leaf = tree.leaves[rel]
    if delta.schema != leaf.keys:
        raise ValueError(
            f"delta schema {delta.schema} != {leaf.keys} of {rel}"
        )
    return leaf


def check_factorized(
    tree: ViewTree, updatable: frozenset, update: FactorizedUpdate
) -> ViewNode:
    """Validate a factorized delta's relation and attribute cover (the
    factorized twin of :func:`check_delta`)."""
    rel = update.relation
    if rel not in updatable:
        raise KeyError(f"relation {rel!r} is not updatable")
    leaf = tree.leaves[rel]
    if update.terms and update.attributes != frozenset(leaf.keys):
        raise ValueError(
            f"factorized delta covers {sorted(update.attributes)} "
            f"!= {leaf.keys} of {rel}"
        )
    return leaf


class _PlanStep:
    """One probe in a delta-join plan: extend bindings from a target."""

    __slots__ = ("kind", "index", "probe_attrs", "extend_attrs", "aggregated")

    def __init__(
        self,
        kind: str,
        index: int,
        probe_attrs: Tuple[str, ...],
        extend_attrs: Tuple[str, ...],
    ):
        self.kind = kind  # "child" or "ind"
        self.index = index
        self.probe_attrs = probe_attrs  # shared attrs, in target schema order
        self.extend_attrs = extend_attrs  # new attrs contributed by target
        #: When the extended attributes are never used downstream (not in
        #: the output keys, not lifted, not probed by later steps), the step
        #: reads the bucket's payload *sum* instead of iterating matches —
        #: a group-aware join (pre-aggregated sibling lookup).
        self.aggregated = False


class FIVMEngine:
    """Maintains a join-aggregate query result under updates.

    Parameters
    ----------
    query:
        The join-aggregate query (ring + lifting functions included).
    order:
        Variable order; derived heuristically when omitted.
    updatable:
        Relations that may receive updates (default: all).  Fewer updatable
        relations mean fewer materialized views (the paper's ONE scenarios).
    tree:
        A pre-built (possibly indicator-adorned) view tree; overrides
        ``order``.  Like a tree the engine builds itself it is minimized
        in place: a view that copies its only child is never stored or
        maintained.
    materialize:
        ``"auto"`` stores µ(τ, U), the views some update's delta needs;
        an iterable of view names stores those beside µ (a reader's
        views, see :class:`repro.apps.conjunctive.ConjunctiveQuery`);
        ``"all"`` stores every node of the tree.
    db:
        Initial database contents; omitted means starting from empty
        relations (the streaming scenario).
    backend:
        ``"interpreter"`` executes the IR with the reference walker of
        :mod:`repro.core.ir` (what the differential tests compare
        against); omitted, triggers run as generated code in scalar or
        array form, chosen per delta (see the module docstring).  The two
        former backend names select nothing any more; they stay accepted
        as spellings of the default only because the frozen substitution
        probe of ``benchmarks/e2e`` constructs them.
    """

    def __init__(
        self,
        query: Query,
        order: Optional[VariableOrder] = None,
        updatable: Optional[Iterable[str]] = None,
        tree: Optional[ViewTree] = None,
        db: Optional[Database] = None,
        collapse_chains: bool = True,
        materialize: str = "auto",
        group_aware: bool = True,
        backend: Optional[str] = None,
        storage: Optional[str] = None,
        materialization: Optional[str] = None,
        partial_budget: Optional[int] = None,
        program_library: Optional[ProgramLibrary] = None,
        faults=None,
    ):
        self.query = query
        #: Optional :class:`repro.core.faults.FaultPlan`; when set, the
        #: engine announces the ``engine.write_view`` site on every
        #: materialized-view write (the fault-injection hook the
        #: robustness tests use — ``None`` costs one attribute check).
        self._faults = faults
        #: Optional cross-engine cache of generated trigger code.  The
        #: sharding layer hands one library to all of its in-process shard
        #: engines so isomorphic triggers are generated once and only
        #: re-bound per shard; libraries must not be shared between
        #: differently configured engines (see :mod:`repro.core.plan_exec`).
        self._library = program_library
        if backend not in (None, "interpreter", "kernels", "source"):
            raise ValueError(
                f"unknown backend {backend!r}; the only selectable one is "
                "the reference 'interpreter'"
            )
        #: Whether the IR is walked by the reference interpreter instead
        #: of running as generated triggers.
        self._interpreted = backend == "interpreter"
        #: Deltas of at least ``_trigger_rows`` rows run a node's array
        #: program where it has one, terms with a factor of at least
        #: ``_vector_rows`` rows its array factor program (read once, so
        #: an engine's choice is stable).
        self._trigger_rows = kernels.MIN_TRIGGER_ROWS
        self._vector_rows = kernels.MIN_VECTOR_ROWS
        #: Whether probes may read per-bucket payload sums (group-aware
        #: joins).  On by default; exposed for ablation benchmarks.
        self.group_aware = group_aware
        self.tree = elide_copies(
            tree or build_view_tree(
                query, order, collapse_chains=collapse_chains
            )
        )
        self.updatable = (
            frozenset(updatable) if updatable is not None
            else frozenset(query.relations)
        )
        self.flags = resolve_flags(self.tree, self.updatable, materialize)
        self._sources = delta_sources(self.tree, self.updatable)
        #: Payload storage for materialized views (see :data:`STORAGES`).
        self.storage = resolve_storage(storage)
        #: Full vs partial maintenance (see :data:`MATERIALIZATIONS`).
        self.materialization = resolve_materialization(materialization)
        #: Active sets per partial view (empty in full mode); consulted by
        #: the :meth:`_write_view` choke point and the serving client.
        self.partial: Dict[str, "ActiveSet"] = {}
        if self.materialization == "partial" and not self.tree.root.is_leaf:
            # The root is the served surface; everything below it that an
            # upquery can reach must stay fully maintained, even views µ
            # alone would skip (imported lazily: serving pulls in the
            # bench memory accounting, which full-mode engines never need).
            from repro.core.serving import ActiveSet

            root = self.tree.root
            for child in root.children:
                self._force_upquery_support(child)
            self.partial[root.name] = ActiveSet(
                root.name, root.keys, partial_budget
            )
        #: The ring's array hooks if factors pack as float64 columns (ℝ).
        self._factor_kops = (
            None if self._interpreted
            else kernels.factor_column_ops(query.ring)
        )
        view_cls = ColumnarRelation if self.storage == "columnar" else Relation
        #: No trigger probes the root, so nothing binds its map: where
        #: factor programs hand it packed deltas it keeps their column and
        #: derives the map on demand (see :class:`DeferredRelation`).
        root_cls = (
            DeferredRelation
            if self._factor_kops is not None
            and view_cls is Relation
            and self.materialization == "full"
            else view_cls
        )
        self.views: Dict[str, Relation] = {}
        for node in self.tree.nodes:
            if self.flags[node.name]:
                cls = root_cls if node is self.tree.root else view_cls
                self.views[node.name] = cls(node.name, node.keys, query.ring)
        # Indicator views (stateful count-based maintenance), per node.
        self._indicator_views: Dict[str, List[IndicatorView]] = {}
        for node in self.tree.nodes:
            if node.indicators:
                self._indicator_views[node.name] = [
                    IndicatorView(
                        spec.base_name,
                        query.schema_of(spec.base_name),
                        spec.attrs,
                        query.ring,
                        spec.name,
                    )
                    for spec in node.indicators
                ]
        # Indicator hosts per observed base relation, precomputed so the
        # update trigger does not rescan the tree on every delta.
        self._indicator_hosts: Dict[str, List[Tuple[ViewNode, int, IndicatorView]]] = {}
        for node in self.tree.nodes:
            for i, iv in enumerate(self._indicators_at(node)):
                self._indicator_hosts.setdefault(iv.base_name, []).append(
                    (node, i, iv)
                )
        self._child_pos: Dict[str, Dict[str, int]] = {
            node.name: {c.name: i for i, c in enumerate(node.children)}
            for node in self.tree.nodes
            if not node.is_leaf
        }
        self._plans: Dict[Tuple[str, Source], List[_PlanStep]] = {}
        #: Lowered IR per (node, source) — the single program every
        #: executor realizes (:mod:`repro.core.ir`).
        self._ir: Dict[Tuple[str, Source], object] = {}
        #: Executable delta programs per (node, source): the generated
        #: scalar triggers (or the interpreter's); each answers
        #: ``run(delta)``.
        self._programs: Dict[Tuple[str, Source], object] = {}
        #: Array programs for the (node, source) entries that have an
        #: array form — ``None`` until a delta of ``_trigger_rows`` rows
        #: first reaches the node (see :meth:`_delta_at_node`).
        self._kernel_programs: Dict[Tuple[str, Source], object] = {}
        #: Factor programs, lowered+built lazily per (node, source, factor
        #: partition) the first time a rank-1 term with that shape passes
        #: through — partitions depend on the updates, not the tree.
        self._factor_programs: Dict[tuple, object] = {}
        #: Their array forms (:mod:`repro.core.kernels`), same keys, built
        #: when a term of ``_vector_rows`` factor rows first reaches the
        #: entry point — ``None`` for a program that has no array form.
        self._array_factor_programs: Dict[tuple, object] = {}
        #: Shared probe cache: view name → per-site memoized sibling
        #: collapses (see :mod:`repro.core.plan_exec`).  Entries stay valid
        #: until the view absorbs a delta; every write path below calls
        #: :meth:`_invalidate`, which is what makes sharing probe results
        #: across rank-1 terms, across the relations of one
        #: :meth:`apply_batch` pass, and across consecutive updates sound.
        self._probe_cache: Dict[str, dict] = {}
        #: Lifted-sibling memos of the generated triggers, by site
        #: (``"node:child0"``) → ``(memo dict, sibling view)``; see
        #: :mod:`repro.core.plan_exec`.  They are caches, not views:
        #: dropped with the probe cache, absent from snapshots.
        self._memo_sites: Dict[str, Tuple[dict, Relation]] = {}
        self._compile_plans()
        if db is not None:
            self.initialize(db)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _indicators_at(self, node: ViewNode) -> List[IndicatorView]:
        return self._indicator_views.get(node.name, [])

    def _compile_plans(self) -> None:
        """Build one delta-join plan per (node, delta entry point) and
        register the secondary indexes the probes need."""
        for node in self.tree.nodes:
            if node.is_leaf:
                continue
            live_children = [
                i
                for i, child in enumerate(node.children)
                if self._sources[child.name]
            ]
            live_inds = [
                i
                for i, spec in enumerate(node.indicators)
                if spec.base_name in self.updatable
            ]
            for i in live_children:
                self._plans[(node.name, ("child", i))] = self._plan(
                    node, ("child", i)
                )
            for i in live_inds:
                self._plans[(node.name, ("ind", i))] = self._plan(
                    node, ("ind", i)
                )
        # Second pass, after every plan has registered its indexes: lower
        # each plan to IR once and build its scalar program.  The array
        # form is for programs with a product to vectorize (see
        # :meth:`_joins_payloads`) over rings whose arrays beat their
        # scalar arithmetic.
        by_name = {node.name: node for node in self.tree.nodes}
        kops = self.query.ring.kernel_ops()
        has_arrays = (
            not self._interpreted
            and kops is not None
            and kops.vectorizes_triggers
        )
        for key, plan in self._plans.items():
            node = by_name[key[0]]
            targets = self._plan_targets(node, plan)
            ir = lower_delta_plan(
                node, key[1], plan, tuple(t.schema for t in targets),
                self.query, dict_stored=self.storage == "dict",
            )
            self._ir[key] = ir
            if self._interpreted:
                program = InterpreterDeltaProgram(ir, targets, self.query)
            else:
                program = compile_slot_program(
                    ir, targets, self.query, library=self._library
                )
                self._memo_sites.update(program.memo_sites)
            self._programs[key] = program
            if has_arrays and self._joins_payloads(node, key[1], plan):
                self._kernel_programs[key] = None

    def _plan_targets(self, node: ViewNode, plan) -> List[Relation]:
        return [self._plan_target_relation(node, step) for step in plan]

    def _joins_payloads(self, node: ViewNode, source: Source, plan) -> bool:
        """Whether the node's payload product has something to vectorize:
        at least two of its view factors (the delta's source and the
        probed siblings) come from subtrees that lift a variable.

        A factor from a subtree without lifts is the ring image of a
        multiplicity, and a lift is a memoized singleton; multiplying by
        either is a scaling the scalar trigger does in about a
        microsecond per row, which packing cannot beat.  The products
        that cost are those between two aggregated payloads.  This also
        keeps lift-only programs (no sibling at all) scalar, whose
        memoized lifted payloads are shared across keys where the array
        form would unpack fresh objects per key.
        """
        lifting = self.query.lifting

        def lifts(view: ViewNode) -> bool:
            """Whether any variable marginalized in the subtree is lifted."""
            return any(
                lifting.get(var) is not None for var in view.marginalized
            ) or any(lifts(child) for child in view.children)

        children = [step.index for step in plan if step.kind == "child"]
        if source[0] == "child":
            children.append(source[1])
        return sum(lifts(node.children[i]) for i in children) >= 2

    def _plan(self, node: ViewNode, source: Source) -> List[_PlanStep]:
        kind, idx = source
        if kind == "child":
            accumulated = set(node.children[idx].keys)
        else:
            accumulated = set(node.indicators[idx].attrs)
        pending: List[Tuple[str, int, Tuple[str, ...]]] = []
        for i, child in enumerate(node.children):
            if not (kind == "child" and i == idx):
                pending.append(("child", i, child.keys))
        for i, spec in enumerate(node.indicators):
            if not (kind == "ind" and i == idx):
                pending.append(("ind", i, spec.attrs))

        steps: List[_PlanStep] = []
        while pending:
            # Prefer the target sharing the most attributes with what we
            # already have (greedy left-deep plan); deterministic tie-break.
            def overlap(entry: Tuple[str, int, Tuple[str, ...]]) -> int:
                """Attributes the candidate shares with the accumulated set."""
                return len(accumulated & set(entry[2]))

            best = max(
                range(len(pending)),
                key=lambda i: (overlap(pending[i]), -i),
            )
            t_kind, t_idx, t_schema = pending.pop(best)
            probe_attrs = tuple(a for a in t_schema if a in accumulated)
            extend_attrs = tuple(a for a in t_schema if a not in accumulated)
            steps.append(_PlanStep(t_kind, t_idx, probe_attrs, extend_attrs))
            accumulated |= set(t_schema)

        # Mark group-aware steps: a target whose extended attributes are not
        # in the node's keys, not lifted during marginalization, and not
        # probed by a later step can be read as one pre-aggregated sum.
        lifted = {
            var for var in node.marginalized
            if self.query.lifting.get(var) is not None
        }
        for i, step in enumerate(steps):
            if not self.group_aware:
                break
            needed = set(node.keys) | lifted
            for later in steps[i + 1:]:
                needed |= set(later.probe_attrs)
            step.aggregated = not (set(step.extend_attrs) & needed)

        # Register the indexes the probes will use on the stored targets.
        for step in steps:
            target = self._plan_target_relation(node, step)
            if step.probe_attrs and step.probe_attrs != target.schema:
                target.register_index(step.probe_attrs)
        return steps

    def _plan_target_relation(self, node: ViewNode, step: _PlanStep) -> Relation:
        if step.kind == "ind":
            return self._indicators_at(node)[step.index].relation
        child = node.children[step.index]
        stored = self.views.get(child.name)
        if stored is None:
            raise RuntimeError(
                f"delta propagation through {node.name} needs sibling "
                f"{child.name} materialized; µ should have flagged it"
            )
        return stored

    def _force_upquery_support(self, node: ViewNode) -> None:
        """Ensure ``node``'s slice is computable by a cold-key upquery.

        A materialized view answers the cascade with one index probe; an
        unmaterialized one must recurse, so its children (transitively,
        down to base leaves) are forced into µ's materialized set.  Runs
        before view storage is allocated, so forcing is just flag flips.
        """
        if self.flags[node.name]:
            return
        if node.is_leaf:
            self.flags[node.name] = True
            return
        for child in node.children:
            self._force_upquery_support(child)

    # ------------------------------------------------------------------
    # The write/invalidation choke point
    # ------------------------------------------------------------------

    def _invalidate(self, view_name: str) -> None:
        """Drop the probe cache's entries for a view that just changed."""
        if self._probe_cache:
            self._probe_cache.pop(view_name, None)

    def _drop_caches(self) -> None:
        """Forget everything memoized from view state (a wholesale
        reload follows): the probe cache, and the lifted-sibling memos
        with the payload references they hold."""
        self._probe_cache.clear()
        for memo, _ in self._memo_sites.values():
            memo.clear()

    def _write_view(self, view_name: str, delta: Relation) -> Relation:
        """Absorb ``delta`` into a materialized view — the single choke
        point every write path shares.

        Applies, in order: the partial-materialization filter (entries
        for unregistered keys are dropped and recorded, see the module
        docstring), the absorb itself, the probe-cache invalidation that
        keeps memoized sibling collapses sound, and — for partial views —
        the cost re-accounting plus LRU eviction back under budget.
        Returns the delta that was actually absorbed (``delta`` itself
        unless the partial filter trimmed it), so propagation loops can
        keep threading the surviving entries upward.
        """
        if self._faults is not None:
            self._faults.fire("engine.write_view")
        active = self.partial.get(view_name)
        if active is not None:
            delta = self._partial_filter(active, delta)
            if delta.is_empty:
                return delta
        view = self.views[view_name]
        view.absorb(delta)
        self._invalidate(view_name)
        if active is not None:
            from repro.core.serving import active_payload_cost

            ring = self.query.ring
            for key in delta.keys():
                active.update_cost(
                    key, active_payload_cost(ring, view.payload(key))
                )
            self._evict_over_budget(active)
        return delta

    def _partial_filter(self, active, delta: Relation) -> Relation:
        """Split a delta for a partial view into the absorbed (active)
        part, recording a drop per discarded key."""
        entries = active.entries
        data = delta._data
        kept = Relation(delta.name, delta.schema, delta.ring)
        kept._data = {k: v for k, v in data.items() if k in entries}
        if len(kept._data) != len(data):
            active.record_drops(set(data) - entries.keys())
        return kept

    def _partial_prefilter(
        self, active, node: ViewNode, delta: Relation
    ) -> Relation:
        """Drop cold-key rows of a delta *entering* a partial node before
        its probe program runs.

        Only applies when every key attribute of the node appears in the
        incoming delta's schema — then each delta row contributes to
        exactly the root key it projects to (the lowering binds output
        registers straight from the delta row), so rows projecting to
        unregistered keys can be discarded without probing siblings at
        all: the Noria saving that makes cold writes cheap.  Otherwise
        the delta passes through and :meth:`_write_view` post-filters.
        """
        schema = delta.schema
        keys = node.keys
        data = delta._data
        entries = active.entries
        kept = Relation(delta.name, schema, delta.ring)
        if tuple(keys) == tuple(schema):
            # The usual shape — the delta entering the root is the child's
            # marginalized output, keyed exactly by the root's group-by —
            # filters at C speed: one dict comprehension, one set diff.
            kept._data = {k: v for k, v in data.items() if k in entries}
            if len(kept._data) != len(data):
                active.record_drops(set(data) - entries.keys())
            return kept
        if any(attr not in schema for attr in keys):
            return delta
        positions = [schema.index(attr) for attr in keys]
        out = kept._data
        dropped = set()
        for key, payload in data.items():
            out_key = tuple(key[p] for p in positions)
            if out_key in entries:
                out[key] = payload
            else:
                dropped.add(out_key)
        active.record_drops(dropped)
        return kept

    def _evict_over_budget(self, active) -> None:
        """LRU-evict active keys until the set fits its scalar budget.

        Evicted keys lose their stored payload too (that is the memory
        being reclaimed); a later lookup re-registers them through the
        upquery path.  The stored entry is cancelled with a raw absorb —
        the key is leaving the active set, so the partial filter must not
        see this write.
        """
        if active.budget is None or not active.over_budget():
            return
        view = self.views[active.name]
        ring = self.query.ring
        while active.over_budget() and len(active.entries) > 0:
            key = active.pop_lru()
            payload = view.payload(key)
            if not ring.is_zero(payload):
                cancel = Relation(view.name, view.schema, ring)
                cancel._data = {key: ring.neg(payload)}
                view.absorb(cancel)
                self._invalidate(active.name)

    # ------------------------------------------------------------------
    # Initialization / recomputation
    # ------------------------------------------------------------------

    def initialize(self, db: Database) -> None:
        """(Re)load all materialized views from a database snapshot.

        Every view load flows through :meth:`_write_view`, so the loads
        invalidate the probe cache (and respect partial-mode active sets)
        exactly like delta writes do — lookups or updates interleaved
        before an initialize can never leave stale memoized collapses
        behind.
        """
        self._drop_caches()
        for view in self.views.values():
            view.clear()
        for active in self.partial.values():
            # Stored payloads are gone; re-account every active key at its
            # key-only cost (the reload below restores the active values),
            # and forget drop records — they described the previous state.
            for key in active.entries:
                active.entries[key] = active.width
            active.total_cost = active.width * len(active.entries)
            active.dropped.clear()
        self._load(self.tree.root, db)

    def _load(self, node: ViewNode, db: Database) -> Relation:
        """Bottom-up (re)computation of one node from ``db`` (a method,
        not a closure of :meth:`initialize`: a recursive closure is a
        reference cycle that keeps the engine alive until a collection)."""
        if node.is_leaf:
            contents = db.relation(node.leaf_of)
        else:
            child_contents = [self._load(child, db) for child in node.children]
            ind_contents = []
            for iv in self._indicators_at(node):
                iv.reset_from(db.relation(iv.base_name))
                ind_contents.append(iv.relation)
            contents = compute_view(node, child_contents, self.query, ind_contents)
        if self.flags[node.name]:
            self._write_view(node.name, contents)
        return contents

    # ------------------------------------------------------------------
    # Durability (see :mod:`repro.core.checkpoint`)
    # ------------------------------------------------------------------

    def snapshot(self, seq: Optional[int] = None) -> dict:
        """A portable snapshot of the maintained state (every view as a
        plain dict — both storages — plus indicator counts and partial
        active sets), tagged with journal sequence number ``seq``.
        Restore it into a fresh engine of the same configuration with
        :meth:`restore`; recovery is then snapshot + journal-tail replay
        through :meth:`apply_batch` instead of an :meth:`initialize`
        recompute."""
        from repro.core.checkpoint import take_snapshot

        return take_snapshot(self, seq=seq)

    def restore(self, snapshot: dict) -> None:
        """Load a :meth:`snapshot` back into this engine (must maintain
        the same views over the same schemas); secondary indexes rebuild
        through the normal absorb path and the probe cache is dropped."""
        from repro.core.checkpoint import restore_snapshot

        restore_snapshot(self, snapshot)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def result(self) -> Relation:
        """The maintained query result (the root view)."""
        return self.views[self.tree.root.name]

    def contents(self, view_name: str) -> Relation:
        """Contents of a materialized view by name."""
        return self.views[view_name]

    def materialized_names(self) -> Tuple[str, ...]:
        """Sorted names of the materialized views."""
        return tuple(sorted(self.views))

    def view_sizes(self) -> Dict[str, int]:
        """Number of keys per materialized view (logical memory)."""
        sizes = {name: len(view) for name, view in self.views.items()}
        for ivs in self._indicator_views.values():
            for iv in ivs:
                sizes[iv.name] = len(iv.relation)
        return sizes

    def memo_sizes(self) -> Dict[str, Tuple[int, int]]:
        """``(entries, logical scalars)`` per lifted-sibling memo site,
        counted on demand from the bound dicts — the memory the memos
        hold beside the views (:meth:`view_sizes`, ``strategy_scalars``
        count views only).  An entry is its key plus the stored product,
        or plus one scalar for a first-sighting marker."""
        from repro.bench.memory import payload_scalars

        sizes = {}
        for site, (memo, sibling) in self._memo_sites.items():
            width = max(1, len(sibling.schema))
            scalars = sum(
                width + (payload_scalars(e[1]) if type(e) is tuple else 1)
                for e in memo.values()
            )
            sizes[site] = (len(memo), scalars)
        return sizes

    def total_keys(self) -> int:
        """Total stored keys across all materialized views."""
        return sum(self.view_sizes().values())

    def view_count(self) -> int:
        """Number of materialized non-leaf views (paper's view counts)."""
        leaf_names = {leaf.name for leaf in self.tree.leaves.values()}
        return sum(1 for name in self.views if name not in leaf_names)

    # ------------------------------------------------------------------
    # Update triggers
    # ------------------------------------------------------------------

    def apply_update(self, delta: Relation) -> Relation:
        """Apply ``R := R ⊎ δR`` and maintain all views; returns the root
        delta (total change of the query result)."""
        rel = delta.name
        leaf = check_delta(self.tree, self.updatable, delta)
        root = self.tree.root
        empty_root_delta = Relation(root.name, root.keys, self.query.ring)
        if delta.is_empty:
            return empty_root_delta

        # 1. Compute indicator deltas against the pre-update base state.
        ind_tasks: List[Tuple[ViewNode, int, IndicatorView, Relation]] = []
        for node, i, iv in self._indicator_hosts.get(rel, ()):
            base = self.views.get(self.tree.leaves[rel].name)
            if base is None:
                raise RuntimeError(
                    f"indicator over {rel} needs its base stored"
                )
            ind_tasks.append((node, i, iv, iv.compute_delta(delta, base)))

        # 2. Absorb the delta into the stored base copy (if stored).
        if leaf.name in self.views:
            self._write_view(leaf.name, delta)

        # 3. Propagate along the relation's leaf-to-root path.
        root_delta = self._propagate(leaf, delta)

        # 4. Propagate each indicator delta along its host-to-root path, in
        #    sequence, committing each before the next fires.
        for node, i, iv, ind_delta in ind_tasks:
            if not ind_delta.is_empty:
                contribution = self._propagate_from_indicator(node, i, ind_delta)
                root_delta = root_delta.union(contribution, name=root.name)
            iv.commit(ind_delta)
            if not ind_delta.is_empty:
                self._invalidate(iv.name)
        return root_delta

    def apply_batch(self, deltas: Iterable) -> Relation:
        """Apply a sequence of per-relation deltas as one batched trigger.

        Coalesces the deltas into one merged delta per relation (tuples that
        cancel across the batch vanish before propagation), absorbs each
        stored base once, and propagates one merged delta per leaf-to-root
        path — relations fire in :meth:`schedule_paths` order, which groups
        paths sharing subtrees so probe-cache entries computed for one
        relation survive into its neighbours' propagation.  Returns the
        total root delta; the maintained state and the returned total equal
        those of :meth:`apply_update` applied delta by delta (see the module
        docstring for why coalescing is sound).

        Items may also be :class:`FactorizedUpdate` instances: their terms
        are coalesced per relation too and propagated in product form after
        that relation's listing delta (⊎ commutes per relation, so the
        interleaving does not matter).  All paths of the pass share the
        probe cache, so sibling aggregations computed for one relation are
        reused by the others until an absorb invalidates them — the
        simultaneous multi-path form of the batched trigger.
        """
        merged: Dict[str, Relation] = {}
        factored: Dict[str, List[List[Relation]]] = {}
        order: List[str] = []
        for item in deltas:
            if isinstance(item, FactorizedUpdate):
                if not self.query.ring.is_commutative:
                    # The fire-time check of apply_factorized_update, made
                    # up front so a bad item cannot leave earlier relations
                    # of the batch absorbed and later ones not.
                    raise ValueError(
                        "factorized updates require a commutative payload "
                        "ring"
                    )
                rel = item.relation
                check_factorized(self.tree, self.updatable, item)
                if rel not in merged and rel not in factored:
                    order.append(rel)
                factored.setdefault(rel, []).extend(item.terms)
                continue
            delta = item
            rel = delta.name
            check_delta(self.tree, self.updatable, delta)
            accumulated = merged.get(rel)
            if accumulated is None:
                if rel not in factored:
                    order.append(rel)
                merged[rel] = delta.copy()
            else:
                accumulated.absorb_bulk(delta)
        root = self.tree.root
        contributions: List[Relation] = []
        for rel in self.schedule_paths(order):
            coalesced = merged.get(rel)
            if coalesced is not None and not coalesced.is_empty:
                contributions.append(self.apply_update(coalesced))
            terms = factored.get(rel)
            if terms:
                update = FactorizedUpdate(rel, terms, ring=self.query.ring)
                contributions.append(self.apply_factorized_update(update))
        if not contributions:
            return Relation(root.name, root.keys, self.query.ring)
        # One path's root delta is returned as propagated (read-only,
        # possibly still packed); only further paths pay a merge.
        total = contributions[0]
        for contribution in contributions[1:]:
            total = total.union(contribution, name=root.name)
        return total

    def schedule_paths(self, relations: Sequence[str]) -> List[str]:
        """Order leaf-to-root paths for probe-cache residency (the planner
        hook shared by batching and shard routing).

        Relations whose paths climb through the same subtrees probe the
        same sibling views; scheduling them adjacently lets probe-cache
        entries computed for one path serve its neighbours before an
        unrelated relation's absorb invalidates them.  Paths sort by their
        root-first node-name sequence, so relations under one subtree are
        consecutive; the sort is stable, so ties keep first-appearance
        order.  Reordering is sound: the final state is a function of the
        final database only, and the total root delta telescopes over the
        per-relation deltas in any order.
        """
        leaves = self.tree.leaves

        def path_key(rel: str) -> Tuple[str, ...]:
            """Root-first view-name path above ``rel``'s leaf (sort key)."""
            names: List[str] = []
            node = leaves[rel].parent
            while node is not None:
                names.append(node.name)
                node = node.parent
            names.reverse()
            return tuple(names)

        return sorted(relations, key=path_key)

    def _propagate(self, start_child: ViewNode, delta: Relation) -> Relation:
        prev, node = start_child, start_child.parent
        cur = delta
        while node is not None:
            active = self.partial.get(node.name)
            if active is not None:
                # Cold-key rows die here, before the node's probe program
                # runs — the Noria write saving (see the module docstring).
                cur = self._partial_prefilter(active, node, cur)
                if cur.is_empty:
                    root = self.tree.root
                    return Relation(root.name, root.keys, self.query.ring)
            source: Source = ("child", self._child_pos[node.name][prev.name])
            cur = self._delta_at_node(node, source, cur)
            if self.flags[node.name] and not cur.is_empty:
                cur = self._write_view(node.name, cur)
            if cur.is_empty and node is not self.tree.root:
                root = self.tree.root
                return Relation(root.name, root.keys, self.query.ring)
            prev, node = node, node.parent
        return cur

    def _propagate_from_indicator(
        self, host: ViewNode, ind_index: int, ind_delta: Relation
    ) -> Relation:
        active = self.partial.get(host.name)
        if active is not None:
            ind_delta = self._partial_prefilter(active, host, ind_delta)
            if ind_delta.is_empty:
                root = self.tree.root
                return Relation(root.name, root.keys, self.query.ring)
        cur = self._delta_at_node(host, ("ind", ind_index), ind_delta)
        if self.flags[host.name] and not cur.is_empty:
            cur = self._write_view(host.name, cur)
        if cur.is_empty and host is not self.tree.root:
            root = self.tree.root
            return Relation(root.name, root.keys, self.query.ring)
        if host is self.tree.root:
            return cur
        return self._propagate(host, cur)

    def _delta_at_node(
        self, node: ViewNode, source: Source, delta: Relation
    ) -> Relation:
        """Evaluate the node's delta view for a delta entering at
        ``source``: through the entry point's array program when it has
        one and the delta is large enough for arrays to pay, through its
        scalar program otherwise."""
        key = (node.name, source)
        if (
            len(delta._data) >= self._trigger_rows
            and key in self._kernel_programs
        ):
            program = self._kernel_programs[key]
            if program is None:
                program = kernels.kernel_delta_program(
                    self._ir[key],
                    self._plan_targets(node, self._plans[key]),
                    self.query,
                    library=self._library,
                )
                self._kernel_programs[key] = program
        else:
            program = self._programs[key]
        return program.run(delta)

    def apply_decomposed_update(self, delta: Relation) -> Relation:
        """Decompose a listing delta into factors, then propagate factored.

        The product decomposition of Example 5.1: when the delta factorizes
        (e.g. a full row/column change), this routes it through the
        factorized path automatically; otherwise it degrades gracefully to
        the listing trigger.
        """
        from repro.core.factorized_update import decompose

        if not self.query.ring.is_commutative or delta.is_empty:
            return self.apply_update(delta)
        update = decompose(delta)
        if len(update.terms[0]) <= 1:
            return self.apply_update(delta)
        return self.apply_factorized_update(update)

    # ------------------------------------------------------------------
    # Factorizable updates (Section 5)
    # ------------------------------------------------------------------

    def apply_factorized_update(self, update: FactorizedUpdate) -> Relation:
        """Apply a factorizable delta, keeping it in product form.

        Marginalization is pushed into the factor holding each variable and
        sibling views are merged only into the factors they share attributes
        with; a Cartesian product is materialized only where a view must
        absorb the delta (typically just the root).  Requires a commutative
        ring (factor reordering).

        Each rank-1 term runs through a factor program per node (built
        lazily per factor-schema partition).  A rank-0 update returns the
        ring-zero root delta, like a no-op :meth:`apply_update`.
        """
        if not self.query.ring.is_commutative:
            raise ValueError(
                "factorized updates require a commutative payload ring"
            )
        rel = update.relation
        leaf = check_factorized(self.tree, self.updatable, update)
        root = self.tree.root
        if not update.terms:
            return Relation(root.name, root.keys, self.query.ring)
        observed = any(
            iv.base_name == rel
            for ivs in self._indicator_views.values()
            for iv in ivs
        )
        if observed:
            # Indicators need listing-form deltas to track support changes;
            # fall back to the general trigger.
            return self.apply_update(update.flatten(leaf.keys, name=rel))

        base_stored = leaf.name in self.views
        total = None
        for term in update.terms:
            if base_stored:
                self._write_view(
                    leaf.name,
                    FactorizedUpdate.rank_one(rel, term).flatten(
                        leaf.keys, name=rel
                    ),
                )
            contribution = self._propagate_factored(leaf, list(term))
            # One term's root delta is returned as propagated (read-only,
            # possibly still packed); only further terms pay a merge.
            total = (
                contribution if total is None
                else total.union(contribution, name=root.name)
            )
        return total

    def _factor_program(
        self, node: ViewNode, source: Source, partition: tuple,
        packed: bool = False,
    ):
        """The factor program for this entry point and partition, lowered
        to IR and built on first use (partitions depend on the update
        stream) — its array form when ``packed``, which is ``None`` for a
        program that has none.  Callers pass the *canonicalized* partition
        (factor schemas sorted, see
        :func:`repro.core.plan_exec.canonical_partition`), so permuted
        factor orders of one decomposition share one program."""
        key = (node.name, source, partition)
        programs = (
            self._array_factor_programs if packed else self._factor_programs
        )
        if key not in programs:
            idx = source[1]
            targets = [
                self.views[child.name]
                for i, child in enumerate(node.children)
                if i != idx
            ]
            targets += [iv.relation for iv in self._indicators_at(node)]
            ir = lower_factor_plan(
                node,
                source,
                partition,
                tuple(t.name for t in targets),
                tuple(t.schema for t in targets),
                self.flags[node.name],
                self.query,
                self.group_aware,
            )
            if packed:
                program = kernels.array_factor_program(
                    ir, targets, self.query, self._factor_kops
                )
            elif self._interpreted:
                program = InterpreterFactorProgram(ir, targets, self.query)
            else:
                program = compile_factor_program(
                    ir, targets, self.query, library=self._library
                )
            programs[key] = program
        return programs[key]

    def _propagate_factored(
        self, leaf: ViewNode, factors: List[Relation]
    ) -> Relation:
        """Propagate one rank-1 term leaf-to-root: one factor program per
        node, the factors flowing between them as dicts or — over a ring
        that packs, into every node some factor reaches with at least
        ``_vector_rows`` rows and whose program has an array form — as
        ``(key tuple, column)`` pairs; sibling collapses are shared
        through the probe cache."""
        ring = self.query.ring
        root = self.tree.root
        root_delta = Relation(root.name, root.keys, ring)
        if not factors:
            return root_delta
        partition = tuple(f.schema for f in factors)
        kops = self._factor_kops
        fdatas = tuple((kops and f._packed_form) or f._data for f in factors)
        cache = self._probe_cache
        prev, node = leaf, leaf.parent
        while node is not None:
            source: Source = ("child", self._child_pos[node.name][prev.name])
            if len(partition) > 1:
                # Canonicalize the factor order (legal: factorized updates
                # already require a commutative ring) so permuted partitions
                # of the same decomposition reuse one compiled program.
                partition, perm = canonical_partition(partition)
                if perm != tuple(range(len(perm))):
                    fdatas = tuple(fdatas[i] for i in perm)
            # Chosen per node, from the rows it is handed: a one-row factor
            # of one node is an n-row factor of the next.
            program = None
            if kops is not None and self._vector_rows <= max(
                len(f) if type(f) is dict else len(f[0]) for f in fdatas
            ):
                program = self._factor_program(
                    node, source, partition, packed=True
                )
            packed = program is not None
            if packed:
                fdatas = tuple(kernels.packed_factor(f, kops) for f in fdatas)
            else:
                program = self._factor_program(node, source, partition)
                if kops is not None:
                    fdatas = tuple(kernels.factor_dict(f, kops) for f in fdatas)
            fdatas, flat = program.run(fdatas, cache)
            if fdatas is None:
                return Relation(root.name, root.keys, ring)
            partition = program.out_partition
            if flat is not None:
                if not packed:
                    flat_data, flat = flat, Relation(node.name, node.keys, ring)
                    flat._data = flat_data
                if packed or flat_data:
                    flat = self._write_view(node.name, flat)
                root_delta = flat
            if (
                not packed
                and any(not d for d in fdatas)
                and node is not self.tree.root
            ):
                return Relation(root.name, root.keys, ring)
            prev, node = node, node.parent
        return root_delta
