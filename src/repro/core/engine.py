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
   delta tuple, compiled once per process).  Where the payload
   ring's array hooks (``Ring.kernel_ops``) beat its scalar arithmetic
   *and* the program joins at least two payloads that carry lifted
   variables, the same IR also has an array form
   (:mod:`repro.core.kernels`), built the first time a delta of at least
   :data:`~repro.core.kernels.MIN_TRIGGER_ROWS` rows reaches the node;
   :meth:`FIVMEngine._delta_at_node` picks between the two from the size
   of the delta it is handed.  ``backend="interpreter"`` instead walks
   the IR directly (:mod:`repro.core.ir`) — the executable reference
   semantics the differential tests hold both trigger forms to.

The entry points are then chained into one **path plan** per node whose
deltas climb: a tuple of steps up to the root, each holding the node, its
trigger and its stored view.  Each updatable relation's path is also
generated as one function (:func:`~repro.core.plan_exec.compile_path`):
a delta below the array threshold runs it — the leaf write, every node's
trigger body and view write, building no relation but the root delta
(``FIVMEngine._row_paths``); a larger one takes the general walk.

Over payload blocks (the cofactor ring) the layout is planned too
(:func:`_supports`): every trigger is generated in row form for it, and
a delta off the plan re-plans (:meth:`FIVMEngine._on_plan`).

The factorized path is planned the same way, once per ``(leaf, factor
partition)`` since partitions depend on the update stream: each rank-1
term of a :class:`FactorizedUpdate` runs through one *factor program* per
node, built when a term first needs it, generated as source and — over ℝ,
for the matrix–vector-shaped programs — also realized over packed factors
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
client, not :attr:`views`.

Every write into a materialized view — delta absorbs on the propagate
paths, factorized flattens, stored-base absorbs, and :meth:`initialize`'s
loads — flows through the single :meth:`_write_view` choke point, which
applies the partial filter and the probe-cache invalidation together so
no write path can bypass either.  The generated paths, which never run
with partial views, inline the same write: fault hook, absorb,
invalidation.
"""

from __future__ import annotations

from itertools import compress
from typing import (
    Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

import numpy as np

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
    canonical_partition,
    compile_factor_program,
    compile_path,
    compile_slot_program,
    _base_env,
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
from repro.data.database import Database
from repro.data.indicator import IndicatorView
from repro.data.relation import (
    MIN_BLOCK_MERGE_ROWS, BlockRelation, DeferredRelation, Relation, _projected,
)

__all__ = [
    "DeferredRelation",
    "FIVMEngine",
    "check_delta",
    "check_factorized",
    "MATERIALIZATIONS",
    "resolve_materialization",
]

#: How much of the view tree is maintained: ``"full"`` keeps every
#: materialized view complete (the classic mode), ``"partial"`` keeps the
#: root view only for actively served keys (see the module docstring and
#: :mod:`repro.core.serving`).
MATERIALIZATIONS = ("full", "partial")


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


def _rows(delta: Relation) -> int:
    """Rows of a delta, read from its packed key table while it has one
    (which may count explicit zeros), so that dispatch never folds a
    packed delta into payload objects."""
    packed = delta._packed_form
    return len(packed[0]) if packed is not None else len(delta._data)


def _supports(
    tree: ViewTree, lifting, kops, floor=None,
) -> Optional[Dict[str, tuple]]:
    """Per node, the support of its payloads over a block-view ring: the
    sorted variables lifted in its subtree (§6.2), read off the lifts
    (``kops.lift_support``), and those ``floor`` (node name → variables,
    a re-plan's) puts there.  Each is the ring's own tuple for the
    support (``kops.widen``), so supports compare by identity.  ``None``
    when a lift is not the ring's own, whose support shows only when it
    runs."""
    supports: Dict[str, tuple] = {}
    for node in reversed(tree.nodes):  # children before parents
        own = {i for child in node.children for i in supports[child.name]}
        own.update((floor or {}).get(node.name, ()))
        for lift in filter(None, map(lifting.get, node.marginalized)):
            support = kops.lift_support(lift)
            if support is None:
                return None
            own.update(support)
        supports[node.name] = kops.widen((), tuple(sorted(own)))[0]
    return supports


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


class _PathStep(NamedTuple):
    """One node of a planned leaf-to-root path: its entry point ``(node
    name, source)``, which also keys its array program if any, its scalar
    trigger, and its stored view (``None`` where µ stores none)."""

    node: ViewNode
    key: Tuple[str, Source]
    program: object
    view: Optional[Relation]


class _FactorStep:
    """One node of a planned factored path: the permutation that puts the
    incoming factors in canonical order (``None`` when they arrive in
    it), the node's factor program IR over the canonical partition, the
    siblings it merges, the key ``(node name, source, canonical
    partition)`` its scalar and array programs are registered under, and
    those programs once bound (``False`` until a term needs them; an
    ``array`` of ``None`` is a program with no array form)."""

    __slots__ = ("node", "perm", "ir", "targets", "key", "array", "scalar")

    def __init__(self, node, perm, ir, targets, key):
        self.node, self.perm, self.ir = node, perm, ir
        self.targets, self.key = targets, key
        self.array = self.scalar = False


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
        array form, chosen per delta (see the module docstring).  The
        former names ``"kernels"`` and ``"source"`` select nothing; they
        stay accepted as spellings of the default for the same reason as
        the ``storage`` values below.
    storage:
        Selects nothing: the ring decides a view's layout — a payload
        block (:class:`BlockRelation`) over the cofactor ring, a
        dict-backed :class:`Relation` otherwise (docs/architecture.md
        §4).  The former values ``"dict"`` and ``"columnar"`` stay
        accepted as spellings of the default only
        because the frozen substitution probe of ``benchmarks/e2e``
        constructs them, and that benchmark's tier-1 smoke requires
        each of its cells to read non-zero.
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
        faults=None,
    ):
        self.query = query
        #: Optional :class:`repro.core.faults.FaultPlan`; when set, the
        #: engine announces the ``engine.write_view`` site on every
        #: materialized-view write (the fault-injection hook the
        #: robustness tests use — ``None`` costs one attribute check).
        self._faults = faults
        if backend not in (None, "interpreter", "kernels", "source"):
            raise ValueError(
                f"unknown backend {backend!r}; the only selectable one is "
                "the reference 'interpreter'"
            )
        if storage not in (None, "dict", "columnar"):
            raise ValueError(f"unknown storage {storage!r}; there is one layout")
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
        #: The ring decides the layout of a stored view.  Over the
        #: cofactor ring it is a payload block (:class:`BlockRelation`);
        #: elsewhere a dict, except that no trigger probes the root, so
        #: nothing binds its map: where factor programs hand it packed
        #: deltas it keeps their column and derives the map on demand
        #: (see :class:`DeferredRelation`).
        kops = query.ring.kernel_ops()
        #: Per node, its payloads' planned support (:func:`_supports`):
        #: its view's layout, and the row form's term tables.  A lifting
        #: whose lifts are not the ring's own plans none, and runs the
        #: reference interpreter.
        self._supports = None
        if getattr(kops, "block_views", False):
            view_cls = root_cls = BlockRelation
            self._supports = _supports(self.tree, query.lifting, kops)
            self._interpreted |= self._supports is None
        else:
            view_cls = Relation
            root_cls = (
                DeferredRelation
                if self._factor_kops is not None
                and self.materialization == "full"
                else Relation
            )
        self.views: Dict[str, Relation] = {}
        for node in self.tree.nodes:
            if self.flags[node.name]:
                cls = root_cls if node is self.tree.root else view_cls
                args = (node.name, node.keys, query.ring)
                if self._supports is not None:  # laid out as planned
                    args += (self._supports[node.name],)
                self.views[node.name] = cls(*args)
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
        #: Per updatable base relation observed by indicators: each
        #: ``(indicator, planned path)``, host entry point first.
        self._indicator_hosts: Dict[str, List[tuple]] = {}
        #: Per node whose deltas climb: the steps from its parent to the
        #: root, planned once (the root's path is empty).
        self._paths: Dict[str, Tuple[_PathStep, ...]] = {
            self.tree.root.name: ()
        }
        #: Per updatable relation: its generated path, for its deltas of
        #: fewer than ``_trigger_rows`` rows (see :func:`~repro.core.
        #: plan_exec.compile_path`).  Absent on the interpreter, under a
        #: partial view's prefilter, and for a relation indicators observe.
        self._row_paths: Dict[str, object] = {}
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
        #: Per (leaf name, factor partition of a term): its path as
        #: :class:`_FactorStep`\ s, planned on first use.
        self._factored_paths: Dict[tuple, Tuple[_FactorStep, ...]] = {}
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
        """Build one delta-join plan per (node, delta entry point),
        register the secondary indexes the probes need, lower each plan
        to IR once, and bind the programs (:meth:`_bind`)."""
        for node in self.tree.nodes:
            sources = [
                ("child", i) for i, child in enumerate(node.children)
                if self._sources[child.name]
            ] + [
                ("ind", i) for i, spec in enumerate(node.indicators)
                if spec.base_name in self.updatable
            ]
            for source in sources:
                plan = self._plans[(node.name, source)] = self._plan(node, source)
                targets = self._plan_targets(node, plan)
                self._ir[(node.name, source)] = lower_delta_plan(
                    node, source, plan, tuple(t.schema for t in targets),
                    self.query,
                )
        self._bind()

    def _bind(self) -> None:
        """Build each entry point's scalar program (and a slot for its
        array form where :meth:`_joins_payloads` and the ring say so),
        chain them into paths and generate each relation's path.  A
        re-plan reruns it; the code cache is keyed by layout."""
        by_name = {node.name: node for node in self.tree.nodes}
        kops = self.query.ring.kernel_ops()
        has_arrays = (
            not self._interpreted
            and kops is not None
            and kops.vectorizes_triggers
        )
        lifts = self.query.lifting.table()
        base = _base_env(self.query.ring)
        lifted = self._lifted_subtrees() if has_arrays else None
        self._memo_sites.clear()
        for key, ir in self._ir.items():
            node, (kind, idx) = by_name[key[0]], key[1]
            targets = self._plan_targets(node, self._plans[key])
            if self._interpreted:
                program = InterpreterDeltaProgram(ir, targets, self.query)
            else:  # over block views in row form, for the planned supports
                program = compile_slot_program(
                    ir, targets, self.query, base,
                    None if self._supports is None else (
                        self._supports[node.children[idx].name]
                        if kind == "child" else (),
                        tuple(target._store.support for target in targets),
                        tuple(kops.lift_support(lifts[var])
                              for var, _ in ir.accumulate.lifts),
                    ))
                self._memo_sites.update(program.memo_sites)
            self._programs[key] = program
            if has_arrays and self._joins_payloads(
                    node, key[1], self._plans[key], lifted):
                self._kernel_programs.setdefault(key, None)
        climbs: Dict[str, _PathStep] = {}  # child name → step at its parent
        hosted: List[Tuple[IndicatorView, _PathStep]] = []
        for key, program in self._programs.items():
            node, (kind, idx) = by_name[key[0]], key[1]
            step = _PathStep(node, key, program, self.views.get(node.name))
            if kind == "child":
                climbs[node.children[idx].name] = step
            else:
                hosted.append((self._indicators_at(node)[idx], step))
        for name in climbs:
            steps, at = [], name
            while at in climbs:
                steps.append(climbs[at])
                at = climbs[at].node.name
            self._paths[name] = tuple(steps)
        self._indicator_hosts.clear()
        for iv, step in hosted:
            self._indicator_hosts.setdefault(iv.base_name, []).append(
                (iv, (step,) + self._paths[step.node.name])
            )
        if self._interpreted or self.partial:
            return
        for rel, leaf in self.tree.leaves.items():
            if self._paths.get(leaf.name) and rel not in self._indicator_hosts:
                self._row_paths[rel] = compile_path(
                    (leaf.name, self.views.get(leaf.name)),
                    [(self._ir[step.key], step.program, step.view)
                     for step in self._paths[leaf.name]],
                    self._probe_cache, self._faults, self.tree.root,
                    self.query, base)

    def _plan_targets(self, node: ViewNode, plan) -> List[Relation]:
        return [self._plan_target_relation(node, step) for step in plan]

    def _lifted_subtrees(self) -> Dict[str, bool]:
        """Per node, whether a variable marginalized in its subtree is
        lifted (one bottom-up pass)."""
        lifting = self.query.lifting
        lifted: Dict[str, bool] = {}
        for node in reversed(self.tree.nodes):  # children before parents
            lifted[node.name] = any(
                lifting.get(var) is not None for var in node.marginalized
            ) or any(lifted[child.name] for child in node.children)
        return lifted

    def _joins_payloads(
        self, node: ViewNode, source: Source, plan, lifted: Dict[str, bool],
    ) -> bool:
        """Whether the node's payload product has something to vectorize:
        at least two of its view factors (the delta's source and the
        probed siblings) come from subtrees that lift a variable
        (``lifted``, :meth:`_lifted_subtrees`).

        A factor from a subtree without lifts is the ring image of a
        multiplicity, and a lift is a memoized singleton; multiplying by
        either is a scaling the scalar trigger does in about a
        microsecond per row, which packing cannot beat.  The products
        that cost are those between two aggregated payloads.  A program
        that probes nothing counts its own lifts instead: its output is
        the lifted column, which the array form builds as one block and a
        block view absorbs as rows, where the scalar form builds and adds
        one payload object per row (ROADMAP 3(c)).  The rule stops there:
        a probing program whose only lifted payload is its own (the
        triangle root) stays scalar.
        """
        children = [step.index for step in plan if step.kind == "child"]
        if source[0] == "child":
            children.append(source[1])
        if not plan:
            # Probe-free: the node's own lifts are the product.
            return any(
                self.query.lifting.get(var) is not None
                for var in node.marginalized
            )
        return sum(lifted[node.children[i].name] for i in children) >= 2

    def _plan(self, node: ViewNode, source: Source) -> List[_PlanStep]:
        kind, idx = source
        if kind == "child":
            accumulated = set(node.children[idx].keys)
        else:
            accumulated = set(node.indicators[idx].attrs)
        # Each candidate target: (kind, index, schema, schema as a set).
        pending: List[Tuple[str, int, Tuple[str, ...], Set[str]]] = []
        for i, child in enumerate(node.children):
            if not (kind == "child" and i == idx):
                pending.append(("child", i, child.keys, set(child.keys)))
        for i, spec in enumerate(node.indicators):
            if not (kind == "ind" and i == idx):
                pending.append(("ind", i, spec.attrs, set(spec.attrs)))

        steps: List[_PlanStep] = []
        while pending:
            # Prefer the target sharing the most attributes with what we
            # already have (greedy left-deep plan); deterministic tie-break.
            best = max(
                range(len(pending)),
                key=lambda i: (len(accumulated & pending[i][3]), -i),
            )
            t_kind, t_idx, t_schema, _ = pending.pop(best)
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
        reload follows): the probe cache and the lifted-sibling memos
        with the payloads they hold (a cleared block view drops its own)."""
        self._probe_cache.clear()
        for memo, _ in self._memo_sites.values():
            memo.clear()

    # ------------------------------------------------------------------
    # The planned layout (block views)
    # ------------------------------------------------------------------

    def _on_plan(self, leaf: ViewNode, delta: Relation) -> Optional[tuple]:
        """The guard every update over block views passes before any
        write: ``None`` when ``delta`` has fewer than
        :data:`MIN_BLOCK_MERGE_ROWS` rows, all on the leaf's planned
        support; else its packed form, laid out for that support,
        re-planned (:meth:`_replan`) first when a payload is off it."""
        planned = self._supports[leaf.name]
        data = delta._data
        if len(data) < MIN_BLOCK_MERGE_ROWS:
            for payload in data.values():
                if payload.support is not planned:
                    break
            else:
                return None
        kops = self.query.ring.kernel_ops()
        block, support = kops.pack(list(data.values()), len(data))
        if support is not planned:
            self._replan({leaf.name: support})
            planned = self._supports[leaf.name]
            _, width, _, emb = kops.widen(planned, support)
            block, conformed = np.zeros((len(data), width)), block
            block[:, emb] = conformed
        return list(data), (block, planned)

    def _replan(self, seeds: Optional[Dict[str, set]] = None) -> None:
        """Rerun :func:`_supports` over the planned supports, the views'
        (a write no guard saw — :meth:`initialize`, :meth:`restore`, a
        factorized update — may widen one) and ``seeds`` (node name →
        variables); on a change, re-lay the views out and :meth:`_bind`."""
        if self._supports is None:
            return
        floor = {name: set(support) for name, support in self._supports.items()}
        for name, view in self.views.items():
            floor[name].update(view._store.support or ())
        for name, support in (seeds or {}).items():
            floor[name].update(support)
        supports = _supports(
            self.tree, self.query.lifting, self.query.ring.kernel_ops(), floor)
        if supports != self._supports:
            self._supports = supports
            for name, view in self.views.items():
                view.relayout(supports[name])
            self._bind()

    def _write_view(self, view_name: str, delta) -> Relation:
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
            if not _rows(delta):
                return delta
        view = self.views[view_name]
        view.absorb(delta)
        self._invalidate(view_name)
        if active is not None:
            from repro.core.serving import active_payload_cost

            ring = self.query.ring
            packed = delta._packed_form
            for key in delta.keys() if packed is None else packed[0]:
                active.update_cost(
                    key, active_payload_cost(ring, view.payload(key))
                )
            self._evict_over_budget(active)
        return delta

    def _partial_filter(self, active, delta: Relation, keys=None) -> Relation:
        """Split a delta for a partial view into the absorbed (active)
        part, recording a drop per discarded key; a packed delta stays
        packed.  Given the node's ``keys``, the delta enters the node ahead
        of its probe program (module docstring): a row counts for the key it
        projects to, and a delta lacking a key attribute passes through."""
        schema, positions = delta.schema, None
        if keys is not None and tuple(keys) != tuple(schema):
            if any(attr not in schema for attr in keys):
                return delta
            positions = [schema.index(attr) for attr in keys]
        packed = delta._packed_form
        rows = list(delta._data) if packed is None else packed[0]
        outs = rows if positions is None else list(_projected(rows, positions))
        keep = list(map(active.entries.__contains__, outs))
        if all(keep):
            return delta
        active.record_drops({key for key, kept in zip(outs, keep) if not kept})
        kept = Relation(delta.name, schema, delta.ring)
        if packed is None:
            kept._data = dict(compress(delta._data.items(), keep))
        elif any(keep):
            kept = DeferredRelation(delta.name, schema, delta.ring, packed=(
                list(compress(rows, keep)),
                delta.ring.kernel_ops().take(packed[1], np.flatnonzero(keep)),
            ))
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
        self._replan()

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
        plain dict, plus indicator counts and partial
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
        self._replan()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def result(self) -> Relation:
        """The maintained query result (the root view)."""
        return self.views[self.tree.root.name]

    def _empty_root(self) -> Relation:
        """The ring-zero root delta of an update that changes nothing."""
        root = self.tree.root
        return Relation(root.name, root.keys, self.query.ring)

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
        data = delta._data
        if not data:
            return self._empty_root()
        packed = None if self._supports is None else self._on_plan(leaf, delta)
        if len(data) < self._trigger_rows:
            path = self._row_paths.get(rel)
            if path is not None:
                return path(delta, packed)
        if packed is not None:
            delta = DeferredRelation(rel, delta.schema, delta.ring, packed=packed)

        # 1. Compute indicator deltas against the pre-update base state.
        ind_tasks: List[Tuple[IndicatorView, tuple, Relation]] = []
        for iv, steps in self._indicator_hosts.get(rel, ()):
            base = self.views.get(leaf.name)
            if base is None:
                raise RuntimeError(
                    f"indicator over {rel} needs its base stored"
                )
            ind_tasks.append((iv, steps, iv.compute_delta(delta, base)))

        # 2. Absorb the delta into the stored base copy (if stored).
        if leaf.name in self.views:
            self._write_view(leaf.name, delta)

        # 3. Propagate along the relation's leaf-to-root path.
        root_delta = self._propagate(self._paths[leaf.name], delta)

        # 4. Propagate each indicator delta along its host-to-root path, in
        #    sequence, committing each before the next fires.
        for iv, steps, ind_delta in ind_tasks:
            if not ind_delta.is_empty:
                contribution = self._propagate(steps, ind_delta)
                root_delta = root_delta.union(
                    contribution, name=self.tree.root.name
                )
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
            return self._empty_root()
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

    def _propagate(self, steps: Tuple[_PathStep, ...], cur: Relation) -> Relation:
        """Thread a delta relation up a planned path; returns the root
        delta."""
        root = self.tree.root
        for step in steps:
            node = step.node
            active = self.partial.get(node.name)
            if active is not None:
                # Cold-key rows die here, before the node's probe program
                # runs — the Noria write saving (see the module docstring).
                cur = self._partial_filter(active, cur, node.keys)
                if not _rows(cur):
                    return self._empty_root()
            cur = self._delta_at_node(step, cur)
            if step.view is not None and _rows(cur):
                cur = self._write_view(node.name, cur)
            if node is not root and not _rows(cur):
                return self._empty_root()
        return cur

    def _delta_at_node(self, step: _PathStep, delta: Relation) -> Relation:
        """Evaluate a path step's delta view: through the entry point's
        array program when it has one and the delta is large enough for
        arrays to pay, through its scalar program otherwise."""
        key = step.key
        if _rows(delta) >= self._trigger_rows and key in self._kernel_programs:
            program = self._kernel_programs[key]
            if program is None:
                program = kernels.kernel_delta_program(
                    self._ir[key],
                    self._plan_targets(step.node, self._plans[key]),
                    self.query,
                )
                self._kernel_programs[key] = program
        else:
            program = step.program
        return program.run(delta)

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
            return self._empty_root()
        if rel in self._indicator_hosts:
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
            contribution = self._propagate_factored(leaf, term)
            # One term's root delta is returned as propagated (read-only,
            # possibly still packed); only further terms pay a merge.
            total = (
                contribution if total is None
                else total.union(contribution, name=root.name)
            )
        self._replan()
        return total

    def _factored_path(
        self, leaf: ViewNode, partition: tuple
    ) -> Tuple[_FactorStep, ...]:
        """Plan the path of a term with this factor partition: per node,
        the canonical factor order (factor schemas sorted, see
        :func:`repro.core.plan_exec.canonical_partition` — legal because
        factorized updates require a commutative ring, and permuted
        partitions of one decomposition then share one program) and the
        factor program lowered over it, whose output partition is the
        next node's input."""
        steps = []
        for step in self._paths[leaf.name]:
            node, source = step.node, step.key[1]
            partition, perm = canonical_partition(partition)
            targets = [
                self.views[child.name]
                for i, child in enumerate(node.children)
                if i != source[1]
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
            if perm == tuple(range(len(perm))):
                perm = None
            steps.append(_FactorStep(
                node, perm, ir, targets, (node.name, source, partition)
            ))
            partition = ir.out_partition
        return tuple(steps)

    def _factor_program(self, step: _FactorStep, packed: bool = False):
        """Bind a planned step's factor program — its array form when
        ``packed``, which is ``None`` for a program that has none —
        built and registered under ``step.key`` unless another path's step
        already was.  The walk calls this when the step has not bound the
        form, so programs are built on first use and shared."""
        ir, targets = step.ir, step.targets
        registry = (
            self._array_factor_programs if packed else self._factor_programs
        )
        program = registry.get(step.key, False)
        if program is False:
            program = registry[step.key] = (
                kernels.array_factor_program(
                    ir, targets, self.query, self._factor_kops
                ) if packed
                else InterpreterFactorProgram(ir, targets, self.query)
                if self._interpreted
                else compile_factor_program(ir, targets, self.query)
            )
        setattr(step, "array" if packed else "scalar", program)
        return program

    def _propagate_factored(
        self, leaf: ViewNode, factors: List[Relation]
    ) -> Relation:
        """Propagate one rank-1 term along its planned path
        (:meth:`_factored_path`): one factor program per node, the factors
        flowing between them as dicts or — over a ring that packs, into
        every node some factor reaches with at least ``_vector_rows`` rows
        and whose program has an array form — as key tuples and columns;
        sibling collapses are shared through the probe cache."""
        if not factors:
            return self._empty_root()
        key = (leaf.name, tuple([f.schema for f in factors]))
        plan = self._factored_paths.get(key)
        if plan is None:
            plan = self._factored_paths[key] = self._factored_path(
                leaf, key[1]
            )
        ring = self.query.ring
        kops = self._factor_kops
        # The term's factors: their key tuples and payload columns, or
        # (``keys`` is ``None``) their payload dicts.
        forms = [f._packed_form for f in factors] if kops else [None]
        if None in forms:
            keys, payloads = None, [f._data for f in factors]
        else:
            keys, payloads = map(list, zip(*forms))
        cache = self._probe_cache
        root_delta = None
        for step in plan:
            if step.perm is not None:
                payloads = [payloads[i] for i in step.perm]
                if keys is not None:
                    keys = [keys[i] for i in step.perm]
            # Chosen per node, from the rows it is handed: a one-row factor
            # of one node is an n-row factor of the next.
            program = None
            if kops and self._vector_rows <= max(map(len, keys or payloads)):
                program = step.array
                if program is False:
                    program = self._factor_program(step, packed=True)
            node = step.node
            if program is not None:
                if keys is None:
                    keys, payloads = kernels.packed_factors(payloads, kops)
                keys, payloads, flat = program.run(keys, payloads, cache)
                if keys is None:
                    return self._empty_root()
                if flat is not None:
                    root_delta = self._write_view(node.name, flat)
                continue
            if keys is not None:
                keys, payloads = None, kernels.factor_dicts(keys, payloads, kops)
            payloads, flat = (step.scalar or self._factor_program(step)).run(
                payloads, cache
            )
            if payloads is None:
                return self._empty_root()
            if flat is not None:
                flat_data, flat = flat, Relation(node.name, node.keys, ring)
                flat._data = flat_data
                if flat_data:
                    flat = self._write_view(node.name, flat)
                root_delta = flat
            if any(not d for d in payloads) and node is not self.tree.root:
                return self._empty_root()
        return root_delta if root_delta is not None else self._empty_root()
