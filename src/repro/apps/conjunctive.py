"""Conjunctive query evaluation with three result representations (§6.3).

The same view tree maintains a conjunctive query's result in three ways,
differing only in where the result tuples live:

* ``listing_keys``   — keys of the root view carry result tuples, payloads
  their multiplicities (ℤ ring, free variables kept as group-by keys);
* ``listing_payloads`` — the relational data ring: the root payload *is* the
  result relation (free variables lifted into payload space);
* ``factorized``     — the result is distributed over the payload hierarchy
  of the views: each view keeps, per key, the union of its own variable's
  values with derivation counts (Figure 2e's blue views).  Arbitrarily more
  succinct than listing, yet lossless: :meth:`ConjunctiveQuery.enumerate`
  streams the result tuples (with multiplicities) back out.

The factorized mode is implemented by a view-tree transformation: a free
variable stays in the keys of *its own* view and is marginalized one level
up, which is exactly "compute ⊕_{Y ∈ T−{X}} P[T]" from the paper expressed
in key space (counts in ℤ payloads instead of nested unit relations).
A view left with nothing to marginalize over a single child — the view
above a relation whose attributes are all free — is that child, and is
elided (:func:`repro.core.view_tree.elide_copies`): the relation itself
is then the view at those variables.  What is stored is µ(τ, U), the
views the triggers probe, plus the views enumeration reads
(:func:`_enumerated`).
"""

from __future__ import annotations

from functools import partial
from itertools import chain, cycle, repeat, takewhile
from math import prod
from operator import concat, itemgetter, mul
from typing import (
    Callable, Iterable, Iterator, List, Mapping, Optional, Sequence, Set,
    Tuple,
)

from repro.bench.memory import strategy_scalars
from repro.core.engine import FIVMEngine
from repro.core.query import Query
from repro.core.variable_order import VariableOrder
from repro.core.view_tree import (
    ViewNode, ViewTree, build_view_tree, elide_copies,
)
from repro.data.relation import Relation
from repro.data.schema import key_projector
from repro.rings.numeric import INT_RING
from repro.rings.lifting import Lifting
from repro.rings.relational import RelationalRing, free_lift

__all__ = ["ConjunctiveQuery", "MODES"]

MODES = ("listing_keys", "listing_payloads", "factorized")


def _factorize_tree(tree: ViewTree, free: Sequence[str]) -> ViewTree:
    """Defer marginalization of free variables to the parent view.

    After the transform, the view at variable X keeps X in its keys (the
    union of X-values with counts, per dependency context) and X is summed
    out where the parent joins — turning the view hierarchy itself into the
    factorized representation over the variable order.
    """
    free_set = set(free)
    order = tree.order

    def walk(node: ViewNode) -> Tuple[str, ...]:
        """Returns the variables this node defers to its parent."""
        if node.is_leaf:
            return ()
        inherited: List[str] = []
        for child in node.children:
            inherited.extend(walk(child))
        own_free = tuple(v for v in node.at_vars if v in free_set)
        node.marginalized = tuple(inherited) + tuple(
            v for v in node.marginalized if v not in free_set
        )
        node.keys = order.canonical_sort(set(node.keys) | set(own_free))
        return own_free

    deferred = walk(tree.root)
    # The root keeps its own free variables; nothing above marginalizes them.
    del deferred
    return tree


def _own(node: ViewNode, free: Set[str]) -> Tuple[str, ...]:
    """The output variables ``node`` binds, in its key order."""
    return tuple(v for v in node.keys if v in free and v in node.at_vars)


def _enumerated(tree: ViewTree, free: Sequence[str]) -> List[str]:
    """Names of the views an :class:`_EnumerationPlan` over ``tree``
    reads: the views that bind output variables and, where one has such
    views below it, its other children (read for their counts)."""
    free_set = set(free)
    names: List[str] = []

    def visit(nodes: Sequence[ViewNode]) -> None:
        for node in nodes:
            names.append(node.name)
            if _own(node, free_set) and any(
                _own(child, free_set) for child in node.children
            ):
                visit(node.children)

    root = tree.root
    visit([root] if _own(root, free_set) or not free_set else root.children)
    return names


#: Children of a plan position that bind no output variable — relation
#: leaves and roots of all-bound subtrees — as (stored view, key from the
#: path binding).  The count such a view stores under the binding is the
#: multiplicity of everything below it, bound variables summed out.
_Counted = List[Tuple[Relation, Callable[[tuple], tuple]]]


def _count(counted: _Counted, binding: tuple) -> int:
    total = 1
    for view, key_of in counted:
        total *= view.payload(key_of(binding))
    return total


def _product(head: tuple, count: int, buckets) -> Tuple[Iterator, Iterator]:
    """The rows and multiplicities of ``{(head, count)}`` × the tail
    buckets, each a (values, stored counts) pair of lists, as C iterators.
    A one-entry bucket is folded into its left neighbour, the head into
    the first bucket with more entries; each other bucket multiplies the
    rows before it.  Where the first level's counts are equal and every
    later one is one, that count is the whole run's multiplicity.
    docs/architecture.md §9."""
    levels = [([head], [count])]
    for values, stored in buckets:
        left, factors = levels[-1]
        if len(values) == 1 or len(left) == 1:  # the product is no larger
            levels[-1] = (
                [prefix + value for prefix in left for value in values],
                [factor * n for factor in factors for n in stored],
            )
        else:
            levels.append((values, stored))
    rows, mults = levels[0]
    constant = len(set(mults)) == 1 and all(  # set semantics below the head
        stored.count(1) == len(stored) for _, stored in levels[1:])
    for values, stored in levels[1:]:  # each outer row n times × n values
        n = repeat(len(values))
        rows = map(concat, chain.from_iterable(map(repeat, rows, n)), cycle(values))
        mults = map(mul, chain.from_iterable(map(repeat, mults, n)), cycle(stored))
    return rows, repeat(levels[0][1][0]) if constant else mults


class _FreeView:
    """A view of the enumeration plan: one that binds output variables.

    Its keys are its dependency context (variables bound by the free views
    on the path above it) followed by its own free variables — ancestors
    sort first in the variable order — so a key splits at ``skip`` into
    the probed prefix and the values this view binds.  A relation standing
    in for the view above it (:func:`~repro.core.view_tree.elide_copies`)
    keeps its declared attribute order; where that is another order, the
    entries of a bucket are brought into this one as they are fetched.
    """

    __slots__ = (
        "view", "own", "skip", "probe", "subkey_of", "canonical", "children",
        "counted", "parent",
    )

    def __init__(self, view: Relation, path: Tuple[str, ...], own: Tuple[str, ...]):
        self.view = view
        self.own = own
        self.skip = len(view.schema) - len(own)
        self.probe = tuple(a for a in view.schema if a not in own)
        #: Probe subkey from the values bound on the path above this view.
        self.subkey_of = key_projector(path, self.probe)
        #: Stored key → probed prefix then own values; None when stored so.
        self.canonical = None
        if view.schema != self.probe + own:
            self.canonical = key_projector(view.schema, self.probe + own)
        #: Child views that bind output variables; when there are none the
        #: view's own stored count is the multiplicity of its subtree.
        self.children: List[_FreeView] = []
        #: The other children, consulted only beside ``children``.
        self.counted: _Counted = []
        #: Slot of the parent among the streamed views (0: a top view).
        self.parent = 0
        if self.probe:  # a top view is read whole, off its primary map
            view.register_index(self.probe)

    def bucket(self, binding: tuple):
        """Stored (key, count) entries under the path binding."""
        entries = self.view.lookup(self.probe, self.subkey_of(binding))
        if self.canonical is not None:
            entries = [(self.canonical(key), n) for key, n in entries]
        return entries

    def size(self, binding: tuple) -> int:
        """Result tuples below this view under the path binding: Σ over
        its entries of Π over its children's sizes, no row built."""
        entries = self.bucket(binding)
        if not self.children:
            return len(entries)  # stored counts are non-zero
        total = 0
        for key, _ in entries:
            inner = binding + key[self.skip:]
            if _count(self.counted, inner):
                total += prod(child.size(inner) for child in self.children)
        return total


class _EnumerationPlan:
    """What enumeration needs of a factorized view tree, derived once.

    The free views form the top of the tree.  Those with free views below
    them, and the top ones, are *streamed*: walked entry by entry in
    pre-order, straight off the stored buckets.  The remaining ones — the
    *tail* — have every ancestor streamed, so under one binding of the
    streamed views their buckets are fixed and independent, and the
    result restricted to that binding is their Cartesian product.
    """

    def __init__(
        self,
        tree: ViewTree,
        views: Mapping[str, Relation],
        free: Sequence[str],
        output_schema: Tuple[str, ...],
    ):
        free_set = set(free)
        for variable in free:
            stray = [
                a for a in tree.order.ancestors(variable) if a not in free_set
            ]
            if stray:
                raise ValueError(
                    f"free variable {variable!r} sits below bound {stray}; "
                    "use a variable order with free variables on top"
                )

        own = partial(_own, free=free_set)

        def below(
            children: Sequence[ViewNode], path: Tuple[str, ...]
        ) -> Tuple[List[_FreeView], _Counted]:
            binders: List[_FreeView] = []
            counted: _Counted = []
            for child in children:
                if own(child):
                    binders.append(build(child, path))
                else:
                    counted.append(
                        (views[child.name], key_projector(path, child.keys))
                    )
            return binders, counted

        def build(node: ViewNode, path: Tuple[str, ...]) -> _FreeView:
            plan_view = _FreeView(views[node.name], path, own(node))
            if any(map(own, node.children)):
                plan_view.children, plan_view.counted = below(
                    node.children, path + plan_view.own
                )
            return plan_view

        # A root that binds nothing above free variables is the synthetic
        # join of a disconnected query's components: plan its children.
        root = tree.root
        top = [root] if own(root) or not free_set else root.children
        self.tops, self.counted = below(top, ())

        self.streamed: List[_FreeView] = []
        self.tail: List[_FreeView] = []

        def place(plan_view: _FreeView, parent: int, is_top: bool) -> None:
            plan_view.parent = parent
            if not (plan_view.children or is_top):
                self.tail.append(plan_view)
                return
            self.streamed.append(plan_view)
            slot = len(self.streamed)
            for child in plan_view.children:
                place(child, slot, False)

        for plan_view in self.tops:
            place(plan_view, 0, True)

        layout = tuple(
            v for plan_view in self.streamed + self.tail for v in plan_view.own
        )
        #: Rows are assembled streamed views first; None when that is
        #: already the output schema.
        self.reorder = None
        if layout != output_schema:
            self.reorder = itemgetter(*map(layout.index, output_schema))

    def size(self) -> int:
        """Number of distinct result tuples, counted on the factorization."""
        if not _count(self.counted, ()):
            return 0
        return prod(plan_view.size(()) for plan_view in self.tops)

    def runs(self) -> Iterator[Iterable[Tuple[tuple, int]]]:
        """The result as a union of products: per binding of the streamed
        views, one C iterator of the (row, multiplicity) pairs under it."""
        streamed, tail, reorder = self.streamed, self.tail, self.reorder
        count = _count(self.counted, ())
        if not count:
            return
        last = len(streamed)
        if not last:
            yield (((), count),)  # no free variable: the one aggregate
            return
        # Per slot — 0 above the top views, i with streamed[i - 1] bound:
        binding = [()] * (last + 1)  # values bound on the path down to it
        row = [()] * (last + 1)  # output values of streamed[:i]
        counts = [count] * (last + 1)  # multiplicity factors of streamed[:i]
        entry: List[Optional[tuple]] = [None] * (last + 1)  # key it stands on
        cursors: list = [None] * last
        # A bucket is kept until the parent view moves to another entry;
        # siblings advancing beside it only restart its iteration.
        unset = object()
        held: list = [None] * (last + len(tail))
        held_for: list = [unset] * len(held)

        def bucket(index: int, plan_view: _FreeView):
            parent = plan_view.parent
            if held_for[index] is not entry[parent]:
                held_for[index] = entry[parent]
                entries = plan_view.bucket(binding[parent])
                if index >= last:
                    skip = plan_view.skip
                    entries = (
                        [key[skip:] for key, _ in entries],
                        [stored for _, stored in entries],
                    )
                held[index] = entries
            return held[index]

        depth = 0
        cursors[0] = iter(bucket(0, streamed[0]))
        while depth >= 0:
            plan_view = streamed[depth]
            for key, factor in cursors[depth]:
                bound = key[plan_view.skip:]
                inner = binding[plan_view.parent] + bound
                if plan_view.children:
                    factor = _count(plan_view.counted, inner)
                if factor:
                    break
            else:
                depth -= 1
                continue
            depth += 1
            binding[depth] = inner
            row[depth] = row[depth - 1] + bound
            counts[depth] = counts[depth - 1] * factor
            entry[depth] = key
            if depth < last:
                cursors[depth] = iter(bucket(depth, streamed[depth]))
                continue
            rows, mults = _product(row[last], counts[last], [
                bucket(index, plan_view)
                for index, plan_view in enumerate(tail, last)
            ])
            yield zip(rows if reorder is None else map(reorder, rows), mults)
            depth -= 1


def _gated(runs: Iterator[Iterable], live: bytearray) -> Iterator[Iterator]:
    """``runs``, each behind a C gate over ``live``'s bytes that is read
    before every pair and closes when ``live`` is cleared; then, before
    ``runs`` is advanced again, the ``RuntimeError``."""
    gate = chain.from_iterable(takewhile(len, repeat(live)))
    while live:
        run = next(runs, None)
        if run is None:
            return
        yield map(itemgetter(1), zip(gate, run))
    raise RuntimeError(
        "the result changed under this enumeration; call enumerate() again")


class ConjunctiveQuery:
    """A maintained conjunctive query under one of the three representations."""

    def __init__(
        self,
        name: str,
        relations: Mapping[str, Sequence[str]],
        free: Sequence[str],
        mode: str = "factorized",
        order: Optional[VariableOrder] = None,
        updatable: Optional[Sequence[str]] = None,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.mode = mode
        self.free = tuple(free)
        self.name = name

        if mode == "listing_keys":
            query = Query(name, relations, free=self.free, ring=INT_RING)
            self.engine = FIVMEngine(query, order=order, updatable=updatable)
        elif mode == "listing_payloads":
            ring = RelationalRing()
            lifting = Lifting(ring)
            for variable in self.free:
                lifting.set(variable, free_lift(variable))
            query = Query(name, relations, free=(), ring=ring, lifting=lifting)
            self.engine = FIVMEngine(query, order=order, updatable=updatable)
        else:
            query = Query(name, relations, free=(), ring=INT_RING)
            # Minimized here, as the engine will, so that the reader's
            # views are named as the engine stores them.
            tree = elide_copies(
                _factorize_tree(build_view_tree(query, order), self.free)
            )
            self.engine = FIVMEngine(
                query, tree=tree, updatable=updatable,
                materialize=_enumerated(tree, self.free),
            )
        self.query = self.engine.query
        # Canonical output order: free variables by variable-order position.
        self.output_schema = self.engine.tree.order.canonical_sort(self.free)
        #: Factorized mode: derived from the view tree on first use.
        self._plan: Optional[_EnumerationPlan] = None
        #: Gate of the open enumerations, cleared by the next update.
        self._live = bytearray()

    # ------------------------------------------------------------------

    @property
    def ring(self):
        """The ring deltas must be built over (ℤ or the relational ring)."""
        return self.query.ring

    def apply_update(self, delta: Relation) -> None:
        self._live.clear()
        self.engine.apply_update(delta)

    def memory(self) -> int:
        """Logical scalars stored across the maintained views (Figure 8)."""
        return strategy_scalars(self.engine)

    def result_relation(self) -> Relation:
        """The result as one relation (listing modes only)."""
        if self.mode == "listing_keys":
            result = self.engine.result()
            if result.schema != self.output_schema:
                return result.reorder(self.output_schema)
            return result
        if self.mode == "listing_payloads":
            payload = self.engine.result().payload(())
            if isinstance(payload, Relation) and payload.schema:
                if payload.schema != self.output_schema:
                    return payload.reorder(self.output_schema)
                return payload
            return Relation("result", self.output_schema, INT_RING)
        raise ValueError(
            "factorized results are enumerated, not materialized; use "
            "enumerate() or to_listing()"
        )

    def to_listing(self) -> Relation:
        """Materialize the result as a listing relation (any mode)."""
        if self.mode != "factorized":
            return self.result_relation()
        out = Relation("result", self.output_schema, INT_RING)
        for row, multiplicity in self.enumerate():
            out.add(row, multiplicity)
        return out

    def result_size(self) -> int:
        """Number of distinct result tuples.

        In factorized mode it is counted on the factorization — Σ over a
        view's entries of Π over its children's sizes — in time linear in
        the stored views, not in the listing.
        """
        if self.mode == "factorized":
            return self._enumeration_plan().size()
        return len(self.result_relation())

    # ------------------------------------------------------------------
    # Constant-delay enumeration from the factorized representation
    # ------------------------------------------------------------------

    def _enumeration_plan(self) -> _EnumerationPlan:
        if self._plan is None:
            self._plan = _EnumerationPlan(
                self.engine.tree, self.engine.views, self.free,
                self.output_schema,
            )
        return self._plan

    def enumerate(self) -> Iterator[Tuple[tuple, int]]:
        """Yield (tuple over the output schema, multiplicity), lazily and
        in no specified order.

        In factorized mode the result is read off the view hierarchy as a
        union of products (see :class:`_EnumerationPlan`): the first tuple
        costs one bucket fetch per free view, every further one constant
        work, and only the buckets on the current path are held.  The
        variable order must keep the free variables on top (``ValueError``
        otherwise).  In the listing modes the result relation is iterated.

        An ``apply_update`` invalidates the iterator: its next step raises
        ``RuntimeError`` instead of mixing two database states.
        """
        if self.mode == "factorized":
            runs = self._enumeration_plan().runs()
        else:
            runs = iter((self.result_relation().items(),))
        if not self._live:
            self._live = bytearray(256)
        return chain.from_iterable(_gated(runs, self._live))
