"""View trees (Figure 3): one view per variable, aggregates pushed past joins.

``build_view_tree`` implements the paper's τ(ω, F) construction:

* the variable order is extended with relation leaves placed under the
  lowest variable of each relation's schema;
* at a bound variable ``X`` the view joins its children and marginalizes
  ``X`` (applying the lifting function);
* at a free variable the view joins its children and keeps ``X`` in its keys;
* view keys are ``dep(X) ∪ (F ∩ ⋃ child keys)``.

Two practical refinements from the paper are applied:

* **chain collapsing** — long chains of bound variables local to one
  relation (wide schemas like Retailer's) are composed into a single view
  marginalizing several variables at once;
* **identical-view elision** — when a free variable's view would equal its
  only child (all keys free), no extra node is created ("we then only store
  the top view out of these identical views").

``build_view_tree`` keeps the view over a relation leaf, so the tree it
returns shows one view per variable chain as the paper draws it;
:func:`elide_copies` is the same rule taken to the leaves — a view that
copies its only child is dropped — and runs on every tree an engine
maintains, after whatever transformed it (indicators, key factorization).
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.query import Query
from repro.core.variable_order import VariableOrder, VONode
from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.schema import SchemaError, merge_schemas

__all__ = [
    "ViewNode", "ViewTree", "build_view_tree", "elide_copies", "is_copy",
    "subtree_signature",
]


class ViewNode:
    """A node in a view tree: either a relation leaf or a join-aggregate view."""

    __slots__ = (
        "name",
        "keys",
        "relations",
        "children",
        "marginalized",
        "at_vars",
        "leaf_of",
        "parent",
        "indicators",
    )

    def __init__(
        self,
        name: str,
        keys: Tuple[str, ...],
        relations: frozenset,
        children: List["ViewNode"],
        marginalized: Tuple[str, ...] = (),
        at_vars: Tuple[str, ...] = (),
        leaf_of: Optional[str] = None,
    ):
        self.name = name
        self.keys = keys
        self.relations = relations
        self.children = children
        self.marginalized = marginalized
        self.at_vars = at_vars
        self.leaf_of = leaf_of
        self.parent: Optional[ViewNode] = None
        #: Indicator projections attached by Appendix B's I(τ) algorithm;
        #: populated by :mod:`repro.core.indicator_trees`.
        self.indicators: list = []

    @property
    def is_leaf(self) -> bool:
        """Whether this node is a relation leaf."""
        return self.leaf_of is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = f"leaf:{self.leaf_of}" if self.is_leaf else f"@{','.join(self.at_vars)}"
        return f"ViewNode({self.name} {kind} keys={list(self.keys)})"


class ViewTree:
    """A built view tree plus the query and variable order it came from."""

    def __init__(self, root: ViewNode, query: Query, order: VariableOrder):
        self.root = root
        self.query = query
        self.order = order
        self.nodes: List[ViewNode] = []
        self.leaves: Dict[str, ViewNode] = {}
        self.rewire()

    def rewire(self) -> None:
        """Rebuild ``nodes``, ``leaves`` and the parent links from the
        root (after a pass changed which nodes the tree holds)."""
        self.nodes.clear()
        self.leaves.clear()
        self._wire(self.root, None)

    def _wire(self, node: ViewNode, parent: Optional[ViewNode]) -> None:
        node.parent = parent
        self.nodes.append(node)
        if node.is_leaf:
            if node.leaf_of in self.leaves:
                raise SchemaError(
                    f"relation {node.leaf_of} occurs at two leaves; register "
                    "self-join occurrences under distinct names"
                )
            self.leaves[node.leaf_of] = node
        for child in node.children:
            self._wire(child, node)

    # ------------------------------------------------------------------

    def inner_views(self) -> List[ViewNode]:
        """Non-leaf views (what the paper counts as 'views')."""
        return [n for n in self.nodes if not n.is_leaf]

    def view_count(self) -> int:
        """Number of non-leaf views in the tree."""
        return len(self.inner_views())

    def path_to_root(self, relation: str) -> List[ViewNode]:
        """Nodes from the relation's leaf (exclusive) up to the root."""
        leaf = self.leaves[relation]
        path: List[ViewNode] = []
        node = leaf.parent
        while node is not None:
            path.append(node)
            node = node.parent
        return path

    def evaluate(
        self, db: Database, results: Optional[Dict[str, Relation]] = None
    ) -> Dict[str, Relation]:
        """Compute every view bottom-up over ``db``; returns name → contents.

        This is the static factorized-evaluation path (Section 3); IVM reuses
        the same node-level computation for deltas.
        """
        results = results if results is not None else {}
        self._evaluate(self.root, db, results)
        return results

    def _evaluate(
        self, node: ViewNode, db: Database, results: Dict[str, Relation]
    ) -> Relation:
        if node.is_leaf:
            contents = db.relation(node.leaf_of)
            results[node.name] = contents
            return contents
        child_results = [
            self._evaluate(child, db, results) for child in node.children
        ]
        contents = compute_view(node, child_results, self.query)
        results[node.name] = contents
        return contents

    def result_view(self) -> str:
        """Name of the view holding the query result."""
        return self.root.name

    def pretty(self) -> str:
        """Indented rendering of the tree (for docs and debugging)."""
        lines: List[str] = []

        def walk(node: ViewNode, depth: int) -> None:
            """Render ``node`` and its subtree at ``depth``."""
            pad = "  " * depth
            if node.is_leaf:
                lines.append(f"{pad}{node.leaf_of}[{', '.join(node.keys)}]")
            else:
                agg = (
                    f" marg({', '.join(node.marginalized)})"
                    if node.marginalized
                    else ""
                )
                lines.append(f"{pad}{node.name}[{', '.join(node.keys)}]{agg}")
                for ind in node.indicators:
                    lines.append(f"{pad}  ∃[{', '.join(ind.attrs)}]{ind.base_name}")
            for child in node.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


def compute_view(
    node: ViewNode,
    child_contents: Sequence[Relation],
    query: Query,
    indicator_contents: Sequence[Relation] = (),
) -> Relation:
    """Evaluate one inner view from its children's contents.

    The children, then any indicator projections, fold left to right
    (payload multiplication follows that order, which matters for
    non-commutative rings) and the node's bound variables are summed out
    *inside the last join* (:meth:`Relation.join_project`; lifts in
    ``node.marginalized`` order, innermost first), so the listing join of
    the node is never stored.  A single input is marginalized (or copied)
    directly.  The result carries the node's name and key order.
    """
    if not child_contents:
        raise ValueError(f"view {node.name} has no children")
    inputs = [*child_contents, *indicator_contents]
    joined = reduce(merge_schemas, [contents.schema for contents in inputs])
    if set(joined) - set(node.marginalized) != set(node.keys):
        raise SchemaError(
            f"view {node.name}: joining {joined} and marginalizing "
            f"{node.marginalized} does not match keys {node.keys}"
        )
    lifting = query.lifting.table()
    current = inputs[0]
    if len(inputs) == 1:
        current = current.marginalize(node.marginalized, lifting, name=node.name)
    else:
        for other in inputs[1:-1]:
            current = current.join(other)
        current = current.join_project(
            inputs[-1], node.marginalized, lifting, name=node.name
        )
    if current.schema != node.keys:
        current = current.reorder(node.keys, name=node.name)
    return current


def build_view_tree(
    query: Query,
    order: Optional[VariableOrder] = None,
    collapse_chains: bool = True,
    elide_identical: bool = True,
) -> ViewTree:
    """Construct τ(ω, F) for ``query`` over ``order`` (Figure 3)."""
    order = order or VariableOrder.auto(query)
    order.validate(query)
    free = set(query.free)

    # Attach each relation to the lowest variable of its schema.  Relations
    # with empty schemas join at the (synthetic) top.
    anchored: Dict[str, List[str]] = {}
    top_level: List[str] = []
    for rel, schema in query.relations.items():
        if schema:
            anchored.setdefault(order.anchor(schema), []).append(rel)
        else:
            top_level.append(rel)

    used_names: Set[str] = set()

    def unique_name(base: str) -> str:
        """``base``, suffixed ``#n`` if already used."""
        name = base
        suffix = 1
        while name in used_names:
            suffix += 1
            name = f"{base}#{suffix}"
        used_names.add(name)
        return name

    def leaf(rel: str) -> ViewNode:
        """A leaf node for relation ``rel``."""
        return ViewNode(
            name=unique_name(rel),
            keys=query.schema_of(rel),
            relations=frozenset([rel]),
            children=[],
            leaf_of=rel,
        )

    def build(vo_node: VONode) -> ViewNode:
        """The view (sub)tree for one variable-order node."""
        children = [build(child) for child in vo_node.children]
        children += [leaf(rel) for rel in sorted(anchored.get(vo_node.var, ()))]
        if not children:
            raise SchemaError(
                f"variable {vo_node.var} has no relation below it"
            )
        relations = frozenset().union(*(c.relations for c in children))
        child_key_union: Set[str] = set()
        for child in children:
            child_key_union |= set(child.keys)
        keys = order.canonical_sort(
            order.dep(query, vo_node.var) | (free & child_key_union)
        )
        is_free = vo_node.var in free

        if is_free and elide_identical and len(children) == 1:
            child = children[0]
            if set(child.keys) == set(keys) and not child.is_leaf:
                # Identical view: keep only the child ("store the top view").
                child.at_vars = child.at_vars + (vo_node.var,)
                return child

        marginalized = () if is_free else (vo_node.var,)
        node = ViewNode(
            name="",
            keys=keys,
            relations=relations,
            children=children,
            marginalized=marginalized,
            at_vars=(vo_node.var,),
        )

        if collapse_chains and not is_free and len(children) == 1:
            child = children[0]
            if (
                not child.is_leaf
                and child.relations == relations
                and child.marginalized
            ):
                # Chain collapsing: compose consecutive bound marginalizations
                # local to the same relation set into one view.
                node.children = child.children
                node.marginalized = child.marginalized + node.marginalized
                node.at_vars = child.at_vars + node.at_vars
                used_names.discard(child.name)

        top_var = node.at_vars[-1]
        rel_tag = "".join(sorted(r[:1] for r in relations))
        node.name = unique_name(f"V@{top_var}_{rel_tag}")
        return node

    roots = [build(r) for r in order.roots]
    roots += [leaf(rel) for rel in top_level]

    if len(roots) == 1 and not roots[0].is_leaf:
        root = roots[0]
    else:
        # Disconnected query (or a single bare relation): synthesize a top
        # view joining the component results.
        relations = frozenset().union(*(r.relations for r in roots))
        child_key_union = set()
        for r in roots:
            child_key_union |= set(r.keys)
        keys = order.canonical_sort(free & child_key_union) if free else ()
        bound_left = tuple(
            a
            for r in roots
            for a in r.keys
            if a not in free
        )
        root = ViewNode(
            name=unique_name("V@top"),
            keys=tuple(k for k in keys),
            relations=relations,
            children=roots,
            marginalized=bound_left,
            at_vars=("top",),
        )
    return ViewTree(root, query, order)


def is_copy(node: ViewNode) -> bool:
    """Whether ``node`` stores exactly what its only child stores.

    With one child there is no join, with nothing marginalized no lift
    is applied and no key dropped, and with no indicator nothing is
    filtered: over the same key set the view holds the child's payloads
    key for key, on any ring.
    """
    return (
        len(node.children) == 1
        and not node.marginalized
        and not node.indicators
        and set(node.keys) == set(node.children[0].keys)
    )


def elide_copies(tree: ViewTree) -> ViewTree:
    """Drop every view below the root that copies its only child.

    The child — a relation leaf, or a view some pass turned its parent
    into a copy of — takes the dropped view's place under the parent and
    inherits its ``at_vars``: it is now the view at those variables, in
    its own key order.  The root stays, it holds the result.  Mutates the
    tree in place and returns it; a second application finds nothing.
    """

    def minimize(node: ViewNode) -> ViewNode:
        """The node standing for ``node``'s subtree after the pass."""
        node.children = [minimize(child) for child in node.children]
        if node is tree.root or not is_copy(node):
            return node
        child = node.children[0]
        child.at_vars = child.at_vars + node.at_vars
        return child

    minimize(tree.root)
    tree.rewire()
    return tree


def subtree_signature(query: Query, order: VariableOrder, var: str):
    """The canonical sharing key of the variable-order subtree at ``var``.

    The subtree at ``var`` determines a *sub-query*: the relations with a
    variable inside the subtree (a relation touching the subtree is anchored
    in it, because its variables lie on one root-to-leaf path), marginalizing
    exactly the subtree variables that are bound in ``query``.  Two
    registered queries whose subtrees produce the same signature compute the
    same sub-view — same relations and schemas, same output variables, same
    ring, and the same lifting function (by object identity) for every
    marginalized variable — so a multi-query engine can maintain that
    sub-view once and fan its deltas out to every subscriber
    (:mod:`repro.core.multiview`).

    The signature is *order-insensitive* below ``var``: it canonicalizes to
    sorted relation and variable tuples rather than encoding the subtree
    shape, because the shared sub-engine re-derives its own variable order
    from the sub-query (:meth:`VariableOrder.auto` is deterministic).  That
    is sound only for commutative rings — callers must not share across
    queries whose ring multiplication is order-sensitive.

    Returns ``(signature, relations, marginalized)``: the hashable key, the
    ``{name: schema}`` mapping of the sub-query's relations, and the set of
    variables it marginalizes.
    """
    subtree = order.subtree_vars(var)
    relations = {
        name: schema
        for name, schema in query.relations.items()
        if subtree & set(schema)
    }
    marginalized = subtree & set(query.bound)
    lift_ids = tuple(
        (v, None if query.lifting.get(v) is None else id(query.lifting.get(v)))
        for v in sorted(marginalized)
    )
    free = tuple(
        sorted(
            {a for schema in relations.values() for a in schema}
            - marginalized
        )
    )
    signature = (
        id(query.ring),
        tuple(sorted(relations.items())),
        free,
        lift_ids,
    )
    return signature, relations, marginalized
