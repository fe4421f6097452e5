"""Variable orders (Definition 3.1): the plans of factorized computation.

A variable order for a join query is a rooted forest with one node per query
variable such that, for each relation, all of its variables lie along a
single root-to-leaf path.  ``dep(X)`` — the ancestors of ``X`` on which the
subtree rooted at ``X`` depends — determines the keys of the view created at
``X`` (Figure 3).
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.core.query import Query
from repro.data.schema import SchemaError

__all__ = ["VONode", "VariableOrder"]

#: Nested specification format: a variable name, or a (name, [children]) pair.
Spec = Union[str, Tuple[str, Sequence["Spec"]]]


class VONode:
    """A node of a variable order: a variable and its child subtrees."""

    __slots__ = ("var", "children")

    def __init__(self, var: str, children: Optional[List["VONode"]] = None):
        self.var = var
        self.children: List[VONode] = children or []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.children:
            return self.var
        return f"{self.var}({', '.join(map(repr, self.children))})"


def _parse_spec(spec: Spec) -> VONode:
    if isinstance(spec, str):
        return VONode(spec)
    var, children = spec
    return VONode(var, [_parse_spec(child) for child in children])


class VariableOrder:
    """A rooted forest over query variables.

    An order does not change once built: its depth-first positions,
    ancestor tuples and subtree sets are derived once, by
    :meth:`_tables`, and every structure query reads them.
    """

    def __init__(self, roots: Sequence[VONode]):
        self.roots: Tuple[VONode, ...] = tuple(roots)
        self._tables()

    def _tables(self) -> None:
        """Derive every lookup table in one depth-first pass over the
        roots (raising if a variable occurs twice)."""
        self._nodes: Dict[str, VONode] = {}
        self._parent: Dict[str, Optional[str]] = {}
        #: Per variable its ancestors, root first.
        self._ancestors: Dict[str, Tuple[str, ...]] = {}
        self._order: List[str] = []  # depth-first, pre-order
        stack = [(root, None, ()) for root in reversed(self.roots)]
        while stack:
            node, parent, above = stack.pop()
            if node.var in self._nodes:
                raise SchemaError(f"variable {node.var!r} occurs twice in order")
            self._nodes[node.var] = node
            self._parent[node.var] = parent
            self._ancestors[node.var] = above
            self._order.append(node.var)
            above += (node.var,)
            stack.extend(
                (child, node.var, above) for child in reversed(node.children)
            )
        self._position = {var: i for i, var in enumerate(self._order)}
        #: Per variable the variables of its subtree (itself included).
        self._subtree: Dict[str, FrozenSet[str]] = {}
        for var in reversed(self._order):  # children before parents
            self._subtree[var] = frozenset([var]).union(
                *(self._subtree[child.var] for child in self._nodes[var].children)
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, *specs: Spec) -> "VariableOrder":
        """Build from nested tuples, e.g. ``("A", ["B", ("C", ["D", "E"])])``."""
        return cls([_parse_spec(s) for s in specs])

    @classmethod
    def auto(cls, query: Query) -> "VariableOrder":
        """Heuristic construction that is valid for any (even cyclic) query.

        Recursively picks a root variable for each connected component —
        preferring free variables (the paper keeps free variables on top),
        then variables shared by the most relations — and partitions the
        residual hypergraph into components handled as child subtrees.
        Every relation's variables stay on one path because the relation's
        remaining variables always share a component (they are connected
        through the relation itself).
        """
        free = set(query.free)
        edges = [set(schema) for schema in query.relations.values()]

        def components(varset: Set[str]) -> List[Set[str]]:
            """Connected components of ``varset`` under the join edges."""
            remaining = set(varset)
            result: List[Set[str]] = []
            while remaining:
                seed = next(iter(remaining))
                group = {seed}
                frontier = {seed}
                while frontier:
                    nxt: Set[str] = set()
                    for edge in edges:
                        touched = edge & frontier
                        if touched:
                            nxt |= (edge & remaining) - group
                    group |= nxt
                    frontier = nxt
                result.append(group)
                remaining -= group
            return result

        def occurrence(var: str) -> int:
            """How many relations mention ``var``."""
            return sum(1 for edge in edges if var in edge)

        def build(varset: Set[str]) -> VONode:
            """Build the subtree for one connected component."""
            # Prefer free variables on top, then high-occurrence variables;
            # name-based tie-break keeps construction deterministic.
            root = min(
                varset,
                key=lambda v: (v not in free, -occurrence(v), v),
            )
            rest = varset - {root}
            children = [build(group) for group in components(rest)]
            return VONode(root, children)

        forest = [build(group) for group in components(set(query.variables))]
        return cls(forest)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    @property
    def variables(self) -> Tuple[str, ...]:
        """All variables in depth-first pre-order (a canonical global order)."""
        return tuple(self._order)

    def node(self, var: str) -> VONode:
        """The order node of ``var``; raises :class:`KeyError` if absent."""
        try:
            return self._nodes[var]
        except KeyError:
            raise KeyError(f"variable {var!r} not in order") from None

    def parent(self, var: str) -> Optional[str]:
        """Parent variable of ``var`` (``None`` at a root)."""
        return self._parent[var]

    def ancestors(self, var: str) -> Tuple[str, ...]:
        """Ancestors of ``var``, root first."""
        return self._ancestors[var]

    def subtree_vars(self, var: str) -> FrozenSet[str]:
        """Variables in the subtree rooted at ``var`` (inclusive)."""
        return self._subtree[var]

    def canonical_sort(self, attrs: Iterable[str]) -> Tuple[str, ...]:
        """Sort attributes by their depth-first position (stable key order)."""
        return tuple(sorted(attrs, key=self._position.__getitem__))

    # ------------------------------------------------------------------
    # Query-specific structure
    # ------------------------------------------------------------------

    def validate(self, query: Query) -> None:
        """Check Definition 3.1 for ``query`` (raising on violations)."""
        if self._position.keys() != set(query.variables):
            raise SchemaError(
                f"order covers {sorted(self._order)} but query has "
                f"{sorted(set(query.variables))}"
            )
        for schema in query.relations.values():
            if schema:
                self.anchor(schema)  # raises unless on one path

    def anchor(self, schema: Sequence[str]) -> str:
        """The lowest (deepest) variable of ``schema`` in the order.

        This is where the relation's leaf is attached when extending the
        order into a view tree.  Raises if the schema is not totally ordered
        by the ancestor relation (i.e. not on one path).
        """
        # On one path the deepest variable comes last in pre-order.
        anchor = max(schema, key=self._position.__getitem__)
        if not all(anchor in self._subtree[v] for v in schema):
            raise SchemaError(
                f"schema {list(schema)} does not lie on one path"
            )
        return anchor

    def dep(self, query: Query, var: str) -> Set[str]:
        """``dep(X)``: ancestors of ``X`` relevant to the subtree at ``X``.

        Computed as ancestors(X) ∩ vars(relations having a variable in the
        subtree of X), matching the examples of Figure 2a.  The reference
        definition: :func:`~repro.core.view_tree.build_view_tree` derives
        the same sets for all variables at once, bottom-up.
        """
        subtree = self.subtree_vars(var)
        touched: Set[str] = set()
        for schema in query.relations.values():
            if subtree & set(schema):
                touched |= set(schema)
        return set(self.ancestors(var)) & touched

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VariableOrder({', '.join(map(repr, self.roots))})"
