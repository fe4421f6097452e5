"""Re-evaluation baselines: recompute the result from scratch per update.

Two variants, matching Appendix C's Figure 11:

* **F-RE** (:class:`FactorizedReevaluator`) — re-evaluates the query through
  the F-IVM view tree (factorized, aggregates pushed past joins) after every
  update batch.
* **DBT-RE / naive** (:class:`NaiveReevaluator`) — joins all relations
  left-to-right and aggregates at the end, the listing-representation cost
  the paper's Example 1.1 calls cubic.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.query import Query
from repro.core.variable_order import VariableOrder
from repro.core.view_tree import build_view_tree
from repro.data.database import Database
from repro.data.relation import Relation

__all__ = ["FactorizedReevaluator", "NaiveReevaluator"]


class _ReevalBase:
    def __init__(self, query: Query, db: Optional[Database] = None):
        self.query = query
        self.base: Dict[str, Relation] = {
            rel: Relation(rel, schema, query.ring)
            for rel, schema in query.relations.items()
        }
        if db is not None:
            for rel in self.base:
                self.base[rel] = db.relation(rel).copy()
        self._result: Optional[Relation] = None

    def apply_update(self, delta: Relation) -> Relation:
        self.base[delta.name].absorb(delta)
        self._result = self._recompute()
        return self._result

    def result(self) -> Relation:
        if self._result is None:
            self._result = self._recompute()
        return self._result


class FactorizedReevaluator(_ReevalBase):
    """F-RE: full re-evaluation along the factorized view tree."""

    def __init__(
        self,
        query: Query,
        order: Optional[VariableOrder] = None,
        db: Optional[Database] = None,
    ):
        super().__init__(query, db)
        self.tree = build_view_tree(query, order)

    def _recompute(self) -> Relation:
        results = self.tree.evaluate(_BaseView(self.base))
        return results[self.tree.root.name]


class NaiveReevaluator(_ReevalBase):
    """Naive re-evaluation: join everything, aggregate at the end."""

    def _recompute(self) -> Relation:
        current: Optional[Relation] = None
        for rel in self.query.relations:
            contents = self.base[rel]
            current = contents if current is None else current.join(contents)
        assert current is not None
        result = current.group_by(
            self.query.free, self.query.lifting.table(), name="result"
        )
        return result


class _BaseView:
    """Adapter presenting a dict of relations with the Database interface."""

    def __init__(self, base: Dict[str, Relation]):
        self._base = base

    def relation(self, name: str) -> Relation:
        return self._base[name]
