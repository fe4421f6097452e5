"""Shared workload structure for the benchmark datasets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.variable_order import VariableOrder
from repro.data.database import Database
from repro.data.relation import Relation

__all__ = ["Workload", "chain_spec"]


def chain_spec(variables: Sequence[str], tail=None):
    """A nested single-child variable-order spec for a chain of variables.

    ``tail`` (another spec) is attached below the last variable; used to
    hang relation-local attribute chains under join variables.
    """
    spec = tail
    for var in reversed(list(variables)):
        spec = (var, [spec]) if spec is not None else (var, [])
    if spec is None:
        raise ValueError("empty chain")
    return spec


@dataclass
class Workload:
    """A dataset: schemas, generated rows, and its canonical variable order.

    Rows are plain tuples; payloads are attached when a concrete engine
    materializes the workload over its ring (so one generated dataset serves
    COUNT, cofactor, and relational-payload runs alike).
    """

    name: str
    schemas: Dict[str, Tuple[str, ...]]
    tables: Dict[str, List[tuple]]
    variable_order: VariableOrder
    numeric_variables: Tuple[str, ...] = ()
    metadata: Dict[str, object] = field(default_factory=dict)

    def database(self, ring, relations: Optional[Sequence[str]] = None) -> Database:
        """Materialize (a subset of) the tables over a ring, payload 1."""
        names = relations if relations is not None else list(self.schemas)
        db = Database()
        for rel in names:
            db.add(
                Relation.from_tuples(
                    rel, self.schemas[rel], ring, self.tables[rel]
                )
            )
        return db

    def empty_database(self, ring) -> Database:
        """All relations present but empty (the streaming start state)."""
        db = Database()
        for rel, schema in self.schemas.items():
            db.add(Relation(rel, schema, ring))
        return db

    def preloaded_database(self, ring, streaming: Sequence[str]) -> Database:
        """Every table loaded (payload 1) except the ``streaming`` ones,
        which are present but empty — the ONE-scenario start state, where
        dimension tables are static and only the fact relation streams."""
        streaming_set = set(streaming)
        db = self.empty_database(ring)
        for rel, rows in self.tables.items():
            if rel in streaming_set:
                continue
            target = db.relation(rel)
            for row in rows:
                target.add(row, ring.one)
        return db
