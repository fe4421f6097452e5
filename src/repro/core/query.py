"""Join-aggregate queries: the paper's query language (Section 2).

A query is::

    Q[X1, ..., Xf] = ⊕_{X_{f+1}} ... ⊕_{X_m}  ⊗_{i ∈ [n]} R_i[S_i]

— a natural join of relations over a ring, with the bound variables
marginalized using per-variable lifting functions and the free variables
retained as group-by keys.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.data.schema import SchemaError, as_schema
from repro.rings.base import Ring
from repro.rings.lifting import Lifting

__all__ = ["Query"]


class Query:
    """A join query with group-by aggregation over a ring.

    Parameters
    ----------
    name:
        Identifier used for view naming.
    relations:
        Mapping from relation name to its schema (attribute tuple).  These
        are the *logical* occurrences: a self-join registers the same data
        under two names at the application layer.
    free:
        The group-by (free) variables; everything else is marginalized.
    ring:
        The payload ring.
    lifting:
        Per-variable lifting functions (default: everything lifts to 1).
    """

    def __init__(
        self,
        name: str,
        relations: Mapping[str, Sequence[str]],
        free: Iterable[str] = (),
        ring: Optional[Ring] = None,
        lifting: Optional[Lifting] = None,
    ):
        if ring is None:
            raise ValueError("a payload ring is required")
        if not relations:
            raise ValueError("a query needs at least one relation")
        self.name = name
        self.ring = ring
        self.relations: Dict[str, Tuple[str, ...]] = {
            rel: as_schema(schema) for rel, schema in relations.items()
        }
        self.free: Tuple[str, ...] = tuple(free)
        if len(set(self.free)) != len(self.free):
            raise SchemaError(f"duplicate free variables: {self.free}")
        variables: List[str] = []
        for schema in self.relations.values():
            for attr in schema:
                if attr not in variables:
                    variables.append(attr)
        self.variables: Tuple[str, ...] = tuple(variables)
        unknown = set(self.free) - set(self.variables)
        if unknown:
            raise SchemaError(f"free variables {unknown} not in any relation")
        self.bound: Tuple[str, ...] = tuple(
            v for v in self.variables if v not in set(self.free)
        )
        self.lifting = lifting or Lifting(ring)

    # ------------------------------------------------------------------

    def schema_of(self, relation: str) -> Tuple[str, ...]:
        """The schema of ``relation``; raises :class:`SchemaError` if unknown."""
        try:
            return self.relations[relation]
        except KeyError:
            raise KeyError(
                f"query {self.name!r} has no relation {relation!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rels = ", ".join(f"{r}{list(s)}" for r, s in self.relations.items())
        return f"Query({self.name}[{', '.join(self.free)}] over {rels})"
