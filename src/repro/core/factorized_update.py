"""Factorizable updates (Section 5): deltas as unions of products.

A delta relation can often be decomposed as a union of *product terms*,
each term a list of factor relations over pairwise-disjoint schemas whose
join (Cartesian product, since schemas are disjoint) reconstructs the term.
Rank-1 matrix updates ``δA = u vᵀ`` are the canonical example; a rank-r
update is a union of r rank-1 terms.

Propagating a factorized delta keeps the product form and pushes
marginalization into the factor holding the variable — the ``Optimize`` step
of Figure 4 — so a rank-1 update to the middle of a matrix chain costs
matrix-vector instead of matrix-matrix work (Example 6.1).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.data.relation import Relation
from repro.data.schema import SchemaError

__all__ = ["FactorizedUpdate"]


@lru_cache(maxsize=256)
def _cover(schemas: Tuple[Tuple[str, ...], ...]) -> frozenset:
    """The attributes a term's factor schemas cover, validated once per
    schema tuple (an invalid one raises, and is not cached)."""
    seen: set = set()
    for schema in schemas:
        overlap = seen.intersection(schema)
        if overlap:
            raise SchemaError(
                f"factors overlap on {sorted(overlap)}; factor schemas "
                "must be disjoint"
            )
        seen.update(schema)
    return frozenset(seen)


class FactorizedUpdate:
    """A delta for one relation, represented as a union of product terms.

    An empty term list is the *rank-0* update — the additive identity.  It
    flattens to the empty (all-zero) relation over any requested schema and
    propagates as a no-op; pass ``ring`` explicitly when no factor is
    around to infer it from.
    """

    def __init__(
        self, relation: str, terms: Sequence[Sequence[Relation]], ring=None
    ):
        self.relation = relation
        self.terms: List[List[Relation]] = [list(term) for term in terms]
        #: The payload ring, inferred from the first factor when not given.
        self.ring = ring
        if self.ring is None:
            for term in self.terms:
                if term:
                    self.ring = term[0].ring
                    break
        if not self.terms:
            self.attributes: frozenset = frozenset()
            return
        reference = _cover(tuple([f.schema for f in self.terms[0]]))
        for term in self.terms[1:]:
            if _cover(tuple([f.schema for f in term])) != reference:
                raise SchemaError(
                    "all terms must cover the same attribute set"
                )
        self.attributes = reference

    @classmethod
    def rank_one(
        cls, relation: str, factors: Sequence[Relation]
    ) -> "FactorizedUpdate":
        """A single product term (e.g. ``δA = u[X] ⊗ v[Y]``)."""
        return cls(relation, [list(factors)])

    def flatten(self, schema: Sequence[str], name: Optional[str] = None) -> Relation:
        """Materialize the full delta relation (for tests and fallbacks).

        A rank-0 update flattens to the ring-zero relation over ``schema``
        (matching the no-op ``apply_update``); an empty *term* contributes
        the multiplicative unit over the empty schema.
        """
        schema = tuple(schema)
        label = name or f"delta_{self.relation}"
        if not self.terms:
            if self.ring is None:
                raise ValueError(
                    "flattening a rank-0 update needs an explicit ring"
                )
            return Relation(label, schema, self.ring)
        if frozenset(schema) != self.attributes:
            raise SchemaError(
                f"target schema {schema} does not cover {sorted(self.attributes)}"
            )
        total: Optional[Relation] = None
        for term in self.terms:
            if term:
                product = term[0]
                for factor in term[1:]:
                    product = product.join(factor)
            else:
                if self.ring is None:
                    raise ValueError(
                        "flattening an empty term needs an explicit ring"
                    )
                product = Relation(
                    label, (), self.ring, {(): self.ring.one}
                )
            product = product.reorder(schema, name=label)
            total = product if total is None else total.union(product)
        assert total is not None
        total.name = label
        return total
