"""Logical memory accounting for maintained strategies.

The paper profiles allocated memory with gperftools; CPython RSS is
dominated by interpreter noise, so we count *logical scalars* instead: one
unit per key component plus the payload's stored scalars (matrix cells,
nested-relation entries, polynomial coefficients, ...).  Relative sizes —
which strategy stores how much, how memory grows along the stream — are what
the paper's memory plots compare, and those survive this substitution.

Only *maintained state* is counted: views and indicator projections.
What an engine memoizes from them — the probe cache, the lifted-sibling
memos of the scalar triggers — is derived, droppable at any time, and
stays off this axis (the paper's plots compare strategies by the views
they keep); :meth:`repro.core.engine.FIVMEngine.memo_sizes` reports the
memos' entries and scalars on demand, and their resident cost shows in a
benchmark's RSS figure instead.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.data.relation import Relation
from repro.rings.cofactor import CofactorTriple

__all__ = ["payload_scalars", "relation_scalars", "strategy_scalars"]


def payload_scalars(payload) -> int:
    """Number of scalars a payload value stores."""
    if payload is None:
        return 0
    if isinstance(payload, (bool, int, float, complex)):
        return 1
    if isinstance(payload, CofactorTriple):
        return payload.scalar_entries()
    if isinstance(payload, np.ndarray):
        return int(payload.size)
    if isinstance(payload, Relation):
        return relation_scalars(payload)
    if isinstance(payload, dict):
        # Degree-ring polynomials: coefficient + monomial indices per entry.
        return sum(1 + len(monomial) for monomial in payload)
    if isinstance(payload, tuple):
        return sum(payload_scalars(part) for part in payload)
    return 1


def relation_scalars(relation: Relation) -> int:
    """Scalars stored by a relation: key components plus payloads."""
    width = max(1, len(relation.schema))
    total = 0
    for _, payload in relation.items():
        total += width + payload_scalars(payload)
    return total


def _stored_relations(strategy) -> Iterable[Relation]:
    """Every relation a strategy keeps resident, duck-typed per class."""
    views = getattr(strategy, "views", None)
    if isinstance(views, dict):
        yield from views.values()
        indicator_views = getattr(strategy, "_indicator_views", None)
        if isinstance(indicator_views, dict):
            for group in indicator_views.values():
                for iv in group:
                    yield iv.relation
        return
    base = getattr(strategy, "base", None)
    if isinstance(base, dict):
        yield from base.values()
        result = getattr(strategy, "_result", None)
        if result is not None:
            yield result
        return
    strategies = getattr(strategy, "strategies", None)
    if strategies is not None:
        for sub in strategies:
            yield from _stored_relations(sub)
        return
    raise TypeError(
        f"don't know how to account memory for {type(strategy).__name__}"
    )


def strategy_scalars(strategy) -> int:
    """Total logical scalars resident in a maintenance strategy.

    Strategies whose state lives elsewhere (the sharded engine's worker
    processes) expose a ``logical_scalars()`` hook instead of resident
    relations; it wins when present.
    """
    custom = getattr(strategy, "logical_scalars", None)
    if callable(custom):
        return custom()
    return sum(relation_scalars(rel) for rel in _stored_relations(strategy))
