"""Incrementally maintained indicator projections ``∃_A R`` (Appendix B).

An indicator projection maps each distinct ``A``-projection of a relation's
support to payload ``1``.  To make deltas cheap, we track for each projected
key *how many* base tuples with non-zero payload project onto it (the
``CNT_Q`` table of Example B.2): a count moving 0→1 emits an insert with
payload ``+1``; 1→0 emits a delete with payload ``-1``; anything else emits
nothing.  Hence ``|δ(∃_A R)| ≤ |δR|`` and maintenance is O(|δR|).

Delta computation and application are split (:meth:`compute_delta` /
:meth:`commit`) so the IVM engine can propagate each indicator's delta with
the *other* indicators in their correct sequential state, matching the
paper's "updates to one relation are followed by a sequence of updates to
its indicator projections".
Over payload blocks (the cofactor ring) the indicator is a block view of
support ``()``, which the triggers read as rows.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.data.relation import BlockRelation, Relation
from repro.data.schema import key_projector

__all__ = ["IndicatorView"]


class IndicatorView:
    """Maintains ``∃_A R`` with count-based O(|δR|) deltas."""

    def __init__(self, base_name: str, base_schema: Sequence[str], attrs: Sequence[str], ring, name: str = ""):
        self.base_name = base_name
        self.attrs: Tuple[str, ...] = tuple(attrs)
        self.name = name or f"exists_{''.join(self.attrs)}_{base_name}"
        self.ring = ring
        self._project = key_projector(tuple(base_schema), self.attrs)
        self._counts: Dict[tuple, int] = {}
        block = getattr(ring.kernel_ops(), "block_views", False)
        self.relation = (BlockRelation(self.name, self.attrs, ring, ())
                         if block else Relation(self.name, self.attrs, ring))

    @classmethod
    def over(cls, base: Relation, attrs: Sequence[str], name: str = "") -> "IndicatorView":
        """Build an indicator initialized from a base relation's contents."""
        view = cls(base.name, base.schema, attrs, base.ring, name)
        view.reset_from(base)
        return view

    def reset_from(self, base: Relation) -> None:
        """Reinitialize counts and contents from the base relation."""
        self._counts.clear()
        self.relation.clear()
        one = self.ring.one
        for key in base.keys():
            pkey = self._project(key)
            before = self._counts.get(pkey, 0)
            self._counts[pkey] = before + 1
            if before == 0:
                self.relation.add(pkey, one)

    def _bump(self, pkey: tuple, amount: int) -> int:
        """Adjust the support count of ``pkey``; return the signed 0↔1 edge.

        Returns ``+1`` when the key's count crosses 0→positive (insert into
        the indicator), ``-1`` on positive→0 (delete), else ``0``.
        """
        before = self._counts.get(pkey, 0)
        after = before + amount
        if after < 0:
            raise ValueError(f"indicator count for {pkey} would become negative")
        if after == 0:
            self._counts.pop(pkey, None)
        else:
            self._counts[pkey] = after
        if before == 0 and after > 0:
            return +1
        if before > 0 and after == 0:
            return -1
        return 0

    def compute_delta(self, delta: Relation, base_before: Relation) -> Relation:
        """Process ``δR`` against the pre-update base; return ``δ(∃_A R)``.

        Updates the internal support counts but *not* :attr:`relation`; call
        :meth:`commit` with the returned delta once it has been propagated.
        """
        ring = base_before.ring
        out = Relation(f"delta_{self.name}", self.attrs, ring)
        neg_one = ring.neg(ring.one)
        for key, payload in delta.items():
            before = base_before.payload(key)
            after = ring.add(before, payload)
            before_zero = ring.is_zero(before)
            after_zero = ring.is_zero(after)
            if before_zero and not after_zero:
                edge = self._bump(self._project(key), +1)
            elif not before_zero and after_zero:
                edge = self._bump(self._project(key), -1)
            else:
                continue
            if edge > 0:
                out.add(self._project(key), ring.one)
            elif edge < 0:
                out.add(self._project(key), neg_one)
        return out

    def commit(self, delta: Relation) -> None:
        """Apply a previously computed delta to the indicator contents."""
        self.relation.absorb(delta)

    def __len__(self) -> int:
        return len(self.relation)
