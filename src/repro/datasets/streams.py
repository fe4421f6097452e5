"""Update streams: round-robin interleaved batches (Appendix C.1).

The paper synthesizes data streams from the datasets "by interleaving
insertions to the input relations in a round-robin fashion", grouped into
fixed-size batches.  :func:`round_robin_stream` reproduces that; deletions
(churn) can be mixed in to exercise the additive-inverse paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.data.relation import Relation

__all__ = ["UpdateBatch", "UpdateStream", "round_robin_stream", "single_relation_stream"]


@dataclass
class UpdateBatch:
    """A batch of rows for one relation with a common multiplicity (±1)."""

    relation: str
    rows: List[tuple]
    multiplicity: int = 1

    def __len__(self) -> int:
        return len(self.rows)


class UpdateStream:
    """An ordered sequence of update batches over a fixed set of schemas."""

    def __init__(
        self, schemas: Dict[str, Tuple[str, ...]], batches: Sequence[UpdateBatch]
    ):
        self.schemas = dict(schemas)
        self.batches: List[UpdateBatch] = list(batches)

    def __len__(self) -> int:
        return len(self.batches)

    @property
    def total_tuples(self) -> int:
        return sum(len(batch) for batch in self.batches)

    def deltas(self, ring) -> Iterator[Relation]:
        """Materialize each batch as a delta relation over ``ring``."""
        for batch in self.batches:
            payload = (
                ring.one if batch.multiplicity == 1
                else ring.from_int(batch.multiplicity)
            )
            yield Relation.from_tuples(
                batch.relation,
                self.schemas[batch.relation],
                ring,
                batch.rows,
                payload,
            )

    def restricted(self, relations: Iterable[str]) -> "UpdateStream":
        """The sub-stream touching only the given relations (ONE scenarios)."""
        keep = set(relations)
        return UpdateStream(
            self.schemas,
            [batch for batch in self.batches if batch.relation in keep],
        )


def round_robin_stream(
    schemas: Dict[str, Tuple[str, ...]],
    tables: Dict[str, List[tuple]],
    batch_size: int,
    relations: Optional[Sequence[str]] = None,
    delete_fraction: float = 0.0,
    seed: int = 0,
) -> UpdateStream:
    """Interleave per-relation insert batches round-robin (paper's streams).

    ``delete_fraction`` > 0 appends, after all inserts, batches deleting that
    fraction of previously inserted rows (sampled uniformly), so engines see
    negative payloads too.
    """
    if batch_size <= 0:
        raise ValueError("batch size must be positive")
    names = list(relations if relations is not None else tables)
    queues = {rel: list(tables[rel]) for rel in names}
    offsets = {rel: 0 for rel in names}
    batches: List[UpdateBatch] = []
    while any(offsets[rel] < len(queues[rel]) for rel in names):
        for rel in names:
            start = offsets[rel]
            if start >= len(queues[rel]):
                continue
            rows = queues[rel][start:start + batch_size]
            offsets[rel] = start + len(rows)
            batches.append(UpdateBatch(rel, rows, +1))
    if delete_fraction > 0.0:
        rng = random.Random(seed)
        for rel in names:
            count = int(len(queues[rel]) * delete_fraction)
            if count <= 0:
                continue
            doomed = rng.sample(queues[rel], count)
            for start in range(0, count, batch_size):
                batches.append(
                    UpdateBatch(rel, doomed[start:start + batch_size], -1)
                )
    return UpdateStream(schemas, batches)


def single_relation_stream(
    schemas: Dict[str, Tuple[str, ...]],
    tables: Dict[str, List[tuple]],
    relation: str,
    batch_size: int,
) -> UpdateStream:
    """Inserts to one relation only (the paper's ONE / streaming scenario)."""
    return round_robin_stream(schemas, tables, batch_size, relations=[relation])
