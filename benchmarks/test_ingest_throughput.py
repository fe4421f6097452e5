"""Ingest throughput: columnar vs dict storage under absorb_bulk churn.

The storage-engine ablation behind the columnar refactor.  A stream of
staged deltas — inserts, repeated-key updates, and exact cancellations —
is absorbed into one relation carrying a registered secondary index, so
every round exercises the full maintenance surface:

* ``dict`` storage merges per key and replays each effective update
  through the index (per-tuple ``ring.add`` on bucket sums), while
* ``columnar`` storage packs the delta column once, scatter-adds it into
  the payload blocks, and maintains the index as grouped bucket sweeps
  (``np.add.at`` over group ids) — no per-tuple ring arithmetic.

Both storages must produce identical relations (same keys, payloads,
index sums); the columnar engine must clear the dict engine by the
asserted margin, recorded and ratcheted in CI.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench import format_table
from repro.data import ColumnarRelation, Relation
from repro.rings import CofactorRing

from benchmarks.conftest import SCALE, report

SCHEMA = ("A", "B")
INDEX_ATTRS = ("B",)

#: Churn profile: every round re-touches half the keyspace, and every
#: fourth round cancels the previous round exactly (row deletions and
#: bucket evictions, not just in-place updates).
CANCEL_EVERY = 4


def make_deltas(ring, rounds, rows):
    """Deterministic staged deltas (the engine's wire format: plain dict
    relations) with inserts, updates, and exact cancellations."""
    rng = np.random.default_rng(7)
    lift = ring.lift(1)
    keyspace = max(4, rows // 2)
    deltas = []
    for r in range(rounds):
        if r % CANCEL_EVERY == CANCEL_EVERY - 1:
            deltas.append(deltas[-1].negate())
            continue
        stage = Relation("dS", SCHEMA, ring)
        a_col = rng.integers(0, keyspace, size=rows)
        b_col = rng.integers(0, 64, size=rows)
        x_col = rng.normal(size=rows)
        data = stage._data
        add = ring.add
        for a, b, x in zip(a_col.tolist(), b_col.tolist(), x_col.tolist()):
            key = (a, b)
            payload = lift(x)
            current = data.get(key)
            data[key] = payload if current is None else add(current, payload)
        deltas.append(stage)
    return deltas


def ingest(relation_cls, ring, deltas):
    target = relation_cls("S", SCHEMA, ring)
    target.register_index(INDEX_ATTRS)
    tuples = sum(len(d) for d in deltas)
    start = time.perf_counter()
    for delta in deltas:
        target.absorb_bulk(delta)
    elapsed = time.perf_counter() - start
    return tuples / elapsed, target


@pytest.mark.bench
def test_ingest_throughput(benchmark):
    ring = CofactorRing(4)
    rounds = max(8, int(24 * SCALE))
    rows = max(200, int(2000 * SCALE))
    deltas = make_deltas(ring, rounds, rows)

    def experiment():
        best = {"columnar": 0.0, "dict": 0.0}
        witness = {}
        for _ in range(3):  # interleaved best-of-three damps scheduler noise
            for label, cls in (("columnar", ColumnarRelation), ("dict", Relation)):
                throughput, target = ingest(cls, ring, deltas)
                best[label] = max(best[label], throughput)
                witness[label] = target
        assert witness["columnar"].same_as(witness["dict"])
        # Index state agrees too: every maintained bucket sum matches.
        _, _, dict_sums = witness["dict"]._indexes[INDEX_ATTRS]
        col = witness["columnar"]
        for subkey, expected in dict_sums.items():
            assert ring.eq(col.lookup_sum(INDEX_ATTRS, subkey), expected)
        return best

    best = benchmark.pedantic(experiment, rounds=1, iterations=1)
    speedup = best["columnar"] / best["dict"]
    rows_out = [
        [label, f"{value:,.0f} tuples/s"] for label, value in best.items()
    ]
    table = format_table(
        "ingest throughput", ["storage", "absorb_bulk throughput"], rows_out
    )
    report(
        "ingest_throughput",
        table + f"\ncolumnar-over-dict speedup: {speedup:.2f}x",
        data={
            "headers": ["storage", "throughput"],
            "rows": [[label, value] for label, value in best.items()],
            "speedup": speedup,
        },
    )
    assert speedup >= 2.0, f"columnar ingest only {speedup:.2f}x dict"
