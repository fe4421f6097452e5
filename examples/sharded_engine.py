"""Sharded F-IVM: hash-partitioned maintenance with ring-merged results.

A COUNT-style aggregate over a three-way join is maintained twice — by a
single engine and by a 3-shard :class:`ShardedFIVMEngine` — under the same
update stream.  The sharded engine hash-partitions every relation that
contains the shard variable (the variable-order root), replicates the
rest, and merges per-shard root deltas with ring addition; the totals
match update for update.  A second section runs the multiprocessing
executor on the retailer cofactor workload, the configuration the
shard-scaling benchmark measures — first per-update, then with a
pipelined send-ahead window and lazily resolved root deltas.
"""

import random

from repro.apps.regression import cofactor_query
from repro.core import FIVMEngine, Query, ShardedFIVMEngine, VariableOrder
from repro.data import Relation
from repro.datasets import retailer
from repro.rings import INT_RING

SCHEMAS = {
    "Orders": ("customer", "item"),
    "Items": ("item", "price_band"),
    "Stock": ("item", "warehouse"),
}


def main() -> None:
    query = Query("orders_per_band", SCHEMAS, free=("price_band",), ring=INT_RING)
    order = VariableOrder.auto(Query("o", SCHEMAS, free=("price_band",), ring=INT_RING))
    single = FIVMEngine(query, order)
    sharded = ShardedFIVMEngine(
        Query("orders_per_band_s", SCHEMAS, free=("price_band",), ring=INT_RING),
        order,
        shards=3,
    )
    print(f"shard variable: {sharded.shard_key}")
    print(f"hash-partitioned: {sorted(sharded.partitioned)}")
    print(f"replicated:       {sorted(sharded.replicated)}\n")

    rng = random.Random(42)
    for step in range(60):
        rel = rng.choice(sorted(SCHEMAS))
        key = tuple(rng.randint(0, 9) for _ in SCHEMAS[rel])
        delta = Relation(rel, SCHEMAS[rel], INT_RING, {key: 1})
        expected = single.apply_update(delta.copy())
        merged = sharded.apply_update(delta.copy())
        assert expected.same_as(merged.copy(name=expected.name)), step

    result = sharded.result()
    print(f"counts per price band after 60 updates ({len(result)} groups):")
    print(result.pretty(limit=6))
    assert single.result().same_as(result.copy(name=single.result().name))
    print("\nsingle-engine and 3-shard results agree, update for update.\n")

    # The multiprocessing configuration (one forked worker per shard) on a
    # small retailer cofactor stream — the shard-scaling bench's setup.
    workload = retailer.generate(scale=0.03, seed=7)
    cof_query = cofactor_query(
        "retailer", workload.schemas, workload.numeric_variables
    )
    engine = ShardedFIVMEngine(
        cof_query, order=workload.variable_order, shards=2, executor="process"
    )
    try:
        print(f"retailer cofactor over executor={engine.executor!r}: ", end="")
        batch = []
        for rel, rows in workload.tables.items():
            batch.append(Relation.from_tuples(
                rel, workload.schemas[rel], cof_query.ring, rows[:40]
            ))
        engine.apply_batch(batch)
        triple = engine.result().payload(())
        print(f"count={int(triple.count)} after one multi-relation batch")
    finally:
        engine.close()

    # Pipelined apply: with a send-ahead window, apply_update returns a
    # lazily resolved root delta immediately — acks drain in the
    # background of the request stream, and any read (or flush()) is the
    # barrier.  This is the configuration the shard-pipelining bench
    # ratchets: same results, a fraction of the round trips.
    pipelined = ShardedFIVMEngine(
        cof_query, order=workload.variable_order, shards=2,
        executor="process", pipeline_depth=16,
    )
    try:
        deltas = []
        for rel, rows in workload.tables.items():
            for row in rows[:25]:
                deltas.append(pipelined.apply_update(Relation.from_tuples(
                    rel, workload.schemas[rel], cof_query.ring, [row]
                )))
        pipelined.flush()  # window drained; deltas still lazy until read
        # Handles that crossed a checkpoint boundary resolved eagerly;
        # the rest stay lazy forever unless something reads them.
        lazy = sum(not getattr(d, "resolved", True) for d in deltas)
        print(
            f"pipelined (depth 16): {len(deltas)} updates enqueued, "
            f"{lazy} root deltas never materialized"
        )
        count = int(pipelined.result().payload(()).count)
        print(f"pipelined cofactor count after flush: {count}")
    finally:
        pipelined.close()


if __name__ == "__main__":
    main()
