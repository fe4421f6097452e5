"""``shard_s2``: the Retailer ONE stream through two process shards.

Dimension tables are preloaded; ``Inventory`` streams in 16-row deltas
through ``ShardedFIVMEngine(shards=2, executor="process",
pipeline_depth=32)``.  Routing, pickle, frames, the journaled window, ack
drain and merge do the work; the engine underneath is the one the
``retailer_*`` workloads measure.  The gate runs a plain ``FIVMEngine`` on
the identical stream, so every run also knows the ratio to single.

Two shards and one generator process with two connections because this
box has two CPUs; the S = 4 decision of ROADMAP item 4 is a rerun of this
workload on a larger box, not a different benchmark.

On a box with fewer CPUs than the workload has busy processes (the
coordinator plus one worker per shard) all of them are pinned to one CPU
for the life of a unit.  Unpinned, the guest scheduler of this 2-CPU box
does the same most of the time (it packs the three onto one CPU: same
set-up time, throughput and enqueue latency as pinned, run for run) and
now and then spreads them for a minute or two — set-up 0.13 s instead of
0.22 s, enqueue p50 54 µs instead of 42 µs, throughput 8 % lower, because
every wake-up then crosses virtual CPUs.  Which of the two a run gets is
not the program's doing, and the driver compares medians of ``setup_s``,
so the benchmark fixes the placement the scheduler prefers anyway.  On a
box with a CPU per process nothing is pinned.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import statistics
from types import SimpleNamespace
from typing import Dict, List

import numpy as np

from repro.apps.regression import cofactor_query
from repro.bench.memory import strategy_scalars
from repro.core.checkpoint import pack_item
from repro.core.engine import FIVMEngine
from repro.core.sharded import ShardedFIVMEngine, stable_hash
from repro.data.database import Database
from repro.data.relation import Relation
from repro.datasets import retailer as shape

from benchmarks.e2e import gen
from benchmarks.e2e.harness import (
    Unit, Workload, clock, drive, relation_updaters,
)
from benchmarks.e2e.w_retailer import NUMERIC, SCHEMAS, views_differ

STREAMING = "Inventory"
SHARDS = 2
PIPELINE_DEPTH = 32


class ShardS2(Workload):
    name = "shard_s2"
    batch = 16
    n_inventory = 10240
    read_every = 25

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        start = clock()
        rng = np.random.default_rng(seed)
        digest = gen.Digest(self.name, seed, quick)
        if quick:
            self.read_every = 5
            self.tables = gen.retailer_tables(
                rng, digest, 320, locations=6, dates=8, products=30, zips=3)
        else:
            self.tables = gen.retailer_tables(rng, digest, self.n_inventory)
        ops = gen.update_stream(
            rng, digest, {STREAMING: self.tables[STREAMING]}, self.batch,
            [STREAMING], 0.2,
        )
        self.warm, self.ops = ops[:1], ops[1:]
        self.cpus = os.sched_getaffinity(0)
        self.order = shape.variable_order()
        self.input_digest = digest.hex()
        self.gen_s = clock() - start

    def query_and_db(self):
        """A fresh query plus the preloaded dimension tables."""
        query = cofactor_query(self.name, SCHEMAS, NUMERIC)
        ring = query.ring
        db = Database(
            Relation.from_tuples(
                rel, schema, ring,
                () if rel == STREAMING else self.tables[rel],
            )
            for rel, schema in SCHEMAS.items()
        )
        return query, db

    def build(self, **kwargs):
        query, db = self.query_and_db()
        engine = ShardedFIVMEngine(
            query, order=self.order, shards=SHARDS, updatable=[STREAMING],
            db=db, **kwargs,
        )
        return query, engine

    def setup(self):
        if len(self.cpus) < SHARDS + 1:
            os.sched_setaffinity(0, {min(self.cpus)})  # workers inherit it
        try:
            query, engine = self.build(
                executor="process", pipeline_depth=PIPELINE_DEPTH)
            ring = query.ring
            for rel, rows, _mult in self.warm:
                engine.apply_update(
                    Relation.from_tuples(rel, SCHEMAS[rel], ring, rows))
            engine.result().payload(())
        except BaseException:
            os.sched_setaffinity(0, self.cpus)  # no state, so no close()
            raise
        return SimpleNamespace(query=query, ring=ring, engine=engine)

    def run(self, state, tracer=None) -> Unit:
        return self.stream(state.engine, state.ring, self.ops, tracer)

    def stream(self, engine, ring, ops, tracer=None) -> Unit:
        """Enqueue every delta, reading the merged result every
        ``read_every`` calls, then flush.

        A read is a pipeline barrier: it returns once the window has
        drained, which is what a reader of a pipelined engine waits for.
        The time it waits is work the update path deferred, so unlike the
        other workloads the reads stay on the update clock."""
        update, traced_update, _rows = relation_updaters(
            SCHEMAS, ring, engine.apply_update, tracer, "shard.enqueue")
        unit = drive(ops, update, lambda: engine.result().payload(()),
                     self.read_every, barrier=engine.flush,
                     tracer=tracer, traced_update=traced_update)
        unit.seconds += sum(unit.read_lat)
        unit.tuples = sum(len(rows) for _rel, rows, _m in ops)
        start = clock()
        engine.result().payload(())
        unit.extra["result_merge_s"] = clock() - start
        return unit

    def scalars(self, state) -> int:
        return state.engine.logical_scalars()

    def check(self, state) -> List[str]:
        """Merged shard views against a plain engine on the same stream
        (which also gives the base of ``sharded.vs_single_ratio``)."""
        query, db = self.query_and_db()
        ring = query.ring
        single = FIVMEngine(query, self.order, updatable=[STREAMING], db=db)
        update, _traced, _rows = relation_updaters(
            SCHEMAS, ring, single.apply_update, None, "")
        update(self.warm[0])
        start = clock()
        for op in self.ops:
            update(op)
        self.single_tuples_per_s = (
            sum(len(rows) for _rel, rows, _m in self.ops) / (clock() - start))
        self.single_scalars = strategy_scalars(single)
        restarts = sum(state.engine.shard_restarts)
        bad = [
            f"merged view {name} differs from the single engine"
            for name in views_differ(
                ring, state.engine.merged_views(), single.views)
        ]
        if restarts:
            bad.append(f"{restarts} shard restarts on a fault-free run")
        return bad

    def close(self, state) -> None:
        try:
            state.engine.close()
            for child in multiprocessing.active_children():
                child.join(timeout=10)
        finally:
            os.sched_setaffinity(0, self.cpus)

    # -- per-layer ------------------------------------------------------

    def layers(self, state, tracer, units) -> Dict[str, float]:
        traced = [u for u in units if u.traced]
        calls = sum(len(u.update_lat) for u in traced)
        # like with like: the untraced unit against the untraced single arm
        sharded = statistics.median(
            u.tuples / u.seconds for u in units if not u.traced)
        out = {
            "ingest.build_delta_us_per_tuple":
                tracer.total_ns("ingest.build_delta") / 1e3
                / sum(u.tuples for u in traced),
            "sharded.enqueue_us_per_call":
                tracer.total_ns(f"shard.enqueue.{STREAMING}") / 1e3 / calls,
            "sharded.flush_ms": tracer.total_ns("barrier") / 1e6 / len(traced),
            # result() on a drained pipeline: one round trip + merge
            "sharded.result_merge_ms": 1e3 * statistics.median(
                u.extra["result_merge_s"] for u in units),
            "sharded.single_tuples_per_s": self.single_tuples_per_s,
            "sharded.vs_single_ratio": sharded / self.single_tuples_per_s,
            "sharded.restarts": float(sum(state.engine.shard_restarts)),
        }
        start = clock()
        _query, spare = self.build(
            executor="process", pipeline_depth=PIPELINE_DEPTH)
        out["sharded.spawn_s"] = clock() - start
        start = clock()
        spare.close()
        out["sharded.close_ms"] = 1e3 * (clock() - start)

        # simpler alternatives: route + split without IPC, and one round
        # trip per update (on a quarter of the stream: it is slow)
        for label, kwargs, ops in (
            ("inline", {"executor": "inline"}, self.ops),
            ("depth0", {"executor": "process", "pipeline_depth": 0},
             self.ops[:len(self.ops) // 4]),
        ):
            query, arm = self.build(**kwargs)
            try:
                unit = self.stream(arm, query.ring, ops)
            finally:
                arm.close()
            out[f"sharded.{label}_tuples_per_s"] = unit.tuples / unit.seconds

        # the cost of the wire, computed: partition, pack and pickle
        ring = state.ring
        deltas = [
            Relation.from_tuples(rel, SCHEMAS[rel], ring, rows)
            for rel, rows, _m in self.ops[:200]
        ]
        tuples = sum(len(d) for d in deltas)
        start = clock()
        for delta in deltas:
            delta.partition("locn", SHARDS, stable_hash)
        out["sharded.partition_us_per_tuple"] = 1e6 * (clock() - start) / tuples
        start = clock()
        size = 0
        for delta in deltas:
            size += len(pickle.dumps(
                pack_item(delta), protocol=pickle.HIGHEST_PROTOCOL))
        out["sharded.pickle_us_per_tuple"] = 1e6 * (clock() - start) / tuples
        out["sharded.pickle_bytes_per_tuple"] = size / tuples
        per_shard = [0] * SHARDS
        for row in self.tables[STREAMING]:
            per_shard[stable_hash(row[0]) % SHARDS] += 1
        out["sharded.skew"] = max(per_shard) / (sum(per_shard) / SHARDS)
        return out
