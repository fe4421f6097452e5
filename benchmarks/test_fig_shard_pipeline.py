"""Shard pipelining: send-ahead window vs per-update round trips.

Not a paper figure — the transport companion to the shard-scaling bench:
the fig7 retailer cofactor ONE workload (dimensions preloaded, the
``Inventory`` fact relation streaming) driven through
:class:`ShardedFIVMEngine` at S=4 in three configurations:

* ``per-update``: multiprocessing executor, ``pipeline_depth=0`` — every
  update is a full send/await round trip per shard, the PR-8 behaviour;
* ``pipelined``: the same executor with a send-ahead window
  (``pipeline_depth=32``) and deferred root-delta collection — acks drain
  opportunistically, the clock stops blocking on the scheduler;
* ``socket``: the pipelined window over the loopback TCP transport
  (length-prefixed pickle frames), the off-box deployment shape.

Reported: throughput per configuration and the pipelined/per-update
speedup; ``BENCH_shard_pipeline.json`` feeds the CI bench-regression
ratchet.  Differential guard: every configuration's maintained cofactor
triple must equal the unsharded engine's.  Unlike parallel scaling, the
pipelining win does not need cores — it amortizes per-update IPC wake-ups
— so the speedup floor is enforced on any host.
"""

from __future__ import annotations

import os
from typing import Dict, List

import pytest

from repro.apps import CofactorModel
from repro.apps.regression import cofactor_query
from repro.bench import format_table, run_stream
from repro.core.sharded import ShardedFIVMEngine
from repro.datasets import retailer
from repro.datasets.streams import single_relation_stream

from benchmarks.conftest import SCALE, report

SHARDS = 4
PIPELINE_DEPTH = 32
MIN_SPEEDUP = 1.3

#: Best-of repeats per configuration (damps scheduler noise on the
#: enforced pipelined/per-update floor).
REPEATS = 3


@pytest.mark.bench
def test_fig_shard_pipeline(benchmark):
    workload = retailer.generate(scale=0.25 * SCALE, seed=23)
    numeric = workload.numeric_variables
    order = workload.variable_order
    query = cofactor_query("retailer_pipeline", workload.schemas, numeric)
    ring = query.ring
    # Per-tuple updates on purpose: the cost under measurement is the
    # per-request round trip, so every tuple is its own request and each
    # hash-routes to exactly one shard.
    stream = single_relation_stream(
        workload.schemas, workload.tables, "Inventory", batch_size=1,
    )
    static_db = workload.preloaded_database(ring, streaming=["Inventory"])

    configs = {
        "per-update": {"executor": "process", "pipeline_depth": 0},
        "pipelined": {"executor": "process", "pipeline_depth": PIPELINE_DEPTH},
        "socket": {"executor": "socket", "pipeline_depth": PIPELINE_DEPTH},
    }

    def experiment():
        results: Dict[str, object] = {}
        totals: Dict[str, object] = {}

        # Unsharded reference: the merge-equality oracle for every arm.
        reference = CofactorModel(
            "retailer_pipeline", workload.schemas, numeric, order=order,
            updatable=["Inventory"], db=static_db,
        )
        results["single"] = run_stream(
            "single", reference.engine, stream, ring, checkpoints=2,
        )
        totals["single"] = reference.engine.result().payload(())

        # Round-major interleaving: a slow phase of the host machine hits
        # every configuration of that round, not one arm of the ratio.
        for _repeat in range(REPEATS):
            for name, kwargs in configs.items():
                engine = ShardedFIVMEngine(
                    query, order=order, shards=SHARDS,
                    updatable=["Inventory"], db=static_db, **kwargs,
                )
                try:
                    run = run_stream(
                        name, engine, stream, ring, checkpoints=2,
                    )
                    # The window drains before any read: result() is on
                    # the safe side of the flush barrier by construction.
                    totals[name] = engine.result().payload(())
                finally:
                    engine.close()
                best = results.get(name)
                if (
                    best is None
                    or run.average_throughput > best.average_throughput
                ):
                    results[name] = run
        return results, totals

    results, totals = benchmark.pedantic(experiment, rounds=1, iterations=1)

    # Ring-merge soundness: pipelined and socket arms included.
    expected = totals["single"]
    for name, got in totals.items():
        assert ring.eq(expected, got), (
            f"{name}: sharded cofactor result diverged from the unsharded "
            "reference"
        )

    cpu_count = os.cpu_count() or 1
    per_update = results["per-update"].average_throughput
    speedup = results["pipelined"].average_throughput / per_update
    socket_speedup = results["socket"].average_throughput / per_update

    rows: List[List[object]] = []
    for name, result in results.items():
        ratio = (
            result.average_throughput / per_update
            if name != "single" else None
        )
        rows.append([
            name,
            f"{result.average_throughput:.0f}",
            f"{ratio:.2f}x" if ratio is not None else "-",
        ])
    table = format_table(
        f"Shard pipelining: Retailer cofactor ONE, S={SHARDS}, "
        f"depth={PIPELINE_DEPTH} ({stream.total_tuples} tuples in "
        f"{len(stream.batches)} updates, {cpu_count} CPUs)",
        ["engine", "tuples/sec", "vs per-update"],
        rows,
    )
    report(
        "shard_pipeline",
        table,
        data={
            "cpu_count": cpu_count,
            "shards": SHARDS,
            "pipeline_depth": PIPELINE_DEPTH,
            "throughput": {
                name: result.average_throughput
                for name, result in results.items()
            },
            "speedup": speedup,
            "socket_speedup": socket_speedup,
            "merge_equal": True,  # asserted above; recorded for the ratchet
            "min_speedup": MIN_SPEEDUP,
            "ok": True,
        },
    )

    assert speedup >= MIN_SPEEDUP, (
        f"pipelined S={SHARDS} reached only {speedup:.2f}x the per-update "
        f"executor (floor {MIN_SPEEDUP}x)"
    )
