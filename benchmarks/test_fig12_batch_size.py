"""Figure 12: the effect of batch size on cofactor-matrix maintenance.

Throughput of the best strategies on Retailer, Housing, and Twitter for
batch sizes spanning two orders of magnitude.  The paper finds medium
batches (1k-10k) best: small batches cannot amortize per-batch overheads.
(The very-large-batch cache-invalidation penalty is a hardware effect the
pure-Python runtime does not reproduce; we assert the small-batch penalty,
which is runtime-independent.)

The last column feeds the *same* small-batch stream through the batched
multi-relation trigger (:meth:`FIVMEngine.apply_batch`, 100 deltas of 5
tuples per call — effective batch 500): coalescing the round-robin deltas
into one merged delta per relation must beat applying them one by one.
All paths of one ``apply_batch`` pass share the engine's probe cache
(sibling collapses computed for one relation's path are reused by the
others until an absorb invalidates them), and the trigger also accepts
``FactorizedUpdate`` items — rank-1 terms coalesce per relation and ride
the same pass (see ``test_ablations.test_ablation_compiled_factorized``
for the factorized-path numbers).
"""

from __future__ import annotations

import pytest

from repro.apps import CofactorModel
from repro.bench import format_table, run_stream
from repro.datasets import housing, retailer, round_robin_stream, twitter

from benchmarks.conftest import SCALE, report

BATCH_SIZES = [5, 50, 500]

#: apply_batch group size: bundles of 100 five-tuple deltas = 500 tuples.
BATCH_GROUP = 100


def _throughputs(workload, numeric, batch_sizes):
    def make_model(tag):
        return CofactorModel(
            f"{workload.name}_{tag}",
            workload.schemas,
            numeric,
            order=workload.variable_order,
        )

    out = []
    for batch in batch_sizes:
        model = make_model(f"b{batch}")
        stream = round_robin_stream(
            workload.schemas, workload.tables, batch_size=batch
        )
        result = run_stream(
            f"bs={batch}", model.engine, stream, model.query.ring, checkpoints=2
        )
        out.append(result.average_throughput)
    # Batched trigger over the smallest-batch stream: apply_batch coalesces
    # BATCH_GROUP consecutive deltas per call.
    model = make_model("batched")
    stream = round_robin_stream(
        workload.schemas, workload.tables, batch_size=batch_sizes[0]
    )
    result = run_stream(
        "apply_batch", model.engine, stream, model.query.ring,
        checkpoints=2, group=BATCH_GROUP,
    )
    out.append(result.average_throughput)
    return out


@pytest.mark.bench
def test_fig12_batch_size_effect(benchmark):
    retailer_workload = retailer.generate(scale=0.1 * SCALE, seed=6)
    housing_workload = housing.generate(
        scale=max(1, int(SCALE)), postcodes=max(20, int(60 * SCALE)), seed=6
    )
    twitter_workload = twitter.generate(
        n_nodes=max(30, int(80 * SCALE)), n_edges=max(300, int(1200 * SCALE)),
        seed=6,
    )

    def experiment():
        rows = []
        rows.append(
            ["Retailer"] + _throughputs(
                retailer_workload, retailer_workload.numeric_variables,
                BATCH_SIZES,
            )
        )
        housing_numeric = tuple(
            v for v in housing_workload.numeric_variables if v != "postcode"
        )
        rows.append(
            ["Housing"] + _throughputs(
                housing_workload, housing_numeric, BATCH_SIZES
            )
        )
        rows.append(
            ["Twitter"] + _throughputs(
                twitter_workload, twitter_workload.numeric_variables,
                BATCH_SIZES,
            )
        )
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    headers = (
        ["dataset"]
        + [f"batch {b}" for b in BATCH_SIZES]
        + [f"apply_batch {BATCH_GROUP}x{BATCH_SIZES[0]}"]
    )
    table = format_table(
        "Figure 12: cofactor maintenance throughput (tuples/sec) vs batch size",
        headers,
        rows,
    )
    report(
        "fig12_batch_size",
        table,
        data={
            row[0]: dict(zip(headers[1:], row[1:])) for row in rows
        },
    )

    # Larger batches amortize per-batch overheads: the biggest batch beats
    # the smallest (the paper's left-side slope), and the batched
    # multi-relation trigger (effective batch 500 via coalescing) must beat
    # applying the same small deltas one at a time.  The slope shows on
    # Retailer, whose wide chain pays real per-delta path work.  Housing's
    # star join is O(1) per tuple and the slot-compiled triggers cut the
    # per-batch constant so far that Twitter's curve is flat at this scale
    # too — for those, assert only that bigger batches don't regress.
    for row in rows:
        if row[0] == "Retailer":
            assert row[-2] > row[1], row[0]
            assert row[-1] > row[1], row[0]
        else:
            assert row[-2] > 0.7 * row[1], row[0]
            assert row[-1] > 0.7 * row[1], row[0]
