"""Figure 8: factorized vs listing representations of conjunctive queries.

Left: the natural join of Retailer under updates to the largest relation —
factorized payloads vs listing payloads vs listing keys, throughput and
memory along the stream.

Right: the natural join of Housing across scale factors — the listing
representations grow cubically with scale while the factorized one grows
linearly, producing the paper's widening runtime/memory gap.
"""

from __future__ import annotations

import time

import pytest

from repro.apps import ConjunctiveQuery
from repro.bench import format_table, run_stream
from repro.datasets import housing, retailer, round_robin_stream

from benchmarks.conftest import SCALE, TIME_BUDGET, report, stream_results_data

MODES = ("factorized", "listing_payloads", "listing_keys")
LABELS = {
    "factorized": "Fact payloads",
    "listing_payloads": "List payloads",
    "listing_keys": "List keys",
}


@pytest.mark.bench
def test_fig8_left_retailer(benchmark):
    workload = retailer.generate(scale=0.2 * SCALE, seed=9)
    free = tuple(dict.fromkeys(a for s in workload.schemas.values() for a in s))
    stream = round_robin_stream(
        workload.schemas, workload.tables,
        batch_size=max(10, int(100 * SCALE)),
        relations=["Inventory"],
    )

    def experiment():
        from repro.data import Database, Relation

        results = []
        for mode in MODES:
            engine = ConjunctiveQuery(
                "retailer_join", workload.schemas, free,
                mode=mode, order=workload.variable_order,
                updatable=["Inventory"],
            )
            # Preload the static dimension relations; only Inventory streams.
            ring = engine.ring
            static_db = Database()
            for rel, schema in workload.schemas.items():
                contents = Relation(rel, schema, ring)
                if rel != "Inventory":
                    for row in workload.tables[rel]:
                        contents.add(row, ring.one)
                static_db.add(contents)
            engine.engine.initialize(static_db)
            results.append(
                run_stream(LABELS[mode], engine.engine, stream, ring,
                           time_budget=TIME_BUDGET)
            )
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    by_name = {r.name: r for r in results}
    rows = [
        [r.name, f"{r.average_throughput:.0f}", r.peak_memory,
         f"{r.fractions[-1]:.2f}" + (" (timeout)" if r.timed_out else "")]
        for r in results
    ]
    table = format_table(
        f"Figure 8 (left): Retailer natural join, updates to Inventory "
        f"({stream.total_tuples} tuples)",
        ["representation", "tuples/sec", "peak logical memory", "fraction"],
        rows,
    )
    report(
        "fig8_left_retailer", table, data=stream_results_data(results)
    )

    fact = by_name["Fact payloads"]
    assert fact.peak_memory < by_name["List payloads"].peak_memory
    assert fact.peak_memory < by_name["List keys"].peak_memory
    assert fact.average_throughput > by_name["List payloads"].average_throughput


@pytest.mark.bench
def test_fig8_right_housing_scales(benchmark):
    scales = [1, 2, 3, 4]
    postcodes = max(6, int(12 * SCALE))

    def experiment():
        rows = []
        for factor in scales:
            workload = housing.generate(scale=factor, postcodes=postcodes, seed=3)
            free = tuple(
                dict.fromkeys(a for s in workload.schemas.values() for a in s)
            )
            row = [factor]
            for mode in MODES:
                engine = ConjunctiveQuery(
                    "housing_join", workload.schemas, free,
                    mode=mode, order=workload.variable_order,
                )
                stream = round_robin_stream(
                    workload.schemas, workload.tables, batch_size=50
                )
                start = time.perf_counter()
                for delta in stream.deltas(engine.ring):
                    engine.apply_update(delta)
                elapsed = time.perf_counter() - start
                row.extend([elapsed, engine.memory()])
            rows.append(row)
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    table = format_table(
        f"Figure 8 (right): Housing natural join across scale factors "
        f"({postcodes} postcodes; time in seconds, memory in stored scalars)",
        ["scale", "Fact time", "Fact mem", "ListPay time", "ListPay mem",
         "ListKey time", "ListKey mem"],
        rows,
    )
    first, last = rows[0], rows[-1]
    gap_first = first[4] / first[2]
    gap_last = last[4] / last[2]
    report(
        "fig8_right_housing_scales",
        table + f"\nlisting/factorized memory gap grows {gap_first:.1f}x -> "
        f"{gap_last:.1f}x across scales",
        data={
            "headers": ["scale", "fact_time", "fact_mem", "listpay_time",
                        "listpay_mem", "listkey_time", "listkey_mem"],
            "rows": rows,
        },
    )

    # The factorization stores the relations and one count per postcode;
    # a listing stores the relations and the join: at no scale is the
    # factorized representation the larger one (stored scalars, a count).
    for row in rows:
        assert row[2] <= row[4] and row[2] <= row[6], row
    # Factorized memory grows ~linearly; listing grows ~cubically: the gap
    # must widen monotonically with the scale factor.
    gaps = [row[4] / row[2] for row in rows]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    # At the largest scale, factorized wins time and memory outright.
    assert last[1] < last[3] and last[1] < last[5]
    assert last[2] < last[4] and last[2] < last[6]
