"""Serving under a Zipf-skewed read+write mix: full vs partial roots.

The "millions of users" workload the serving layer exists for: a
read-dominated stream of point lookups over a skewed key distribution,
with a steady trickle of uniform writes over a much larger key domain.
The query is the paper's cofactor workload served per group — ``Q(A) =
R(A,B) ⋈ S(A,C) ⋈ T(A,D)`` under the cofactor ring with lifts on B/C/D,
i.e. per-key regression aggregates kept fresh while being served.

Both materialization modes replay the *same* precomputed op sequence:

* **full** maintains every root key on every write — each delta row
  costs sibling probes plus two cofactor multiplications whether or not
  anyone ever reads that key;
* **partial** (active set sized to the hot set) drops cold-key delta
  rows at the root *before* the probe program runs, so the ~98% of
  uniform writes that miss the hot set never pay the root's ring work.
  Cold reads (the Zipf tail) pay an upquery instead.

Reported: read throughput (reads / total wall-clock of the mixed loop —
the number a serving front end actually observes), p50/p99 per-lookup
latency, and write cost per delta, each mode's best of three interleaved
passes.  The partial-over-full read throughput ratio is asserted ≥ 2× and
ratcheted in CI via ``BENCH_serving_latency.json``
(``repro/bench/regression.py``).  It is a ratio to full maintenance's
write cost, which fell when ``CofactorRing.mul`` stopped zero-filling
disjoint-support products (this root joins three siblings over disjoint
variables): single passes read 1.8–2.7× where they read ~3×, too close
to the floor for one 0.2 s pass per mode; best-of-three reads 2.43–2.76×
over eight runs.
Both modes run the scalar trigger form (``scalar_triggers``): dropping
cold rows is also what takes the partial root's 60-row deltas below the
engine's array threshold, so on the size-selected default the ratio
would mix partial-vs-full with scalar-vs-array (the ablation's subject;
there full's write cost falls 2.1 → 0.7 ms per delta, partial's 0.4 ms
stays, and the ratio reads 1.15–1.35×).
Served-key correctness is asserted in-run against the full engine —
the bench refuses to report a speedup on wrong answers.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.bench import format_table
from repro.bench.memory import payload_scalars
from repro.core import FIVMEngine, Query, VariableOrder, ViewClient
from repro.data import Database, Relation
from repro.rings import CofactorRing, Lifting

from benchmarks.conftest import SCALE, report, scalar_triggers

SCHEMAS = {"R": ("A", "B"), "S": ("A", "C"), "T": ("A", "D")}

#: Uniform write domain vs served hot set: the Noria-style skew.
DOMAIN = max(500, int(2000 * SCALE))
HOT = 64
ZIPF_S = 1.3


def make_query(tag: str) -> Query:
    ring = CofactorRing(3)
    lifts = {"B": ring.lift(0), "C": ring.lift(1), "D": ring.lift(2)}
    return Query(
        tag, SCHEMAS, free=("A",), ring=ring, lifting=Lifting(ring, lifts)
    )


def base_database(ring) -> Database:
    """Every A key carries one row per relation: the steady serving state
    where the root is dense and every write row joins."""
    rels = []
    for rel, schema in SCHEMAS.items():
        rels.append(Relation(
            rel, schema, ring, {(a, 1): ring.from_int(1) for a in range(DOMAIN)}
        ))
    return Database(rels)


def make_ops(seed: int):
    """One op sequence both modes replay: per round, one uniform write
    (inserts over the whole domain) and a burst of Zipf-skewed reads."""
    rng = random.Random(seed)
    rounds = max(20, int(150 * SCALE))
    reads_per_round = 10
    rows_per_write = 60
    # Zipf over the domain: rank k drawn with probability ∝ 1/(k+1)^s.
    weights = [1.0 / (k + 1) ** ZIPF_S for k in range(DOMAIN)]
    ops = []
    for _ in range(rounds):
        rel = rng.choice(sorted(SCHEMAS))
        data = {}
        for _ in range(rows_per_write):
            key = (rng.randrange(DOMAIN), rng.randrange(100))
            data[key] = data.get(key, 0) + 1
        ops.append(("write", rel, data))
        for rank in rng.choices(range(DOMAIN), weights=weights,
                                k=reads_per_round):
            ops.append(("read", (rank,)))
    return ops


def run_mode(materialization: str, ops):
    ring_query = make_query(f"Q_{materialization}")
    ring = ring_query.ring
    order = VariableOrder.from_spec(("A", ["B", "C", "D"]))
    with scalar_triggers():
        engine = FIVMEngine(
            ring_query, order, materialization=materialization,
        )
    client = ViewClient(engine)
    root = engine.tree.root.name
    engine.initialize(base_database(ring))
    for rank in range(HOT):  # warm the hot set (registers it in partial)
        client.lookup(root, (rank,))
    if materialization == "partial":
        # Budget: twice the hot set, in logical scalars *as measured* on
        # the warmed entries (bench/memory accounting) — Zipf-tail reads
        # churn the LRU's spare room without thrashing the head.
        unit = 1 + payload_scalars(engine.views[root].payload((0,)))
        engine.partial[root].budget = 2 * HOT * unit

    lookup = client.lookup
    apply_update = engine.apply_update
    read_latencies = []
    reads = writes = 0
    start = time.perf_counter()
    for op in ops:
        if op[0] == "read":
            t0 = time.perf_counter()
            lookup(root, op[1])
            read_latencies.append(time.perf_counter() - t0)
            reads += 1
        else:
            _, rel, data = op
            apply_update(Relation(
                rel, SCHEMAS[rel], ring,
                {k: ring.from_int(c) for k, c in data.items()},
            ))
            writes += 1
    total = time.perf_counter() - start

    read_latencies.sort()
    n = len(read_latencies)
    return {
        "engine": engine,
        "client": client,
        "root": root,
        "read_throughput": reads / total,
        "total_seconds": total,
        "write_ms": 1000.0 * (total - sum(read_latencies)) / writes,
        "p50_us": 1e6 * read_latencies[n // 2],
        "p99_us": 1e6 * read_latencies[min(n - 1, int(n * 0.99))],
    }


@pytest.mark.bench
def test_serving_latency(benchmark):
    ops = make_ops(0xF1B7)

    def experiment():
        # Interleaved best-of-three per mode damps scheduler noise (one
        # pass is ~0.2 s of wall clock).
        best = {}
        for _ in range(3):
            for mode in ("full", "partial"):
                run = run_mode(mode, ops)
                if (
                    mode not in best
                    or run["read_throughput"] > best[mode]["read_throughput"]
                ):
                    best[mode] = run
        return best

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    full, part = results["full"], results["partial"]

    # Correctness gate: the partial engine must serve the full engine's
    # value on every hot key and a sample of the Zipf tail — a speedup
    # on wrong answers must never be reported, let alone ratcheted.
    ring = full["engine"].query.ring
    oracle = full["engine"].views[full["root"]]
    sample = [(rank,) for rank in range(HOT)]
    sample += [(rank,) for rank in range(HOT, DOMAIN, max(1, DOMAIN // 40))]
    for key in sample:
        assert ring.eq(
            part["client"].lookup(part["root"], key), oracle.payload(key)
        ), f"partial diverged from full on served key {key}"
    stats = part["client"].stats(part["root"])
    assert stats["dropped_deltas"] > 0, "uniform writes never missed the set"

    speedup = part["read_throughput"] / full["read_throughput"]
    rows = [
        [
            mode,
            f"{results[mode]['read_throughput']:,.0f} reads/s",
            f"{results[mode]['p50_us']:.0f} us",
            f"{results[mode]['p99_us']:.0f} us",
            f"{results[mode]['write_ms']:.2f} ms",
        ]
        for mode in ("full", "partial")
    ]
    table = format_table(
        "serving under Zipf read+write mix (cofactor ring)",
        ["materialization", "read throughput", "p50 read", "p99 read",
         "write cost/delta"],
        rows,
    )
    report(
        "serving_latency",
        table + (
            f"\npartial-over-full read throughput: {speedup:.2f}x"
            f"  (active keys {stats['active_keys']},"
            f" evictions {stats['evictions']},"
            f" dropped deltas {stats['dropped_deltas']})"
        ),
        data={
            "headers": [
                "materialization", "read_throughput", "p50_us", "p99_us",
                "write_ms",
            ],
            "rows": [
                [
                    mode,
                    results[mode]["read_throughput"],
                    results[mode]["p50_us"],
                    results[mode]["p99_us"],
                    results[mode]["write_ms"],
                ]
                for mode in ("full", "partial")
            ],
            "speedup": speedup,
            "serving_stats": {
                k: v for k, v in stats.items()
            },
        },
    )
    assert speedup >= 2.0, (
        f"partial read throughput only {speedup:.2f}x full on the Zipf "
        "hot-set workload"
    )
