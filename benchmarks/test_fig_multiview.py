"""Multi-view maintenance: aggregate throughput vs N registered views.

The north star's "many concurrent views" axis (ROADMAP Open item 3,
modeled on Snowflake Dynamic Tables): N=100 registered queries over one
shared database, every query carrying the same hot join-aggregate core —
``⊕_{B,C,D,E} R(A,B) ⋈ S(B,C) ⋈ U(C,D) ⋈ W(D,E)`` — joined with one
small per-view dimension relation ``Ti(A, F)``.  Updates stream into the
shared core relations, so without sharing every one of the N view trees
re-propagates every delta through the four-relation chain, while with
sharing (`MultiViewEngine(sharing=True)`, the default) one shared
sub-engine maintains the chain once and fans its tiny ``A``-keyed root
delta out to N subscribers, each of which pays a single sibling probe.

Both arms replay the identical eager stream (``target_lag=0``) through
the same :class:`~repro.core.multiview.MultiViewEngine` scheduler, so the
measured ratio isolates the common-sub-view sharing, not the lag
coalescing.  Reported: aggregate maintained-view throughput (applied
delta rows × registered views per second) for both arms at N=100 and the
with/without-sharing speedup, asserted ≥ 1.5× and ratcheted in CI via
``BENCH_multiview.json`` (``repro/bench/regression.py``).  Correctness is
asserted in-run — every sampled view must hold identical contents in both
arms — before any speedup is reported.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.bench import format_table
from repro.core import MultiViewEngine, Query
from repro.rings import INT_RING

from benchmarks.conftest import SCALE, report

#: The shared four-relation chain every registered query joins.
CORE = {"R": ("A", "B"), "S": ("B", "C"), "U": ("C", "D"), "W": ("D", "E")}

N_VIEWS = 100
DOMAIN = 40
ROWS_PER_EVENT = 16
EVENTS = max(8, int(24 * SCALE))


def make_queries():
    queries = []
    for i in range(N_VIEWS):
        relations = dict(CORE)
        relations[f"T{i:03d}"] = ("A", "F")
        queries.append(
            Query(f"V{i:03d}", relations, free=("A",), ring=INT_RING)
        )
    return queries


def seed_updates(rng: random.Random):
    """Base contents: a dense-ish chain so sibling probes do real work,
    plus one small dimension table per view."""
    seeds = []
    for rel, schema in CORE.items():
        counts = {}
        for _ in range(6 * DOMAIN):
            counts[(rng.randrange(DOMAIN), rng.randrange(DOMAIN))] = 1
        seeds.append((rel, counts))
    for i in range(N_VIEWS):
        counts = {(a, rng.randrange(8)): 1 for a in range(DOMAIN)}
        seeds.append((f"T{i:03d}", counts))
    return seeds


def make_events(rng: random.Random):
    """The timed stream: every event updates one shared-core relation."""
    rels = sorted(CORE)
    events = []
    for _ in range(EVENTS):
        rel = rng.choice(rels)
        counts = {}
        for _ in range(ROWS_PER_EVENT):
            key = (rng.randrange(DOMAIN), rng.randrange(DOMAIN))
            counts[key] = counts.get(key, 0) + rng.choice([-1, 1, 1, 2])
        events.append((rel, counts))
    return events


def run_arm(sharing: bool, queries, seeds, events):
    engine = MultiViewEngine(sharing=sharing)
    for query in queries:
        engine.register(query, target_lag=0.0)
    engine.apply_batch(seeds)
    engine.drain()

    rows = sum(len(counts) for _, counts in events)
    start = time.perf_counter()
    for rel, counts in events:
        engine.apply_update(rel, counts)
    engine.drain()
    elapsed = time.perf_counter() - start
    return {
        "engine": engine,
        "throughput": rows * N_VIEWS / elapsed,
        "seconds": elapsed,
    }


@pytest.mark.bench
def test_fig_multiview(benchmark):
    rng = random.Random(0xF1B9)
    queries = make_queries()
    seeds = seed_updates(rng)
    events = make_events(rng)

    def experiment():
        return {
            "no sharing": run_arm(False, queries, seeds, events),
            "sharing": run_arm(True, queries, seeds, events),
        }

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    plain, shared = results["no sharing"], results["sharing"]

    # Correctness gate: both arms must hold identical contents on every
    # sampled view — a speedup on diverged views must never be reported.
    for i in range(0, N_VIEWS, max(1, N_VIEWS // 10)):
        name = f"V{i:03d}"
        a = dict(plain["engine"].result(name).items())
        b = dict(shared["engine"].result(name).items())
        assert a == b, f"sharing diverged from no-sharing on view {name}"

    shared_stats = shared["engine"].shared_stats()
    assert shared_stats, "no shared sub-view was formed on the chain core"
    core_stat = next(iter(shared_stats.values()))
    assert core_stat["subscribers"] == N_VIEWS

    speedup = shared["throughput"] / plain["throughput"]
    rows = [
        [
            arm,
            f"{results[arm]['throughput']:,.0f} rows·views/s",
            f"{results[arm]['seconds']:.2f} s",
        ]
        for arm in ("no sharing", "sharing")
    ]
    table = format_table(
        f"multi-view maintenance at N={N_VIEWS} registered views "
        "(shared four-relation core)",
        ["arm", "aggregate throughput", "stream time"],
        rows,
    )
    report(
        "multiview",
        table + (
            f"\nwith-sharing over without: {speedup:.2f}x"
            f"  (shared refreshes {core_stat['refreshes']},"
            f" hits {core_stat['hits']},"
            f" fanouts {core_stat['fanouts']})"
        ),
        data={
            "n_views": N_VIEWS,
            "events": len(events),
            "rows_per_event": ROWS_PER_EVENT,
            "throughput": {
                arm: results[arm]["throughput"]
                for arm in ("no sharing", "sharing")
            },
            "speedup": speedup,
            "shared": {
                k: v
                for k, v in core_stat.items()
                if isinstance(v, (int, float))
            },
        },
    )
    assert speedup >= 1.5, (
        f"sharing only {speedup:.2f}x over independent maintenance at "
        f"N={N_VIEWS} views on a shared-core workload"
    )
