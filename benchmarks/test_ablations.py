"""Ablations of F-IVM's design choices (beyond the paper's figures).

Quantifies the individual ingredients the paper motivates qualitatively:

* **chain collapsing** (Section 3's practical composition for wide
  relations) — fewer views, less per-update view traffic;
* **group-aware delta joins** (the operational form of the paper's
  pre-aggregated sibling lookups) — O(1) star-root updates;
* **variable-order choice for matrix chains** (Section 6.1) — the optimal
  parenthesization vs a naive left-deep chain order;
* **factorized vs listing update propagation** (Section 5) — rank-1 deltas
  kept as products vs flattened;
* **compiled vs generic factorized propagation** — the factor programs
  generated from the IR (direct index lookups, fused join_project, shared
  probe cache) vs the IR-interpreter reference;
* **array vs scalar triggers** — the batched array execution of the
  delta-program IR the engine selects for large deltas (payload columns
  packed, products and ``Ring.sum`` folds as grouped array reductions) vs
  the per-tuple generated triggers it would otherwise run, on the fig7
  retailer cofactor batch workload.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np
import pytest

from repro.apps import MatrixChainIVM
from repro.apps.regression import cofactor_query
from repro.bench import format_table, run_stream, timed_chain_rank_one
from repro.core import FIVMEngine, Query
from repro.datasets import housing, retailer, round_robin_stream
from repro.datasets.matrices import random_matrix, rank_r_update, row_update
from repro.rings import INT_RING

from benchmarks.conftest import SCALE, report, scalar_triggers


def test_ablation_chain_collapsing(benchmark):
    workload = retailer.generate(scale=0.1 * SCALE, seed=31)
    query = cofactor_query(
        "retailer", workload.schemas, workload.numeric_variables
    )
    stream = round_robin_stream(workload.schemas, workload.tables, batch_size=50)

    def experiment():
        rows = []
        for collapse in (True, False):
            engine = FIVMEngine(
                query, workload.variable_order, collapse_chains=collapse
            )
            result = run_stream(
                f"collapse={collapse}", engine, stream, query.ring, checkpoints=2
            )
            rows.append([
                "on" if collapse else "off",
                engine.tree.view_count(),
                f"{result.average_throughput:.0f}",
                result.peak_memory,
            ])
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    table = format_table(
        "Ablation: chain collapsing on the Retailer cofactor workload",
        ["collapsing", "views in tree", "tuples/sec", "peak memory"],
        rows,
    )
    report(
        "ablation_chain_collapsing",
        table,
        data={
            "headers": ["collapsing", "views", "throughput", "peak_memory"],
            "rows": rows,
        },
    )
    views_on, views_off = rows[0][1], rows[1][1]
    assert views_on == 9
    assert views_off > 3 * views_on  # one view per variable without it


@pytest.mark.bench
def test_ablation_group_aware_joins(benchmark):
    """Group-aware probes pay when sibling views have wide keys per probe
    subkey — exactly the factorized result representation, where each chain
    view keeps one key per base row.  (On fully pre-aggregated COUNT views
    buckets are singletons and the probes are equivalent.)"""
    from repro.core.view_tree import build_view_tree
    from repro.apps.conjunctive import _factorize_tree

    workload = housing.generate(
        scale=max(4, int(8 * SCALE)), postcodes=max(15, int(30 * SCALE)), seed=31
    )
    free = tuple(dict.fromkeys(a for s in workload.schemas.values() for a in s))
    stream = round_robin_stream(workload.schemas, workload.tables, batch_size=20)

    def experiment():
        rows = []
        outputs = []
        for group_aware in (True, False):
            query = Query("housing_fact", workload.schemas, ring=INT_RING)
            tree = _factorize_tree(
                build_view_tree(query, workload.variable_order), free
            )
            engine = FIVMEngine(
                query, tree=tree, materialize="all", group_aware=group_aware
            )
            result = run_stream(
                f"ga={group_aware}", engine, stream, query.ring, checkpoints=2
            )
            rows.append([
                "on" if group_aware else "off",
                f"{result.average_throughput:.0f}",
                result.average_throughput,
            ])
            outputs.append(len(engine.result()))
        assert outputs[0] == outputs[1], "ablation must not change results"
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    table = format_table(
        "Ablation: group-aware delta joins (Housing factorized representation)",
        ["group-aware probes", "tuples/sec"],
        [row[:2] for row in rows],
    )
    speedup = rows[0][2] / rows[1][2]
    report(
        "ablation_group_aware",
        table + f"\nspeedup from group-aware probes: {speedup:.2f}x",
        data={
            "headers": ["group_aware", "throughput"],
            "rows": [row[:2] for row in rows],
            "speedup": speedup,
        },
    )
    assert rows[0][2] > rows[1][2]


def test_ablation_matrix_chain_order(benchmark):
    """Optimal parenthesization vs worst-case order for a skewed chain."""
    rng = np.random.default_rng(32)
    p_big = int(96 * SCALE)
    p_small = 4
    # A1 (small × big), A2 (big × big), A3 (big × small): the optimal order
    # shrinks intermediates to small dimensions early.
    mats = [
        random_matrix(p_small, p_big, rng),
        random_matrix(p_big, p_big, rng),
        random_matrix(p_big, p_small, rng),
    ]

    def experiment():
        rows = []
        for optimal in (True, False):
            chain = MatrixChainIVM(
                mats, updatable=["A2"], use_optimal_order=optimal
            )
            u, v = row_update(p_big, 3, rng)
            start = time.perf_counter()
            for _ in range(3):
                chain.apply_rank_one(2, u, v)
            elapsed = (time.perf_counter() - start) / 3
            rows.append(["optimal" if optimal else "balanced", elapsed])
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    table = format_table(
        f"Ablation: variable order for the matrix chain "
        f"(dims {p_small}x{p_big}, {p_big}x{p_big}, {p_big}x{p_small})",
        ["order", "sec per rank-1 update"],
        rows,
    )
    report(
        "ablation_matrix_chain_order",
        table,
        data={"headers": ["order", "sec_per_update"], "rows": rows},
    )


@pytest.mark.bench
def test_ablation_compiled_factorized(benchmark):
    """Generated factor programs vs the IR-interpreter factor path, on
    rank-1 updates to the middle of a matrix chain (both hash-engine
    runtimes; identical update sequences).  The generated path replaces
    the per-op IR walk and its per-combination bindings with fused,
    specialized loop nests, so it must clear the interpreter by a real
    margin (``speedup``: scalar form over interpreter, the ratcheted
    ratio).  The array row is the default engine, whose factor programs
    run on packed factors at this size (``array_speedup``: over the
    scalar form)."""
    rng = np.random.default_rng(34)
    n = int(48 * SCALE)
    updates = 10
    mats = [random_matrix(n, n, rng) for _ in range(3)]
    terms = rank_r_update(n, 1, rng) * updates

    def experiment():
        rows = []
        outputs = []
        for name, form in (
            ("compiled", "scalar"), ("generic", "interpreter"),
            ("array", "default"),
        ):
            engine, seconds = timed_chain_rank_one(mats, terms, form)
            rows.append([name, seconds])
            outputs.append(engine.result())
        assert outputs[0].same_as(outputs[1]), \
            "ablation must not change results"
        assert outputs[2].same_as(outputs[1]), \
            "ablation must not change results"
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    speedup = rows[1][1] / rows[0][1]
    array_speedup = rows[0][1] / rows[2][1]
    table = format_table(
        f"Ablation: compiled vs generic factorized propagation (n = {n})",
        ["factorized path", "sec/rank-1 update"],
        rows,
    )
    report(
        "ablation_compiled_factorized",
        table + f"\ncompiled speedup: {speedup:.2f}x"
        f"\narray over compiled: {array_speedup:.2f}x",
        data={
            "headers": ["path", "sec_per_update"],
            "rows": rows,
            "speedup": speedup,
            "array_speedup": array_speedup,
        },
    )
    assert speedup >= 1.2, f"compiled factorized path only {speedup:.2f}x"
    assert array_speedup >= 1.5, f"array factor programs only {array_speedup:.2f}x"


@pytest.mark.bench
def test_ablation_kernel_backend(benchmark):
    """Array vs scalar triggers on the fig7 retailer cofactor batch
    workload (degree-43 ring, batched listing deltas), both on the
    default engine.  The engine picks the array form of a trigger for
    deltas of at least ``MIN_TRIGGER_ROWS`` rows — the same IR program
    executed over packed arrays, so the per-tuple ``CofactorTriple``
    arithmetic that dominates the scalar triggers' profile leaves the hot
    path.  The scalar arm is the same engine constructed with that
    threshold out of reach; the third arm is the reference interpreter.

    Both engine arms keep the default dict views, and both leave the
    lift-only leaf programs on scalar triggers (the memory rule of
    docs/architecture.md §3) — on this round-robin stream that is where
    the dimension tables' many-variable leaves spend their time.  Until
    the keyword went away the ablation set kernels on every node over
    *columnar* views against source over dict views: 5–6.7×, floor 4.0.
    The selection measured 2.9–3.85× scalar over sixteen runs, floor 2.0.

    **What is asserted, and against which arm.**  The guard is for the
    array path, so its reference must not be the arm a scalar-trigger
    change moves.  The lifted-sibling memo (§3) shares one product between
    the rows of a batch that probe one key: it took the scalar arm from
    20k to 33–37k tuples/s and array-over-scalar from 2.86–3.32× to
    1.72–2.18×, with the array arm itself *up* (59–61k → 67–73k; six
    alternating runs per commit, same box).  The asserted ratio is
    therefore array over the **interpreter**, which never memoizes:
    3.12–3.32× over six runs at the commit before the memo — the floor is
    two-thirds of that, the rule the 2.0 floor followed — and 2.41–3.21×
    over nine runs after it (the interpreter shares the faster
    disjoint-support ``CofactorRing.mul``, 18.6k → 25k; the array arm
    mostly multiplies packed columns).  Array-over-scalar stays the
    reported ``speedup``, ratcheted against its committed baseline in CI,
    and is held here only to what selecting the array form means: it must
    not lose."""
    workload = retailer.generate(scale=3.0 * SCALE, seed=21)
    stream = round_robin_stream(
        workload.schemas, workload.tables, batch_size=max(100, int(600 * SCALE))
    )
    query = cofactor_query(
        "retailer_kb", workload.schemas, workload.numeric_variables
    )
    arms = (
        ("array", contextlib.nullcontext, None),
        ("scalar", scalar_triggers, None),
        ("interpreter", contextlib.nullcontext, "interpreter"),
    )

    def experiment():
        best = dict.fromkeys((arm for arm, _, _ in arms), 0.0)
        reference = None
        for _ in range(3):  # interleaved best-of-three damps scheduler noise
            for arm, pin, backend in arms:
                with pin():
                    engine = FIVMEngine(
                        query, order=workload.variable_order, backend=backend
                    )
                result = run_stream(
                    arm, engine, stream, engine.query.ring, checkpoints=2,
                )
                best[arm] = max(best[arm], result.average_throughput)
                if reference is None:
                    reference = engine.result()
                else:
                    assert engine.result().same_as(reference), (
                        "ablation must not change results"
                    )
        return best

    best = benchmark.pedantic(experiment, rounds=1, iterations=1)
    speedup = best["array"] / best["scalar"]
    over_interpreter = best["array"] / best["interpreter"]
    rows = [[arm, f"{best[arm]:.0f}"] for arm, _, _ in arms]
    table = format_table(
        "Ablation: array vs scalar triggers "
        "(Retailer cofactor, batched stream)",
        ["triggers", "tuples/sec"],
        rows,
    )
    report(
        "ablation_kernel_backend",
        table + f"\narray-trigger speedup: {speedup:.2f}x scalar, "
        f"{over_interpreter:.2f}x interpreter",
        data={
            "headers": ["triggers", "throughput"],
            "rows": rows,
            "speedup": speedup,
            "array_over_interpreter": over_interpreter,
        },
    )
    assert over_interpreter >= 2.1, (
        f"array triggers only {over_interpreter:.2f}x the interpreter"
    )
    assert speedup > 1.0, f"array triggers lose to scalar: {speedup:.2f}x"


@pytest.mark.bench
def test_ablation_factorized_vs_listing_updates(benchmark):
    """A *dense* rank-1 delta ``u vᵀ`` (Section 5 / Example 5.1): the listing
    trigger must materialize and propagate all n² changed entries, while the
    factorized path keeps the two n-vectors apart and marginalizes them
    through the tree (fused join+marginalize), touching O(n) keys per
    sibling.  (A one-hot row update would have only n non-zero entries and
    level the comparison — density is what factorization pays off on.)"""
    rng = np.random.default_rng(33)
    n = int(48 * SCALE)
    mats = [random_matrix(n, n, rng) for _ in range(3)]

    def experiment():
        factored = MatrixChainIVM(mats, updatable=["A2"])
        listing = MatrixChainIVM(mats, updatable=["A2"])
        u, v = rank_r_update(n, 1, rng)[0]

        start = time.perf_counter()
        for _ in range(3):
            factored.apply_rank_one(2, u, v)
        t_factored = (time.perf_counter() - start) / 3

        delta = np.outer(u, v)
        start = time.perf_counter()
        for _ in range(3):
            listing.apply_dense_delta(2, delta)
        t_listing = (time.perf_counter() - start) / 3
        assert np.allclose(factored.result_matrix(), listing.result_matrix())
        return [["factorized (rank-1)", t_factored], ["listing", t_listing]]

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    table = format_table(
        f"Ablation: factorized vs listing delta propagation (n = {n})",
        ["update form", "sec/update"],
        rows,
    )
    speedup = rows[1][1] / rows[0][1]
    report(
        "ablation_factorized_updates",
        table + f"\nfactorized speedup: {speedup:.1f}x",
        data={
            "headers": ["update_form", "sec_per_update"],
            "rows": rows,
            "speedup": speedup,
        },
    )
    assert rows[0][1] < rows[1][1]
