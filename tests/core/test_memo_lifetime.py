"""Lifetime and size of the lifted-sibling memos (ROADMAP 5(d)).

The memos of the generated scalar triggers (:mod:`repro.core.plan_exec`)
hold strong references to sibling payloads.  They are caches owned by the
engine: dropped with it, dropped by ``initialize()`` / ``restore()``,
absent from snapshots, outside ``strategy_scalars``, and bounded by the
live size of the sibling they shadow.  The packed column an ℝ root keeps
(:class:`~repro.data.relation.DeferredRelation`) is state, not a cache,
but shares the first rule: it goes when the engine does, no collection
needed.
"""

import gc
import random
import types
import weakref

import numpy as np

from repro.apps.matrix_chain import MatrixChainIVM
from repro.apps.regression import cofactor_query
from repro.bench.memory import strategy_scalars
from repro.core import FIVMEngine
from repro.data import Database, Relation, relation
from repro.datasets import retailer
from repro.datasets.streams import round_robin_stream
from repro.rings.cofactor import CofactorTriple

SCHEMAS = retailer.SCHEMAS


def retailer_engine(**kwargs) -> FIVMEngine:
    query = cofactor_query("lifetime", SCHEMAS, retailer.ALL_VARIABLES)
    return FIVMEngine(query, retailer.variable_order(), **kwargs)


def small_stream(seed: int = 3):
    workload = retailer.generate(scale=0.02, seed=seed)
    return round_robin_stream(SCHEMAS, workload.tables, batch_size=1)


def live_triggers() -> int:
    """Generated triggers alive in the process."""
    return sum(
        1 for obj in gc.get_objects()
        if type(obj) is types.FunctionType and obj.__name__ == "_trigger"
    )


def live_triples() -> int:
    """Cofactor triples alive in the process."""
    return sum(1 for obj in gc.get_objects() if type(obj) is CofactorTriple)


def test_dropped_engines_release_their_memos():
    """50 create → stream → drop cycles: after a collection no generated
    trigger survives, so no memo dict in a trigger's globals does, and the
    process holds no more triples than before the first engine."""
    stream = small_stream()
    gc.collect()
    triggers_before, triples_before = live_triggers(), live_triples()
    for cycle in range(50):
        engine = retailer_engine()
        for delta in stream.deltas(engine.query.ring):
            engine.apply_update(delta)
        if cycle == 0:
            sizes = engine.memo_sizes()
            assert sum(n for n, _ in sizes.values()) > 0, sizes
            assert any(
                type(entry) is tuple and type(entry[1]) is CofactorTriple
                for memo, _ in engine._memo_sites.values()
                for entry in memo.values()
            ), "fixture: the stream must admit at least one product"
        del engine, delta
    gc.collect()
    assert live_triggers() == triggers_before
    assert live_triples() <= triples_before


def test_dropped_chains_release_their_packed_roots_without_a_collection():
    """50 create → stream → drop cycles of the ℝ chain at n = 48, whose
    root keeps its packed column (2 304 float64s): with the collector
    off every column dies with its chain.  Nothing on the way closes a
    reference cycle — the view folds its column itself (no resolver that
    captures it), and ``initialize`` loads through a method, not a
    recursive closure over the engine."""
    rng = np.random.default_rng(5)
    n = 48
    # I · A2 · I: a dense 48 × 48 result from a load of 2 · 48² products.
    mats = [np.eye(n), rng.uniform(-1.0, 1.0, (n, n)), np.eye(n)]
    terms = [
        (rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n))
        for _ in range(3)
    ]
    columns = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            chain = MatrixChainIVM(mats, updatable=["A2"])
            for u, v in terms:
                chain.apply_rank_one(2, u, v)
            chain.result_matrix()
            table, column = chain.engine.result()._packed_form
            assert len(table) == column.size == n * n
            columns.append(weakref.ref(column))
            del chain, table, column
        assert not any(ref() is not None for ref in columns)
    finally:
        gc.enable()


def test_packed_joins_hold_their_pair_arrays_for_one_node_only(monkeypatch):
    """20 constructions of the dense ℝ chain at n = 48: each of the two
    views is one packed join whose pair-index arrays and product column
    have n³ = 110 592 elements.  They belong to the call — no module-level
    cache keyed by relation — so with the collector off none outlives
    the constructor that made it."""
    rng = np.random.default_rng(6)
    n = 48
    mats = [rng.uniform(-1.0, 1.0, (n, n)) for _ in range(3)]
    arrays, sizes = [], set()
    packed_sum = relation._packed_sum

    def watched(kops, column, sides, lifts, out_schema):
        for array in (column, *(rows for _, _, rows in sides)):
            arrays.append(weakref.ref(array))
            sizes.add(array.size)
        return packed_sum(kops, column, sides, lifts, out_schema)

    monkeypatch.setattr(relation, "_packed_sum", watched)
    gc.collect()
    gc.disable()
    try:
        for cycle in range(1, 21):
            chain = MatrixChainIVM(mats, updatable=["A2"])
            assert len(arrays) == 6 * cycle  # two views × (column, two sides)
            assert not [ref for ref in arrays if ref() is not None]
            del chain
    finally:
        gc.enable()
    assert sizes == {n ** 3}


def test_reload_paths_drop_the_memos_and_snapshots_never_carry_them():
    stream = small_stream()
    engine = retailer_engine()
    ring = engine.query.ring
    db = Database(Relation(rel, schema, ring) for rel, schema in SCHEMAS.items())
    for delta in stream.deltas(ring):
        engine.apply_update(delta.copy())
        db.apply_update(delta)
    filled = engine.memo_sizes()
    assert sum(n for n, _ in filled.values()) > 0

    # Memos are not views: the paper's memory axis does not see them.
    scalars = strategy_scalars(engine)
    for memo, _ in engine._memo_sites.values():
        memo.clear()
    assert strategy_scalars(engine) == scalars

    for delta in small_stream(seed=4).deltas(ring):
        if delta.name == "Inventory":
            engine.apply_update(delta.copy())
            db.apply_update(delta)
    assert sum(n for n, _ in engine.memo_sizes().values()) > 0
    snapshot = engine.snapshot()
    reference = retailer_engine(backend="interpreter")
    assert set(snapshot) == set(reference.snapshot()), (
        "a memoizing engine's snapshot has the fields of one that has none"
    )

    engine.initialize(db)
    assert all(n == 0 for n, _ in engine.memo_sizes().values())

    for delta in small_stream(seed=5).deltas(ring):
        if delta.name == "Inventory":
            engine.apply_update(delta)
    assert sum(n for n, _ in engine.memo_sizes().values()) > 0
    engine.restore(snapshot)
    assert all(n == 0 for n, _ in engine.memo_sizes().values())
    reference.initialize(db)
    for name, view in reference.views.items():
        assert engine.views[name].same_as(view), name


def test_a_site_stays_within_twice_its_siblings_live_keys():
    """A 5 000-update stream whose ``dateid`` advances: every
    ``(locn, dateid)`` is probed a few times, then its Weather and
    Inventory rows are deleted and the key is never seen again.  A site
    may shadow at most twice its sibling's live keys (plus what one day's
    deletes take away between two misses) — keys that left the sibling
    are dropped, with their payloads, by the next overflow clear."""
    rng = random.Random(11)
    engine = retailer_engine()
    ring = engine.query.ring
    one, minus = ring.from_int(1), ring.from_int(-1)
    locations, window, per_day = range(4), 3, 3
    workload = retailer.generate(scale=0.02, seed=3)
    for rel in ("Item", "Location", "Census"):
        for row in workload.tables[rel]:
            engine.apply_update(Relation(rel, SCHEMAS[rel], ring, {row: one}))
    items = [row[0] for row in workload.tables["Item"]]

    def weather(locn, day):
        return (locn, day) + tuple((locn + day + i) % 7 for i in range(6))

    days: dict = {}
    slack = 2 * len(locations) + 1
    updates = probed = 0
    largest = dict.fromkeys(engine._memo_sites, 0)

    def apply(rel, row, payload):
        nonlocal updates
        engine.apply_update(Relation(rel, SCHEMAS[rel], ring, {row: payload}))
        updates += 1
        for site, (memo, sibling) in engine._memo_sites.items():
            assert len(memo) <= 2 * len(sibling) + slack, (site, updates)
            largest[site] = max(largest[site], len(memo))

    day = 0
    while updates < 5000:
        day += 1
        rows = []
        for locn in locations:
            if locn % 2:  # Weather first: the Inventory side finds it
                apply("Weather", weather(locn, day), one)
            for ksn in rng.sample(items, per_day):
                rows.append((locn, day, ksn, rng.randint(1, 9)))
                apply("Inventory", rows[-1], one)
            if not locn % 2:  # Weather last: it finds V@ksn_II
                apply("Weather", weather(locn, day), one)
            probed += 1
        days[day] = rows
        for row in days.pop(day - window, ()):
            apply("Inventory", row, minus)
        if day > window:
            for locn in locations:
                apply("Weather", weather(locn, day - window), minus)

    rain = engine.views["V@rain_W"]
    assert len(rain) <= (window + 1) * len(locations)
    assert probed > 20 * len(rain), "fixture: keys must come and go"
    assert largest["V@dateid_IIW:child0"] > len(rain), (
        "fixture: the site must have outlived some of its sibling's keys"
    )
