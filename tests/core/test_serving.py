"""Partial materialization and the serving layer, held to the full engine.

Covers the serving-mode failure classes one by one: cold-key upqueries
(recompute through the view tree must equal full maintenance), eviction
and re-lookup round trips (evicted state must come back exactly), deltas
for unregistered keys (dropped, recorded, and sound to re-register
later), the memory-budget ceiling (measured with the same logical-scalar
accounting as :mod:`repro.bench.memory`), the initialize/write
choke-point regression (stale probe-cache entries after a reload), and
the asyncio front door (many readers, one writer, epoch handoff — no
torn reads across an ``apply_batch``).  The randomized cross-form
sweep lives in ``test_differential_random.py``; these tests pin down
each mechanism with hand-built streams small enough to read.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.bench.memory import relation_scalars
from repro.core import FIVMEngine, Query, VariableOrder, ViewClient, upquery
from repro.data import Relation
from repro.rings import INT_RING
from repro.serve import EpochLock, ViewServer

from tests.conftest import (
    PAPER_SCHEMAS,
    figure2_database,
    make_engine,
    paper_variable_order,
    recompute,
)

#: (trigger form, storage) — forms as in ``tests.conftest.FORMS``.
COMBOS = [
    ("interpreter", "dict"),
    ("scalar", "dict"),
    ("scalar", "columnar"),
    ("array", "columnar"),
]


def paper_query(tag: str = "Q") -> Query:
    return Query(tag, PAPER_SCHEMAS, free=("A",), ring=INT_RING)


def make_pair(form="scalar", storage="dict", budget=None):
    """A (full, partial) engine pair over the paper query."""
    order = paper_variable_order()
    full = make_engine(form, paper_query("Qf"), order, storage=storage)
    part = make_engine(
        form, paper_query("Qp"), order, storage=storage,
        materialization="partial", partial_budget=budget,
    )
    return full, part


def random_stream(seed: int, steps: int = 30, domain: int = 4):
    rng = random.Random(seed)
    for _ in range(steps):
        rel = rng.choice(sorted(PAPER_SCHEMAS))
        schema = PAPER_SCHEMAS[rel]
        delta = Relation(rel, schema, INT_RING)
        for _ in range(rng.randint(1, 3)):
            key = tuple(
                f"{a.lower()}{rng.randint(0, domain - 1)}" for a in schema
            )
            delta.add(key, rng.choice([1, 1, 2, -1]))
        yield delta


# ----------------------------------------------------------------------
# Cold keys: the upquery path
# ----------------------------------------------------------------------


@pytest.mark.parametrize("form,storage", COMBOS)
def test_cold_key_upquery_matches_full_engine(form, storage):
    """Every key is looked up cold first (upquery), then hot (maintained
    entry) — both reads must equal the fully maintained value."""
    full, part = make_pair(form, storage)
    client = ViewClient(part)
    root = part.tree.root.name
    keys = [(f"a{i}",) for i in range(5)]
    for step, delta in enumerate(random_stream(101)):
        full.apply_update(delta.copy())
        part.apply_update(delta.copy())
        for key in keys:
            cold_or_hot = client.lookup(root, key)
            assert cold_or_hot == full.views[root].payload(key), (step, key)
            # Immediately re-read: now guaranteed hot, same value.
            assert client.lookup(root, key) == cold_or_hot


def test_upquery_is_a_point_recompute():
    """`upquery` alone (no registration) equals from-scratch recompute."""
    from repro.data import Database

    _, part = make_pair()
    root = part.tree.root.name
    db = Database(
        Relation(rel, schema, INT_RING)
        for rel, schema in PAPER_SCHEMAS.items()
    )
    for delta in random_stream(7, steps=10):
        part.apply_update(delta.copy())
        db.apply_update(delta)
    expected = recompute(paper_query(), db, paper_variable_order())
    for key in [("a0",), ("a1",), ("a9",)]:  # a9: no support -> ring zero
        assert upquery(part, root, key) == expected.payload(key)
    # Nothing was registered, so the partial root is still empty.
    assert len(part.views[root]) == 0


def test_upquery_forces_support_below_unmaterialized_views():
    """A single-relation query leaves the root's child unmaterialized;
    partial mode must force the base leaf into storage so the upquery
    cascade bottoms out, while full mode keeps it unstored."""
    schemas = {"R": ("A", "B")}
    order = VariableOrder.from_spec(("A", ["B"]))

    def mk(tag):
        return Query(tag, schemas, free=("A",), ring=INT_RING)

    full = FIVMEngine(mk("Qf"), order)
    part = FIVMEngine(mk("Qp"), order, materialization="partial")
    leaf = part.tree.leaves["R"].name
    assert not full.flags[leaf], "fixture: leaf must start unmaterialized"
    assert part.flags[leaf], "partial mode must force upquery support"

    client = ViewClient(part)
    root = part.tree.root.name
    for delta in random_stream(13, steps=10):
        if delta.name != "R":
            continue
        full.apply_update(delta.copy())
        part.apply_update(delta.copy())
        for key in [("a0",), ("a1",), ("a2",), ("a3",)]:
            assert client.lookup(root, key) == full.views[root].payload(key)


# ----------------------------------------------------------------------
# Eviction: round trips and the budget ceiling
# ----------------------------------------------------------------------


def test_eviction_and_relookup_round_trip():
    """With a budget of ~2 entries, serving 5 keys churns the LRU; every
    re-lookup of an evicted key must re-upquery to the right value."""
    unit = 1 + 1  # key width (A) + COUNT payload scalars
    full, part = make_pair(budget=2 * unit)
    client = ViewClient(part)
    root = part.tree.root.name
    keys = [(f"a{i}",) for i in range(5)]
    for delta in random_stream(23):
        full.apply_update(delta.copy())
        part.apply_update(delta.copy())
        for key in keys:
            assert client.lookup(root, key) == full.views[root].payload(key)
    stats = client.stats(root)
    assert stats["evictions"] > 0, "budget never forced an eviction"
    assert stats["reactivations"] > 0, "no evicted key was ever re-served"
    # The LRU holds at most 2 entries; 5 keys were in rotation.
    assert stats["active_keys"] <= 2


def test_evicted_entries_leave_storage():
    """Eviction reclaims the stored payload, not just the registry slot."""
    unit = 2
    full, part = make_pair(budget=2 * unit)
    client = ViewClient(part)
    root = part.tree.root.name
    for delta in random_stream(31, steps=12):
        full.apply_update(delta.copy())
        part.apply_update(delta.copy())
    for i in range(5):
        client.lookup(root, (f"a{i}",))
    active = part.partial[root]
    stored_keys = set(part.views[root].keys())
    assert stored_keys <= set(active.entries), (
        "storage holds keys outside the active set"
    )


def test_memory_budget_is_a_ceiling():
    """At every point of a serve-heavy stream, the partial root's
    measured footprint (bench/memory's logical-scalar accounting) stays
    under the configured budget."""
    budget = 6  # three (key + COUNT payload) entries
    full, part = make_pair(budget=budget)
    client = ViewClient(part)
    root = part.tree.root.name
    rng = random.Random(47)
    for delta in random_stream(47, steps=40, domain=6):
        full.apply_update(delta.copy())
        part.apply_update(delta.copy())
        for _ in range(3):
            key = (f"a{rng.randint(0, 5)}",)
            assert client.lookup(root, key) == full.views[root].payload(key)
        active = part.partial[root]
        assert active.total_cost <= budget
        assert relation_scalars(part.views[root]) <= budget
    assert client.stats(root)["evictions"] > 0


# ----------------------------------------------------------------------
# Unregistered keys: drop records and re-registration
# ----------------------------------------------------------------------


def test_unregistered_deltas_drop_with_a_record():
    """Deltas for never-served keys are dropped at the partial root and
    recorded; registration clears the record and serves the full value
    (the dropped deltas are already in the fully maintained children)."""
    full, part = make_pair()
    client = ViewClient(part)
    root = part.tree.root.name

    client.lookup(root, ("a0",))  # register a0 only
    for delta in random_stream(59, steps=15):
        full.apply_update(delta.copy())
        part.apply_update(delta.copy())

    active = part.partial[root]
    full_root = full.views[root]
    # a0 was maintained; other keys with support were dropped + recorded.
    assert part.views[root].payload(("a0",)) == full_root.payload(("a0",))
    dropped_keys = set(active.dropped)
    assert dropped_keys, "stream never touched an unregistered key"
    assert ("a0",) not in dropped_keys
    assert active.stats["dropped_deltas"] >= len(dropped_keys)
    # The partial root must not hold any unregistered key.
    assert set(part.views[root].keys()) <= set(active.entries)

    # Re-registration: correct value, record cleared, counted.
    victim = sorted(dropped_keys)[0]
    assert client.lookup(root, victim) == full_root.payload(victim)
    assert victim not in active.dropped
    assert active.stats["reactivations"] >= 1

    # And from now on the key is maintained incrementally, not dropped.
    bump = Relation("R", PAPER_SCHEMAS["R"], INT_RING, {(victim[0], "bx"): 2})
    full.apply_update(bump.copy())
    part.apply_update(bump.copy())
    assert part.views[root].payload(victim) == full_root.payload(victim)


# ----------------------------------------------------------------------
# The write/invalidation choke point (initialize regression)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("form,storage", COMBOS)
def test_initialize_after_updates_serves_fresh_values(form, storage):
    """Regression: `initialize` used to absorb into views without the
    probe-cache invalidation the delta paths use, so a reload after
    updates could leave memoized sibling collapses pointing at dead
    state.  All writes now share `_write_view`; a post-reload update
    must produce exactly what a fresh engine produces."""
    order = paper_variable_order()
    engine = make_engine(form, paper_query("Qa"), order, storage=storage)
    # Populate the probe cache: propagation memoizes sibling collapses.
    for delta in random_stream(71, steps=8):
        engine.apply_update(delta)

    db = figure2_database()
    engine.initialize(db)

    fresh = make_engine(form, paper_query("Qb"), order, storage=storage)
    fresh.initialize(db)

    probe = Relation("S", PAPER_SCHEMAS["S"], INT_RING, {
        ("a1", "c1", "e9"): 1, ("a2", "c2", "e4"): -1,
    })
    delta_a = engine.apply_update(probe.copy())
    delta_b = fresh.apply_update(probe.copy())
    assert delta_a.same_as(delta_b.rename({}, name=delta_a.name))
    for name, contents in fresh.views.items():
        assert contents.same_as(
            engine.views[name].rename({}, name=contents.name)
        ), f"view {name} diverged after initialize"


def test_initialize_preserves_partial_active_set():
    """A reload keeps registered keys registered — and restores their
    values from the snapshot, while unregistered keys stay out."""
    full, part = make_pair()
    client = ViewClient(part)
    root = part.tree.root.name
    client.lookup(root, ("a1",))
    db = figure2_database()
    full.initialize(db)
    part.initialize(db)
    active = part.partial[root]
    assert ("a1",) in active.entries
    assert part.views[root].payload(("a1",)) == full.views[root].payload(("a1",))
    assert set(part.views[root].keys()) <= set(active.entries)
    # Cold keys still upquery correctly against the reloaded children.
    assert client.lookup(root, ("a2",)) == full.views[root].payload(("a2",))


# ----------------------------------------------------------------------
# The asyncio front door
# ----------------------------------------------------------------------


def test_concurrent_readers_never_see_torn_batches():
    """One writer applies batches that bump two keys by the same amount
    in lockstep; readers snapshot both keys per request.  Any interleaving
    that exposed a half-applied batch would break the invariant."""

    async def main():
        _, part = make_pair()
        root = part.tree.root.name
        # Seed both keys with equal support so the invariant starts true.
        seed_rows = {("a1", "c0", "e0"): 1, ("a2", "c0", "e0"): 1}
        part.apply_update(
            Relation("S", PAPER_SCHEMAS["S"], INT_RING, dict(seed_rows))
        )
        part.apply_update(
            Relation("T", PAPER_SCHEMAS["T"], INT_RING, {("c0", "d0"): 1})
        )
        part.apply_update(
            Relation("R", PAPER_SCHEMAS["R"], INT_RING,
                     {("a1", "b0"): 1, ("a2", "b0"): 1})
        )
        torn = []

        async with ViewServer(part) as server:
            # Register both keys before racing.
            await server.lookup_many(root, [("a1",), ("a2",)])

            async def reader():
                for _ in range(40):
                    (va1, va2), _epoch = await server.lookup_many(
                        root, [("a1",), ("a2",)]
                    )
                    if va1 != va2:
                        torn.append((va1, va2))
                    await asyncio.sleep(0)

            async def writer():
                for i in range(25):
                    batch = [
                        Relation("R", PAPER_SCHEMAS["R"], INT_RING,
                                 {("a1", f"b{i}"): 1}),
                        Relation("R", PAPER_SCHEMAS["R"], INT_RING,
                                 {("a2", f"b{i}"): 1}),
                    ]
                    await server.apply(batch)
                    await asyncio.sleep(0)

            await asyncio.gather(*(reader() for _ in range(6)), writer())
            final, _ = await server.lookup_many(root, [("a1",), ("a2",)])
        assert not torn, f"torn reads observed: {torn[:3]}"
        assert final[0] == final[1] != 0

    asyncio.run(main())


def test_epoch_advances_once_per_commit_group():
    """`apply` resolves with the root delta and the epoch counts commits."""

    async def main():
        full, part = make_pair()
        root = part.tree.root.name
        async with ViewServer(part) as server:
            assert server.epoch == 0
            d1 = Relation("R", PAPER_SCHEMAS["R"], INT_RING, {("a1", "b1"): 1})
            root_delta = await server.apply([d1.copy()])
            full.apply_update(d1.copy())
            assert root_delta.name == root
            assert server.epoch >= 1
            before = server.epoch
            await server.apply([
                Relation("S", PAPER_SCHEMAS["S"], INT_RING,
                         {("a1", "c1", "e1"): 1}),
            ])
            assert server.epoch > before
            # Reads report the epoch they ran in.
            _, epoch = await server.lookup_many(root, [("a1",)])
            assert epoch == server.epoch

    asyncio.run(main())


def test_writer_preference_blocks_new_readers():
    """A waiting writer gates newly arriving readers (no starvation)."""

    async def main():
        lock = EpochLock()
        order = []

        async def long_reader():
            async with lock.read():
                order.append("r1-in")
                await asyncio.sleep(0.01)
            order.append("r1-out")

        async def writer():
            await asyncio.sleep(0.001)  # arrive while r1 holds the lock
            async with lock.write():
                order.append("w")

        async def late_reader():
            await asyncio.sleep(0.005)  # arrive while the writer waits
            async with lock.read():
                order.append("r2")

        await asyncio.gather(long_reader(), writer(), late_reader())
        # The late reader must run after the writer, despite arriving
        # while only a reader held the lock.
        assert order.index("w") < order.index("r2")
        assert lock.epoch == 1

    asyncio.run(main())


def test_stop_drains_pending_writes():
    """`stop()` waits for queued groups before cancelling the writer."""

    async def main():
        _, part = make_pair()
        root = part.tree.root.name
        server = await ViewServer(part).start()
        futures = [
            asyncio.ensure_future(server.apply([
                Relation("R", PAPER_SCHEMAS["R"], INT_RING,
                         {("a1", f"b{i}"): 1}),
            ]))
            for i in range(5)
        ]
        await asyncio.sleep(0)  # let every apply() enqueue its group
        await server.stop()
        assert all(f.done() for f in futures)
        assert part.views[root].payload(("a1",)) == 0  # no S/T support yet
        assert server.epoch >= 1

    asyncio.run(main())
