"""Targeted multi-view engine tests: sharing, lag scheduling, switching.

The broad exactness guarantee (a sharing MultiViewEngine equals N
independent engines on random queries) lives in the differential suite
(``test_differential_random.py``); this file pins down the mechanisms —
publish/promote sharing, fake-clock lag coalescing, tick ordering, the
incremental-vs-recompute switch boundary, deregistration freeing shared
nodes, and the ViewServer front door.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import FIVMEngine, MultiViewEngine, Query
from repro.data.database import Database
from repro.data.relation import Relation
from repro.rings import INT_RING, SquareMatrixRing
from repro.serve import ViewServer


class FakeClock:
    """Injectable monotonic time: tests advance it explicitly."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


CORE = {"R": ("A", "B"), "S": ("B", "C")}


def chain_query(name: str, extra: str) -> Query:
    """R(A,B) ⋈ S(B,C) ⋈ <extra>(A,D), free A — all share the {R,S} core."""
    relations = dict(CORE)
    relations[extra] = ("A", "D")
    return Query(name, relations, free=("A",), ring=INT_RING)


def oracle(query: Query, tables) -> dict:
    """Ground truth from a fresh single-query engine over final state."""
    ring = query.ring
    engine = FIVMEngine(query)
    engine.initialize(
        Database(
            Relation(
                rel,
                query.relations[rel],
                ring,
                {
                    key: ring.from_int(count)
                    for key, count in tables.get(rel, {}).items()
                },
            )
            for rel in query.relations
        )
    )
    return dict(engine.result().items())


def apply_counts(tables: dict, rel: str, counts: dict) -> None:
    current = tables.setdefault(rel, {})
    for key, count in counts.items():
        total = current.get(key, 0) + count
        if total:
            current[key] = total
        else:
            current.pop(key, None)


def result_dict(mv: MultiViewEngine, name: str) -> dict:
    return dict(mv.result(name).items())


def test_publish_then_promote_shares_common_subtree():
    mv = MultiViewEngine()
    mv.register(chain_query("Q1", "T1"))
    assert mv.shared_stats() == {}  # one occurrence: published, not shared

    mv.register(chain_query("Q2", "T2"))
    stats = mv.shared_stats()
    assert len(stats) == 1  # second occurrence promoted the {R, S} core
    (entry,) = stats.values()
    assert entry["subscribers"] == 2
    assert entry["relations"] == ("R", "S")

    mv.register(chain_query("Q3", "T3"))
    (entry,) = mv.shared_stats().values()
    assert entry["subscribers"] == 3

    tables: dict = {}
    for rel, counts in [
        ("R", {(1, 10): 1, (2, 10): 2}),
        ("S", {(10, 5): 1, (10, 6): 1}),
        ("T1", {(1, 0): 1}),
        ("T2", {(2, 0): 3}),
        ("T3", {(1, 0): 1, (2, 0): 1}),
    ]:
        mv.apply_update(rel, counts)
        apply_counts(tables, rel, counts)
    for name, extra in [("Q1", "T1"), ("Q2", "T2"), ("Q3", "T3")]:
        assert result_dict(mv, name) == oracle(chain_query(name, extra), tables)


def test_shared_core_maintained_once_per_update():
    mv = MultiViewEngine()
    for i in range(4):
        mv.register(chain_query(f"Q{i}", f"T{i}"), target_lag=0.0)
        mv.apply_update(f"T{i}", {(1, 0): 1})
    mv.apply_batch([("R", {(1, 10): 1}), ("S", {(10, 5): 1})])
    (before,) = mv.shared_stats().values()
    # Each of these joins existing rows, so each shared refresh produces a
    # non-empty root delta (empty deltas skip the fanout entirely).
    mv.apply_update("R", {(2, 10): 1})
    mv.apply_update("S", {(10, 6): 1})
    (entry,) = mv.shared_stats().values()
    # Two shared-core updates → two shared refreshes, regardless of the
    # four subscribers; the other three subscribers per update hit the
    # already-fresh state, and every refresh fans out to all four.
    assert entry["refreshes"] - before["refreshes"] == 2
    assert entry["hits"] - before["hits"] == 2 * 3
    assert entry["fanouts"] - before["fanouts"] == 2 * 4


def test_target_lag_coalesces_refreshes():
    clock = FakeClock()
    # recompute_fraction=2 pins the incremental path: this test is about
    # coalescing, not the switch (covered by test_recompute_switch_boundary).
    mv = MultiViewEngine(clock=clock, recompute_fraction=2.0)
    mv.register(chain_query("Q1", "T1"), target_lag=10.0)
    mv.apply_update("T1", {(1, 0): 1})
    mv.apply_update("R", {(1, 10): 1})
    clock.advance(5.0)
    mv.apply_update("S", {(10, 7): 1})
    assert mv.tick() == []  # oldest pending is 5s old < 10s budget
    assert mv._views["Q1"].stats["refreshes"] == 0
    assert result_dict(mv, "Q1") == {}  # served state still the old one

    clock.advance(5.0)
    assert mv.tick() == ["Q1"]  # lag exhausted: one coalesced refresh
    stats = mv.view_stats("Q1")
    assert stats["refreshes"] == 1
    assert stats["incremental"] == 1
    assert stats["pending"] == 0
    assert result_dict(mv, "Q1") == {(1,): 1}
    assert mv.tick() == []  # nothing pending: tick is a no-op


def test_eager_views_refresh_on_ingest():
    mv = MultiViewEngine()
    mv.register(chain_query("Q1", "T1"))  # target_lag defaults to 0
    refreshed = mv.apply_update("R", {(1, 10): 1})
    assert refreshed == ["Q1"]
    assert mv.freshness("Q1")["staleness"] == 0.0


def test_tick_refreshes_most_overdue_first():
    clock = FakeClock()
    mv = MultiViewEngine(clock=clock)
    mv.register(Query("QA", {"RA": ("A",)}, free=("A",), ring=INT_RING),
                target_lag=1.0)
    mv.register(Query("QB", {"RB": ("A",)}, free=("A",), ring=INT_RING),
                target_lag=6.0)
    mv.register(Query("QC", {"RC": ("A",)}, free=("A",), ring=INT_RING),
                target_lag=3.0)
    # Same pending age, different budgets → overdue = age − lag decides.
    mv.apply_batch([("RA", {(1,): 1}), ("RB", {(1,): 1}), ("RC", {(1,): 1})])
    clock.advance(8.0)
    assert mv.tick() == ["QA", "QC", "QB"]


def test_recompute_switch_boundary():
    def make(fraction):
        mv = MultiViewEngine(recompute_fraction=fraction, sharing=False)
        mv.register(
            Query("Q", {"R": ("A", "B")}, free=("A",), ring=INT_RING),
            target_lag=5.0,
        )
        mv.apply_update("R", {(a, 0): 1 for a in range(10)})
        mv.drain()  # the seed refresh itself recomputes (touches 100%)
        return mv, dict(mv.view_stats("Q"))

    # 4 touched keys over a 10-key base: 0.4 > 0.3 → recompute.
    mv, seed = make(0.3)
    mv.apply_update("R", {(a, 0): 1 for a in range(4)})
    mv.drain()
    assert mv.view_stats("Q")["recomputes"] - seed["recomputes"] == 1
    assert result_dict(mv, "Q") == {
        (a,): 2 if a < 4 else 1 for a in range(10)
    }

    # 0.4 is not strictly above a 0.4 threshold → incremental.
    mv, seed = make(0.4)
    mv.apply_update("R", {(a, 0): 1 for a in range(4)})
    mv.drain()
    assert mv.view_stats("Q")["recomputes"] - seed["recomputes"] == 0
    assert mv.view_stats("Q")["incremental"] - seed["incremental"] == 1


def test_deregister_frees_shared_nodes():
    mv = MultiViewEngine()
    mv.register(chain_query("Q1", "T1"))
    mv.register(chain_query("Q2", "T2"))
    mv.register(chain_query("Q3", "T3"))
    (entry,) = mv.shared_stats().values()
    assert entry["subscribers"] == 3

    mv.deregister("Q2")
    (entry,) = mv.shared_stats().values()
    assert entry["subscribers"] == 2
    mv.deregister("Q1")
    mv.deregister("Q3")
    assert mv.shared_stats() == {}  # last subscriber gone → engine freed
    assert mv.view_names() == ()
    assert mv._rel_shared == {}

    # The pool is still usable: a fresh pair shares again from scratch.
    mv.register(chain_query("Q4", "T4"))
    mv.register(chain_query("Q5", "T5"))
    (entry,) = mv.shared_stats().values()
    assert entry["subscribers"] == 2
    mv.apply_update("R", {(1, 10): 1})
    mv.apply_update("S", {(10, 5): 1})
    mv.apply_update("T4", {(1, 0): 1})
    assert result_dict(mv, "Q4") == {(1,): 1}


def test_late_registration_sees_current_state():
    mv = MultiViewEngine()
    mv.register(chain_query("Q1", "T1"))
    tables: dict = {}
    for rel, counts in [
        ("R", {(1, 10): 1}),
        ("S", {(10, 5): 2}),
        ("T1", {(1, 0): 1}),
    ]:
        mv.apply_update(rel, counts)
        apply_counts(tables, rel, counts)
    # Registered after the data arrived: must come up fully fresh.
    mv.register(chain_query("Q2", "T2"))
    apply_counts(tables, "T2", {(1, 9): 1})
    mv.apply_update("T2", {(1, 9): 1})
    assert result_dict(mv, "Q2") == oracle(chain_query("Q2", "T2"), tables)


def test_non_commutative_ring_disables_sharing_but_stays_exact():
    ring = SquareMatrixRing(2)
    queries = []
    for i in range(2):
        relations = dict(CORE)
        relations[f"T{i}"] = ("A", "D")
        queries.append(Query(f"Q{i}", relations, free=("A",), ring=ring))
    mv = MultiViewEngine()
    for query in queries:
        mv.register(query)
    assert mv.shared_stats() == {}  # matrix product does not commute

    tables: dict = {}
    for rel, counts in [
        ("R", {(1, 10): 1}),
        ("S", {(10, 5): 1}),
        ("T0", {(1, 0): 2}),
        ("T1", {(1, 0): 1}),
    ]:
        mv.apply_update(rel, counts)
        apply_counts(tables, rel, counts)
    for query in queries:
        got = result_dict(mv, query.name)
        want = oracle(query, tables)
        assert set(got) == set(want)
        for key in want:  # matrix payloads: compare element-wise
            assert (got[key] == want[key]).all()


def test_registration_errors():
    mv = MultiViewEngine()
    mv.register(chain_query("Q1", "T1"))
    with pytest.raises(ValueError, match="already registered"):
        mv.register(chain_query("Q1", "T9"))
    with pytest.raises(ValueError, match="schema"):
        mv.register(
            Query("Q2", {"R": ("A", "X", "Y")}, free=("A",), ring=INT_RING)
        )
    with pytest.raises(ValueError, match="pseudo-relation"):
        mv.register(
            Query("Q3", {"__sv9__": ("A", "B")}, free=("A",), ring=INT_RING)
        )
    with pytest.raises(KeyError):
        mv.apply_update("NOPE", {(1,): 1})
    # Failed registrations leave no residue.
    assert mv.view_names() == ("Q1",)


def test_view_server_front_door():
    """A :class:`ViewServer` fronts a multi-view engine: update groups
    drain through the engine's ``apply_batch`` and reads go through its
    own client."""
    async def main():
        mv = MultiViewEngine(clock=FakeClock())
        mv.register(chain_query("Q1", "T1"))
        async with ViewServer(mv) as server:
            await server.apply([
                ("R", {(1, 10): 1}),
                ("S", {(10, 5): 1}),
                ("T1", {(1, 0): 1}),
            ])
            assert await server.lookup("Q1", (1,)) == 1

    asyncio.run(main())
