"""Durability layer: snapshots, the update journal, and the journaled
engine (``repro/core/checkpoint.py``).

The contract under test is the recovery identity

    restore(snapshot at seq k) ; replay journal tail (> k)  ==  straight line

on every ring family and trigger form (the ``form`` fixture of
``tests.conftest``), with indicator views and partial-mode active
sets riding along, plus the idempotence that makes retried recovery
safe: the tail is selected strictly after the snapshot's sequence
number, so no group is ever applied twice.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.apps import ConjunctiveQuery
from repro.core import (
    FIVMEngine,
    Query,
    VariableOrder,
    add_indicator_projections,
    build_view_tree,
)
from repro.core.checkpoint import (
    SNAPSHOT_VERSION,
    JournaledFIVMEngine,
    UpdateJournal,
    restore_snapshot,
    tail_handoff,
    take_snapshot,
)
from repro.core.serving import ViewClient
from repro.data import Relation
from repro.rings import CofactorRing, DegreeRing, INT_RING, Lifting

from tests.conftest import (
    chain_order,
    PAPER_SCHEMAS,
    figure2_database,
    make_database,
    paper_variable_order,
    random_delta,
    random_rows,
)


def numeric_database(ring):
    """A small all-numeric instance (lifted rings need float-able keys)."""
    rng = random.Random(0x11)
    rows = {
        rel: random_rows(rng, schema, 6)
        for rel, schema in PAPER_SCHEMAS.items()
    }
    return make_database(PAPER_SCHEMAS, ring, rows)


def paper_query(tag: str, ring=INT_RING, lifting=None) -> Query:
    return Query(tag, PAPER_SCHEMAS, free=("A",), ring=ring, lifting=lifting)


def stream(seed: int, ring, steps: int = 12):
    rng = random.Random(seed)
    for _ in range(steps):
        rel = rng.choice(sorted(PAPER_SCHEMAS))
        yield random_delta(rng, rel, PAPER_SCHEMAS[rel], ring)


def assert_same_state(a: FIVMEngine, b: FIVMEngine) -> None:
    assert set(a.views) == set(b.views)
    for name, view in a.views.items():
        assert view.same_as(b.views[name]), name
    for node_name, ivs in a._indicator_views.items():
        for iv, other in zip(ivs, b._indicator_views[node_name]):
            assert iv._counts == other._counts
            assert iv.relation.same_as(other.relation)


RINGS = {
    "int": lambda: (INT_RING, None),
    "degree": lambda: (
        DegreeRing(2),
        Lifting(DegreeRing(2), {"B": DegreeRing(2).lift(0)}),
    ),
    "cofactor": lambda: (
        CofactorRing(2),
        Lifting(CofactorRing(2), {"B": CofactorRing(2).lift(0),
                                  "D": CofactorRing(2).lift(1)}),
    ),
}


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_snapshot_restore_round_trip(ring_name, form):
    ring, lifting = RINGS[ring_name]()
    order = paper_variable_order()
    warm = FIVMEngine(paper_query("Qa", ring, lifting), order)
    warm.initialize(numeric_database(ring))
    for delta in stream(0xC0DE, ring):
        warm.apply_update(delta)

    snap = warm.snapshot(seq=7)
    assert snap["seq"] == 7
    fresh = FIVMEngine(paper_query("Qb", ring, lifting), order)
    fresh.restore(snap)
    assert_same_state(warm, fresh)

    # the restored engine is live: both move identically afterwards
    for delta in stream(0xBEEF, ring, steps=4):
        warm.apply_update(delta.copy())
        fresh.apply_update(delta)
    assert_same_state(warm, fresh)


def test_snapshot_restore_covers_indicator_views():
    schemas = {"R": ("A", "B"), "S": ("B", "C"), "T": ("C", "A")}
    q = Query("tri", schemas, ring=INT_RING)
    order = chain_order(("A", "B", "C"))
    tree = add_indicator_projections(build_view_tree(q, order))
    warm = FIVMEngine(q, tree=tree)
    assert warm._indicator_views  # the query this test is about
    rng = random.Random(0x7A1)
    for _ in range(10):
        rel = rng.choice(sorted(schemas))
        warm.apply_update(random_delta(rng, rel, schemas[rel], INT_RING))

    fresh = FIVMEngine(Query("tri2", schemas, ring=INT_RING),
                       tree=add_indicator_projections(
                           build_view_tree(q, order)))
    fresh.restore(warm.snapshot())
    assert_same_state(warm, fresh)
    for _ in range(5):
        rel = rng.choice(sorted(schemas))
        delta = random_delta(rng, rel, schemas[rel], INT_RING)
        warm.apply_update(delta.copy())
        fresh.apply_update(delta)
    assert_same_state(warm, fresh)


def test_snapshot_restore_covers_partial_mode():
    order = paper_variable_order()
    warm = FIVMEngine(paper_query("Qp"), order,
                      materialization="partial", partial_budget=6)
    warm.initialize(figure2_database())
    client = ViewClient(warm)
    root = warm.tree.root.name
    for delta in stream(0x9A9, INT_RING):
        warm.apply_update(delta)
        client.lookup(root, (1,))
        client.lookup(root, (2,))

    fresh = FIVMEngine(paper_query("Qq"), order,
                       materialization="partial", partial_budget=6)
    fresh.restore(warm.snapshot())
    for name, active in warm.partial.items():
        other = fresh.partial[name]
        assert list(active.entries.items()) == list(other.entries.items())
        assert active.total_cost == other.total_cost
        assert active.dropped == other.dropped
        assert active.stats == other.stats
    # served lookups agree without re-warming
    fresh_client = ViewClient(fresh)
    for key in [(1,), (2,), (3,)]:
        assert INT_RING.eq(
            client.lookup(root, key), fresh_client.lookup(root, key)
        )


def test_restore_rejects_incompatible_engine():
    order = paper_variable_order()
    warm = FIVMEngine(paper_query("Qa"), order, db=figure2_database())
    snap = warm.snapshot()
    other = FIVMEngine(
        Query("other", {"R": ("A", "B")}, free=("A",), ring=INT_RING)
    )
    with pytest.raises(ValueError):
        other.restore(snap)
    with pytest.raises(ValueError):
        warm.restore({**snap, "version": 99})


def factorized_star():
    schemas = {"R1": ("P", "X"), "R2": ("P", "Y"), "R3": ("P", "Z")}
    query = ConjunctiveQuery(
        "star", schemas, ("P", "X", "Y", "Z"),
        order=VariableOrder.from_spec(("P", ["X", "Y", "Z"])),
    )
    return schemas, query


def test_factorized_query_round_trips_through_a_snapshot():
    """snapshot → restore into a fresh query → enumerate: the relations
    standing in for their elided views travel under their own names, and
    the restored engine keeps maintaining them."""
    schemas, warm = factorized_star()
    for rel, schema in schemas.items():
        warm.apply_update(Relation.from_tuples(
            rel, schema, warm.ring, [(p, v) for p in (0, 1) for v in range(3)]))
    snap = warm.engine.snapshot(seq=7)
    assert snap["version"] == SNAPSHOT_VERSION == 3
    assert set(snap["views"]) == set(schemas) | {warm.engine.tree.root.name}

    fresh = factorized_star()[1]
    fresh.engine.restore(snap)
    assert dict(fresh.enumerate()) == dict(warm.enumerate())
    assert fresh.result_size() == warm.result_size() == 54
    delete = Relation.from_tuples("R2", schemas["R2"], warm.ring, [(1, 0)], -1)
    for query in (warm, fresh):
        query.apply_update(delete.copy())
    assert dict(fresh.enumerate()) == dict(warm.enumerate())
    assert fresh.result_size() == 45


def test_older_snapshots_are_refused_before_any_state_is_touched():
    """A version-1 file of the same query also holds the `V@…` copies of
    the relations; a version-2 file holds the same views, but a cofactor
    payload in it would be the two-array triple.  Each is refused for its
    version — the named error — not for whichever view or payload
    mismatch restore would trip over first, and the engine it was offered
    to is left as it was."""
    schemas, query = factorized_star()
    for rel, schema in schemas.items():
        query.apply_update(Relation.from_tuples(
            rel, schema, query.ring, [(0, 1), (0, 2)]))
    engine = query.engine
    list(query.enumerate())  # the reader's indexes are state too
    snap = engine.snapshot()
    v1 = {**snap, "version": 1, "views": dict(snap["views"])}
    for rel, variable in (("R1", "X"), ("R2", "Y"), ("R3", "Z")):
        v1["views"][f"V@{variable}_{rel[:1]}"] = snap["views"][rel]
    v2 = {**snap, "version": 2}

    def state():
        return {
            name: (dict(view.items()), {
                attrs: {k: dict(b) for k, b in index[1].items()}
                for attrs, index in view._indexes.items()
            })
            for name, view in engine.views.items()
        }

    before = state()
    for version, old in ((1, v1), (2, v2)):
        with pytest.raises(
            ValueError, match=f"snapshot version {version} != 3"
        ):
            engine.restore(old)
        assert state() == before
    assert len(list(query.enumerate())) == 8


def test_update_journal_sequencing():
    journal = UpdateJournal()
    for seq in (1, 2, 5):
        journal.append(seq, f"p{seq}")
    assert journal.last_seq == 5
    assert journal.tail(1) == [(2, "p2"), (5, "p5")]
    assert journal.tail(5) == []
    with pytest.raises(ValueError):
        journal.append(5, "dup")
    assert journal.truncate_through(2) == 2
    assert list(journal) == [(5, "p5")]
    journal.clear()
    assert len(journal) == 0 and journal.last_seq == 0


def test_journaled_recovery_matches_straight_line(form):
    order = paper_variable_order()

    def make(tag):
        return FIVMEngine(paper_query(tag), order)

    straight = make("Qs")
    straight.initialize(figure2_database())
    journaled = JournaledFIVMEngine(make("Qj"), checkpoint_every=4)
    journaled.initialize(figure2_database())
    deltas = list(stream(0xD00D, INT_RING, steps=10))
    for delta in deltas:
        straight.apply_update(delta.copy())
        journaled.apply_update(delta)
    # auto-checkpointing kept the journal short
    assert len(journaled.journal) < len(deltas)
    assert journaled.applied_seq == len(deltas) + 0

    recovered = make("Qr")
    replayed = journaled.recover_into(recovered)
    assert replayed == len(journaled.journal.tail(
        journaled.snapshot["seq"] or 0
    ))
    assert_same_state(straight, recovered)

    # recovery is idempotent: a retry lands on the same state
    again = make("Qr2")
    journaled.recover_into(again)
    assert_same_state(recovered, again)


def test_a_journal_file_of_another_version_is_refused(tmp_path):
    """A journal saved before its first checkpoint holds no snapshot, so
    the file carries :data:`SNAPSHOT_VERSION` itself.  ``load`` refuses an
    unversioned or older file with the snapshot's ``ValueError`` and
    leaves the durability state it was offered to as it was."""
    order = paper_variable_order()
    journaled = JournaledFIVMEngine(FIVMEngine(paper_query("Qj"), order))
    for delta in stream(0xFEED, INT_RING, steps=3):
        journaled.apply_update(delta)
    assert journaled.snapshot is None
    path = tmp_path / "state.bin"
    journaled.save(path)
    state = pickle.loads(path.read_bytes())
    assert state["version"] == SNAPSHOT_VERSION

    target = JournaledFIVMEngine(FIVMEngine(paper_query("Ql"), order))
    target.initialize(figure2_database())
    before = (target.snapshot, list(target.journal), target.applied_seq)
    unversioned = {k: v for k, v in state.items() if k != "version"}
    for stale in (unversioned, {**state, "version": SNAPSHOT_VERSION - 1}):
        path.write_bytes(pickle.dumps(stale))
        with pytest.raises(ValueError, match="version"):
            target.load(path)
        assert (target.snapshot, list(target.journal),
                target.applied_seq) == before


def test_a_journal_saved_before_its_first_checkpoint_recovers(tmp_path):
    """No snapshot yet: the file's own version admits it, and recovery is
    a replay of the whole journal into a fresh engine."""
    order = paper_variable_order()
    journaled = JournaledFIVMEngine(FIVMEngine(paper_query("Qj"), order))
    for delta in stream(0xC0DE, INT_RING, steps=5):
        journaled.apply_update(delta)
    path = tmp_path / "state.bin"
    journaled.save(path)

    loaded = JournaledFIVMEngine(FIVMEngine(paper_query("Ql"), order))
    loaded.load(path)
    assert loaded.snapshot is None and loaded.applied_seq == 5
    recovered = FIVMEngine(paper_query("Qr"), order)
    assert loaded.recover_into(recovered) == 5
    assert_same_state(journaled.engine, recovered)


def test_tail_handoff_is_the_snapshot_and_the_journal_after_it():
    """The restart bundle has no version of its own; the snapshot in it
    carries :data:`SNAPSHOT_VERSION`, which the restarted shard checks."""
    engine = FIVMEngine(paper_query("Qh"), paper_variable_order())
    engine.initialize(figure2_database())
    journal = UpdateJournal()
    for seq in (1, 2, 3):
        journal.append(seq, f"p{seq}")
    snapshot = take_snapshot(engine, seq=2)
    handoff = tail_handoff((2, snapshot), journal)
    assert handoff == {"base_seq": 2, "snapshot": snapshot, "tail": [(3, "p3")]}
    assert handoff["snapshot"]["version"] == SNAPSHOT_VERSION
    assert tail_handoff(None, journal) == {
        "base_seq": 0, "snapshot": None,
        "tail": [(1, "p1"), (2, "p2"), (3, "p3")],
    }


def test_journal_detaches_payloads_from_live_deltas():
    order = paper_variable_order()
    journaled = JournaledFIVMEngine(FIVMEngine(paper_query("Qj"), order))
    journaled.initialize(figure2_database())
    delta = Relation("R", PAPER_SCHEMAS["R"], INT_RING, {("a9", "b9"): 1})
    journaled.apply_update(delta)
    delta._data[("a9", "b9")] = 999  # caller mutates after the fact
    recovered = FIVMEngine(paper_query("Qr"), order)
    journaled.recover_into(recovered)
    assert_same_state(journaled.engine, recovered)


def test_journaled_save_load_round_trip(tmp_path):
    order = paper_variable_order()
    journaled = JournaledFIVMEngine(
        FIVMEngine(paper_query("Qj"), order), checkpoint_every=5
    )
    journaled.initialize(figure2_database())
    for delta in stream(0xFEED, INT_RING, steps=7):
        journaled.apply_update(delta)
    path = tmp_path / "state.bin"
    journaled.save(path)

    loaded = JournaledFIVMEngine(FIVMEngine(paper_query("Ql"), order))
    loaded.load(path)
    recovered = FIVMEngine(paper_query("Qr"), order)
    loaded.recover_into(recovered)
    assert_same_state(journaled.engine, recovered)
    # sequence numbering resumes after the loaded tail
    loaded.engine.restore(recovered.snapshot())
    loaded.apply_update(
        Relation("R", PAPER_SCHEMAS["R"], INT_RING, {("a1", "b9"): 1})
    )
    assert loaded.applied_seq > journaled.applied_seq - 1
