"""Shard-merge equivalence: the sharded engine vs the single engine.

The differential contract (see the module docstring of
:mod:`repro.core.sharded`): for every ring, every update path, and every
partitioning shape — balanced, skewed onto one shard, shards left empty —
the hash-partitioned engine's per-update root deltas, final materialized
views, and totals must equal the single-engine run key for key.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import socket

import numpy as np
import pytest

from repro.core import (
    DeferredRelation,
    FIVMEngine,
    FactorizedUpdate,
    FrameConn,
    Query,
    ShardedFIVMEngine,
    VariableOrder,
)
from repro.core.sharded import stable_hash

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="out-of-process executors need the fork start method",
)
from repro.data import Database, Relation
from repro.rings import (
    CofactorRing,
    DegreeRing,
    INT_RING,
    IntegerRing,
    Lifting,
    ProductRing,
    RealRing,
    SquareMatrixRing,
)

SCHEMAS = {"R": ("A", "B"), "S": ("A", "C"), "T": ("C", "D")}


def _int_family(attrs):
    return INT_RING, {}


def _degree_family(attrs):
    ring = DegreeRing(len(attrs))
    return ring, {a: ring.lift(i) for i, a in enumerate(attrs) if i % 2 == 0}


def _product_family(attrs):
    ring = ProductRing([IntegerRing(), RealRing()])

    def lift(value):
        return (1, 1.0 + 0.5 * float(value))

    return ring, {a: lift for i, a in enumerate(attrs) if i % 2 == 1}


def _cofactor_family(attrs):
    ring = CofactorRing(len(attrs))
    return ring, {a: ring.lift(i) for i, a in enumerate(attrs) if i % 2 == 1}


def _matrix_family(attrs):
    ring = SquareMatrixRing(2)
    upper = np.array([[0.0, 1.0], [0.0, 0.0]])

    def make_lift(direction):
        return lambda x: np.eye(2) + 0.1 * float(x) * direction

    return ring, {a: make_lift(upper) for i, a in enumerate(attrs) if i % 2}


RING_FAMILIES = {
    "int": _int_family,
    "degree": _degree_family,
    "product": _product_family,
    "cofactor": _cofactor_family,
    "matrix": _matrix_family,
}


def make_pair(ring_family, shards=4, free=("B",), executor="inline",
              shard_key=None, schemas=SCHEMAS, **engine_kwargs):
    attrs = tuple(sorted({a for s in schemas.values() for a in s}))
    ring, lifts = ring_family(attrs)
    lifting = Lifting(ring, lifts)

    def query(tag):
        return Query(f"Q{tag}", schemas, free=free, ring=ring, lifting=lifting)

    order = VariableOrder.auto(query("o"))
    single = FIVMEngine(query("1"), order)
    sharded = ShardedFIVMEngine(
        query("s"), order, shards=shards, executor=executor,
        shard_key=shard_key, **engine_kwargs,
    )
    return single, sharded, ring


def assert_equal_state(single: FIVMEngine, sharded: ShardedFIVMEngine):
    merged = sharded.merged_views()
    assert set(merged) == set(single.views)
    for name, contents in single.views.items():
        assert contents.same_as(merged[name].copy(name=name)), (
            f"view {name} diverged between sharded and single engine"
        )
    result = single.result()
    assert result.same_as(sharded.result().copy(name=result.name))


def drive_stream(single, sharded, ring, seed=0, steps=25, domain=4):
    """Random single-relation updates through both engines, checking every
    root delta; returns nothing — divergence fails inside."""
    rng = random.Random(seed)
    for step in range(steps):
        rel = rng.choice(sorted(SCHEMAS))
        data = {
            tuple(rng.randint(0, domain - 1) for _ in SCHEMAS[rel]):
                ring.from_int(rng.choice([1, 1, 2, -1]))
            for _ in range(rng.randint(1, 3))
        }
        delta = Relation(rel, SCHEMAS[rel], ring, data)
        expected = single.apply_update(delta.copy())
        got = sharded.apply_update(delta.copy())
        assert expected.same_as(got.copy(name=expected.name)), (
            f"[seed {seed}] root delta diverged at step {step}"
        )


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_sharded_equals_single_on_every_ring(ring_name):
    single, sharded, ring = make_pair(RING_FAMILIES[ring_name], shards=4)
    drive_stream(single, sharded, ring, seed=7)
    assert_equal_state(single, sharded)


def test_single_shard_degenerates_to_routed_engine():
    single, sharded, ring = make_pair(_int_family, shards=1)
    drive_stream(single, sharded, ring, seed=1)
    assert_equal_state(single, sharded)


def test_skewed_partition_and_empty_shards():
    """All tuples carry one shard-key value: one shard absorbs the whole
    stream, the others stay empty — merge must still be exact."""
    single, sharded, ring = make_pair(_int_family, shards=5)
    hot = 3  # every B lands here; A/C/D vary freely
    rng = random.Random(11)
    for _ in range(15):
        rel = rng.choice(sorted(SCHEMAS))
        key = tuple(
            hot if attr == "B" else rng.randint(0, 3)
            for attr in SCHEMAS[rel]
        )
        delta = Relation(rel, SCHEMAS[rel], ring, {key: rng.choice([1, -1, 2])})
        expected = single.apply_update(delta.copy())
        got = sharded.apply_update(delta.copy())
        assert expected.same_as(got.copy(name=expected.name))
    assert_equal_state(single, sharded)
    # The partitioned relation's fragments really are skewed: exactly one
    # shard holds keys, and shard count exceeding the key space left the
    # rest empty.
    populated = [
        shard for shard, engine in enumerate(sharded._exec.engines)
        if len(engine.views["R"]) > 0
    ]
    assert populated == [stable_hash(hot) % 5]


def test_factorized_update_routing():
    """Rank-r updates: the factor carrying the shard key is split, other
    factors ride along; totals and state match the single engine."""
    single, sharded, ring = make_pair(_cofactor_family, shards=3)
    # Preload some context so propagation meets non-trivial siblings.
    drive_stream(single, sharded, ring, seed=3, steps=10)
    rng = random.Random(5)
    for rank in (1, 2):
        terms = []
        for _ in range(rank):
            u = Relation(
                "R_u", ("A",), ring,
                {(rng.randint(0, 3),): ring.from_int(rng.choice([1, 2]))},
            )
            v = Relation(
                "R_v", ("B",), ring,
                {
                    (rng.randint(0, 3),): ring.from_int(1),
                    (rng.randint(0, 3),): ring.from_int(-1),
                },
            )
            terms.append([u, v])
        update = FactorizedUpdate("R", terms, ring=ring)
        copy = FactorizedUpdate(
            "R", [[f.copy() for f in t] for t in terms], ring=ring
        )
        expected = single.apply_factorized_update(update)
        got = sharded.apply_factorized_update(copy)
        assert expected.same_as(got.copy(name=expected.name))
    assert_equal_state(single, sharded)


def test_factorized_update_to_replicated_relation_broadcasts():
    single, sharded, ring = make_pair(_int_family, shards=3)
    # T does not contain the shard key (B): the update must broadcast.
    assert "T" in sharded.replicated
    u = Relation("T_u", ("C",), ring, {(1,): 2, (2,): 1})
    v = Relation("T_v", ("D",), ring, {(0,): 1})
    update = FactorizedUpdate("T", [[u, v]])
    expected = single.apply_factorized_update(update)
    got = sharded.apply_factorized_update(
        FactorizedUpdate("T", [[u.copy(), v.copy()]])
    )
    assert expected.same_as(got.copy(name=expected.name))
    assert_equal_state(single, sharded)


def test_rank_zero_factorized_update_is_a_noop():
    single, sharded, ring = make_pair(_int_family, shards=2)
    update = FactorizedUpdate("R", [], ring=ring)
    expected = single.apply_factorized_update(update)
    got = sharded.apply_factorized_update(
        FactorizedUpdate("R", [], ring=ring)
    )
    assert expected.same_as(got.copy(name=expected.name))
    assert got.is_empty


def test_apply_batch_mixed_items():
    single, sharded, ring = make_pair(_int_family, shards=4)
    rng = random.Random(13)
    for _ in range(6):
        items_single, items_sharded = [], []
        for _ in range(rng.randint(2, 4)):
            rel = rng.choice(sorted(SCHEMAS))
            if rel == "R" and rng.random() < 0.4:
                u = Relation(
                    "R_u", ("A",), ring, {(rng.randint(0, 3),): 1}
                )
                v = Relation(
                    "R_v", ("B",), ring, {(rng.randint(0, 3),): rng.choice([1, -1])}
                )
                items_single.append(FactorizedUpdate("R", [[u, v]]))
                items_sharded.append(
                    FactorizedUpdate("R", [[u.copy(), v.copy()]])
                )
            else:
                data = {
                    tuple(rng.randint(0, 3) for _ in SCHEMAS[rel]):
                        rng.choice([1, 2, -1])
                    for _ in range(rng.randint(1, 3))
                }
                delta = Relation(rel, SCHEMAS[rel], ring, data)
                items_single.append(delta.copy())
                items_sharded.append(delta)
        expected = single.apply_batch(items_single)
        got = sharded.apply_batch(items_sharded)
        assert expected.same_as(got.copy(name=expected.name))
    assert_equal_state(single, sharded)


def test_initialize_partitions_a_database_snapshot():
    single, sharded, ring = make_pair(_int_family, shards=4)
    rng = random.Random(17)
    db = Database(
        Relation(
            rel, schema, ring,
            {
                tuple(rng.randint(0, 4) for _ in schema): rng.choice([1, 2])
                for _ in range(8)
            },
        )
        for rel, schema in SCHEMAS.items()
    )
    single.initialize(db)
    sharded.initialize(db)
    assert_equal_state(single, sharded)
    # And updates on top of the loaded state still agree.
    drive_stream(single, sharded, ring, seed=19, steps=8)
    assert_equal_state(single, sharded)


def test_replicated_only_views_are_read_once():
    """A view over a purely replicated subtree is identical per shard; the
    merge must take one copy, not the S-fold sum."""
    single, sharded, ring = make_pair(_int_family, shards=3)
    assert "T" in sharded.replicated
    delta = Relation("T", SCHEMAS["T"], ring, {(1, 2): 5})
    single.apply_update(delta.copy())
    sharded.apply_update(delta.copy())
    # The stored leaf copy of T is replicated-only.
    leaf_name = sharded.tree.leaves["T"].name
    if sharded.flags[leaf_name]:
        assert leaf_name not in sharded._summed
        merged = sharded.contents(leaf_name)
        assert merged.same_as(
            single.views[leaf_name].copy(name=leaf_name)
        )


def test_explicit_shard_key_and_validation_errors():
    ring = INT_RING
    q = Query("q", SCHEMAS, ring=ring)
    order = VariableOrder.auto(q)
    with pytest.raises(ValueError, match="not a query variable"):
        ShardedFIVMEngine(q, order, shards=2, shard_key="Z")
    with pytest.raises(ValueError, match="shard count"):
        ShardedFIVMEngine(q, order, shards=0)
    for executor in ("socket", "thread"):
        with pytest.raises(ValueError, match="'inline' or 'process'"):
            ShardedFIVMEngine(q, order, shards=2, executor=executor)
    engine = ShardedFIVMEngine(q, order, shards=2, shard_key="C")
    assert engine.partitioned == frozenset({"S", "T"})
    assert engine.replicated == frozenset({"R"})
    with pytest.raises(KeyError):
        engine.apply_update(
            Relation("Nope", ("A",), ring, {(1,): 1})
        )
    with pytest.raises(ValueError):
        engine.apply_update(Relation("R", ("A",), ring, {(1,): 1}))


def test_inline_shards_compile_each_trigger_once(monkeypatch):
    """S = 3 inline shards (and the single engine beside them) compile
    each trigger and each path once, through the process-wide
    code cache, and bind their own copies of the one code object."""
    import builtins

    from repro.core import plan_exec

    compiled = []
    monkeypatch.setattr(
        plan_exec, "compile",
        lambda source, label, mode: compiled.append(label)
        or builtins.compile(source, label, mode),
        raising=False,
    )
    plan_exec._generated.cache_clear()
    _, sharded, _ = make_pair(_int_family, shards=3)
    first, *others = sharded._exec.engines
    assert len(compiled) == len(set(compiled))
    assert len(compiled) == len(first._programs) + len(first._row_paths)
    for other in others:
        for key, program in first._programs.items():
            assert program._fn.__code__ is other._programs[key]._fn.__code__
            assert program._fn is not other._programs[key]._fn
        for rel, path in first._row_paths.items():
            assert path.__code__ is other._row_paths[rel].__code__


@needs_fork
@pytest.mark.parametrize("depth", [0, 4])
def test_process_executor_matches_single_engine(depth):
    """Synchronous and pipelined: with a window, every root delta is read
    while its acks may still be in flight, so reading it drains them."""
    single, sharded, ring = make_pair(
        _cofactor_family, shards=2, executor="process", pipeline_depth=depth
    )
    try:
        assert sharded.executor == "process"
        assert sharded.pipeline_depth == depth
        drive_stream(single, sharded, ring, seed=23, steps=12)
        # Batched + factorized over the wire too.
        u = Relation("R_u", ("A",), ring, {(1,): ring.from_int(2)})
        v = Relation("R_v", ("B",), ring, {(2,): ring.from_int(1)})
        items = [
            Relation("S", SCHEMAS["S"], ring, {(1, 2): ring.from_int(1)}),
            FactorizedUpdate("R", [[u, v]], ring=ring),
        ]
        expected = single.apply_batch(
            [items[0].copy(), FactorizedUpdate(
                "R", [[u.copy(), v.copy()]], ring=ring
            )]
        )
        got = sharded.apply_batch(items)
        assert expected.same_as(got.copy(name=expected.name))
        assert_equal_state(single, sharded)
        assert any(len(view) for view in sharded.merged_views().values())
        assert sharded.logical_scalars() > 0
    finally:
        sharded.close()


def test_stable_hash_agrees_with_dict_key_equality():
    """True, 1, and 1.0 are the same dict key; routing must agree, or
    cross-typed join values silently land in different shards."""
    for shards in (2, 3, 5, 7):
        assert (
            stable_hash(True) % shards
            == stable_hash(1) % shards
            == stable_hash(1.0) % shards
        )
        assert stable_hash(2.0) % shards == stable_hash(2) % shards
    # And an end-to-end mixed-type stream stays equivalent.
    single, sharded, ring = make_pair(_int_family, shards=3)
    for value in (1, 1.0, True, 2, 2.0):
        delta = Relation("R", SCHEMAS["R"], ring, {(0, value): 1})
        expected = single.apply_update(delta.copy())
        got = sharded.apply_update(delta.copy())
        assert expected.same_as(got.copy(name=expected.name))
    assert_equal_state(single, sharded)


def test_batch_rejects_factorized_items_on_noncommutative_rings_up_front():
    """The up-front validation contract: a factorized item on a matrix
    ring must fail before any shard absorbs anything."""
    single, sharded, ring = make_pair(_matrix_family, shards=2)
    good = Relation("S", SCHEMAS["S"], ring, {(1, 2): ring.from_int(1)})
    u = Relation("R_u", ("A",), ring, {(1,): ring.from_int(1)})
    v = Relation("R_v", ("B",), ring, {(2,): ring.from_int(1)})
    bad = FactorizedUpdate("R", [[u, v]], ring=ring)
    for engine in (single, sharded):
        with pytest.raises(ValueError, match="commutative"):
            engine.apply_batch([good.copy(), bad])
    # Nothing was applied anywhere — states still match (and are empty).
    assert_equal_state(single, sharded)
    assert single.result().is_empty


# ---------------------------------------------------------------------------
# Compound shard keys
# ---------------------------------------------------------------------------


def test_compound_shard_key_partitions_and_routes():
    """``shard_key=("A", "C")``: only relations containing *every*
    component are partitioned; routing hashes the component tuple."""
    single, sharded, ring = make_pair(
        _int_family, shards=3, shard_key=("A", "C")
    )
    # Only S carries both A and C; R lacks C, T lacks A.
    assert sharded.partitioned == frozenset({"S"})
    assert sharded.replicated == frozenset({"R", "T"})
    assert sharded.shard_key == ("A", "C")
    drive_stream(single, sharded, ring, seed=11)
    assert_equal_state(single, sharded)
    # Routing invariant: every key of every shard's S fragment hashes home
    # on the (A, C) component tuple — which is exactly S's full key here.
    leaf = sharded.tree.leaves["S"].name
    occupied = 0
    for shard, engine in enumerate(sharded._exec.engines):
        fragment = engine.views[leaf]
        for key in fragment.keys():
            assert stable_hash(tuple(key)) % sharded.shards == shard
        occupied += bool(len(fragment))
    assert occupied > 1, "compound routing collapsed onto one shard"


def test_compound_shard_key_validation():
    ring = INT_RING
    q = Query("q", SCHEMAS, ring=ring)
    order = VariableOrder.auto(q)
    with pytest.raises(ValueError, match="must not be empty"):
        ShardedFIVMEngine(q, order, shards=2, shard_key=())
    with pytest.raises(ValueError, match="not a query variable"):
        ShardedFIVMEngine(q, order, shards=2, shard_key=("A", "Z"))
    # No relation carries both B and D — sharding would replicate all.
    with pytest.raises(ValueError, match="no relation contains"):
        ShardedFIVMEngine(q, order, shards=2, shard_key=("B", "D"))
    # A one-element tuple normalizes to the bare single-attribute key.
    engine = ShardedFIVMEngine(q, order, shards=2, shard_key=("C",))
    assert engine.shard_key == "C"
    assert engine.partitioned == frozenset({"S", "T"})


@pytest.mark.parametrize("ring_name", ("degree", "matrix"))
def test_compound_shard_key_equals_single_on_hard_rings(ring_name):
    single, sharded, ring = make_pair(
        RING_FAMILIES[ring_name], shards=4, shard_key=("A", "C")
    )
    drive_stream(single, sharded, ring, seed=13)
    assert_equal_state(single, sharded)


# ---------------------------------------------------------------------------
# Pipelined executor: send-ahead window, deferred deltas, flush barrier
# ---------------------------------------------------------------------------


@needs_fork
def test_pipelined_deltas_stay_lazy_until_read():
    """With a send-ahead window, ``apply_update`` returns a
    :class:`DeferredRelation` that resolves only when read — ``flush``
    drains the window without forcing any merge."""
    # checkpoint_every=None: a checkpoint boundary drains the whole
    # window (resolving handles early, by design); disabling it makes
    # every handle's laziness deterministic for the assertions below.
    single, sharded, ring = make_pair(
        _int_family, shards=2, executor="process", pipeline_depth=8,
        checkpoint_every=None,
    )
    try:
        assert sharded.pipeline_depth == 8
        handles = []
        expected = []
        rng = random.Random(3)
        for _ in range(20):
            rel = rng.choice(sorted(SCHEMAS))
            data = {
                tuple(rng.randint(0, 3) for _ in SCHEMAS[rel]): 1,
            }
            delta = Relation(rel, SCHEMAS[rel], ring, data)
            expected.append(single.apply_update(delta.copy()))
            handles.append(sharded.apply_update(delta.copy()))
        assert all(isinstance(h, DeferredRelation) for h in handles)
        # The window (depth 8 per shard) forced some sends to drain acks,
        # but no handle has merged: nothing read them yet.
        assert not any(h.resolved for h in handles)
        sharded.flush()
        assert not any(h.resolved for h in handles), (
            "flush() must drain the window, not force root-delta merges"
        )
        # Reading resolves — and matches the eager single-engine deltas.
        for step, (want, got) in enumerate(zip(expected, handles)):
            assert want.same_as(got.copy(name=want.name)), (
                f"deferred root delta diverged at step {step}"
            )
        assert all(h.resolved for h in handles)
        assert_equal_state(single, sharded)
    finally:
        sharded.close()


@needs_fork
def test_pipelined_reads_sit_behind_the_flush_barrier():
    """A read (views/result) while updates are in flight must observe
    every enqueued update, exactly once."""
    single, sharded, ring = make_pair(
        _cofactor_family, shards=2, executor="process", pipeline_depth=16
    )
    try:
        rng = random.Random(5)
        for step in range(12):
            rel = rng.choice(sorted(SCHEMAS))
            data = {
                tuple(rng.randint(0, 3) for _ in SCHEMAS[rel]):
                    ring.from_int(rng.choice([1, 2, -1])),
            }
            delta = Relation(rel, SCHEMAS[rel], ring, data)
            single.apply_update(delta.copy())
            sharded.apply_update(delta.copy())
            if step % 5 == 4:  # mid-window read: implicit flush barrier
                result = single.result()
                assert result.same_as(
                    sharded.result().copy(name=result.name)
                )
        assert_equal_state(single, sharded)
    finally:
        sharded.close()


def requests_per_worker(monkeypatch, depth):
    """Drive one stream — load, updates, a batch, a factorized update and
    three kinds of read, with checkpoints every three journaled requests —
    through a two-shard process engine at ``depth``; return each worker's
    ``(seq, kind)`` requests, as the coordinator's ``FrameConn.send`` saw
    them."""
    sent = {}
    send = FrameConn.send
    coordinator = os.getpid()

    def spy(conn, obj):
        if os.getpid() == coordinator:  # the forked workers inherit it
            sent.setdefault(conn, []).append((obj[0], obj[1][0]))
        send(conn, obj)

    monkeypatch.setattr(FrameConn, "send", spy)
    _single, sharded, ring = make_pair(
        _int_family, shards=2, executor="process", pipeline_depth=depth,
        checkpoint_every=3,
    )
    try:
        sharded.initialize(Database(
            Relation(rel, schema, ring, {(0,) * len(schema): 1})
            for rel, schema in SCHEMAS.items()
        ))
        rng = random.Random(11)
        for step in range(16):
            rel = rng.choice(sorted(SCHEMAS))
            key = tuple(rng.randint(0, 3) for _ in SCHEMAS[rel])
            sharded.apply_update(Relation(rel, SCHEMAS[rel], ring, {key: 1}))
            if step % 6 == 5:
                sharded.result()
        sharded.apply_batch([
            Relation("S", SCHEMAS["S"], ring, {(1, 2): 1}),
            Relation("T", SCHEMAS["T"], ring, {(2, 3): 1}),
        ])
        sharded.apply_factorized_update(FactorizedUpdate("R", [[
            Relation("R_u", ("A",), ring, {(1,): 1, (2,): 1}),
            Relation("R_v", ("B",), ring, {(5,): 1}),
        ]], ring=ring))
        sharded.merged_views()
        sharded.logical_scalars()
        return [list(sent[conn]) for conn in sharded._exec._conns]
    finally:
        sharded.close()


@needs_fork
def test_every_depth_sends_each_worker_the_same_requests(monkeypatch):
    """Counts, not clocks: the send-ahead window is the only way a request
    reaches a worker, so the depth changes when replies are collected but
    not what each worker receives — the same sequence numbers and request
    kinds in the same order at depths 0, 1 and 8 (which is what lets a
    seeded fault plan fire at the same request at every depth)."""
    per_depth = {
        depth: requests_per_worker(monkeypatch, depth) for depth in (0, 1, 8)
    }
    assert per_depth[0] == per_depth[1] == per_depth[8]
    for requests in per_depth[0]:
        kinds = [kind for _seq, kind in requests]
        assert kinds[0] == "init"
        assert {"update", "snapshot", "view", "views", "scalars"} <= set(kinds)
        seqs = [seq for seq, _kind in requests]
        assert seqs == sorted(seqs)


# ---------------------------------------------------------------------------
# FrameConn: the process executor's framed transport
# ---------------------------------------------------------------------------


def _conn_pair():
    a, b = socket.socketpair()
    return FrameConn(a), FrameConn(b)


def test_frameconn_round_trips_frames_in_order():
    left, right = _conn_pair()
    try:
        payloads = [{"seq": i, "blob": b"x" * (i * 100)} for i in range(5)]
        for obj in payloads:
            left.send(obj)
        # Buffered: nothing crossed yet; the peer sees no frame.
        assert not right.poll(0.0)
        left.flush()
        assert right.poll(1.0)
        assert [right.recv() for _ in payloads] == payloads
    finally:
        left.close()
        right.close()


def test_frameconn_poll_answers_from_buffer_without_flushing():
    """A poll that can be satisfied from already-received bytes must not
    flush pending writes — that is what lets both sides batch."""
    left, right = _conn_pair()
    try:
        left.send("ping")
        left.flush()
        assert right.poll(1.0)  # frame now buffered on the right
        right.send("pong")      # reply sits in the output buffer
        assert right.poll(0.0)  # answered from the input buffer...
        assert right._out, "poll flushed the reply buffer prematurely"
        assert right.recv() == "ping"
        assert not left.poll(0.0), "reply crossed before any flush"
        right.flush()
        assert left.recv() == "pong"
    finally:
        left.close()
        right.close()


def test_frameconn_raises_eoferror_once_the_peer_is_gone():
    left, right = _conn_pair()
    left.send("last words")
    left.close()
    try:
        assert right.recv() == "last words"
        with pytest.raises(EOFError):
            right.recv()
        with pytest.raises(EOFError):
            right.poll(0.5)
    finally:
        right.close()
