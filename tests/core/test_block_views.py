"""Cofactor views as payload blocks, counted (ROADMAP 18, 1(a)).

Over the ``retailer_b600 --quick`` stream: every stored view is a
:class:`BlockRelation` whose storage — key table, index buckets, index
sums — holds row indices, never a ``CofactorTriple``; the triggers' read
cache holds row copies, and no live triple keeps a block alive.  A
packed delta is folded into payload objects only by a caller that reads
it — never by dispatch, a view write or a trigger; and an array-sized
step makes a fixed number of scalar ring calls, not one per row.  A 600-row delta is
ingested without a per-row ``add``, and its leaf step neither folds nor
reads a row per key; a 4-row delta is written row by row, never packed.
Counts, not clocks.
"""

import gc

import numpy as np
import pytest

from repro.core.kernels import KernelDeltaProgram
from repro.core.plan_exec import SlotProgram
from repro.data import relation
from repro.data.relation import BlockRelation, DeferredRelation
from repro.rings.cofactor import CofactorKernelOps, CofactorRing, CofactorTriple

from tests.conftest import pinned


#: The Inventory leaf's view: one output key per delta row.
LEAF = "V@inventoryunits_I"


def quick_b600():
    """The e2e workload at its ``--quick`` size, set up (not run)."""
    from benchmarks.e2e import run as e2e

    instance = e2e.WORKLOADS["retailer_b600"](3, True)
    return instance, instance.setup()


def storage(view: BlockRelation):
    """Every container of the view's stored state, by kind."""
    yield "key table", view._slot
    for attrs, index in view._blocks.items():
        if index.sums is not None:  # kept only where a probe reads them
            yield f"sums on {attrs}", index.sums
        for bucket in index.buckets.values():
            yield f"bucket on {attrs}", bucket


def test_views_store_rows_and_hold_no_triple():
    instance, state = quick_b600()
    instance.run(state)
    engine = state.engine
    views = list(engine.views.values())
    assert views and all(type(view) is BlockRelation for view in views)
    stored = sum(len(view) for view in views)
    assert stored > 100
    for view in views:
        for kind, container in storage(view):
            assert all(type(i) is int for i in container.values()), (
                view.name, kind,
            )
    # The triggers' reads are cached as row copies, of the store's
    # layout and over no block; no live triple is over a block either.
    stores = [
        store for view in views
        for store in (view._store, *view._blocks.values())
    ]
    blocks = [store.block for store in stores]
    assert any(store.cache for store in stores)
    for store in stores:
        for row in store.cache.values():
            assert type(row) is np.ndarray
            assert row.shape == store.block.shape[1:]
            assert not any(np.shares_memory(row, block) for block in blocks)
    live = [obj for obj in gc.get_objects() if type(obj) is CofactorTriple]
    assert not [
        t for t in live for block in blocks if np.shares_memory(t.row, block)
    ]


def watch_folds(monkeypatch):
    """Record, per fold of a packed delta into payload objects, the node
    whose scalar trigger was running (``None``: none was); and per packed
    absorb, the view."""
    running, folds, absorbed = [None], [], []
    run = SlotProgram.run

    def scalar_run(self, delta):
        running[0] = self.node_name
        try:
            return run(self, delta)
        finally:
            running[0] = None

    fold = relation._fold_packed

    def watched_fold(data, keys, column, kops):
        folds.append(running[0])
        return fold(data, keys, column, kops)

    absorb_rows = BlockRelation._absorb_rows

    def watched_absorb(self, keys, rows, support):
        absorbed.append(self.name)
        return absorb_rows(self, keys, rows, support)

    monkeypatch.setattr(SlotProgram, "run", scalar_run)
    monkeypatch.setattr(relation, "_fold_packed", watched_fold)
    monkeypatch.setattr(BlockRelation, "_absorb_rows", watched_absorb)
    return folds, absorbed


def inventory_rows(instance, rows):
    """``rows`` distinct Inventory rows of the stream."""
    table = dict.fromkeys(
        row for rel, batch, mult in instance.ops
        if rel == "Inventory" and mult > 0 for row in batch
    )
    assert len(table) >= rows
    return list(table)[:rows]


def inventory_delta(instance, engine, rows):
    """``rows`` distinct Inventory rows of the stream, as one delta."""
    ring = engine.query.ring
    return relation.Relation(
        "Inventory", engine.tree.leaves["Inventory"].keys, ring,
        {row: ring.one for row in inventory_rows(instance, rows)},
    )


def ingest(instance, engine, rows):
    """``rows`` distinct Inventory rows as the stream ingests them: one
    shared payload (``Relation.from_tuples``)."""
    ring = engine.query.ring
    return relation.Relation.from_tuples(
        "Inventory", engine.tree.leaves["Inventory"].keys, ring,
        inventory_rows(instance, rows), ring.one,
    )


def spy(monkeypatch, cls, name, log, tag=lambda *args: None):
    """Replace ``cls.name`` by a wrapper that appends ``tag(*args)`` to
    ``log`` per call."""
    method = getattr(cls, name)

    def wrapper(*args):
        log.append(tag(*args))
        return method(*args)

    monkeypatch.setattr(cls, name, wrapper)


def test_dispatch_and_writes_never_fold_a_packed_delta(monkeypatch):
    """Packed deltas climb as blocks: dispatch, view writes and the next
    trigger — an array program, or a scalar one reading the block's rows
    — take the key table and the block.  Over the quick stream no packed
    delta becomes payload objects; a 600-row Inventory delta, whose every
    step but the root's is array-sized, comes back packed from the root's
    scalar step and is folded only when the caller reads it."""
    instance, state = quick_b600()
    engine = state.engine
    folds, absorbed = watch_folds(monkeypatch)
    instance.run(state)
    assert {"V@inventoryunits_I", "V@ksn_II"} <= set(absorbed)
    assert folds == []

    out = engine.apply_update(inventory_delta(instance, engine, 600))
    assert type(out) is DeferredRelation and out._packed_form is not None
    assert folds == []
    assert len(out) == 1 and folds == [None]


@pytest.mark.parametrize("rows", [300, 600])
def test_an_array_step_makes_a_fixed_number_of_ring_calls(rows, monkeypatch):
    """Inventory deltas through the array form at every node: the scalar
    ring is called a fixed number of times per step however many rows
    the delta has (the hoisted collapses and lifts are array work)."""
    instance, _ = quick_b600()
    with pinned("array"):
        _query, engine = instance.build()
    instance.apply_all(engine, instance.warm)
    delta = inventory_delta(instance, engine, rows)
    calls = {"add": 0, "is_zero": 0, "mul": 0}
    for name in calls:
        method = getattr(CofactorRing, name)

        def spy(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(CofactorRing, name, spy)
    out = engine.apply_update(delta)
    assert type(out) is DeferredRelation and out._packed_form is not None
    assert calls == {"add": 0, "is_zero": 0, "mul": 0}


def test_a_shared_payload_delta_is_ingested_in_one_pass(monkeypatch):
    """A 600-row delta whose rows share one payload is built without a
    ``Relation.add`` call and with one zero test."""
    instance, state = quick_b600()
    adds, zero_tests = [], []
    spy(monkeypatch, relation.Relation, "add", adds)
    spy(monkeypatch, CofactorRing, "is_zero", zero_tests)
    delta = ingest(instance, state.engine, 600)
    assert len(delta) == 600
    assert (len(adds), len(zero_tests)) == (0, 1)


def test_the_leaf_step_of_a_600_row_insert_neither_folds_nor_reads_rows(
    monkeypatch,
):
    """At ``V@inventoryunits_I`` a 600-row Inventory insert has 600
    distinct output keys, so the array program folds nothing (zero
    ``CofactorKernelOps.reduce`` calls there).  The delta — 600 times its
    shared payload — is packed once, by the engine's plan guard before
    any write, from that payload's row read once; the leaf's write and
    its array program take that block, and pack nothing."""
    instance, state = quick_b600()
    engine = state.engine
    delta = ingest(instance, engine, 600)
    running, reduced, packed, row_reads = [None], [], [], []
    run = KernelDeltaProgram.run

    def watched_run(self, delta):
        running[0] = self.node_name
        try:
            return run(self, delta)
        finally:
            running[0] = None

    monkeypatch.setattr(KernelDeltaProgram, "run", watched_run)
    spy(monkeypatch, CofactorKernelOps, "reduce", reduced,
        lambda *args: running[0])
    pack = CofactorKernelOps.pack

    def watched_pack(self, column, n):
        before = len(row_reads)
        out = pack(self, column, n)
        packed.append((running[0], len(row_reads) - before))
        return out

    monkeypatch.setattr(CofactorKernelOps, "pack", watched_pack)
    row = CofactorTriple.__dict__["row"]

    def read_row(triple):
        row_reads.append(triple)
        return row.__get__(triple)

    monkeypatch.setattr(CofactorTriple, "row", property(read_row, row.__set__))
    engine.apply_update(delta)
    assert LEAF not in reduced
    assert reduced  # nodes whose output keys collide still fold
    assert packed[0] == (None, 1)
    assert [node for node, _ in packed].count(LEAF) == 0


def test_a_small_listing_delta_is_written_row_by_row(monkeypatch):
    """A 4-row Inventory delta takes the scalar triggers at every node,
    and each view writes their listing output row by row: no
    ``pack`` and no ``_absorb_rows`` call."""
    instance, state = quick_b600()
    engine = state.engine
    delta = ingest(instance, engine, 4)
    packs, absorbs, writes = [], [], []
    spy(monkeypatch, CofactorKernelOps, "pack", packs)
    spy(monkeypatch, BlockRelation, "_absorb_rows", absorbs)
    spy(monkeypatch, BlockRelation, "_write", writes)
    engine.apply_update(delta)
    assert (len(packs), len(absorbs)) == (0, 0)
    assert len(writes) >= 4


#: The two Retailer indexes only non-aggregated probes read (the Item and
#: Census triggers walk their buckets).
BUCKET_ONLY = [("V@inventoryunits_I", ("ksn",)), ("V@rgn_cd_L", ("zip",))]


@pytest.mark.parametrize("rows", [1, 4])
def test_an_index_no_probe_sums_keeps_no_sum_row(rows, monkeypatch):
    """Over the quick Retailer stream at one and at four rows per call,
    no sum row of a bucket-only index is allocated or written: no probe
    of the Retailer triggers reads a bucket sum, so no index keeps any."""
    from benchmarks.e2e.harness import apply_ops
    from benchmarks.e2e.w_retailer import SCHEMAS, RetailerB1

    allocated, kept = [], []
    spy(monkeypatch, relation._BlockIndex, "alloc", allocated, lambda ix: ix)
    spy(monkeypatch, relation._BlockIndex, "keep_sums", kept, lambda ix: ix)
    instance = type("Rows", (RetailerB1,), {"quick_batch": rows})(3, True)
    _query, engine = instance.build()
    apply_ops(
        SCHEMAS, engine.query.ring, engine.apply_update,
        instance.warm + instance.ops,
    )
    indexes = [engine.views[name]._blocks[attrs] for name, attrs in BUCKET_ONLY]
    assert all(index.buckets for index in indexes), "fixture: indexes in use"
    for index in indexes:
        assert index.sums is None
        assert index.top == 0 and not index.block.any()
        assert not any(ix is index for ix in allocated + kept)
    assert all(
        index.sums is None
        for view in engine.views.values() for index in view._blocks.values()
    )


def test_sums_requested_over_held_data_sum_the_buckets():
    """An aggregated probe bound after the view holds data (its binding's
    ``rowsums`` request, or the interpreter's read of ``_indexes``) reads
    each bucket's rows summed, and the view's later writes move them."""
    from repro.core.plan_exec import _BLOCK_REQUESTS
    from tests.conftest import bucket_sum

    instance, state = quick_b600()
    half = len(instance.ops) // 2
    ops = instance.ops
    instance.ops = ops[:half]
    instance.run(state)
    engine, ring = state.engine, state.engine.query.ring
    (name, attrs), (other, other_attrs) = BUCKET_ONLY
    view = engine.views[name]
    sums = _BLOCK_REQUESTS["rowsums"](view, attrs)
    index = view._blocks[attrs]
    assert sums is index.sums

    def check():
        assert sums.keys() == index.buckets.keys()
        for subkey, bucket in index.buckets.items():
            want = ring.sum([view.payload(key) for key in bucket])
            assert ring.eq(index.peek(subkey, sums[subkey]), want)

    check()
    instance.ops = ops[half:]
    instance.run(state)
    check()
    far = engine.views[other]
    for subkey, bucket in list(far._blocks[other_attrs].buckets.items())[:20]:
        want = ring.sum([far.payload(key) for key in bucket])
        assert ring.eq(bucket_sum(far, other_attrs, subkey), want)
