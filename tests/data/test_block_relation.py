"""A cofactor view stored as a payload block (:class:`BlockRelation`)
against a plain :class:`Relation` of triples fed the same changes.

Random sequences of one-row adds, listing and packed bulk absorbs,
cancellations to zero and batches that grow the block past its capacity
run on a view with zero, one and two secondary indexes whose sums are
requested up front, and on one whose index keeps buckets only until a
step requests its sums.  After every step the block view must read like
the dict of triples under the ring's tolerance — ``payload``, ``items``,
``lookup`` and the bucket sums the triggers read — keep every used row
live and every free row zero, hold no sum row on an index whose sums no
one requested, and survive a snapshot (``frozen``, pickled as the
version-3 dict of payloads) and restore.
Payload cells are multiples of ½, so sums are exact and cancellations
real.
"""

import pickle
import sys

import numpy as np
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.data import Relation, relation
from repro.data.relation import BlockRelation, DeferredRelation
from repro.rings.cofactor import CofactorRing, CofactorTriple, _triple

from tests.conftest import bucket_sum
from tests.settings import SELECTED

RING = CofactorRing(3)
SCHEMA = ("A", "B")
KEYS = [(a, b) for a in range(4) for b in range(3)]
HALVES = st.integers(-4, 4).map(lambda n: n / 2)
#: Supports a payload may come with: the view's usual one, count-only
#: (the ring's ``one`` and its multiples) and a wider one, which widens
#: the block.
SUPPORTS = st.sampled_from([(0,), (0,), (0,), (), (0, 2)])


@st.composite
def triples(draw, support=None):
    """``(support, row cells)`` of a non-zero triple (count ≠ 0)."""
    support = draw(SUPPORTS) if support is None else support
    width = 1 + len(support) + len(support) * (len(support) + 1) // 2
    cells = draw(st.lists(HALVES, min_size=width, max_size=width))
    return support, tuple([cells[0] or 1.0] + cells[1:])


def make(drawn) -> CofactorTriple:
    support, cells = drawn
    return _triple(RING.degree, support, np.array(cells))


#: The indexes of the views each machine step drives: none, one, two
#: (sums requested at construction, as a trigger's binding does), and
#: one whose sums only :meth:`BlockViews.request_late_sums` requests.
INDEXES = [(), (("A",),), (("A",), ("B",)), (("A",),)]
LATE = 3


def request_sums(view, attrs) -> None:
    """Ask for an index's sums the way an aggregated probe's binding
    does."""
    view._blocks[attrs].keep_sums()


class BlockViews(RuleBasedStateMachine):
    """Four block views (zero, one and two indexes summed from the start,
    one index summed on request) and the dict of triples, fed the same
    changes."""

    def __init__(self):
        super().__init__()
        self.views = []
        for at, indexes in enumerate(INDEXES):
            view = BlockRelation("V", SCHEMA, RING)
            for attrs in indexes:
                view.register_index(attrs)
                if at != LATE:
                    request_sums(view, attrs)
            self.views.append(view)
        self.late = False
        self.ref = Relation("V", SCHEMA, RING)
        for attrs in INDEXES[2]:
            self.ref.register_index(attrs)

    def absorb(self, delta):
        for view in self.views:
            view.absorb_bulk(delta)

    @rule(key=st.sampled_from(KEYS), drawn=triples())
    def add(self, key, drawn):
        payload = make(drawn)
        for view in self.views:
            view.add(key, payload)
        self.ref.add(key, payload)

    @rule(
        batch=st.dictionaries(st.sampled_from(KEYS), triples(), max_size=8),
        packed=st.booleans(),
    )
    def absorb_listing(self, batch, packed):
        # Either form of a listing absorb: packed into one block, or
        # written row by row (below MIN_BLOCK_MERGE_ROWS rows).
        delta = Relation("V", SCHEMA, RING, {k: make(v) for k, v in batch.items()})
        saved = relation.MIN_BLOCK_MERGE_ROWS
        relation.MIN_BLOCK_MERGE_ROWS = 1 if packed else sys.maxsize
        try:
            self.absorb(delta)
        finally:
            relation.MIN_BLOCK_MERGE_ROWS = saved
        self.ref.absorb_bulk(delta)

    @rule(
        keys=st.lists(st.sampled_from(KEYS), unique=True, min_size=1, max_size=8),
        data=st.data(),
    )
    def absorb_packed(self, keys, data):
        # A kernel program's output: keys and their rows as one block.
        rows = np.stack([
            make(data.draw(triples((0,)))).row for _ in keys
        ])
        for view in self.views:
            view.absorb_bulk(DeferredRelation(
                "V", SCHEMA, RING, packed=(keys, (rows, (0,)))
            ))
        listing = dict(zip(keys, RING.kernel_ops().unpack((rows, (0,)))))
        self.ref.absorb_bulk(Relation("V", SCHEMA, RING, listing))

    @rule(data=st.data())
    def cancel(self, data):
        """Drive a stored key to zero (one row or in a batch)."""
        if not len(self.ref):
            return
        key = data.draw(st.sampled_from(sorted(self.ref.keys())))
        minus = RING.neg(self.ref.payload(key))
        if data.draw(st.booleans()):
            for view in self.views:
                view.add(key, minus)
        else:
            self.absorb(Relation("V", SCHEMA, RING, {key: minus}))
        self.ref.add(key, minus)
        assert all(key not in view for view in self.views)

    @rule(data=st.data())
    def reuse_a_freed_row(self, data):
        """A key cancelled, then a new one inserted: the block does not
        grow, the new key takes the freed row."""
        stored = sorted(self.ref.keys())
        absent = [k for k in KEYS if k not in self.ref]
        if not stored or not absent:
            return
        key = data.draw(st.sampled_from(stored))
        fresh = data.draw(st.sampled_from(absent))
        minus = RING.neg(self.ref.payload(key))
        payload = make(data.draw(triples((0,))))
        for view in self.views:
            top, row = view._store.top, view._slot[key]
            view.add(key, minus)
            view.add(fresh, payload)
            assert view._store.top == top
            assert view._slot[fresh] == row
        self.ref.add(key, minus)
        self.ref.add(fresh, payload)

    @rule(seed=st.integers(0, 2 ** 16), n=st.integers(20, 60))
    def grow_past_capacity(self, seed, n):
        capacity = len(self.views[0]._store.block)
        keys = [(10 + i, i % 3) for i in range(n)]
        cells = np.random.default_rng(seed).integers(-4, 5, (n, 3)) / 2
        cells[:, 0] = np.where(cells[:, 0] == 0, 1.0, cells[:, 0])
        rows = {k: make(((0,), tuple(c))) for k, c in zip(keys, cells)}
        self.absorb(Relation("V", SCHEMA, RING, rows))
        self.ref.absorb_bulk(Relation("V", SCHEMA, RING, rows))
        assert len(self.views[0]._store.block) > capacity or capacity >= n
        # ... and take them out again, one batch.
        minus = {k: RING.neg(v) for k, v in rows.items()}
        self.absorb(Relation("V", SCHEMA, RING, minus))
        self.ref.absorb_bulk(Relation("V", SCHEMA, RING, minus))

    @rule()
    def request_late_sums(self):
        """The late view's sums, requested over whatever it holds now:
        each bucket's rows summed once, then moved by every write."""
        if not self.late:
            self.late = True
            for attrs in INDEXES[LATE]:
                request_sums(self.views[LATE], attrs)

    @rule()
    def snapshot_round_trip(self):
        for view, indexes in zip(self.views, INDEXES):
            frozen = view.frozen()
            saved = pickle.loads(pickle.dumps(frozen))
            assert type(saved) is dict
            restored = BlockRelation("V", SCHEMA, RING)
            for attrs in indexes:
                restored.register_index(attrs)
                request_sums(restored, attrs)
            loaded = Relation("V", SCHEMA, RING)
            loaded._data = dict(saved)
            restored.absorb_bulk(loaded)
            same(restored, self.ref, indexes)
            assert len(frozen) == len(view)

    @invariant()
    def reads_like_the_dict_of_triples(self):
        for at, (view, indexes) in enumerate(zip(self.views, INDEXES)):
            same(view, self.ref, indexes, sums=at != LATE or self.late)

    @invariant()
    def a_bucket_only_index_holds_no_sums(self):
        for attrs, index in self.views[LATE]._blocks.items():
            if not self.late:
                assert index.sums is None
                assert index.top == 0 and not index.free
                assert not index.block.any()
            else:
                assert index.sums is not None

    @invariant()
    def used_rows_are_live_and_free_rows_zero(self):
        for view in self.views:
            store = view._store
            assert store.top - len(store.free) == len(view)
            assert sorted(view._slot.values()) == sorted(
                set(range(store.top)) - set(store.free)
            )
            assert not store.block[store.free].any()
            assert not store.block[store.top:].any()
            for index in view._blocks.values():
                kept = 0 if index.sums is None else len(index.sums)
                assert index.top - len(index.free) == kept
                assert not index.block[index.free].any()


def eq(a, b) -> bool:
    """``RING.eq``, on the dense moment matrices (supports may differ)."""
    gap = np.abs(a.moment_matrix() - b.moment_matrix()).max()
    return bool(gap <= RING.tolerance)


def same(view, ref, indexes, sums=True):
    """``view`` reads like ``ref`` under the ring's tolerance (its bucket
    sums too, given ``sums``)."""
    assert len(view) == len(ref)
    got = dict(view.items())
    assert set(got) == set(ref.keys())
    for key, payload in ref.items():
        assert eq(got[key], payload)
        assert eq(view.payload(key), payload)
        assert eq(view._data[key], payload)
    assert view.payload((99, 99)) is RING.zero
    for attrs in indexes:
        subkeys = {tuple(k[SCHEMA.index(a)] for a in attrs) for k in KEYS}
        for subkey in subkeys:
            want = dict(ref.lookup(attrs, subkey))
            have = dict(view.lookup(attrs, subkey))
            assert set(have) == set(want)
            assert all(eq(have[k], want[k]) for k in want)
            if sums:
                assert eq(
                    bucket_sum(view, attrs, subkey), bucket_sum(ref, attrs, subkey))


BlockViews.TestCase.settings = SELECTED
TestBlockViews = BlockViews.TestCase


# ----------------------------------------------------------------------
# Reads a block view inherits from Relation (through its payload map)
# ----------------------------------------------------------------------


def filled(payloads):
    view = BlockRelation("V", SCHEMA, RING)
    view.register_index(("A",))
    for key, cells in payloads.items():
        view.add(key, make(((0,), cells)))
    return view


def test_copy_is_a_detached_dict_relation():
    cells = {(0, 0): (1.0, 0.5, 2.0), (1, 2): (2.0, -1.0, 0.5)}
    view = filled(cells)
    out = view.copy(name="W")
    assert type(out) is Relation
    assert (out.name, out.schema, out._indexes) == ("W", SCHEMA, {})
    # The view's rows change, free and move; the copy's payloads do not.
    view.add((0, 0), make(((0,), (3.0, 1.0, 1.0))))
    view.add((1, 2), RING.neg(view.payload((1, 2))))
    for i in range(40):
        view.add((5 + i, 0), make(((0,), (1.0, 1.0, 1.0))))
    assert set(out) == set(cells)
    for key, payload in out.items():
        assert np.array_equal(payload.row, cells[key])


def test_emptiness_and_iteration_follow_the_stored_keys():
    view = BlockRelation("V", SCHEMA, RING)
    assert view.is_empty and list(view) == []
    view.add((2, 1), make(((0,), (1.0, 1.0, 1.0))))
    view.add((0, 0), make(((0,), (2.0, 0.0, 0.5))))
    assert not view.is_empty
    assert list(view) == [(2, 1), (0, 0)] == list(view.keys())
    for key in list(view):
        view.add(key, RING.neg(view.payload(key)))
    assert view.is_empty and list(view) == []


def test_a_frozen_snapshot_reads_as_a_mapping_of_payloads():
    view = filled({(0, 0): (1.0, 0.5, 2.0), (3, 1): (-1.0, 0.0, 1.5)})
    frozen = view.frozen()
    view.add((0, 0), make(((0,), (1.0, 1.0, 1.0))))
    view.add((2, 2), make(((0,), (1.0, 1.0, 1.0))))
    assert len(frozen) == 2 and set(frozen.keys()) == {(0, 0), (3, 1)}
    got = dict(frozen.items())
    assert eq(got[(0, 0)], make(((0,), (1.0, 0.5, 2.0))))
    assert eq(got[(3, 1)], make(((0,), (-1.0, 0.0, 1.5))))
    assert [eq(a, b) for a, b in zip(frozen.values(), got.values())] == [True] * 2
