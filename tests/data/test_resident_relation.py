"""A view that keeps its packed column (:class:`DeferredRelation`'s
resident absorb) against a plain :class:`Relation` fed the same changes
in listing form.

The machine checks without looking where looking would fold: while the
view is packed its ``_packed_form`` — always the whole view — is compared
with the oracle, and only the ``read_*`` rules touch the map.  Payloads
are multiples of ½ so every sum is exact and cancellations are real.
"""

import pickle

import numpy as np
from hypothesis import event
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.data import Relation
from repro.data.relation import _DATA_SLOT, DeferredRelation
from repro.datasets.matrices import relation_as_matrix
from repro.rings import REAL_RING

from tests.settings import SELECTED

SCHEMA = ("X", "Y")
SHAPE = (4, 2)
GRID = [(x, y) for x in range(3) for y in range(2)]
#: Key tables a packed delta may come over: two objects with the view's
#: usual keys (identity, not equality, is what residency keys on), a
#: sub-table, a permutation, and a table reaching past the grid.
TABLES = {
    "full": tuple(GRID),
    "twin": tuple(GRID),
    "sub": tuple(GRID[:4]),
    "reversed": tuple(reversed(GRID)),
    "wide": tuple(GRID + [(3, 0), (3, 1)]),
}
VALUES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0])
KEYS = st.sampled_from(TABLES["wide"])


def columns(table):
    size = len(TABLES[table])
    return st.lists(VALUES, min_size=size, max_size=size).map(np.array)


def packed_delta(table, column):
    """The delta as the array factor programs emit it."""
    return DeferredRelation(
        "V", SCHEMA, REAL_RING, packed=(TABLES[table], column.copy())
    )


def listing_delta(table, column):
    """The same delta as a map (explicit zeros are not entries)."""
    return Relation(
        "V", SCHEMA, REAL_RING, dict(zip(TABLES[table], column.tolist()))
    )


#: Every public read of a relation, as ``view → comparable value``.
OTHER = Relation("W", ("Y", "Z"), REAL_RING, {(0, 7): 2.0, (1, 8): -1.0})
READS = {
    "payload": lambda r: [r.payload(k) for k in TABLES["wide"]],
    "getitem": lambda r: [r[k] for k in TABLES["wide"]],
    "contains": lambda r: [k in r for k in TABLES["wide"]],
    "items": lambda r: sorted(r.items()),
    "keys": lambda r: sorted(r.keys()),
    "iter": lambda r: sorted(r),
    "len": len,
    "is_empty": lambda r: r.is_empty,
    "total": lambda r: r.total(),
    "pretty": lambda r: r.pretty(),
    "lookup_key": lambda r: [list(r.lookup(SCHEMA, k)) for k in GRID],
    "lookup_all": lambda r: sorted(r.lookup((), ())),
    "lookup_sum": lambda r: [r.lookup_sum(SCHEMA, k) for k in GRID]
    + [r.lookup_sum((), ())],
    "copy": lambda r: sorted(r.copy().items()),
    "negate": lambda r: sorted(r.negate().items()),
    "union": lambda r: sorted(r.union(OTHER.rename({"Y": "X", "Z": "Y"})).items()),
    "join": lambda r: sorted(r.join(OTHER).items()),
    "join_project": lambda r: sorted(r.join_project(OTHER, ("Y",)).items()),
    "marginalize": lambda r: sorted(r.marginalize(["Y"]).items()),
    "group_by": lambda r: sorted(r.group_by(["Y"]).items()),
    "project": lambda r: sorted(r.project(["Y", "X"]).items()),
    "reorder": lambda r: sorted(r.reorder(("Y", "X")).items()),
    "rename": lambda r: sorted(r.rename({"X": "A"}).items()),
    "filter": lambda r: sorted(r.filter(lambda k: k[1] == 0).items()),
    "scale": lambda r: sorted(r.scale(0.5).items()),
    "partition": lambda r: [sorted(f.items()) for f in r.partition("X", 2, hash)],
    "indicator": lambda r: sorted(r.indicator(["X"]).items()),
}


def contents(view):
    """What ``view`` holds, read without folding a packed form."""
    packed = view._packed_form
    if packed is None:
        return dict(view.items())
    is_zero = view.ring.is_zero
    return {k: v for k, v in zip(packed[0], packed[1].tolist()) if not is_zero(v)}


class ResidentView(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.view = DeferredRelation("V", SCHEMA, REAL_RING)
        self.oracle = Relation("V", SCHEMA, REAL_RING)
        self.map = _DATA_SLOT.__get__(self.view)

    def absorb(self, table, column):
        before = self.view._packed_form
        stale = dict(self.map)
        self.view.absorb_bulk(packed_delta(table, column))
        self.oracle.absorb_bulk(listing_delta(table, column))
        if before is not None and before[0] is TABLES[table]:
            # The same table again: the column took it, the map did not.
            assert self.view._packed_form is before
            assert self.map == stale
            event("absorbed in place")  # --hypothesis-show-statistics

    @rule(data=st.data(), table=st.sampled_from(sorted(TABLES)))
    def absorb_packed(self, data, table):
        self.absorb(table, data.draw(columns(table)))

    @rule(data=st.data(), table=st.sampled_from(["full", "wide"]),
          times=st.integers(2, 4))
    def absorb_packed_run(self, data, table, times):
        """What a stream of rank-1 updates does: the same table each time."""
        for _ in range(times):
            self.absorb(table, data.draw(columns(table)))

    @rule(table=st.sampled_from(["full", "wide"]))
    def absorb_cancelling_column(self, table):
        """``u vᵀ`` then ``−u vᵀ``: everything under the table goes."""
        column = -np.array([self.oracle.payload(k) for k in TABLES[table]])
        self.absorb(table, column)
        assert not any(k in self.oracle for k in TABLES[table])

    @rule(entries=st.dictionaries(KEYS, VALUES, max_size=4))
    def absorb_listing(self, entries):
        for target in (self.view, self.oracle):
            target.absorb_bulk(Relation("V", SCHEMA, REAL_RING, entries))

    @rule(key=KEYS, value=VALUES)
    def add(self, key, value):
        self.view.add(key, value)
        self.oracle.add(key, value)

    @rule()
    def clear(self):
        self.view.clear()
        self.oracle.clear()

    @rule()
    def copy_is_a_plain_detached_relation(self):
        clone = self.view.copy()
        assert type(clone) is Relation and clone.same_as(self.oracle)
        clone.add((0, 0), 1.0)
        assert self.view.same_as(self.oracle)

    @rule()
    def pickle_round_trip(self):
        clone = pickle.loads(pickle.dumps(self.view))
        assert type(clone) is Relation and clone.same_as(self.oracle)

    @rule(name=st.sampled_from(sorted(READS)))
    def read_through_a_public_method(self, name):
        assert READS[name](self.view) == READS[name](self.oracle), name
        assert self.view.resolved

    @rule()
    def read_as_matrix_leaves_the_map_alone(self):
        packed = self.view._packed_form
        assert np.array_equal(
            relation_as_matrix(self.view, SHAPE),
            relation_as_matrix(self.oracle, SHAPE),
        )
        assert self.view._packed_form is packed

    @precondition(lambda self: self.view._packed_form is not None)
    @rule(data=st.data())
    def union_of_two_packed_relations(self, data):
        table, _ = self.view._packed_form
        name = next(n for n, t in TABLES.items() if t is table)
        column = data.draw(columns(name))
        total = self.view.union(packed_delta(name, column))
        assert total._packed_form[0] is table
        assert not np.shares_memory(total._packed_form[1], self.view._packed_form[1])
        assert total.same_as(self.oracle.union(listing_delta(name, column)))

    @invariant()
    def view_equals_oracle(self):
        assert _DATA_SLOT.__get__(self.view) is self.map
        packed = self.view._packed_form
        if packed is not None:
            assert not self.view.resolved
            assert len(packed[0]) == len(packed[1]) >= len(self.oracle)
        held = contents(self.view)
        assert held == dict(self.oracle.items())
        if packed is None:
            assert self.view.same_as(self.oracle)
            assert len(self.view) == len(self.oracle)

    def teardown(self):
        assert self.view.same_as(self.oracle)
        assert self.map == dict(self.oracle.items())


ResidentView.TestCase.settings = SELECTED
TestResidentView = ResidentView.TestCase


def full_column(value=1.0):
    return np.full(len(GRID), value)


class TestResidentAbsorb:
    def test_a_view_arms_when_the_table_covers_it_and_nothing_died(self):
        view = DeferredRelation("V", SCHEMA, REAL_RING)
        assert view.resolved and view._packed_form is None
        view.absorb_bulk(packed_delta("full", full_column()))
        table, column = view._packed_form
        assert table is TABLES["full"] and column.tolist() == [1.0] * 6
        assert not view.resolved
        before = dict(_DATA_SLOT.__get__(view))
        delta = packed_delta("full", full_column(0.5))
        view.absorb_bulk(delta)
        view.absorb_bulk(packed_delta("full", full_column(0.5)))
        assert view._packed_form[1] is column and column.tolist() == [2.0] * 6
        # The delta's own column is never the view's.
        assert delta._packed_form[1].tolist() == [0.5] * 6
        assert _DATA_SLOT.__get__(view) == before
        assert dict(view.items()) == dict.fromkeys(GRID, 2.0)
        assert view.resolved and view._packed_form is None

    def test_dead_keys_a_sub_table_or_extra_keys_do_not_arm(self):
        view = DeferredRelation("V", SCHEMA, REAL_RING)
        column = full_column()
        column[2] = 0.0
        view.absorb_bulk(packed_delta("full", column))  # a key never stored
        assert view._packed_form is None and len(view) == 5
        view.absorb_bulk(packed_delta("sub", np.ones(4)))
        assert view._packed_form is None and len(view) == 6
        view.add((3, 1), 1.0)  # a key outside the table
        view.absorb_bulk(packed_delta("full", full_column()))
        assert view._packed_form is None and len(view) == 7
        view.add((3, 1), -1.0)
        view.absorb_bulk(packed_delta("full", -view.payload(GRID[0]) * full_column()))
        assert view._packed_form is None, "a key cancelled"
        assert GRID[0] not in view

    def test_an_index_keeps_the_view_on_the_eager_indexed_path(self):
        view = DeferredRelation("V", SCHEMA, REAL_RING)
        view.absorb_bulk(packed_delta("full", full_column()))
        view.register_index(("X",))  # reads the map: folds
        assert view.resolved
        view.absorb_bulk(packed_delta("full", full_column()))
        assert view._packed_form is None
        assert view.lookup_sum(("X",), (1,)) == 4.0

    def test_resolver_relations_still_resolve_once(self):
        calls = []

        def resolver():
            calls.append(1)
            return {(0, 0): 3.0}

        deferred = DeferredRelation("V", SCHEMA, REAL_RING, resolver)
        assert not deferred.resolved and not calls
        assert deferred.payload((0, 0)) == 3.0 and len(deferred) == 1
        assert deferred.resolved and calls == [1]

    def test_packed_union_clamps_zeros_and_falls_back_across_tables(self):
        left = packed_delta("full", full_column())
        column = full_column(-1.0)
        column[0] += 1e-12  # inside ℝ's tolerance: the sum is a zero
        column[1] = 2.0
        total = left.union(packed_delta("full", column), name="T")
        assert total.name == "T" and total._packed_form[0] is TABLES["full"]
        assert total._packed_form[1].tolist() == [0.0, 3.0, 0.0, 0.0, 0.0, 0.0]
        assert left._packed_form is not None, "operands stay packed"
        assert dict(total.items()) == {GRID[1]: 3.0}
        other = left.union(packed_delta("twin", column))
        assert type(other) is Relation and other.same_as(total)
