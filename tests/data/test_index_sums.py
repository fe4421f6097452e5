"""Tests for per-bucket payload sums (group-aware join support)."""


import numpy as np
import pytest

from repro.data import Relation
from repro.data.relation import BlockRelation
from repro.rings import INT_RING, CofactorRing, RealRing

from tests.conftest import bucket_sum


class TestBucketSums:
    def test_basic(self):
        r = Relation("R", ("A", "B"), INT_RING, {(1, 10): 2, (1, 20): 3, (2, 10): 4})
        r.register_index(("A",))
        assert bucket_sum(r, ("A",), (1,)) == 5
        assert bucket_sum(r, ("A",), (2,)) == 4
        assert bucket_sum(r, ("A",), (9,)) == 0

    def test_full_schema(self):
        """The primary map serves full-key reads: no index, no sums map,
        and the one entry's payload is the bucket's sum."""
        r = Relation("R", ("A",), INT_RING, {(1,): 7})
        r.register_index(("A",))
        assert ("A",) not in r._indexes
        assert dict(r.lookup(("A",), (1,))) == {(1,): 7}
        assert tuple(r.lookup(("A",), (2,))) == ()

    def test_empty_attrs_totals(self):
        r = Relation("R", ("A",), INT_RING, {(1,): 7, (2,): -3})
        r.register_index(())
        assert bucket_sum(r, (), ()) == 4
        r.add((3,), 5)
        r.add((1,), -7)
        assert bucket_sum(r, (), ()) == 2 == r.total()

    def test_without_index_raises(self):
        """Buckets exist only on registered attributes, for dict and block
        views alike (the engine registers every probe up front)."""
        ring = CofactorRing(1)
        views = [
            Relation("R", ("A", "B"), INT_RING, {(1, 2): 1}),
            BlockRelation("R", ("A", "B"), ring),
        ]
        views[1].add((1, 2), ring.lift(0)(np.float64(2.0)))
        for view in views:
            with pytest.raises(KeyError, match="no index"):
                view.lookup(("A",), (1,))
            assert ("A",) not in view._indexes

    def test_maintained_under_churn(self, rng):
        r = Relation("R", ("A", "B"), INT_RING)
        r.register_index(("A",))
        shadow = {}
        for _ in range(500):
            key = (rng.randint(0, 3), rng.randint(0, 5))
            amount = rng.choice([1, 2, -1, -2])
            r.add(key, amount)
            shadow[key] = shadow.get(key, 0) + amount
            if shadow[key] == 0:
                del shadow[key]
        for a in range(4):
            expected = sum(v for k, v in shadow.items() if k[0] == a)
            assert bucket_sum(r, ("A",), (a,)) == expected

    def test_cancelled_sum_with_nonempty_bucket(self):
        r = Relation("R", ("A", "B"), INT_RING, {(1, 10): 2, (1, 20): -2})
        r.register_index(("A",))
        assert bucket_sum(r, ("A",), (1,)) == 0
        assert len(list(r.lookup(("A",), (1,)))) == 2

    def test_clear_resets_sums(self):
        r = Relation("R", ("A", "B"), INT_RING, {(1, 10): 2})
        r.register_index(("A",))
        r.clear()
        assert bucket_sum(r, ("A",), (1,)) == 0

    def test_float_ring(self):
        ring = RealRing()
        r = Relation("R", ("A", "B"), ring, {(1, 10): 0.5, (1, 20): 0.25})
        r.register_index(("A",))
        assert abs(bucket_sum(r, ("A",), (1,)) - 0.75) < 1e-12


class TestGroupAwarePlans:
    def test_star_root_update_uses_aggregated_steps(self):
        """On a star join, sibling chains aggregate to the join key."""
        from repro.core import FIVMEngine, Query, VariableOrder

        schemas = {"R1": ("P", "X"), "R2": ("P", "Y"), "R3": ("P", "Z")}
        q = Query("star", schemas, free=("P",), ring=INT_RING)
        order = VariableOrder.from_spec(("P", ["X", "Y", "Z"]))
        engine = FIVMEngine(q, order)
        root = engine.tree.root
        plan = engine._plans[(root.name, ("child", 0))]
        assert all(step.aggregated for step in plan)

    def test_aggregated_plan_correctness_under_churn(self, rng):
        """Group-aware probing changes cost, never results."""
        from repro.core import FIVMEngine, Query, VariableOrder
        from repro.core import build_view_tree
        from repro.data import Database

        schemas = {"R1": ("P", "X"), "R2": ("P", "Y"), "R3": ("P", "Z")}
        q = Query("star", schemas, free=("P",), ring=INT_RING)
        order = VariableOrder.from_spec(("P", ["X", "Y", "Z"]))
        engine = FIVMEngine(q, order)
        db = Database(
            Relation(rel, schema, INT_RING) for rel, schema in schemas.items()
        )
        for _ in range(80):
            rel = rng.choice(list(schemas))
            key = (rng.randint(0, 2), rng.randint(0, 4))
            amount = rng.choice([1, 1, 2, -1])
            delta = Relation(rel, schemas[rel], INT_RING, {key: amount})
            if delta.is_empty:
                continue
            engine.apply_update(delta.copy())
            db.apply_update(delta)
            tree = build_view_tree(q, order)
            expected = tree.evaluate(db)[tree.root.name]
            assert engine.result().same_as(expected)
