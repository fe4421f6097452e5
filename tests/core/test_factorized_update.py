"""Tests for factorizable updates (Section 5)."""

import numpy as np
import pytest

from repro.core import FIVMEngine, FactorizedUpdate, Query
from repro.data import Relation, SchemaError
from repro.data.relation import BlockRelation, DeferredRelation
from repro.rings import INT_RING, REAL_RING, SquareMatrixRing

from tests.conftest import (
    chain_order,
    PAPER_SCHEMAS,
    figure2_database,
    paper_variable_order,
)


def unary(name, var, data, ring=INT_RING):
    return Relation(name, (var,), ring, data)


class TestFactorizedUpdateContainer:
    def test_rank_one(self):
        update = FactorizedUpdate.rank_one(
            "R", [unary("u", "A", {(1,): 2}), unary("v", "B", {(5,): 3})]
        )
        assert len(update.terms) == 1
        flat = update.flatten(("A", "B"))
        assert dict(flat.items()) == {(1, 5): 6}

    def test_rank_r_flatten_sums_terms(self):
        terms = [
            [unary("u1", "A", {(1,): 1}), unary("v1", "B", {(5,): 1})],
            [unary("u2", "A", {(1,): 1}), unary("v2", "B", {(5,): 2, (6,): 1})],
        ]
        update = FactorizedUpdate("R", terms)
        assert len(update.terms) == 2
        flat = update.flatten(("A", "B"))
        assert dict(flat.items()) == {(1, 5): 3, (1, 6): 1}

    def test_overlapping_factor_schemas_rejected(self):
        with pytest.raises(SchemaError):
            FactorizedUpdate.rank_one(
                "R", [unary("u", "A", {(1,): 1}), unary("v", "A", {(2,): 1})]
            )

    def test_inconsistent_terms_rejected(self):
        with pytest.raises(SchemaError):
            FactorizedUpdate("R", [
                [unary("u", "A", {(1,): 1})],
                [unary("v", "B", {(1,): 1})],
            ])

    def test_flatten_schema_checked(self):
        update = FactorizedUpdate.rank_one("R", [unary("u", "A", {(1,): 1})])
        with pytest.raises(SchemaError):
            update.flatten(("A", "B"))

    def test_rank_zero_flattens_to_ring_zero(self):
        """An empty term list is the additive identity, not an error: it
        flattens to the empty relation over any schema (the regression for
        the old divergence from a no-op apply_update)."""
        update = FactorizedUpdate("R", [], ring=INT_RING)
        assert len(update.terms) == 0
        assert update.attributes == frozenset()
        flat = update.flatten(("A", "B"))
        assert flat.is_empty
        assert flat.schema == ("A", "B")

    def test_rank_zero_without_ring_cannot_flatten(self):
        update = FactorizedUpdate("R", [])
        with pytest.raises(ValueError):
            update.flatten(("A",))

    def test_all_empty_terms_without_ring_cannot_flatten(self):
        """terms=[[]] leaves no factor to infer the ring from: flatten must
        raise the clear ValueError, not crash on ring=None."""
        update = FactorizedUpdate("R", [[]])
        assert update.attributes == frozenset()
        with pytest.raises(ValueError):
            update.flatten(())

    def test_empty_term_with_ring_is_the_unit(self):
        update = FactorizedUpdate("R", [[]], ring=INT_RING)
        flat = update.flatten(())
        assert dict(flat.items()) == {(): 1}

    def test_empty_factor_term_flattens_empty(self):
        """A term containing an empty factor contributes nothing."""
        update = FactorizedUpdate.rank_one(
            "R",
            [unary("u", "A", {(1,): 1}), Relation("v", ("B",), INT_RING)],
        )
        assert update.flatten(("A", "B")).is_empty


@pytest.mark.usefixtures("form")
class TestEnginePropagation:
    """Factorized propagation must agree with listing-form updates — in
    every form, over ℤ (scalar factor programs only) and ℝ (whose packed
    factors fall back to dicts at the merges without an array form)."""

    @pytest.fixture(autouse=True, params=[INT_RING, REAL_RING], ids=["Z", "R"])
    def _ring(self, request):
        self.ring = request.param

    def unary(self, name, var, data):
        return unary(name, var, data, self.ring)

    def _engines(self, updatable=("S",)):
        q = Query("Q", PAPER_SCHEMAS, ring=self.ring)
        order = paper_variable_order()
        db = figure2_database(self.ring)
        factored = FIVMEngine(q, order, updatable=updatable, db=db)
        listing = FIVMEngine(q, order, updatable=updatable, db=db)
        return q, order, factored, listing

    def test_rank_one_equals_listing(self):
        q, order, factored, listing = self._engines()
        update = FactorizedUpdate.rank_one("S", [
            self.unary("uA", "A", {("a1",): 1, ("a9",): 2}),
            self.unary("uC", "C", {("c2",): 1}),
            self.unary("uE", "E", {("e1",): 3}),
        ])
        factored.apply_factorized_update(update)
        listing.apply_update(update.flatten(("A", "C", "E"), name="S"))
        assert factored.result().same_as(listing.result())

    def test_example52_delta_shape(self):
        """Example 5.2: δS = δSA ⊗ δSC ⊗ δSE propagates as three factors and
        the root delta is correct."""
        q, order, factored, _ = self._engines()
        update = FactorizedUpdate.rank_one("S", [
            self.unary("uA", "A", {("a1",): 1}),
            self.unary("uC", "C", {("c1",): 1}),
            self.unary("uE", "E", {("e7",): 1}),
        ])
        root_delta = factored.apply_factorized_update(update)
        # (a1,c1,e7) joins 2 R-tuples (b1,b2) and 1 T-tuple (d1): delta = 2.
        assert dict(root_delta.items()) == {(): 2}

    def test_negative_payload_rank_one(self):
        """Example 5.1's over-approximation trick needs negative factors."""
        q, order, factored, listing = self._engines()
        update = FactorizedUpdate.rank_one("S", [
            self.unary("uA", "A", {("a1",): 1}),
            self.unary("uC", "C", {("c1",): -1}),
            self.unary("uE", "E", {("e1",): 1}),
        ])
        factored.apply_factorized_update(update)
        listing.apply_update(update.flatten(("A", "C", "E"), name="S"))
        assert factored.result().same_as(listing.result())

    def test_rank_r_sequence(self, rng):
        q, order, factored, listing = self._engines()
        for trial in range(10):
            terms = []
            for _ in range(rng.randint(1, 3)):
                a, c, e = (rng.randint(0, 3) for _ in range(3))
                terms.append([
                    self.unary("uA", "A", {(f"a{a}",): rng.choice([1, -1])}),
                    self.unary("uC", "C", {(f"c{c}",): 1}),
                    self.unary("uE", "E", {(f"e{e}",): rng.randint(1, 2)}),
                ])
            update = FactorizedUpdate("S", terms)
            factored.apply_factorized_update(update)
            listing.apply_update(update.flatten(("A", "C", "E"), name="S"))
            assert factored.result().same_as(listing.result())

    def test_updatable_base_absorbs_flattened(self):
        """When the base copy is stored (here: R is a direct sibling of
        another updatable subtree), it receives the delta in listing form."""
        from repro.core import VariableOrder

        schemas = {"R": ("A", "B"), "S": ("B", "C")}
        q = Query("two", schemas, ring=self.ring)
        order = chain_order(("A", "B", "C"))
        engine = FIVMEngine(q, order)  # both updatable
        leaf_name = engine.tree.leaves["R"].name
        assert leaf_name in engine.views, "R must be stored as a sibling"
        update = FactorizedUpdate.rank_one("R", [
            self.unary("uA", "A", {(1,): 1, (2,): 1}),
            self.unary("uB", "B", {(7,): 2}),
        ])
        engine.apply_factorized_update(update)
        stored = engine.views[leaf_name]
        assert stored.payload((1, 7)) == 2
        assert stored.payload((2, 7)) == 2

    def test_rank_zero_update_is_noop(self):
        """Engine regression for the empty-term-list fix: rank-0 must equal
        a no-op apply_update — zero root delta, untouched state."""
        q, order, factored, listing = self._engines()
        before_sizes = factored.view_sizes()
        root_delta = factored.apply_factorized_update(
            FactorizedUpdate("S", [], ring=self.ring)
        )
        assert root_delta.is_empty
        assert root_delta.schema == factored.result().schema
        assert factored.view_sizes() == before_sizes
        assert factored.result().same_as(listing.result())

    def test_rank_zero_interpreted_matches(self):
        q = Query("Q", PAPER_SCHEMAS, ring=self.ring)
        engine = FIVMEngine(q, paper_variable_order(), backend="interpreter")
        root_delta = engine.apply_factorized_update(
            FactorizedUpdate("S", [], ring=self.ring)
        )
        assert root_delta.is_empty

    def test_term_cancelling_to_zero_mid_propagation(self):
        """Opposite-sign terms cancel: state and root delta equal a no-op,
        and the stored base ends exactly where it started."""
        q, order, factored, listing = self._engines()
        up = [
            self.unary("uA", "A", {("a1",): 1}),
            self.unary("uC", "C", {("c1",): 1}),
            self.unary("uE", "E", {("e1",): 1}),
        ]
        down = [
            self.unary("uA", "A", {("a1",): -1}),
            self.unary("uC", "C", {("c1",): 1}),
            self.unary("uE", "E", {("e1",): 1}),
        ]
        update = FactorizedUpdate("S", [up, down])
        root_delta = factored.apply_factorized_update(update)
        assert root_delta.is_empty
        assert factored.result().same_as(listing.result())
        for name, contents in factored.views.items():
            assert contents.same_as(listing.views[name]), name

    def test_factor_cancelled_inside_merge_propagates_zero(self):
        """A factor whose contributions cancel against a sibling mid-path
        (payload sums to zero inside the fused merge) yields the zero root
        delta without corrupting higher views."""
        q, order, factored, listing = self._engines()
        update = FactorizedUpdate.rank_one("S", [
            self.unary("uA", "A", {("a1",): 1, ("a2",): -1}),
            self.unary("uC", "C", {("c9",): 1}),  # c9 matches no T tuple
            self.unary("uE", "E", {("e1",): 1}),
        ])
        factored.apply_factorized_update(update)
        listing.apply_update(update.flatten(("A", "C", "E"), name="S"))
        assert factored.result().same_as(listing.result())
        for name, contents in factored.views.items():
            assert contents.same_as(listing.views[name]), name

    def test_non_commutative_ring_rejected(self):
        ring = SquareMatrixRing(2)
        q = Query("Q", PAPER_SCHEMAS, ring=ring)
        engine = FIVMEngine(q, paper_variable_order())
        update = FactorizedUpdate.rank_one(
            "S",
            [
                Relation("uA", ("A",), ring, {(1,): np.eye(2)}),
                Relation("uC", ("C",), ring, {(1,): np.eye(2)}),
                Relation("uE", ("E",), ring, {(1,): np.eye(2)}),
            ],
        )
        with pytest.raises(ValueError):
            engine.apply_factorized_update(update)


@pytest.mark.parametrize("workload, factorized, memoized", [
    ("retailer_b1", False, True), ("retailer_b600", False, True),
    ("join_factorized", False, False), ("chain_rank1", True, False),
])
def test_which_workloads_enter_the_factor_path_and_the_memo(
    workload, factorized, memoized
):
    """Of the end-to-end benchmark's workloads only ``chain_rank1`` builds
    factor programs, so a change to the factor path cannot move the rest;
    and only the Retailer (cofactor ring, lifts behind keyed sibling
    probes) binds lifted-sibling memos — the chain is ℝ and the join ℤ
    without lifts, so the memo cannot move either of them.  Likewise only
    the chain's root can keep a packed column: the others' are plain
    relations (their rings do not pack as one float64 column), or — over
    the cofactor ring — block views, which hold no packed column."""
    from benchmarks.e2e import run as e2e

    instance = e2e.WORKLOADS[workload](3, True)
    state = instance.setup()
    instance.run(state)
    engine = state.engine
    built = engine._factor_programs or engine._array_factor_programs
    assert bool(built) == factorized
    assert bool(engine._memo_sites) == memoized
    assert any(n for n, _ in engine.memo_sizes().values()) == memoized
    root = engine.result()
    if factorized:
        assert type(root) is DeferredRelation
        assert root._packed_form is not None, "reads are packed ones"
    else:
        assert root._packed_form is None
        retailer = workload.startswith("retailer")
        assert type(root) is (BlockRelation if retailer else Relation)
