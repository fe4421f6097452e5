"""The central F-IVM invariant: maintained views equal recomputation.

Random databases, random insert/delete streams, random variable orders,
every payload ring — after every update the engine's root view must equal
evaluating the query from scratch, and every materialized auxiliary view
must equal its own definition.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FIVMEngine,
    Query,
    VariableOrder,
    build_view_tree,
)
from repro.data import Database, Relation
from repro.rings import (
    INT_RING,
    CofactorRing,
    Lifting,
    RealRing,
    RelationalRing,
    SquareMatrixRing,
    free_lift,
)

from tests.conftest import (
    PAPER_SCHEMAS,
    figure2_database,
    paper_variable_order,
    random_delta,
    recompute,
)


def drive_and_check(engine, query, order, schemas, steps, rng, domain=4):
    """Apply random deltas; after each, compare against recomputation."""
    db = Database(
        Relation(rel, schema, query.ring) for rel, schema in schemas.items()
    )
    for _ in range(steps):
        rel = rng.choice(list(schemas))
        delta = random_delta(rng, rel, schemas[rel], query.ring, domain=domain)
        engine.apply_update(delta.copy())
        db.apply_update(delta)
        expected = recompute(query, db, order)
        got = engine.result()
        assert got.same_as(expected), (
            f"divergence after update to {rel}:\n{got.pretty()}\n"
            f"expected:\n{expected.pretty()}"
        )
    return db


class TestExample41:
    """The paper's delta propagation for δT = {(c1,d1)→-1, (c2,d2)→3}."""

    def test_worked_delta(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        engine = FIVMEngine(q, paper_variable_order(), db=figure2_database())
        delta = Relation(
            "T", ("C", "D"), INT_RING, {("c1", "d1"): -1, ("c2", "d2"): 3}
        )
        root_delta = engine.apply_update(delta)
        assert dict(root_delta.items()) == {(): 5}
        assert engine.result().payload(()) == 15


class TestInvariantAcrossRings:
    def test_int_count(self, rng):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        order = paper_variable_order()
        drive_and_check(FIVMEngine(q, order), q, order, PAPER_SCHEMAS, 60, rng)

    def test_int_with_free_vars(self, rng):
        q = Query("Q", PAPER_SCHEMAS, free=("A", "C"), ring=INT_RING)
        order = paper_variable_order()
        drive_and_check(FIVMEngine(q, order), q, order, PAPER_SCHEMAS, 60, rng)

    def test_real_sum_aggregate(self, rng):
        ring = RealRing()
        lifting = Lifting(ring, {
            "B": lambda x: float(x),
            "D": lambda x: float(x),
            "E": lambda x: float(x),
        })
        q = Query("Q", PAPER_SCHEMAS, free=("A",), ring=ring, lifting=lifting)
        order = paper_variable_order()
        drive_and_check(FIVMEngine(q, order), q, order, PAPER_SCHEMAS, 50, rng)

    def test_cofactor_ring(self, rng):
        ring = CofactorRing(3)
        lifting = Lifting(ring, {
            "B": ring.lift(0), "D": ring.lift(1), "E": ring.lift(2),
        })
        q = Query("Q", PAPER_SCHEMAS, ring=ring, lifting=lifting)
        order = paper_variable_order()
        drive_and_check(FIVMEngine(q, order), q, order, PAPER_SCHEMAS, 25, rng)

    def test_matrix_ring_non_commutative(self, rng):
        """Payload multiplication order must follow child order."""
        ring = SquareMatrixRing(2)
        lifting = Lifting(ring, {
            "B": lambda x: np.eye(2) + 0.1 * x * np.array([[0.0, 1], [0, 0]]),
            "D": lambda x: np.eye(2) + 0.1 * x * np.array([[0.0, 0], [1, 0]]),
        })
        q = Query("Q", PAPER_SCHEMAS, ring=ring, lifting=lifting)
        order = paper_variable_order()
        drive_and_check(
            FIVMEngine(q, order), q, order, PAPER_SCHEMAS, 20, rng, domain=3
        )

    def test_relational_ring(self, rng):
        ring = RelationalRing()
        lifting = Lifting(ring, {"B": free_lift("B"), "D": free_lift("D")})
        q = Query("Q", PAPER_SCHEMAS, ring=ring, lifting=lifting)
        order = paper_variable_order()
        drive_and_check(
            FIVMEngine(q, order), q, order, PAPER_SCHEMAS, 25, rng, domain=3
        )


class TestAuxiliaryViewConsistency:
    def test_every_materialized_view_matches_definition(self, rng):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        order = paper_variable_order()
        engine = FIVMEngine(q, order)
        db = Database(
            Relation(rel, schema, INT_RING)
            for rel, schema in PAPER_SCHEMAS.items()
        )
        for _ in range(50):
            rel = rng.choice(list(PAPER_SCHEMAS))
            delta = random_delta(rng, rel, PAPER_SCHEMAS[rel], INT_RING)
            engine.apply_update(delta.copy())
            db.apply_update(delta)
        reference = build_view_tree(q, order).evaluate(db)
        for name, contents in engine.views.items():
            assert contents.same_as(
                reference[name].reorder(contents.schema, name=name)
            ), f"view {name} diverged"


class TestRootDeltaReporting:
    def test_deltas_sum_to_final_state(self, rng):
        q = Query("Q", PAPER_SCHEMAS, free=("A",), ring=INT_RING)
        order = paper_variable_order()
        engine = FIVMEngine(q, order)
        accumulated = Relation("acc", engine.tree.root.keys, INT_RING)
        for _ in range(40):
            rel = rng.choice(list(PAPER_SCHEMAS))
            delta = random_delta(rng, rel, PAPER_SCHEMAS[rel], INT_RING)
            accumulated.absorb(engine.apply_update(delta))
        assert accumulated.same_as(
            engine.result().copy(name="acc")
        )


class TestUpdatableScenarios:
    def test_one_relation_scenario_with_preloaded_db(self, rng):
        """Static relations preloaded; stream touches only one relation."""
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        order = paper_variable_order()
        db = figure2_database()
        engine = FIVMEngine(q, order, updatable={"S"}, db=db)
        live = db.copy()
        for _ in range(40):
            delta = random_delta(rng, "S", PAPER_SCHEMAS["S"], INT_RING)
            engine.apply_update(delta.copy())
            live.apply_update(delta)
            assert engine.result().same_as(recompute(q, live, order))

    def test_fewer_views_for_restricted_updates(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        order = paper_variable_order()
        all_updates = FIVMEngine(q, order)
        one_update = FIVMEngine(q, order, updatable={"S"})
        assert len(one_update.views) < len(all_updates.views)

    def test_update_to_non_updatable_rejected(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        engine = FIVMEngine(q, paper_variable_order(), updatable={"S"})
        with pytest.raises(KeyError):
            engine.apply_update(Relation("R", ("A", "B"), INT_RING, {(1, 2): 1}))

    def test_wrong_delta_schema_rejected(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        engine = FIVMEngine(q, paper_variable_order())
        with pytest.raises(ValueError):
            engine.apply_update(Relation("R", ("B", "A"), INT_RING, {(1, 2): 1}))

    def test_empty_delta_is_noop(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        engine = FIVMEngine(q, paper_variable_order())
        out = engine.apply_update(Relation("R", ("A", "B"), INT_RING))
        assert out.is_empty


class TestInitializeAndIntrospection:
    def test_initialize_from_snapshot(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        engine = FIVMEngine(q, paper_variable_order(), db=figure2_database())
        assert engine.result().payload(()) == 10

    def test_reinitialize_resets(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        engine = FIVMEngine(q, paper_variable_order(), db=figure2_database())
        engine.initialize(figure2_database())
        assert engine.result().payload(()) == 10

    def test_view_sizes_and_counts(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        engine = FIVMEngine(q, paper_variable_order(), db=figure2_database())
        sizes = engine.view_sizes()
        assert sizes[engine.tree.root.name] == 1
        assert engine.total_keys() == sum(sizes.values())
        assert engine.view_count() == 5

    def test_materialize_all(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        engine = FIVMEngine(
            q, paper_variable_order(), updatable={"T"}, materialize="all"
        )
        assert len(engine.views) == len(engine.tree.nodes)

    def test_materialize_mode_validated(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        with pytest.raises(ValueError):
            FIVMEngine(q, paper_variable_order(), materialize="some")


# ----------------------------------------------------------------------
# Property-based: random schemas, random orders, random streams
# ----------------------------------------------------------------------

@st.composite
def random_query_setup(draw):
    variables = ["V0", "V1", "V2", "V3", "V4"]
    n_relations = draw(st.integers(1, 4))
    relations = {}
    for index in range(n_relations):
        width = draw(st.integers(1, 3))
        start = draw(st.integers(0, len(variables) - width))
        # Contiguous slices keep schemas overlapping often enough to be
        # interesting without exploding join sizes.
        relations[f"R{index}"] = tuple(variables[start:start + width])
    used = tuple(
        dict.fromkeys(a for schema in relations.values() for a in schema)
    )
    free = tuple(v for v in used if draw(st.booleans()) and draw(st.booleans()))
    seed = draw(st.integers(0, 10_000))
    return relations, free, seed


@given(random_query_setup())
@settings(max_examples=40, deadline=None)
def test_invariant_on_random_queries(setup):
    relations, free, seed = setup
    rng = random.Random(seed)
    q = Query("rand", relations, free=free, ring=INT_RING)
    order = VariableOrder.auto(q)
    engine = FIVMEngine(q, order)
    db = Database(
        Relation(rel, schema, INT_RING) for rel, schema in relations.items()
    )
    for _ in range(12):
        rel = rng.choice(list(relations))
        delta = random_delta(rng, rel, relations[rel], INT_RING, domain=3)
        engine.apply_update(delta.copy())
        db.apply_update(delta)
    assert engine.result().same_as(recompute(q, db, order))
