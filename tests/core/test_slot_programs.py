"""Differential tests for the slot-compiled delta programs.

Three implementations must agree key-for-key on random queries and random
insert/delete streams:

* the compiled slot executor (the default ``FIVMEngine``),
* the IR interpreter (``backend="interpreter"``, the reference semantics
  the programs are compiled from),
* full recomputation (``RecursiveIVM`` and from-scratch evaluation).

Runs across the ℤ, cofactor, and (non-commutative) matrix rings — the
matrix ring guards the compiled product order — plus indicator-adorned
trees and the batched ``apply_batch`` trigger.
"""

import random

import numpy as np
import pytest

from repro.baselines.recursive import RecursiveIVM
from repro.core import (
    FIVMEngine,
    Query,
    VariableOrder,
    add_indicator_projections,
    build_view_tree,
)
from repro.data import Database, Relation
from repro.rings import CofactorRing, INT_RING, Lifting, SquareMatrixRing

from tests.conftest import (
    PAPER_SCHEMAS,
    paper_variable_order,
    random_delta,
    recompute,
)

TRIANGLE_SCHEMAS = {"R": ("A", "B"), "S": ("B", "C"), "T": ("C", "A")}

STAR_SCHEMAS = {
    "F": ("K", "X"),
    "D1": ("K", "Y"),
    "D2": ("K", "Z"),
}


def int_query(name, schemas, free=()):
    return Query(name, schemas, free=free, ring=INT_RING)


def cofactor_paper_query():
    ring = CofactorRing(3)
    lifting = Lifting(ring, {
        "B": ring.lift(0), "D": ring.lift(1), "E": ring.lift(2),
    })
    return Query("Qcof", PAPER_SCHEMAS, ring=ring, lifting=lifting)


def matrix_paper_query():
    ring = SquareMatrixRing(2)
    lifting = Lifting(ring, {
        "B": lambda x: np.eye(2) + 0.1 * x * np.array([[0.0, 1], [0, 0]]),
        "D": lambda x: np.eye(2) + 0.1 * x * np.array([[0.0, 0], [1, 0]]),
    })
    return Query("Qmat", PAPER_SCHEMAS, ring=ring, lifting=lifting)


def drive_differentially(
    query, order, schemas, steps, rng, free_ok=True, domain=3
):
    """Random stream through compiled vs interpreter vs recompute."""
    from repro.core.ir import InterpreterDeltaProgram
    from repro.core.plan_exec import SlotProgram

    compiled = FIVMEngine(query, order)
    interpreted = FIVMEngine(query, order, backend="interpreter")
    assert compiled._programs, "compiled engine must hold slot programs"
    assert all(
        isinstance(p, SlotProgram) for p in compiled._programs.values()
    ), "the default engine must realize the IR as generated triggers"
    assert interpreted._programs and all(
        isinstance(p, InterpreterDeltaProgram)
        for p in interpreted._programs.values()
    ), "backend='interpreter' must realize the IR through the interpreter"
    db = Database(
        Relation(rel, schema, query.ring) for rel, schema in schemas.items()
    )
    for step in range(steps):
        rel = rng.choice(list(schemas))
        delta = random_delta(rng, rel, schemas[rel], query.ring, domain=domain)
        root_c = compiled.apply_update(delta.copy())
        root_i = interpreted.apply_update(delta.copy())
        db.apply_update(delta)
        assert root_c.same_as(root_i), f"root deltas diverged at step {step}"
        assert compiled.result().same_as(interpreted.result())
    expected = recompute(query, db, order).reorder(
        compiled.result().schema
    )
    assert compiled.result().same_as(expected)
    # Every materialized auxiliary view agrees too.
    for name, contents in compiled.views.items():
        assert contents.same_as(interpreted.views[name]), name
    return compiled, db


class TestCompiledMatchesReference:
    def test_int_ring_paper_query(self, rng):
        q = int_query("Q", PAPER_SCHEMAS, free=("A",))
        drive_differentially(q, paper_variable_order(), PAPER_SCHEMAS, 30, rng)

    def test_int_ring_random_orders(self, rng):
        for seed in range(4):
            local = random.Random(seed)
            q = int_query(f"Q{seed}", PAPER_SCHEMAS, free=("A", "C"))
            order = VariableOrder.auto(q)
            drive_differentially(q, order, PAPER_SCHEMAS, 15, local)

    def test_star_schema_group_aware(self, rng):
        q = int_query("star", STAR_SCHEMAS)
        drive_differentially(q, None, STAR_SCHEMAS, 25, rng)

    def test_cofactor_ring(self, rng):
        q = cofactor_paper_query()
        drive_differentially(q, paper_variable_order(), PAPER_SCHEMAS, 20, rng)

    def test_matrix_ring_non_commutative(self, rng):
        """Compiled product order must match the interpreter's child order."""
        q = matrix_paper_query()
        drive_differentially(q, paper_variable_order(), PAPER_SCHEMAS, 20, rng)

    def test_group_aware_off_still_agrees(self, rng):
        q = int_query("Q", PAPER_SCHEMAS)
        compiled = FIVMEngine(q, paper_variable_order(), group_aware=False)
        interpreted = FIVMEngine(
            q, paper_variable_order(), group_aware=False,
            backend="interpreter",
        )
        for _ in range(20):
            rel = rng.choice(list(PAPER_SCHEMAS))
            delta = random_delta(rng, rel, PAPER_SCHEMAS[rel], INT_RING)
            compiled.apply_update(delta.copy())
            interpreted.apply_update(delta)
        assert compiled.result().same_as(interpreted.result())


class TestCompiledMatchesFullRecompute:
    def test_against_recursive_ivm(self, rng):
        """Third reference: the DBToaster-style recursive baseline."""
        q = int_query("Q", PAPER_SCHEMAS)
        compiled = FIVMEngine(q, paper_variable_order())
        dbt = RecursiveIVM(int_query("Qd", PAPER_SCHEMAS))
        for _ in range(30):
            rel = rng.choice(list(PAPER_SCHEMAS))
            delta = random_delta(rng, rel, PAPER_SCHEMAS[rel], INT_RING)
            compiled.apply_update(delta.copy())
            dbt.apply_update(delta)
        result = compiled.result()
        reference = dbt.result()
        assert result.payload(()) == reference.payload(())

    def test_cofactor_against_recursive_ivm(self, rng):
        q = cofactor_paper_query()
        ring = q.ring
        compiled = FIVMEngine(q, paper_variable_order())
        dbt = RecursiveIVM(cofactor_paper_query())
        for _ in range(15):
            rel = rng.choice(list(PAPER_SCHEMAS))
            delta = random_delta(rng, rel, PAPER_SCHEMAS[rel], ring)
            compiled.apply_update(delta.copy())
            dbt.apply_update(delta)
        assert ring.eq(
            compiled.result().payload(()), dbt.result().payload(())
        )


class TestIndicatorPrograms:
    def test_triangle_with_indicators(self, rng):
        """Indicator-source slot programs agree with the interpreter."""
        def adorned_engine(backend=None):
            q = int_query("tri", TRIANGLE_SCHEMAS)
            tree = add_indicator_projections(
                build_view_tree(q, VariableOrder.chain(("A", "B", "C")))
            )
            return FIVMEngine(q, tree=tree, backend=backend)

        compiled = adorned_engine()
        interpreted = adorned_engine("interpreter")
        db = Database(
            Relation(rel, schema, INT_RING)
            for rel, schema in TRIANGLE_SCHEMAS.items()
        )
        for step in range(30):
            rel = rng.choice(list(TRIANGLE_SCHEMAS))
            delta = random_delta(rng, rel, TRIANGLE_SCHEMAS[rel], INT_RING)
            root_c = compiled.apply_update(delta.copy())
            root_i = interpreted.apply_update(delta.copy())
            db.apply_update(delta)
            assert root_c.same_as(root_i), f"diverged at step {step}"
        q = int_query("tri_ref", TRIANGLE_SCHEMAS)
        expected = recompute(q, db).reorder(compiled.result().schema)
        assert compiled.result().same_as(expected)


class TestApplyBatch:
    def _random_deltas(self, rng, schemas, ring, count):
        deltas = []
        for _ in range(count):
            rel = rng.choice(list(schemas))
            deltas.append(random_delta(rng, rel, schemas[rel], ring))
        return deltas

    @pytest.mark.parametrize("make_query", [
        lambda: int_query("Q", PAPER_SCHEMAS, free=("A",)),
        cofactor_paper_query,
        matrix_paper_query,
    ])
    def test_batch_equals_sequential(self, rng, make_query):
        q_batch, q_seq = make_query(), make_query()
        ring = q_batch.ring
        order = paper_variable_order()
        batched = FIVMEngine(q_batch, order)
        sequential = FIVMEngine(q_seq, order)
        for round_no in range(6):
            deltas = self._random_deltas(rng, PAPER_SCHEMAS, ring, 8)
            total = batched.apply_batch([d.copy() for d in deltas])
            expected_total = None
            for delta in deltas:
                contribution = sequential.apply_update(delta)
                expected_total = (
                    contribution if expected_total is None
                    else expected_total.union(contribution)
                )
            assert batched.result().same_as(sequential.result()), round_no
            assert total.same_as(
                expected_total.rename({}, name=total.name)
            ), round_no

    def test_batch_coalesces_cancelling_deltas(self):
        q = int_query("Q", PAPER_SCHEMAS)
        engine = FIVMEngine(q, paper_variable_order())
        up = Relation("R", PAPER_SCHEMAS["R"], INT_RING, {(1, 2): 1})
        down = Relation("R", PAPER_SCHEMAS["R"], INT_RING, {(1, 2): -1})
        root = engine.apply_batch([up, down])
        assert root.is_empty
        assert engine.total_keys() == 0

    def test_delta_groups_feed_matches_sequential_stream(self, rng):
        """The stream→delta_groups→apply_batch pipeline (the harness wiring)
        ends in the same state as applying the stream delta by delta."""
        from repro.datasets.streams import UpdateBatch, UpdateStream

        rows = {
            rel: [
                tuple(rng.randint(0, 2) for _ in schema) for _ in range(12)
            ]
            for rel, schema in PAPER_SCHEMAS.items()
        }
        batches = []
        for i in range(12):
            for rel in PAPER_SCHEMAS:
                batches.append(UpdateBatch(rel, [rows[rel][i]], +1))
        stream = UpdateStream(PAPER_SCHEMAS, batches)
        q_batch = int_query("Qb", PAPER_SCHEMAS, free=("A",))
        q_seq = int_query("Qs", PAPER_SCHEMAS, free=("A",))
        order = paper_variable_order()
        batched = FIVMEngine(q_batch, order)
        sequential = FIVMEngine(q_seq, order)
        for group in stream.delta_groups(INT_RING, 5):
            assert len(group) <= 5
            batched.apply_batch(group)
        for delta in stream.deltas(INT_RING):
            sequential.apply_update(delta)
        assert batched.result().same_as(sequential.result())

    def test_batch_rejects_unknown_relation(self):
        q = int_query("Q", PAPER_SCHEMAS)
        engine = FIVMEngine(q, paper_variable_order(), updatable=["R"])
        bad = Relation("S", PAPER_SCHEMAS["S"], INT_RING, {(1, 2, 3): 1})
        with pytest.raises(KeyError):
            engine.apply_batch([bad])


class TestProgramShape:
    def test_generated_source_is_allocation_free(self):
        """The trigger source must not allocate dict bindings per match."""
        q = int_query("Q", PAPER_SCHEMAS, free=("A",))
        engine = FIVMEngine(q, paper_variable_order())
        assert engine._programs
        for program in engine._programs.values():
            src = program.source_text
            assert src.startswith("def _trigger(")
            assert "dict(" not in src
            assert "zip(" not in src
