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
from repro.rings import (
    CofactorRing,
    DegreeRing,
    INT_RING,
    Lifting,
    SquareMatrixRing,
)

from tests.conftest import (
    FORMS,
    PAPER_SCHEMAS,
    make_engine,
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


# ----------------------------------------------------------------------
# The lifted-sibling memo of the scalar triggers
# ----------------------------------------------------------------------


def lifted_query(ring_cls=CofactorRing, free=(), tag="Qlift"):
    """The paper query with *every* variable lifted, so the join variables
    A and C put a lift behind a keyed sibling probe — the memo's shape
    (sites ``V@A_RST:child0``/``child1`` and ``V@C_ST:child1``; the last
    two have the source at child position 1)."""
    ring = ring_cls(5)
    lifting = Lifting(ring, {v: ring.lift(i) for i, v in enumerate("ABCDE")})
    return Query(tag, PAPER_SCHEMAS, free=free, ring=ring, lifting=lifting)


def lockstep(engine, oracle, script, schemas=PAPER_SCHEMAS):
    """Feed ``(relation, row, multiplicity)`` steps to both engines, one
    tuple per call, holding root deltas and every view equal throughout."""
    ring = engine.query.ring
    for step, (rel, row, mult) in enumerate(script):
        delta = Relation(rel, schemas[rel], ring, {row: ring.from_int(mult)})
        got = engine.apply_update(delta.copy())
        want = oracle.apply_update(delta)
        assert got.same_as(want), (step, rel, row, mult)
        for name, view in oracle.views.items():
            assert engine.views[name].same_as(view), (step, name)


def admitted(engine, site):
    """Keys of ``site`` holding a stored product (not a sighting marker)."""
    memo, _ = engine._memo_sites[site]
    return {key for key, entry in memo.items() if type(entry) is tuple}


#: One probe key of ``V@C_ST:child1`` (S-side deltas probing ``V@D_T[C]``)
#: seen repeatedly while the sibling is inserted, updated, deleted to zero
#: and re-inserted as the identical row.
SIBLING_REWRITES = [
    ("R", (1, 9), 1),
    ("T", (1, 2), 1),
    ("S", (1, 1, 3), 1), ("S", (1, 1, 4), 1), ("S", (1, 1, 5), 1),
    ("T", (1, 3), 1),                       # update under an admitted key
    ("S", (1, 1, 6), 1), ("S", (1, 1, 3), -1), ("S", (1, 1, 7), 2),
    ("T", (1, 2), -1), ("T", (1, 3), -1),   # delete to zero
    ("S", (1, 1, 8), 1),
    ("T", (1, 2), 1),                       # the identical row again
    ("S", (1, 1, 9), 1), ("S", (1, 1, 4), -1), ("S", (1, 1, 3), 1),
    ("R", (1, 9), -1), ("R", (1, 8), 1), ("R", (1, 7), 1), ("R", (1, 6), 1),
]


class TestLiftedSiblingMemo:
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("ring_cls", [CofactorRing, DegreeRing])
    def test_sibling_written_between_probes_of_one_key(self, form, ring_cls):
        order = paper_variable_order()
        engine = make_engine(form, lifted_query(ring_cls), order)
        oracle = FIVMEngine(
            lifted_query(ring_cls), order, backend="interpreter"
        )
        lockstep(engine, oracle, SIBLING_REWRITES)
        if form == "scalar":
            assert admitted(engine, "V@C_ST:child1") == {(1,)}
            assert admitted(engine, "V@A_RST:child0") == {(1,)}

    @pytest.mark.parametrize("ring_cls", [CofactorRing, DegreeRing])
    def test_source_at_child_position_one(self, ring_cls):
        """``[_t0, _psrc, _lv]`` programs regroup as ``_psrc ⊗ (_t0 ⊗
        _lv)`` — legal on these (commutative) rings only."""
        engine = FIVMEngine(lifted_query(ring_cls), paper_variable_order())
        for key in [("V@A_RST", ("child", 1)), ("V@C_ST", ("child", 1))]:
            assert engine._ir[key].accumulate.factors[0] == ("op", 0)
            assert engine._ir[key].accumulate.memo == 0
            assert "_mul(_v, _tl)" in engine._programs[key].source_text

    @pytest.mark.parametrize("form", FORMS)
    def test_sibling_payload_that_is_the_ring_one(self, form):
        """``mul(one, lift)`` returns the (shared, memoized) lift object
        itself; an entry holding it must still die with the sibling."""
        schemas = {"R": ("A", "B"), "S": ("A",)}
        order = VariableOrder.from_spec(("A", ["B"]))

        def query():
            ring = CofactorRing(2)
            lifting = Lifting(ring, {"A": ring.lift(0), "B": ring.lift(1)})
            return Query("Qone", schemas, ring=ring, lifting=lifting)

        engine = make_engine(form, query(), order)
        oracle = FIVMEngine(query(), order, backend="interpreter")
        script = [
            ("S", (1,), 1),
            ("R", (1, 2), 1), ("R", (1, 3), 1), ("R", (1, 4), 1),
            ("S", (1,), 1),   # count 1 -> 2: the entry is stale
            ("R", (1, 5), 1), ("R", (1, 2), -1), ("R", (1, 6), 1),
            ("S", (1,), -1),  # back to a payload *equal* to the first one
            ("R", (1, 7), 1), ("R", (1, 8), 1), ("R", (1, 3), -1),
        ]
        lockstep(engine, oracle, script, schemas)
        if form == "scalar":
            leaf = engine.views[engine.tree.leaves["S"].name]
            [memo] = [
                memo for memo, sibling in engine._memo_sites.values()
                if sibling is leaf
            ]
            payload, product = memo[(1,)]
            assert payload is leaf._data[(1,)]
            assert product is engine.query.lifting.get("A")(1)

    def test_only_rings_with_array_products_build_a_memo(self):
        """ℤ/ℝ (a ``*`` is cheaper than the dict probe) and the
        non-commutative matrix ring (no regrouping) keep the plain
        product, on exactly the program shape the cofactor ring memoizes."""
        from repro.rings import REAL_RING

        def numeric(ring):
            lifting = Lifting(ring, {v: (lambda x: x + 1) for v in "ABCDE"})
            return Query("Qnum", PAPER_SCHEMAS, ring=ring, lifting=lifting)

        def matrix():
            ring = SquareMatrixRing(2)

            def lift(x):
                return np.eye(2) + 0.1 * x * np.array([[0.0, 1], [0, 0]])

            return Query(
                "Qmat", PAPER_SCHEMAS, ring=ring,
                lifting=Lifting(ring, {v: lift for v in "ABCDE"}),
            )

        order = paper_variable_order()
        for query in (numeric(INT_RING), numeric(REAL_RING), matrix()):
            engine = FIVMEngine(query, order)
            assert not engine._memo_sites
            assert engine.memo_sizes() == {}
            for program in engine._programs.values():
                assert "_memo" not in program.source_text
        control = FIVMEngine(lifted_query(), order)
        assert sorted(control._memo_sites) == [
            "V@A_RST:child0", "V@A_RST:child1", "V@C_ST:child1",
        ]
        assert "_memo" in control._programs[
            ("V@C_ST", ("child", 1))
        ].source_text
        oracle = FIVMEngine(lifted_query(), order, backend="interpreter")
        assert not oracle._memo_sites, "the reference never memoizes"

    def test_columnar_siblings_bind_no_memo(self, rng):
        """A columnar view builds a fresh payload per read, so identity
        can never validate: no memo is bound, results match dict storage."""
        order = paper_variable_order()
        columnar = make_engine(
            "scalar", lifted_query(), order, storage="columnar"
        )
        plain = make_engine("scalar", lifted_query(), order)
        assert plain._memo_sites and not columnar._memo_sites
        for program in columnar._programs.values():
            assert not program.memo_sites
            assert "_memo" not in program.source_text
        for _ in range(40):
            rel = rng.choice(list(PAPER_SCHEMAS))
            delta = random_delta(
                rng, rel, PAPER_SCHEMAS[rel], plain.query.ring, domain=3
            )
            root_c = columnar.apply_update(delta.copy())
            assert root_c.same_as(plain.apply_update(delta))
        for name, view in plain.views.items():
            assert columnar.views[name].same_as(view), name

    def test_shards_sharing_a_library_hold_their_own_memos(self):
        from repro.core.sharded import ShardedFIVMEngine

        sharded = ShardedFIVMEngine(
            lifted_query(), paper_variable_order(), shards=2,
            executor="inline",
        )
        first, second = sharded._exec.engines
        key = ("V@C_ST", ("child", 1))
        assert (
            first._programs[key]._fn.__code__
            is second._programs[key]._fn.__code__
        ), "fixture: the shards must share generated code"
        for site, (memo, sibling) in first._memo_sites.items():
            other_memo, other_sibling = second._memo_sites[site]
            assert memo is not other_memo
            assert sibling is first.views[sibling.name]
            assert other_sibling is second.views[sibling.name]
        ring = first.query.ring
        for rel, row, mult in SIBLING_REWRITES[:5]:
            first.apply_update(Relation(
                rel, PAPER_SCHEMAS[rel], ring, {row: ring.from_int(mult)}
            ))
        assert admitted(first, "V@C_ST:child1") == {(1,)}
        assert all(n == 0 for n, _ in second.memo_sizes().values())

    @pytest.mark.parametrize("form", FORMS)
    def test_partial_root_with_evictions(self, form, rng):
        """Memoized interior triggers under a partially materialized root
        whose LRU keeps evicting: served keys equal full maintenance."""
        from repro.core import ViewClient

        order = paper_variable_order()
        full = FIVMEngine(
            lifted_query(free=("A",)), order, backend="interpreter"
        )
        part = make_engine(
            form, lifted_query(free=("A",)), order,
            materialization="partial", partial_budget=40,
        )
        if form == "scalar":
            assert "V@C_ST:child1" in part._memo_sites
        client = ViewClient(part)
        root = part.tree.root.name
        ring = part.query.ring
        for step in range(60):
            rel = rng.choice(list(PAPER_SCHEMAS))
            delta = random_delta(rng, rel, PAPER_SCHEMAS[rel], ring, domain=3)
            full.apply_update(delta.copy())
            part.apply_update(delta)
            for a in range(3):
                assert ring.eq(
                    client.lookup(root, (a,)), full.views[root].payload((a,))
                ), (step, a)
        assert client.stats(root)["evictions"] > 0
