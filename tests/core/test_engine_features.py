"""Engine feature tests: group-aware joins and plans."""



from repro.core import FIVMEngine, Query, VariableOrder
from repro.data import Database, Relation
from repro.rings import INT_RING, SquareMatrixRing

import numpy as np

from tests.conftest import (
    PAPER_SCHEMAS,
    paper_variable_order,
    random_delta,
    recompute,
)


class TestGroupAwareEquivalence:
    def test_fuzz_on_paper_query(self, rng):
        """group_aware on/off must produce identical maintained results."""
        q = Query("Q", PAPER_SCHEMAS, free=("A",), ring=INT_RING)
        order = paper_variable_order()
        on = FIVMEngine(q, order, group_aware=True)
        off = FIVMEngine(q, order, group_aware=False)
        for _ in range(60):
            rel = rng.choice(list(PAPER_SCHEMAS))
            delta = random_delta(rng, rel, PAPER_SCHEMAS[rel], INT_RING)
            on.apply_update(delta.copy())
            off.apply_update(delta)
            assert on.result().same_as(off.result())

    def test_non_commutative_with_aggregated_probes(self, rng):
        """Bucket sums must preserve payload multiplication order."""
        ring = SquareMatrixRing(2)
        from repro.rings import Lifting

        lifting = Lifting(ring, {
            "B": lambda x: np.eye(2) + 0.1 * x * np.array([[0.0, 1], [0, 0]]),
            "E": lambda x: np.eye(2) + 0.1 * x * np.array([[0.0, 0], [1, 0]]),
        })
        q = Query("Q", PAPER_SCHEMAS, ring=ring, lifting=lifting)
        order = paper_variable_order()
        engine = FIVMEngine(q, order, group_aware=True)
        db = Database(
            Relation(rel, schema, ring) for rel, schema in PAPER_SCHEMAS.items()
        )
        for _ in range(20):
            rel = rng.choice(list(PAPER_SCHEMAS))
            delta = random_delta(rng, rel, PAPER_SCHEMAS[rel], ring, domain=3)
            engine.apply_update(delta.copy())
            db.apply_update(delta)
            assert engine.result().same_as(recompute(q, db, order))

    def test_lifted_variable_blocks_aggregation(self):
        """A sibling whose extension feeds a lifting function must not be
        read as a pre-aggregated sum."""
        from repro.rings import Lifting

        ring = INT_RING
        schemas = {"R": ("P", "X"), "S": ("P", "Y")}
        lifting = Lifting(ring, {"Y": lambda y: y})
        q = Query("liftstar", schemas, free=("P",), ring=ring, lifting=lifting)
        order = VariableOrder.from_spec(("P", ["X", "Y"]))
        engine = FIVMEngine(q, order)
        engine.apply_update(Relation("S", ("P", "Y"), ring, {(1, 5): 1, (1, 7): 1}))
        engine.apply_update(Relation("R", ("P", "X"), ring, {(1, 0): 1}))
        # SUM(Y) over the join: 5 + 7 = 12.
        assert engine.result().payload((1,)) == 12


class TestPlanIntrospection:
    def test_plans_exist_only_for_live_sources(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        engine = FIVMEngine(q, paper_variable_order(), updatable={"T"})
        # No plan should reference subtrees that can never emit deltas.
        for (node_name, source), plan in engine._plans.items():
            node = next(n for n in engine.tree.nodes if n.name == node_name)
            kind, idx = source
            assert kind == "child"
            assert "T" in node.children[idx].relations

    def test_all_probe_indexes_registered(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        engine = FIVMEngine(q, paper_variable_order())
        for (node_name, _), plan in engine._plans.items():
            node = next(n for n in engine.tree.nodes if n.name == node_name)
            for step in plan:
                target = engine._plan_target_relation(node, step)
                # Lookup must not raise for any planned probe.
                target.lookup(step.probe_attrs, tuple(
                    None for _ in step.probe_attrs
                ))
