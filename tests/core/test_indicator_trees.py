"""Tests for indicator projections in view trees (Appendix B)."""

import random

import pytest

from repro.core import (
    FIVMEngine,
    Query,
    add_indicator_projections,
    build_view_tree,
)
from repro.data import Database, Relation
from repro.rings import INT_RING

from tests.conftest import chain_order, make_database, random_delta, recompute

TRIANGLE_SCHEMAS = {"R": ("A", "B"), "S": ("B", "C"), "T": ("C", "A")}


def triangle_query():
    return Query("tri", TRIANGLE_SCHEMAS, ring=INT_RING)


def triangle_tree(with_indicators=True):
    tree = build_view_tree(triangle_query(), chain_order(("A", "B", "C")))
    if with_indicators:
        add_indicator_projections(tree)
    return tree


class TestAdornment:
    def test_indicator_added_at_cycle_view(self):
        """Figure 9: ∃_{A,B} R lands below the view joining S and T."""
        tree = triangle_tree()
        hosts = [n for n in tree.nodes if n.indicators]
        assert len(hosts) == 1
        host = hosts[0]
        assert host.relations == frozenset({"S", "T"})
        spec = host.indicators[0]
        assert spec.base_name == "R"
        assert set(spec.attrs) == {"A", "B"}

    def test_acyclic_queries_get_no_indicators(self):
        q = Query(
            "chain",
            {"R": ("A", "B"), "S": ("B", "C"), "T": ("C", "D")},
            ring=INT_RING,
        )
        tree = add_indicator_projections(build_view_tree(q))
        assert all(not n.indicators for n in tree.nodes)

    def test_pretty_shows_indicator(self):
        tree = triangle_tree()
        assert "∃" in tree.pretty()


class TestTriangleMaintenance:
    def _random_edge_delta(self, rng, rel):
        delta = Relation(rel, TRIANGLE_SCHEMAS[rel], INT_RING)
        for _ in range(rng.randint(1, 3)):
            key = (rng.randint(0, 4), rng.randint(0, 4))
            delta.add(key, rng.choice([1, 1, 2, -1]))
        return delta

    @pytest.mark.parametrize("with_indicators", [True, False])
    def test_matches_recomputation_under_churn(self, rng, with_indicators):
        q = triangle_query()
        tree = triangle_tree(with_indicators)
        engine = FIVMEngine(q, tree=tree)
        db = Database(
            Relation(rel, schema, INT_RING)
            for rel, schema in TRIANGLE_SCHEMAS.items()
        )
        for _ in range(80):
            rel = rng.choice(list(TRIANGLE_SCHEMAS))
            delta = self._random_edge_delta(rng, rel)
            engine.apply_update(delta.copy())
            db.apply_update(delta)
            expected = recompute(q, db, chain_order(("A", "B", "C")))
            assert engine.result().same_as(expected), f"after δ{rel}"

    def test_indicator_constrains_view_size(self):
        """Example B.1/B.3: without the indicator the S⊗T view is O(N²);
        with it, it is bounded by the triangle-participating pairs."""
        rng = random.Random(2)
        n = 12
        # S and T dense-ish, R sparse: the indicator filters hard.
        rows = {
            "S": [(b, c) for b in range(n) for c in range(n) if rng.random() < 0.5],
            "T": [(c, a) for c in range(n) for a in range(n) if rng.random() < 0.5],
            "R": [(a, b) for a in range(n) for b in range(n) if rng.random() < 0.05],
        }
        q = triangle_query()

        def st_view_size(with_ind):
            tree = triangle_tree(with_ind)
            engine = FIVMEngine(q, tree=tree, materialize="all")
            db = make_database(TRIANGLE_SCHEMAS, INT_RING, rows)
            engine.initialize(db)
            host = next(
                node for node in tree.nodes
                if not node.is_leaf and node.relations == frozenset({"S", "T"})
            )
            return len(engine.views[host.name])

        assert st_view_size(True) < st_view_size(False) / 3

    def test_initialize_with_indicators(self):
        rows = {
            "R": [(1, 2), (2, 3)],
            "S": [(2, 5), (3, 5)],
            "T": [(5, 1), (5, 2)],
        }
        q = triangle_query()
        engine = FIVMEngine(
            q, tree=triangle_tree(), db=make_database(TRIANGLE_SCHEMAS, INT_RING, rows)
        )
        expected = recompute(
            q,
            make_database(TRIANGLE_SCHEMAS, INT_RING, rows),
            chain_order(("A", "B", "C")),
        )
        assert engine.result().same_as(expected)
        # Triangles: (1,2,5) via R(1,2),S(2,5),T(5,1) and (2,3,5).
        assert engine.result().payload(()) == 2

    def test_loop4_with_chord(self):
        """A 4-cycle with a chord: the chord relation feeds indicators in
        multiple subqueries; maintenance must still match recomputation."""
        schemas = {
            "R1": ("A", "B"),
            "R2": ("B", "C"),
            "R3": ("C", "D"),
            "R4": ("D", "A"),
            "Chord": ("A", "C"),
        }
        q = Query("loop4", schemas, ring=INT_RING)
        order = chain_order(("A", "B", "C", "D"))
        tree = add_indicator_projections(build_view_tree(q, order))
        engine = FIVMEngine(q, tree=tree)
        rng = random.Random(5)
        db = Database(
            Relation(rel, schema, INT_RING) for rel, schema in schemas.items()
        )
        for _ in range(60):
            rel = rng.choice(list(schemas))
            delta = random_delta(rng, rel, schemas[rel], INT_RING, domain=3)
            engine.apply_update(delta.copy())
            db.apply_update(delta)
            assert engine.result().same_as(recompute(q, db, order)), rel
