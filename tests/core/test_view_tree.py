"""Tests for view-tree construction (Figure 3) and evaluation (Figure 2)."""

import random

import numpy as np
import pytest

from repro.core import Query, VariableOrder, build_view_tree, compute_view
from repro.core.view_tree import ViewNode
from repro.data import Relation, SchemaError
from repro.rings import INT_RING, REAL_RING, Lifting, SquareMatrixRing

from tests.conftest import (
    chain_order,
    PAPER_SCHEMAS,
    figure2_database,
    packed_evaluation,
    paper_variable_order,
)


def count_query(free=()):
    return Query("Q", PAPER_SCHEMAS, free=free, ring=INT_RING)


class TestFigure2:
    """The worked COUNT example: exact view contents from Figure 2d."""

    def setup_method(self):
        self.tree = build_view_tree(count_query(), paper_variable_order())
        self.results = self.tree.evaluate(figure2_database())

    def _view(self, fragment):
        for name, contents in self.results.items():
            if name.startswith(fragment):
                return contents
        raise AssertionError(f"no view named like {fragment}")

    def test_root_count(self):
        assert dict(self._view("V@A").items()) == {(): 10}

    def test_view_at_b(self):
        assert dict(self._view("V@B").items()) == {
            ("a1",): 2, ("a2",): 1, ("a3",): 1,
        }

    def test_view_at_c(self):
        assert dict(self._view("V@C").items()) == {("a1",): 4, ("a2",): 2}

    def test_view_at_d(self):
        assert dict(self._view("V@D").items()) == {
            ("c1",): 1, ("c2",): 2, ("c3",): 1,
        }

    def test_view_at_e(self):
        assert dict(self._view("V@E").items()) == {
            ("a1", "c1"): 2, ("a1", "c2"): 1, ("a2", "c2"): 1,
        }

    def test_keys_match_figure(self):
        by_prefix = {
            "V@A": (), "V@B": ("A",), "V@C": ("A",),
            "V@D": ("C",), "V@E": ("A", "C"),
        }
        for node in self.tree.inner_views():
            prefix = node.name.split("_")[0]
            assert node.keys == by_prefix[prefix], node


class TestStructure:
    def test_five_inner_views(self):
        tree = build_view_tree(count_query(), paper_variable_order())
        assert tree.view_count() == 5
        assert len(tree.leaves) == 3

    def test_path_to_root(self):
        """From T's leaf the parents lead V@D, V@C, V@A, and the engine's
        delta path for T steps through the same views."""
        from repro.core import FIVMEngine

        tree = build_view_tree(count_query(), paper_variable_order())
        leaf = tree.leaves["T"]
        path, node = [], leaf.parent
        while node is not None:
            path.append(node)
            node = node.parent
        assert [n.name.split("_")[0] for n in path] == ["V@D", "V@C", "V@A"]
        engine = FIVMEngine(count_query(), tree=tree)
        assert [step.node for step in engine._paths[leaf.name]] == path

    def test_parent_pointers(self):
        tree = build_view_tree(count_query(), paper_variable_order())
        assert tree.root.parent is None
        for node in tree.nodes:
            for child in node.children:
                assert child.parent is node

    def test_pretty_contains_all_views(self):
        tree = build_view_tree(count_query(), paper_variable_order())
        rendering = tree.pretty()
        for node in tree.inner_views():
            assert node.name in rendering

    def test_relations_sets(self):
        tree = build_view_tree(count_query(), paper_variable_order())
        assert tree.root.relations == frozenset({"R", "S", "T"})


class TestFreeVariables:
    def test_free_vars_kept_in_keys(self):
        """Example 2.3's Q[A, C]: group-by keys survive to the root."""
        tree = build_view_tree(count_query(free=("A", "C")), paper_variable_order())
        assert set(tree.root.keys) == {"A", "C"}
        results = tree.evaluate(figure2_database())
        root = results[tree.root.name]
        # COUNT per (A, C) group over the join:
        # (a1,c1): 2 B-values × 2 E-values × 1 D-value = 4, etc.
        assert dict(root.items()) == {
            ("a1", "c1"): 4,
            ("a1", "c2"): 4,
            ("a2", "c2"): 2,
        }

    def test_identical_views_elided(self):
        """Free variables on top produce identical views, stored once."""
        order = VariableOrder.from_spec(
            ("A", [("C", ["B", "D", "E"])])
        )
        query = count_query(free=("A", "C"))
        tree = build_view_tree(query, order)
        # Without elision there would be views at A and C with equal keys.
        names = [n.name for n in tree.inner_views()]
        assert len(names) == len(set(names))
        keys = [n.keys for n in tree.inner_views()]
        assert keys.count(("A", "C")) <= len(query.relations)
        results = tree.evaluate(figure2_database())
        assert results[tree.root.name].payload(("a1", "c1")) == 4


class TestChainCollapsing:
    def test_wide_relation_collapses(self):
        query = Query(
            "wide", {"W": ("K", "P1", "P2", "P3", "P4")}, ring=INT_RING
        )
        order = chain_order(("K", "P1", "P2", "P3", "P4"))
        collapsed = build_view_tree(query, order, collapse_chains=True)
        expanded = build_view_tree(query, order, collapse_chains=False)
        assert collapsed.view_count() < expanded.view_count()
        # Collapsing must not change results.
        db_rows = [(1, 2, 3, 4, 5), (1, 6, 7, 8, 9), (2, 1, 1, 1, 1)]
        from tests.conftest import make_database

        db = make_database({"W": query.schema_of("W")}, INT_RING, {"W": db_rows})
        r1 = collapsed.evaluate(db)[collapsed.root.name]
        r2 = expanded.evaluate(db)[expanded.root.name]
        assert r1.same_as(r2)

    def test_collapse_preserves_lifting_order(self):
        """Lifted marginalization gives identical results when collapsed."""
        query_args = dict(
            relations={"W": ("K", "P1", "P2")}, free=("K",), ring=INT_RING
        )
        lifting = Lifting(INT_RING, {"P1": lambda x: x, "P2": lambda x: x + 1})
        q = Query("wide", lifting=lifting, **query_args)
        order = chain_order(("K", "P1", "P2"))
        from tests.conftest import make_database

        db = make_database({"W": q.schema_of("W")}, INT_RING, {"W": [(1, 2, 3), (1, 4, 5)]})
        collapsed = build_view_tree(q, order, collapse_chains=True)
        expanded = build_view_tree(q, order, collapse_chains=False)
        r1 = collapsed.evaluate(db)[collapsed.root.name]
        r2 = expanded.evaluate(db)[expanded.root.name]
        assert r1.same_as(r2)
        assert r1.payload((1,)) == 2 * (3 + 1) + 4 * (5 + 1)


class TestEdgeCases:
    def test_single_relation_query(self):
        q = Query("one", {"R": ("A", "B")}, free=("A",), ring=INT_RING)
        tree = build_view_tree(q)
        from tests.conftest import make_database

        db = make_database({"R": ("A", "B")}, INT_RING, {"R": [(1, 2), (1, 3)]})
        result = tree.evaluate(db)[tree.root.name]
        assert dict(result.items()) == {(1,): 2}

    def test_disconnected_query_synthetic_root(self):
        q = Query("d", {"R": ("A",), "S": ("B",)}, ring=INT_RING)
        tree = build_view_tree(q)
        from tests.conftest import make_database

        db = make_database(
            {"R": ("A",), "S": ("B",)}, INT_RING,
            {"R": [(1,), (2,)], "S": [(5,), (6,), (7,)]},
        )
        result = tree.evaluate(db)[tree.root.name]
        assert result.payload(()) == 6  # 2 × 3 Cartesian count

    def test_invalid_order_rejected(self):
        q = count_query()
        bad = VariableOrder.from_spec(("A", [("B", ["E"]), ("C", ["D"])]))
        with pytest.raises(SchemaError):
            build_view_tree(q, bad)

    def test_example61_tree_shape(self):
        """Example 6.1: chain of four matrices, ω = X1-X5-X3-{X2,X4}."""
        from repro.apps import chain_query, chain_variable_order

        q = chain_query(4)
        vo = chain_variable_order(4)
        tree = build_view_tree(q, vo)
        # Root keys are the free endpoints; inner views marginalize X2/X4/X3.
        assert set(tree.root.keys) == {"X1", "X5"}
        marginalized = {
            v for node in tree.inner_views() for v in node.marginalized
        }
        assert marginalized == {"X2", "X3", "X4"}
        assert tree.view_count() == 3  # V@X2, V@X4, V@X3 (X5/X1 elided)


def path_query(n):
    """R_i(X_i, X_{i+1}) for i < n - 1, over the one-path order X0 → … →
    X_{n-1}: each view below the root keyed by its parent variable."""
    variables = [f"X{i}" for i in range(n)]
    relations = {
        f"R{i}": (variables[i], variables[i + 1]) for i in range(n - 1)
    }
    return Query("path", relations, ring=INT_RING), chain_order(variables)


class TestPlanningPasses:
    """A variable order derives its tables once, when it is built, and
    the view tree derives every dep(X) from them in one bottom-up pass."""

    def test_path_tree_calls_neither_dep_nor_subtree_walks(self, monkeypatch):
        query, order = path_query(201)
        calls = []
        for method in ("dep", "subtree_vars"):
            original = getattr(VariableOrder, method)

            def spy(self, *args, _original=original, _method=method):
                calls.append(_method)
                return _original(self, *args)

            monkeypatch.setattr(VariableOrder, method, spy)
        tree = build_view_tree(query, order)
        assert calls == []
        # X0 and X1 share one view (no relation is anchored at X0).
        assert [node.keys for node in tree.inner_views()] == [()] + [
            (f"X{i}",) for i in range(1, 200)
        ]
        assert order.dep(query, "X7") == {"X6"}  # the spies are live
        assert calls == ["dep", "subtree_vars"]

    def test_engines_over_one_order_derive_its_tables_once(self, monkeypatch):
        from repro.apps.regression import cofactor_query
        from repro.core import FIVMEngine
        from repro.datasets import retailer

        built = []
        original = VariableOrder._tables

        def spy(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(VariableOrder, "_tables", spy)
        order = retailer.variable_order()
        assert built == [order]
        query = cofactor_query("r", retailer.SCHEMAS, retailer.ALL_VARIABLES)
        first = FIVMEngine(query, order)
        second = FIVMEngine(query, order)
        assert built == [order]
        assert first.tree.order is second.tree.order is order


def joined_then_marginalized(node, inputs, query):
    """The unfused reference: list the whole join, then sum out."""
    current = inputs[0]
    for other in inputs[1:]:
        current = current.join(other)
    current = current.marginalize(node.marginalized, query.lifting.table())
    return current.reorder(node.keys, name=node.name)


class TestComputeView:
    """``compute_view`` fuses the node's marginalization into its last
    join; on every ring that equals joining everything and summing out
    afterwards, in the same payload order."""

    def node(self, keys, marginalized):
        return ViewNode("V", keys, frozenset("RST"), [], marginalized)

    def inputs(self, ring, payload, rows=7):
        rng = random.Random(rows)
        schemas = [("A", "B"), ("B", "C"), ("C", "A", "D")]
        return [
            Relation(name, schema, ring, {
                tuple(rng.randrange(3) for _ in schema): payload(rng)
                for _ in range(rows)
            })
            for name, schema in zip("RST", schemas)
        ]

    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("ring, payload", [
        (INT_RING, lambda rng: rng.choice([-2, 1, 3])),
        (REAL_RING, lambda rng: rng.choice([-1.5, 0.5, 2.0])),
    ], ids=["Z", "R"])
    def test_three_children_fold_left_to_right(self, ring, payload, packed):
        lifting = Lifting(ring, {"B": lambda b: ring.from_int(b + 1)})
        query = Query("Q", {"R": ("A", "B"), "S": ("B", "C"), "T": ("C", "A", "D")},
                      free=("D", "A"), ring=ring, lifting=lifting)
        node = self.node(("D", "A"), ("C", "B"))
        inputs = self.inputs(ring, payload, rows=20)
        with packed_evaluation(packed):
            view = compute_view(node, inputs, query)
        with packed_evaluation(False):
            reference = joined_then_marginalized(node, inputs, query)
        assert view.name == "V" and view.schema == ("D", "A")
        assert view.same_as(reference) and len(view)

    def test_an_indicator_joins_after_the_children(self):
        query = Query("Q", {"R": ("A", "B"), "S": ("B", "C")}, ring=INT_RING)
        node = self.node(("A",), ("B", "C"))
        r, s, _ = self.inputs(INT_RING, lambda rng: rng.choice([1, 2]))
        exists = Relation("∃T", ("C", "A"), INT_RING,
                          {(c, a): 1 for c in range(2) for a in range(3)})
        view = compute_view(node, [r, s], query, [exists])
        reference = joined_then_marginalized(node, [r, s, exists], query)
        assert view.same_as(reference) and len(view)
        assert not view.same_as(compute_view(node, [r, s], query))

    def test_a_non_commutative_ring_keeps_child_order(self):
        ring = SquareMatrixRing(2)
        np_rng = np.random.default_rng(3)
        lifting = Lifting(ring, {"B": lambda b: ring.from_int(b + 1) + ring.random(
            np.random.default_rng(b))})
        query = Query("Q", {"R": ("A", "B"), "S": ("B", "C"), "T": ("C", "A", "D")},
                      free=("A", "D"), ring=ring, lifting=lifting)
        node = self.node(("A", "D"), ("B", "C"))
        inputs = self.inputs(ring, lambda rng: ring.random(np_rng))
        view = compute_view(node, inputs, query)
        assert view.same_as(joined_then_marginalized(node, inputs, query))
        flipped = compute_view(node, inputs[::-1], query)
        assert len(view) and not view.same_as(flipped)

    def test_a_single_child_is_marginalized_or_copied(self):
        query = Query("Q", {"R": ("A", "B")}, free=("A",), ring=INT_RING)
        (r, _, _) = self.inputs(INT_RING, lambda rng: 1)
        summed = compute_view(self.node(("A",), ("B",)), [r], query)
        assert summed.same_as(r.marginalize(("B",))) and summed.name == "V"
        copy = compute_view(self.node(("B", "A"), ()), [r], query)
        assert copy.schema == ("B", "A") and copy.same_as(r.reorder(("B", "A")))
        same = compute_view(self.node(("A", "B"), ()), [r], query)
        assert same is not r and same._data is not r._data and same.same_as(r)

    def test_keys_are_checked_before_anything_is_joined(self, monkeypatch):
        query = Query("Q", {"R": ("A", "B"), "S": ("B", "C")}, ring=INT_RING)
        r, s, _ = self.inputs(INT_RING, lambda rng: 1)
        monkeypatch.setattr(Relation, "join_project", None)  # never reached
        with pytest.raises(SchemaError, match="does not match keys"):
            compute_view(self.node(("A", "D"), ("B",)), [r, s], query)
        with pytest.raises(SchemaError, match="does not match keys"):
            compute_view(self.node(("A",), ("B",)), [r, s], query)
        with pytest.raises(ValueError, match="no children"):
            compute_view(self.node(("A",), ()), [], query)
