"""View-tree minimization: a view that copies its only child is never
stored or maintained (``repro.core.view_tree.elide_copies``).

Everything here is a count or an equality — stored views, logical
scalars, view writes, trigger runs — so none of it depends on a clock.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import ConjunctiveQuery, MatrixChainIVM
from repro.apps.regression import cofactor_query
from repro.bench.memory import relation_scalars, strategy_scalars
from repro.core import (
    FIVMEngine,
    Query,
    VariableOrder,
    add_indicator_projections,
    build_view_tree,
)
from repro.core.view_tree import ViewNode, elide_copies, is_copy
from repro.data import Relation
from repro.datasets import housing, retailer, round_robin_stream, twitter
from repro.rings import INT_RING

from tests.conftest import make_database, random_rows, recompute


def housing_join(mode="factorized", **kwargs):
    workload = housing.generate(scale=2, postcodes=4, seed=5)
    query = ConjunctiveQuery(
        "housing", workload.schemas, housing.ALL_VARIABLES, mode=mode,
        order=workload.variable_order, **kwargs,
    )
    return workload, query


def load(query, workload):
    stream = round_robin_stream(workload.schemas, workload.tables, batch_size=7)
    for delta in stream.deltas(query.ring):
        query.apply_update(delta)


class TestHousingStar:
    def test_tree_before_and_after(self):
        """Key factorization leaves one `V@…` view per relation with
        nothing to marginalize; each one is its relation."""
        workload = housing.generate(scale=1, postcodes=2)
        query = Query("housing", workload.schemas, ring=INT_RING)
        tree = build_view_tree(query, workload.variable_order)
        assert tree.view_count() == 7
        _, factorized = housing_join()
        minimized = factorized.engine.tree
        assert minimized.view_count() == 1
        assert {c.leaf_of for c in minimized.root.children} == set(
            workload.schemas
        )
        house = minimized.leaves["House"]
        assert house.parent is minimized.root
        assert set(house.at_vars) == set(housing.SCHEMAS["House"][1:])

    def test_stores_the_relations_and_the_root(self):
        workload, query = housing_join()
        load(query, workload)
        engine = query.engine
        assert len(engine.views) == len(workload.schemas) + 1
        assert set(engine.views) == set(workload.schemas) | {engine.tree.root.name}
        base = workload.database(INT_RING)
        expected = sum(
            relation_scalars(base.relation(rel)) for rel in workload.schemas
        ) + relation_scalars(engine.result())
        assert strategy_scalars(engine) == expected
        assert query.memory() == expected
        for rel in workload.schemas:
            assert engine.views[rel].same_as(base.relation(rel))

    def test_two_writes_and_one_trigger_run_per_single_tuple_update(
        self, monkeypatch
    ):
        workload, query = housing_join()
        load(query, workload)
        engine = query.engine
        writes, runs = [], []
        write_view, delta_at_node = engine._write_view, engine._delta_at_node
        monkeypatch.setattr(
            engine, "_write_view",
            lambda name, delta: writes.append(name) or write_view(name, delta),
        )
        monkeypatch.setattr(
            engine, "_delta_at_node",
            lambda node, source, delta: runs.append(node.name)
            or delta_at_node(node, source, delta),
        )
        for rel, schema in workload.schemas.items():
            del writes[:], runs[:]
            row = workload.tables[rel][0]
            query.apply_update(Relation.from_tuples(rel, schema, query.ring, [row]))
            assert writes == [rel, engine.tree.root.name]
            assert runs == [engine.tree.root.name]

    def test_listing_keys_stores_the_relation_in_place_of_its_copy(self):
        """With every variable free the view over a leaf is a copy under
        `materialize="auto"` too: µ kept the copy and skipped the leaf;
        now the leaf sits under the root and is what µ keeps."""
        workload, listing = housing_join("listing_keys")
        load(listing, workload)
        engine = listing.engine
        assert set(engine.views) == set(workload.schemas) | {engine.tree.root.name}
        _, factorized = housing_join()
        load(factorized, workload)
        assert factorized.memory() <= listing.memory()
        assert listing.to_listing().same_as(
            factorized.to_listing().rename({}, name="result")
        )


def _retailer():
    workload = retailer.generate(scale=0.02)
    return FIVMEngine(
        Query("retailer", workload.schemas, ring=INT_RING),
        workload.variable_order,
    )


def _retailer_cofactor():
    workload = retailer.generate(scale=0.02)
    return FIVMEngine(
        cofactor_query("retailer", workload.schemas, workload.numeric_variables),
        workload.variable_order,
    )


def _housing_count():
    workload = housing.generate(scale=1, postcodes=3)
    return FIVMEngine(
        Query("housing", workload.schemas, ring=INT_RING),
        workload.variable_order,
    )


def _twitter_triangle():
    workload = twitter.generate(n_nodes=20, n_edges=60, seed=3)
    query = Query("tri", workload.schemas, ring=INT_RING)
    tree = add_indicator_projections(
        build_view_tree(query, workload.variable_order)
    )
    return FIVMEngine(query, tree=tree)


def _matrix_chain():
    rng = np.random.default_rng(0)
    return MatrixChainIVM([rng.random((3, 3)) for _ in range(3)]).engine


def _conjunctive(mode):
    def build():
        return housing_join(mode)[1].engine

    return build


ENGINES = {
    "retailer": _retailer,
    "retailer-cofactor": _retailer_cofactor,
    "housing": _housing_count,
    "twitter-triangle": _twitter_triangle,
    "matrix-chain": _matrix_chain,
    "conjunctive-factorized": _conjunctive("factorized"),
    "conjunctive-listing-keys": _conjunctive("listing_keys"),
    "conjunctive-listing-payloads": _conjunctive("listing_payloads"),
}

#: Inner views of the engine's tree; the paper's counts where it gives them.
VIEW_COUNTS = {"retailer": 9, "retailer-cofactor": 9, "housing": 7}


@pytest.mark.parametrize("name", ENGINES)
def test_no_maintained_view_copies_its_only_child(name):
    engine = ENGINES[name]()
    tree = engine.tree
    for node in tree.inner_views():
        if node is tree.root:
            continue
        # Spelled out, not `is_copy`: the invariant, not the implementation.
        assert not (
            len(node.children) == 1
            and not node.marginalized
            and not node.indicators
            and set(node.keys) == set(node.children[0].keys)
        ), node
    # Each stored relation once, under the name of a node of the tree.
    assert set(engine.views) <= {node.name for node in tree.nodes}
    assert len({id(view) for view in engine.views.values()}) == len(engine.views)
    if name in VIEW_COUNTS:
        assert tree.view_count() == VIEW_COUNTS[name]


def test_elision_is_idempotent_and_keeps_the_root():
    """A root over a single relation copies it and stays: it is the
    result.  A second pass finds nothing left to drop."""
    query = Query("Q", {"R": ("A", "B")}, free=("A", "B"), ring=INT_RING)
    tree = build_view_tree(query, VariableOrder.chain(("A", "B")))
    assert is_copy(tree.root)
    names = [node.name for node in tree.nodes]
    assert [node.name for node in elide_copies(tree).nodes] == names
    engine = FIVMEngine(query, tree=tree)
    assert engine.view_count() == 1
    engine.apply_update(Relation.from_tuples("R", ("A", "B"), INT_RING, [(1, 2)]))
    assert dict(engine.result().items()) == {(1, 2): 1}


def test_what_makes_a_view_a_copy():
    """One child, nothing marginalized, no indicator, the same key set
    (in any order) — and each condition is needed."""
    def view(keys=("B", "A"), children=1, **kwargs):
        leaves = [
            ViewNode(f"R{i}", ("A", "B"), frozenset([f"R{i}"]), [], leaf_of=f"R{i}")
            for i in range(children)
        ]
        relations = frozenset(leaf.leaf_of for leaf in leaves)
        return ViewNode("V", keys, relations, leaves, **kwargs)

    assert is_copy(view())
    assert not is_copy(view(children=2))
    assert not is_copy(view(keys=("A",), marginalized=("B",)))
    assert not is_copy(view(keys=("A", "B", "C")))
    filtered = view()
    filtered.indicators.append(object())
    assert not is_copy(filtered)
    assert not is_copy(filtered.children[0])


class TestFreeVariableDirectlyOverALeaf:
    """`materialize="auto"`: Q(A, B, C) = R(A, B), S(A, C).  The views at
    B and C copy R and S; the tree the engine maintains is the root over
    the two relations."""

    SCHEMAS = {"R": ("A", "B"), "S": ("A", "C")}

    def query(self):
        return Query("Q", self.SCHEMAS, free=("A", "B", "C"), ring=INT_RING)

    def order(self):
        return VariableOrder.from_spec(("A", ["B", "C"]))

    def test_view_counts(self):
        tree = build_view_tree(self.query(), self.order())
        assert tree.view_count() == 3  # the paper's τ: one view per variable
        engine = FIVMEngine(self.query(), self.order())
        assert engine.tree.view_count() == 1
        assert engine.view_count() == 1
        assert engine.materialized_names() == ("R", "S", engine.tree.root.name)

    @pytest.mark.parametrize("updatable", [None, ("R",)])
    def test_maintenance_matches_recomputation(self, rng, updatable):
        rows = {rel: random_rows(rng, schema, 12, domain=4)
                for rel, schema in self.SCHEMAS.items()}
        db = make_database(self.SCHEMAS, INT_RING, rows)
        engine = FIVMEngine(
            self.query(), self.order(), updatable=updatable, db=db
        )
        if updatable:
            # µ(τ, {R}): R's sibling S and the root; R itself has no reader.
            assert engine.materialized_names() == ("S", engine.tree.root.name)
        for _ in range(20):
            row = (rng.randrange(4), rng.randrange(4))
            delta = Relation.from_tuples(
                "R", ("A", "B"), INT_RING, [row], rng.choice([1, -1]))
            db.relation("R").absorb(delta)
            engine.apply_update(delta)
        assert engine.result().same_as(recompute(self.query(), db, self.order()))


class TestNonCanonicalAttributeOrder:
    """A relation declared with the join attribute last: as the view at
    its own variables it is probed on P in the middle of its stored key,
    and the reader brings each bucket into prefix-then-own order."""

    SCHEMAS = {"R1": ("X", "P", "W"), "R2": ("Y", "P"), "R3": ("P", "Z")}
    FREE = ("P", "X", "W", "Y", "Z")

    def pair(self):
        order = VariableOrder.from_spec(("P", [("X", ["W"]), "Y", "Z"]))
        return {
            mode: ConjunctiveQuery(
                "Q", self.SCHEMAS, self.FREE, mode=mode, order=order)
            for mode in ("factorized", "listing_keys")
        }

    def test_the_relation_is_the_stored_view(self):
        query = self.pair()["factorized"]
        engine = query.engine
        assert engine.views["R1"].schema == ("X", "P", "W")
        assert engine.tree.view_count() == 1
        reordered = {
            plan_view.view.name: plan_view.canonical is not None
            for plan_view in query._enumeration_plan().tail
        }
        assert reordered == {"R1": True, "R2": True, "R3": False}

    def test_enumeration_and_size_match_listing_under_churn(self, rng):
        pair = self.pair()
        fact, listing = pair["factorized"], pair["listing_keys"]
        assert fact.output_schema == listing.output_schema
        present = {rel: [] for rel in self.SCHEMAS}
        for step in range(120):
            rel = rng.choice(list(self.SCHEMAS))
            if present[rel] and rng.random() < 0.25:  # delete a stored row
                row, multiplicity = present[rel].pop(), -1
            else:
                row = tuple(rng.randrange(3) for _ in self.SCHEMAS[rel])
                multiplicity = 1
                present[rel].append(row)
            for query in pair.values():
                query.apply_update(Relation.from_tuples(
                    rel, self.SCHEMAS[rel], query.ring, [row], multiplicity))
            if step % 10 == 9:
                expected = dict(listing.result_relation().items())
                assert dict(fact.enumerate()) == expected
                assert fact.result_size() == len(expected)
        assert fact.result_size() > 0


class TestFactorizedMaterialization:
    """Factorized mode stores µ(τ, U) and the views enumeration reads —
    not every node of the tree."""

    def test_a_relation_nothing_reads_is_not_kept(self):
        """Q(A) = R(A, B): the root sums B out of each delta; neither a
        trigger nor the reader ever looks at R."""
        query = ConjunctiveQuery(
            "Q", {"R": ("A", "B")}, ("A",), order=VariableOrder.chain(("A", "B")))
        assert set(query.engine.views) == {query.engine.tree.root.name}
        query.apply_update(Relation.from_tuples(
            "R", ("A", "B"), query.ring, [(1, 1), (1, 2), (2, 1)]))
        assert dict(query.enumerate()) == {(1,): 2, (2,): 1}
        assert query.memory() == 4

    def test_static_relations_the_reader_binds_from_stay_stored(self):
        """U = {R1}: µ keeps the root and R1's sibling R2 and skips R1,
        but R1 is the view that binds X."""
        schemas = {"R1": ("P", "X"), "R2": ("P", "Y")}
        order = VariableOrder.from_spec(("P", ["X", "Y"]))
        query = ConjunctiveQuery(
            "Q", schemas, ("P", "X", "Y"), order=order, updatable=["R1"])
        engine = query.engine
        assert set(engine.views) == {"R1", "R2", engine.tree.root.name}
        engine.initialize(make_database(
            schemas, query.ring, {"R1": [], "R2": [(0, 5), (0, 6)]}))
        query.apply_update(Relation.from_tuples(
            "R1", schemas["R1"], query.ring, [(0, 1)]))
        assert dict(query.enumerate()) == {(0, 1, 5): 1, (0, 1, 6): 1}

    def test_unknown_view_names_are_rejected(self):
        query = Query("Q", {"R": ("A", "B")}, ring=INT_RING)
        with pytest.raises(ValueError, match="names of views"):
            FIVMEngine(query, materialize=["V@nowhere"])
        engine = FIVMEngine(query, updatable=(), materialize=["R"])
        assert set(engine.views) == {"R", engine.tree.root.name}
