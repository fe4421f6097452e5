"""End-to-end stream maintenance over the paper's workloads."""


from repro.apps import CofactorModel, ConjunctiveQuery
from repro.baselines import RecursiveIVM
from repro.core import (
    FIVMEngine,
    Query,
    add_indicator_projections,
    build_view_tree,
)
from repro.datasets import housing, retailer, round_robin_stream, twitter
from repro.rings import INT_RING

from tests.conftest import recompute


class TestRetailerStream:
    def test_count_maintenance_matches_recompute(self):
        workload = retailer.generate(scale=0.05)
        q = Query("retailer", workload.schemas, ring=INT_RING)
        engine = FIVMEngine(q, workload.variable_order)
        stream = round_robin_stream(workload.schemas, workload.tables, batch_size=50)
        for delta in stream.deltas(INT_RING):
            engine.apply_update(delta)
        expected = recompute(q, workload.database(INT_RING), workload.variable_order)
        assert engine.result().same_as(expected)

    def test_cofactor_stream_small(self):
        workload = retailer.generate(scale=0.02)
        model = CofactorModel(
            "retailer",
            workload.schemas,
            workload.numeric_variables,
            order=workload.variable_order,
        )
        ring = model.query.ring
        stream = round_robin_stream(workload.schemas, workload.tables, batch_size=50)
        for delta in stream.deltas(ring):
            model.apply_update(delta)
        static = CofactorModel(
            "retailer_static",
            workload.schemas,
            workload.numeric_variables,
            order=workload.variable_order,
            db=workload.database(ring),
        )
        assert ring.eq(model.triple(), static.triple())

    def test_one_scenario_preloads_dimensions(self):
        """Updates to Inventory only, with dimension tables static."""
        workload = retailer.generate(scale=0.05)
        q = Query("retailer", workload.schemas, ring=INT_RING)
        dims = [r for r in workload.schemas if r != "Inventory"]
        db = workload.empty_database(INT_RING)
        for rel in dims:
            for row in workload.tables[rel]:
                db.relation(rel).add(row, 1)
        engine = FIVMEngine(
            q, workload.variable_order, updatable={"Inventory"}, db=db
        )
        stream = round_robin_stream(
            workload.schemas, workload.tables, batch_size=100,
            relations=["Inventory"],
        )
        for delta in stream.deltas(INT_RING):
            engine.apply_update(delta)
        expected = recompute(q, workload.database(INT_RING), workload.variable_order)
        assert engine.result().same_as(expected)
        # The ONE scenario stores fewer views than the all-updatable one.
        full = FIVMEngine(q, workload.variable_order)
        assert len(engine.views) < len(full.views)


class TestHousingStream:
    def test_count_with_deletes(self):
        workload = housing.generate(scale=1, postcodes=20)
        q = Query("housing", workload.schemas, ring=INT_RING)
        engine = FIVMEngine(q, workload.variable_order)
        stream = round_robin_stream(
            workload.schemas, workload.tables, batch_size=30,
            delete_fraction=0.3, seed=5,
        )
        db = workload.empty_database(INT_RING)
        for delta in stream.deltas(INT_RING):
            engine.apply_update(delta.copy())
            db.apply_update(delta)
        expected = recompute(q, db, workload.variable_order)
        assert engine.result().same_as(expected)

    def test_factorized_natural_join(self):
        workload = housing.generate(scale=2, postcodes=6)
        all_vars = tuple(
            dict.fromkeys(a for s in workload.schemas.values() for a in s)
        )
        fact = ConjunctiveQuery(
            "housing", workload.schemas, all_vars,
            mode="factorized", order=workload.variable_order,
        )
        listing = ConjunctiveQuery(
            "housing", workload.schemas, all_vars,
            mode="listing_keys", order=workload.variable_order,
        )
        stream = round_robin_stream(workload.schemas, workload.tables, batch_size=25)
        for delta in stream.deltas(INT_RING):
            fact.apply_update(delta.copy())
            listing.apply_update(delta)
        assert fact.memory() < listing.memory()
        expected = listing.to_listing()
        got = fact.to_listing()
        assert expected.same_as(got.copy(name=expected.name))


class TestTwitterTriangle:
    def test_triangle_count_with_indicators(self):
        workload = twitter.generate(n_nodes=40, n_edges=400, seed=3)
        q = Query("tri", workload.schemas, ring=INT_RING)
        tree = add_indicator_projections(
            build_view_tree(q, workload.variable_order)
        )
        engine = FIVMEngine(q, tree=tree)
        stream = round_robin_stream(workload.schemas, workload.tables, batch_size=20)
        for delta in stream.deltas(INT_RING):
            engine.apply_update(delta)
        expected = recompute(
            q, workload.database(INT_RING), workload.variable_order
        )
        assert engine.result().same_as(expected)

    def test_triangle_count_positive(self):
        """The generated graph actually contains triangles."""
        workload = twitter.generate(n_nodes=40, n_edges=600, seed=3)
        q = Query("tri", workload.schemas, ring=INT_RING)
        result = recompute(q, workload.database(INT_RING), workload.variable_order)
        assert result.payload(()) > 0


class TestViewCountClaims:
    """The paper's headline view counts (Section 7)."""

    def test_retailer_fivm_stores_9_views(self):
        workload = retailer.generate(scale=0.02)
        q = Query("retailer", workload.schemas, ring=INT_RING)
        engine = FIVMEngine(q, workload.variable_order)
        assert engine.tree.view_count() == 9

    def test_housing_fivm_stores_7_views(self):
        workload = housing.generate(scale=1, postcodes=5)
        q = Query("housing", workload.schemas, ring=INT_RING)
        engine = FIVMEngine(q, workload.variable_order)
        assert engine.tree.view_count() == 7

    def test_housing_recursive_matches_fivm_strategy(self):
        """For the star query, DBT-RING and F-IVM coincide: per-relation
        views aggregated to the join key plus the result."""
        workload = housing.generate(scale=1, postcodes=5)
        q = Query("housing", workload.schemas, ring=INT_RING)
        recursive = RecursiveIVM(q)
        assert recursive.view_count() == 7

    def test_retailer_recursive_uses_more_views(self):
        workload = retailer.generate(scale=0.02)
        q = Query("retailer", workload.schemas, ring=INT_RING)
        recursive = RecursiveIVM(q)
        fivm = FIVMEngine(q, workload.variable_order)
        assert recursive.view_count() > fivm.tree.view_count()
