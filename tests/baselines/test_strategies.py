"""Cross-strategy agreement: every baseline must match F-IVM and recompute."""


import numpy as np
import pytest

from repro.apps import chain_query, chain_variable_order
from repro.apps.matrix_chain import chain_database
from repro.baselines import (
    FactorizedReevaluator,
    FirstOrderIVM,
    NaiveReevaluator,
    RecursiveIVM,
)
from repro.core import FIVMEngine, Query
from repro.data import Database, Relation
from repro.datasets.matrices import (
    matrix_as_relation,
    random_matrix,
    relation_as_matrix,
    row_update,
)
from repro.rings import INT_RING, Lifting, RealRing

from tests.conftest import (
    PAPER_SCHEMAS,
    figure2_database,
    packed_evaluation,
    paper_variable_order,
    random_delta,
    recompute,
)


def all_strategies(query, order):
    return {
        "fivm": FIVMEngine(query, order),
        "first_order": FirstOrderIVM(query, order),
        "recursive": RecursiveIVM(query),
        "f_re": FactorizedReevaluator(query, order),
        "naive_re": NaiveReevaluator(query),
    }


def check_agreement(strategies, reference):
    for name, strategy in strategies.items():
        got = strategy.result()
        aligned = got if got.schema == reference.schema else got.reorder(reference.schema)
        assert reference.same_as(
            aligned.copy(name=reference.name)
        ), name


class TestAgreementFuzz:
    @pytest.mark.parametrize("free", [(), ("A",), ("A", "C")])
    def test_random_updates(self, rng, free):
        q = Query("Q", PAPER_SCHEMAS, free=free, ring=INT_RING)
        order = paper_variable_order()
        strategies = all_strategies(q, order)
        db = Database(
            Relation(rel, schema, INT_RING)
            for rel, schema in PAPER_SCHEMAS.items()
        )
        for _ in range(40):
            rel = rng.choice(list(PAPER_SCHEMAS))
            delta = random_delta(rng, rel, PAPER_SCHEMAS[rel], INT_RING)
            for strategy in strategies.values():
                strategy.apply_update(delta.copy())
            db.apply_update(delta)
            check_agreement(strategies, recompute(q, db, order))

    @pytest.mark.parametrize("packed", [False, True])
    def test_sum_aggregate_with_lifting(self, rng, packed):
        """Over ℝ the baselines evaluate through the packed join /
        grouped sum from a size constant up; pinned to one row (and out
        of reach) they agree with the engine, whose triggers use neither."""
        ring = RealRing()
        lifting = Lifting(ring, {"B": float, "D": float})
        q = Query("Q", PAPER_SCHEMAS, free=("A",), ring=ring, lifting=lifting)
        order = paper_variable_order()
        strategies = all_strategies(q, order)
        db = Database(
            Relation(rel, schema, ring) for rel, schema in PAPER_SCHEMAS.items()
        )
        with packed_evaluation(packed):
            for _ in range(25):
                rel = rng.choice(list(PAPER_SCHEMAS))
                delta = random_delta(rng, rel, PAPER_SCHEMAS[rel], ring)
                for strategy in strategies.values():
                    strategy.apply_update(delta.copy())
                db.apply_update(delta)
                check_agreement(strategies, strategies["fivm"].result())
                check_agreement(strategies, recompute(q, db, order))

    def test_matrix_chain_row_updates_at_the_default_constants(self):
        """The fig6 hash-runtime arms (n = 8: 128 input rows per view,
        above the join's constant) against the engine and NumPy."""
        np_rng = np.random.default_rng(5)
        n = 8
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        q, order = chain_query(3), chain_variable_order(3)
        db = chain_database(mats)
        strategies = {
            "fivm": FIVMEngine(q, order, db=db),
            "first_order": FirstOrderIVM(q, order, db=db),
            "f_re": FactorizedReevaluator(q, order, db=db),
        }
        for row in range(4):
            u, v = row_update(n, row, np_rng)
            mats[1] = mats[1] + np.outer(u, v)
            delta = matrix_as_relation("A2", np.outer(u, v), "X2", "X3")
            for strategy in strategies.values():
                strategy.apply_update(delta.copy())
            check_agreement(strategies, strategies["fivm"].result())
            assert np.allclose(
                relation_as_matrix(strategies["first_order"].result(), (n, n)),
                mats[0] @ mats[1] @ mats[2],
            )


class TestInitialization:
    def test_all_strategies_initialize_from_snapshot(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        order = paper_variable_order()
        db = figure2_database()
        strategies = {
            "fivm": FIVMEngine(q, order, db=db),
            "first_order": FirstOrderIVM(q, order, db=db),
            "recursive": RecursiveIVM(q, db=db),
            "f_re": FactorizedReevaluator(q, order, db=db),
            "naive_re": NaiveReevaluator(q, db=db),
        }
        for name, strategy in strategies.items():
            assert strategy.result().payload(()) == 10, name


class TestFirstOrderSpecifics:
    def test_stores_only_bases_and_result(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        strategy = FirstOrderIVM(q, paper_variable_order())
        sizes = strategy.view_sizes()
        assert set(sizes) == {"R", "S", "T", strategy.tree.root.name}

    def test_unknown_relation_rejected(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        strategy = FirstOrderIVM(q, paper_variable_order())
        with pytest.raises(KeyError):
            strategy.apply_update(Relation("Z", ("A",), INT_RING, {(1,): 1}))


class TestRecursiveSpecifics:
    def test_star_query_factors_into_per_relation_views(self):
        """Housing-style: delta binds the join key, so DBT materializes one
        aggregated view per other relation (conditional independence)."""
        schemas = {f"R{i}": ("P", f"X{i}") for i in range(4)}
        q = Query("star", schemas, ring=INT_RING)
        strategy = RecursiveIVM(q)
        # top + one single-relation view per relation (memoized across
        # hierarchies) = 5.
        assert strategy.view_count() == 5

    def test_snowflake_view_count_exceeds_fivm(self):
        """DBT materializes joined subqueries per hierarchy; F-IVM shares
        one tree.  On the paper query DBT needs strictly more views."""
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        recursive = RecursiveIVM(q)
        fivm = FIVMEngine(q, paper_variable_order())
        assert recursive.view_count() > fivm.view_count()

    def test_restricted_updatable(self, rng):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        strategy = RecursiveIVM(q, updatable=["T"])
        full = RecursiveIVM(q)
        assert strategy.view_count() <= full.view_count()
        db = Database(
            Relation(rel, schema, INT_RING)
            for rel, schema in PAPER_SCHEMAS.items()
        )
        for _ in range(20):
            delta = random_delta(rng, "T", PAPER_SCHEMAS["T"], INT_RING)
            strategy.apply_update(delta.copy())
            db.apply_update(delta)
        assert strategy.result().same_as(
            recompute(q, db, paper_variable_order()).copy(name=strategy.result().name
            )
        )

    def test_update_to_non_updatable_rejected(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        strategy = RecursiveIVM(q, updatable=["T"])
        with pytest.raises(KeyError):
            strategy.apply_update(Relation("R", ("A", "B"), INT_RING, {(1, 2): 1}))

    def test_view_sizes_reported(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        strategy = RecursiveIVM(q, db=figure2_database())
        sizes = strategy.view_sizes()
        assert len(sizes) == strategy.view_count()
        assert all(size >= 0 for size in sizes.values())
