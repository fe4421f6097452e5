"""Tests for cofactor maintenance and in-database regression (Section 6.2)."""

import random

import numpy as np
import pytest

from repro.apps import CofactorModel, cofactor_query
from repro.apps.regression import least_squares_from_moments
from repro.data import Database, Relation
from repro.rings import CofactorRing

from tests.conftest import PAPER_SCHEMAS, paper_variable_order


def join_design_matrix(rows, columns):
    """Materialize the natural join of the paper query and extract columns."""
    out = []
    for (a, b) in rows["R"]:
        for (a2, c, e) in rows["S"]:
            if a2 != a:
                continue
            for (c2, d) in rows["T"]:
                if c2 != c:
                    continue
                record = {"A": a, "B": b, "C": c, "D": d, "E": e}
                out.append([record[col] for col in columns])
    return np.array(out, dtype=float)


SAMPLE_ROWS = {
    "R": [(1, 2.0), (1, 3.0), (2, 1.0), (3, 4.0)],
    "S": [(1, 1, 2.0), (1, 1, 5.0), (1, 2, 1.0), (2, 2, 3.0)],
    "T": [(1, 7.0), (2, 2.0), (2, 3.0), (3, 9.0)],
}

NUMERIC = ("B", "D", "E")


def sample_db(ring):
    return Database(
        Relation.from_tuples(rel, PAPER_SCHEMAS[rel], ring, SAMPLE_ROWS[rel])
        for rel in PAPER_SCHEMAS
    )


@pytest.fixture
def model():
    ring = CofactorRing(len(NUMERIC))
    return CofactorModel(
        "reg",
        PAPER_SCHEMAS,
        NUMERIC,
        order=paper_variable_order(),
        db=sample_db(ring),
    )


class TestMomentMatrix:
    def test_matches_numpy_mtm(self, model):
        design = join_design_matrix(SAMPLE_ROWS, NUMERIC)
        extended = np.hstack([np.ones((len(design), 1)), design])
        assert np.allclose(model.moment_matrix(), extended.T @ extended)

    def test_count_in_corner(self, model):
        assert model.moment_matrix()[0, 0] == 10  # join cardinality

    def test_maintained_under_updates(self, model):
        rng = random.Random(4)
        rows = {rel: list(SAMPLE_ROWS[rel]) for rel in SAMPLE_ROWS}
        ring = model.query.ring
        for _ in range(15):
            rel = rng.choice(list(PAPER_SCHEMAS))
            row = tuple(
                float(rng.randint(0, 3)) if i else rng.randint(0, 3)
                for i in range(len(PAPER_SCHEMAS[rel]))
            )
            delta = Relation(rel, PAPER_SCHEMAS[rel], ring, {row: ring.one})
            model.apply_update(delta)
            rows[rel].append(row)
            design = join_design_matrix(rows, NUMERIC)
            if len(design) == 0:
                assert model.moment_matrix()[0, 0] == 0
                continue
            extended = np.hstack([np.ones((len(design), 1)), design])
            assert np.allclose(model.moment_matrix(), extended.T @ extended)

    def test_deletion_removes_contribution(self, model):
        ring = model.query.ring
        delta = Relation(
            "R", PAPER_SCHEMAS["R"], ring, {(1, 2.0): ring.neg(ring.one)}
        )
        model.apply_update(delta)
        rows = dict(SAMPLE_ROWS)
        rows["R"] = [r for r in SAMPLE_ROWS["R"] if r != (1, 2.0)]
        design = join_design_matrix(rows, NUMERIC)
        extended = np.hstack([np.ones((len(design), 1)), design])
        assert np.allclose(model.moment_matrix(), extended.T @ extended)


class TestTraining:
    def test_closed_form_matches_lstsq(self, model):
        design = join_design_matrix(SAMPLE_ROWS, ("D", "E", "B"))
        features = np.hstack([np.ones((len(design), 1)), design[:, :2]])
        theta_np, *_ = np.linalg.lstsq(features, design[:, 2], rcond=None)
        trained = model.solve(["D", "E"], "B")
        assert np.allclose(trained.theta, theta_np, atol=1e-8)

    def test_gradient_descent_converges_to_lstsq(self, model):
        closed = model.solve(["D", "E"], "B")
        iterative = model.gradient_descent(["D", "E"], "B", max_iterations=50_000)
        assert np.allclose(iterative.theta, closed.theta, atol=1e-4)
        assert iterative.iterations > 0

    def test_predict(self, model):
        trained = model.solve(["D", "E"], "B")
        value = trained.predict({"D": 2.0, "E": 1.0})
        expected = trained.theta[0] + trained.theta[1] * 2.0 + trained.theta[2] * 1.0
        assert np.isclose(value, expected)

    def test_any_label_from_same_statistics(self, model):
        """One maintained cofactor matrix serves every feature/label split."""
        for label, features in [("B", ["D", "E"]), ("D", ["B"]), ("E", ["B", "D"])]:
            design = join_design_matrix(SAMPLE_ROWS, tuple(features) + (label,))
            f = np.hstack([np.ones((len(design), 1)), design[:, :-1]])
            theta_np, *_ = np.linalg.lstsq(f, design[:, -1], rcond=None)
            trained = model.solve(features, label)
            assert np.allclose(trained.theta, theta_np, atol=1e-8), label

    def test_training_on_empty_join_rejected(self):
        empty = CofactorModel(
            "reg", PAPER_SCHEMAS, NUMERIC, order=paper_variable_order()
        )
        with pytest.raises(ValueError):
            empty.gradient_descent(["D"], "B")

    def test_ridge_regularization(self, model):
        plain = model.solve(["D", "E"], "B")
        ridged = model.solve(["D", "E"], "B", ridge=10.0)
        assert np.linalg.norm(ridged.theta[1:]) < np.linalg.norm(plain.theta[1:])


class TestGroupByModels:
    def test_one_model_per_group(self):
        """free=(A,) maintains one cofactor matrix per A-value."""
        ring = CofactorRing(3)
        model = CofactorModel(
            "grouped",
            PAPER_SCHEMAS,
            NUMERIC,
            free=("A",),
            order=paper_variable_order(),
            db=sample_db(ring),
        )
        for a in (1, 2):
            rows = {
                "R": [r for r in SAMPLE_ROWS["R"] if r[0] == a],
                "S": [s for s in SAMPLE_ROWS["S"] if s[0] == a],
                "T": SAMPLE_ROWS["T"],
            }
            design = join_design_matrix(rows, NUMERIC)
            extended = np.hstack([np.ones((len(design), 1)), design])
            assert np.allclose(
                model.moment_matrix((a,)), extended.T @ extended
            ), a

    def test_group_variable_cannot_be_numeric(self):
        with pytest.raises(ValueError):
            cofactor_query("bad", PAPER_SCHEMAS, ("A", "B"), free=("A",))


class TestLeastSquaresHelper:
    def test_recovers_exact_linear_relation(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 2))
        y = 3.0 + 2.0 * x[:, 0] - 1.5 * x[:, 1]
        design = np.hstack([np.ones((50, 1)), x, y[:, None]])
        moments = design.T @ design
        theta = least_squares_from_moments(moments, [0, 1], 2)
        assert np.allclose(theta, [3.0, 2.0, -1.5], atol=1e-8)


class TestDrift:
    def test_insert_then_shuffled_delete_returns_to_empty(self):
        """ROADMAP 5(b): 4 111 Retailer tuples (fractional measures)
        inserted one per call, then deleted in shuffled order, on the
        default engine — lifted-sibling memo on, so products regroup as
        ``δ ⊗ (sibling ⊗ lift)``.  Every view must end empty under the
        ring's ``is_zero``.

        Measured float64 residual at the root *before* zero-elimination
        (insert total plus the sum of all delete root deltas, largest
        component): 2.7e-9 against a largest aggregate of 2.1e7, i.e.
        1.3e-16 relative; the reference interpreter, which never
        regroups, leaves 2.7e-9 as well.  The ring's tolerance is an
        absolute 1e-7, so this returns to empty only while aggregates stay
        below ~1e8 × the per-step rounding: with measures ten times larger
        the residual is 3.4e-7 on both engines and one root triple
        survives — the open edge of ROADMAP 5(b), not the memo's.
        """
        from repro.core import FIVMEngine
        from repro.datasets import retailer

        join_keys = {"locn", "dateid", "ksn", "zip"}
        schemas = retailer.SCHEMAS
        rows = [
            (rel, tuple(
                value if attr in join_keys else 0.01 * value + 0.003
                for attr, value in zip(schemas[rel], row)
            ))
            for rel, table in retailer.generate(scale=1.2, seed=5).tables.items()
            for row in table
        ]
        assert len(rows) >= 4000
        query = cofactor_query("drift", schemas, retailer.ALL_VARIABLES)
        ring = query.ring
        engine = FIVMEngine(query, retailer.variable_order())

        def apply(rel, row, multiplicity):
            return engine.apply_update(Relation(
                rel, schemas[rel], ring, {row: ring.from_int(multiplicity)}
            ))

        for rel, row in rows:
            apply(rel, row, 1)
        assert sum(n for n, _ in engine.memo_sizes().values()) > 0
        total = engine.result().payload(())
        assert total.count == 3600.0
        random.Random(2).shuffle(rows)
        contributions = [total]
        for rel, row in rows:
            root_delta = apply(rel, row, -1)
            if not root_delta.is_empty:
                contributions.append(root_delta.payload(()))
        residual = ring.sum(contributions)
        worst = max(
            abs(residual.count),
            np.abs(residual.sums).max(),
            np.abs(residual.quads).max(),
        )
        assert worst < 1e-8, worst
        assert engine.view_sizes() == dict.fromkeys(engine.views, 0)
