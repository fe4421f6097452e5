"""Tests for the workload generators and update streams."""

import pytest

from repro.datasets import (
    UpdateBatch,
    UpdateStream,
    housing,
    retailer,
    round_robin_stream,
    single_relation_stream,
    twitter,
)
from repro.rings import INT_RING


class TestRetailerGenerator:
    def test_schema_has_43_attributes(self):
        distinct = {a for s in retailer.SCHEMAS.values() for a in s}
        assert len(distinct) == 43

    def test_deterministic(self):
        a = retailer.generate(scale=0.1, seed=3)
        b = retailer.generate(scale=0.1, seed=3)
        assert a.tables == b.tables

    def test_variable_order_valid(self):
        from repro.core import Query

        workload = retailer.generate(scale=0.05)
        q = Query("r", workload.schemas, ring=INT_RING)
        workload.variable_order.validate(q)

    def test_foreign_keys_resolve(self):
        """Every inventory row joins all four dimension hierarchies."""
        workload = retailer.generate(scale=0.05)
        items = {row[0] for row in workload.tables["Item"]}
        weather = {(row[0], row[1]) for row in workload.tables["Weather"]}
        locations = {row[0] for row in workload.tables["Location"]}
        for locn, dateid, ksn, _units in workload.tables["Inventory"]:
            assert ksn in items
            assert (locn, dateid) in weather
            assert locn in locations

    def test_scale_grows_fact_table(self):
        small = retailer.generate(scale=0.05)
        large = retailer.generate(scale=0.2)
        assert len(large.tables["Inventory"]) > len(small.tables["Inventory"])


class TestHousingGenerator:
    def test_schema_has_27_attributes(self):
        distinct = {a for s in housing.SCHEMAS.values() for a in s}
        assert len(distinct) == 27

    def test_scaling_relations_grow(self):
        s1 = housing.generate(scale=1, postcodes=10)
        s3 = housing.generate(scale=3, postcodes=10)
        assert len(s3.tables["House"]) == 3 * len(s1.tables["House"])
        assert len(s3.tables["Transport"]) == len(s1.tables["Transport"])

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            housing.generate(scale=0)

    def test_star_join_multiplicity(self):
        """Join size per postcode is scale³ (the cubic growth of Fig. 8)."""
        workload = housing.generate(scale=2, postcodes=5)
        postcode = workload.tables["House"][0][0]
        per = {
            rel: sum(1 for row in rows if row[0] == postcode)
            for rel, rows in workload.tables.items()
        }
        product = 1
        for count in per.values():
            product *= count
        assert product == 8  # 2 × 2 × 2 × 1 × 1 × 1


class TestTwitterGenerator:
    def test_three_relations_roughly_equal(self):
        workload = twitter.generate(n_nodes=50, n_edges=600, seed=1)
        sizes = [len(workload.tables[r]) for r in ("R", "S", "T")]
        assert max(sizes) - min(sizes) <= 1

    def test_no_self_loops(self):
        workload = twitter.generate(n_nodes=30, n_edges=300)
        for rel in ("R", "S", "T"):
            for a, b in workload.tables[rel]:
                assert a != b

    def test_skew(self):
        """Low node ids are heavy hitters (power-law-ish sampling)."""
        workload = twitter.generate(n_nodes=100, n_edges=2000, alpha=2.0)
        sources = [a for a, _ in workload.tables["R"]]
        low = sum(1 for s in sources if s < 20)
        # Under uniform sampling the first fifth of ids would hold ~20% of
        # endpoints; the skewed sampler concentrates noticeably more there
        # (deduplication of repeated edges dampens the raw u^alpha skew).
        assert low > len(sources) * 0.3


class TestWorkloadHelpers:
    def test_database_and_empty_database(self):
        workload = housing.generate(scale=1, postcodes=5)
        db = workload.database(INT_RING)
        assert db.size == sum(len(rows) for rows in workload.tables.values())
        empty = workload.empty_database(INT_RING)
        assert empty.size == 0
        assert set(empty.names) == set(workload.schemas)

    def test_database_subset(self):
        workload = housing.generate(scale=1, postcodes=5)
        db = workload.database(INT_RING, relations=["House"])
        assert db.names == ("House",)


class TestStreams:
    def _tables(self):
        return {
            "R": [(i,) for i in range(10)],
            "S": [(i,) for i in range(4)],
        }

    def test_round_robin_interleaves(self):
        stream = round_robin_stream(
            {"R": ("A",), "S": ("A",)}, self._tables(), batch_size=3
        )
        relations = [batch.relation for batch in stream.batches]
        assert relations[:4] == ["R", "S", "R", "S"]
        assert stream.total_tuples == 14

    def test_batch_size_respected(self):
        stream = round_robin_stream(
            {"R": ("A",), "S": ("A",)}, self._tables(), batch_size=3
        )
        assert all(len(batch) <= 3 for batch in stream.batches)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            round_robin_stream({"R": ("A",)}, {"R": []}, batch_size=0)

    def test_deltas_materialize_payloads(self):
        stream = round_robin_stream(
            {"R": ("A",), "S": ("A",)}, self._tables(), batch_size=5
        )
        deltas = list(stream.deltas(INT_RING))
        assert deltas[0].name == "R"
        assert deltas[0].payload((0,)) == 1

    def test_delete_fraction_appends_negative_batches(self):
        stream = round_robin_stream(
            {"R": ("A",)}, {"R": [(i,) for i in range(10)]},
            batch_size=4, delete_fraction=0.5,
        )
        deletes = [b for b in stream.batches if b.multiplicity == -1]
        assert sum(len(b) for b in deletes) == 5

    def test_restricted(self):
        stream = round_robin_stream(
            {"R": ("A",), "S": ("A",)}, self._tables(), batch_size=3
        )
        only_r = stream.restricted(["R"])
        assert all(b.relation == "R" for b in only_r.batches)
        assert only_r.total_tuples == 10

    def test_single_relation_stream(self):
        stream = single_relation_stream(
            {"R": ("A",), "S": ("A",)}, self._tables(), "S", batch_size=3
        )
        assert {b.relation for b in stream.batches} == {"S"}

    def test_negative_multiplicity_payloads(self):
        stream = UpdateStream(
            {"R": ("A",)}, [UpdateBatch("R", [(1,)], multiplicity=-1)]
        )
        delta = next(stream.deltas(INT_RING))
        assert delta.payload((1,)) == -1
