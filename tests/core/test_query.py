"""Tests for the query representation."""

import pytest

from repro.core import Query
from repro.data import SchemaError
from repro.rings import INT_RING

from tests.conftest import PAPER_SCHEMAS


class TestQuery:
    def test_variables_in_first_occurrence_order(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        assert q.variables == ("A", "B", "C", "E", "D")

    def test_free_and_bound(self):
        q = Query("Q", PAPER_SCHEMAS, free=("A", "C"), ring=INT_RING)
        assert q.free == ("A", "C")
        assert set(q.bound) == {"B", "D", "E"}

    def test_requires_ring(self):
        with pytest.raises(ValueError):
            Query("Q", PAPER_SCHEMAS)

    def test_requires_relations(self):
        with pytest.raises(ValueError):
            Query("Q", {}, ring=INT_RING)

    def test_unknown_free_variable(self):
        with pytest.raises(SchemaError):
            Query("Q", PAPER_SCHEMAS, free=("Z",), ring=INT_RING)

    def test_duplicate_free_variable(self):
        with pytest.raises(SchemaError):
            Query("Q", PAPER_SCHEMAS, free=("A", "A"), ring=INT_RING)

    def test_schema_of(self):
        q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
        assert q.schema_of("S") == ("A", "C", "E")
        with pytest.raises(KeyError):
            q.schema_of("Z")
