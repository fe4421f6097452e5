"""Tests for variable orders (Definition 3.1)."""


import pytest

from repro.core import Query, VariableOrder
from repro.data import SchemaError
from repro.rings import INT_RING

from tests.conftest import chain_order, PAPER_SCHEMAS, paper_variable_order


def paper_query(free=()):
    return Query("Q", PAPER_SCHEMAS, free=free, ring=INT_RING)


class TestConstruction:
    def test_from_spec(self):
        vo = paper_variable_order()
        assert vo.variables == ("A", "B", "C", "D", "E")
        assert vo.parent("C") == "A"
        assert vo.parent("A") is None

    def test_chain(self):
        vo = VariableOrder.from_spec(("A", [("B", ["C"])]))
        assert vo.ancestors("C") == ("A", "B")
        assert chain_order(["A", "B", "C"]).ancestors("C") == ("A", "B")

    def test_duplicate_variable_rejected(self):
        with pytest.raises(SchemaError):
            VariableOrder.from_spec(("A", ["B", ("B", [])]))

    def test_forest(self):
        vo = VariableOrder.from_spec("A", "B")
        assert len(vo.roots) == 2


class TestStructure:
    def test_ancestors_order_root_first(self):
        vo = paper_variable_order()
        assert vo.ancestors("E") == ("A", "C")

    def test_subtree(self):
        vo = paper_variable_order()
        assert vo.subtree_vars("C") == {"C", "D", "E"}

    def test_subtree_table_is_read_only(self):
        vo = paper_variable_order()
        with pytest.raises(AttributeError):
            vo.subtree_vars("C").add("A")
        assert vo.subtree_vars("C") == {"C", "D", "E"}
        assert vo.subtree_vars("A") == set(vo.variables)

    def test_canonical_sort(self):
        vo = paper_variable_order()
        assert vo.canonical_sort({"E", "A", "C"}) == ("A", "C", "E")

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            paper_variable_order().node("Z")


class TestDepFigure2a:
    """dep() values spelled out in Figure 2a."""

    def test_all(self):
        vo = paper_variable_order()
        q = paper_query()
        assert vo.dep(q, "A") == set()
        assert vo.dep(q, "B") == {"A"}
        assert vo.dep(q, "C") == {"A"}
        assert vo.dep(q, "D") == {"C"}
        assert vo.dep(q, "E") == {"A", "C"}


class TestValidation:
    def test_paper_order_is_valid(self):
        paper_variable_order().validate(paper_query())

    def test_missing_variable_rejected(self):
        vo = VariableOrder.from_spec(("A", ["B", ("C", ["D"])]))
        with pytest.raises(SchemaError):
            vo.validate(paper_query())

    def test_off_path_relation_rejected(self):
        # B and C on different branches, but S needs A,C,E together with ...
        vo = VariableOrder.from_spec(("A", [("B", ["E"]), ("C", ["D"])]))
        with pytest.raises(SchemaError):
            vo.validate(paper_query())

    def test_chain_always_valid(self):
        q = paper_query()
        chain_order(q.variables).validate(q)

    def test_anchor(self):
        vo = paper_variable_order()
        assert vo.anchor(("A", "B")) == "B"
        assert vo.anchor(("A", "C", "E")) == "E"
        assert vo.anchor(("C", "D")) == "D"


class TestAuto:
    def test_valid_for_paper_query(self):
        q = paper_query()
        VariableOrder.auto(q).validate(q)

    def test_valid_for_triangle(self):
        q = Query(
            "tri",
            {"R": ("A", "B"), "S": ("B", "C"), "T": ("C", "A")},
            ring=INT_RING,
        )
        VariableOrder.auto(q).validate(q)

    def test_free_variables_prefer_top(self):
        q = paper_query(free=("C",))
        vo = VariableOrder.auto(q)
        vo.validate(q)
        # C is a root (free variables on top, per the paper's preference).
        assert any(root.var == "C" for root in vo.roots)

    def test_disconnected_query_gives_forest(self):
        q = Query("d", {"R": ("A",), "S": ("B",)}, ring=INT_RING)
        vo = VariableOrder.auto(q)
        assert len(vo.roots) == 2
        vo.validate(q)

    def test_random_queries_always_valid(self, rng):
        variables = ["V0", "V1", "V2", "V3", "V4", "V5"]
        for trial in range(40):
            relations = {}
            for index in range(rng.randint(1, 5)):
                width = rng.randint(1, 3)
                schema = tuple(rng.sample(variables, width))
                relations[f"R{index}"] = schema
            free = tuple(
                v
                for v in dict.fromkeys(a for s in relations.values() for a in s)
                if rng.random() < 0.3
            )
            q = Query(f"q{trial}", relations, free=free, ring=INT_RING)
            VariableOrder.auto(q).validate(q)
