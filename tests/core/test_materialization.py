"""Tests for the materialization choice µ(τ, U) (Figure 5, Example 4.2)."""

import pytest

from repro.core import (
    Query,
    add_indicator_projections,
    build_view_tree,
    materialization_flags,
    materialized_views,
)
from repro.rings import INT_RING

from tests.conftest import chain_order, PAPER_SCHEMAS, paper_variable_order


def make_tree():
    q = Query("Q", PAPER_SCHEMAS, ring=INT_RING)
    return build_view_tree(q, paper_variable_order())


def prefixes(names):
    return {n.split("_")[0].split("#")[0] for n in names}


class TestExample42:
    """U = {T}: store the root, V@E_S, and V@B_R — nothing else."""

    def test_updates_to_t_only(self):
        tree = make_tree()
        stored = materialized_views(tree, {"T"})
        assert prefixes(stored) == {"V@A", "V@B", "V@E"}

    def test_updates_to_all_relations_store_every_view(self):
        tree = make_tree()
        stored = materialized_views(tree, {"R", "S", "T"})
        # "For updates to all input relations, it materializes the view at
        # each node in the view tree" — every inner view is stored.  The raw
        # leaves are not: each has a covering unary view, so no delta ever
        # joins with a base relation directly.
        assert {n.name for n in tree.inner_views()} <= stored
        assert prefixes(stored) == {"V@A", "V@B", "V@C", "V@D", "V@E"}

    def test_no_updates_stores_only_root(self):
        tree = make_tree()
        stored = materialized_views(tree, set())
        assert stored == {tree.root.name}

    def test_root_always_stored(self):
        tree = make_tree()
        for updates in [set(), {"R"}, {"S"}, {"T"}, {"R", "S", "T"}]:
            assert tree.root.name in materialized_views(tree, updates)


class TestSingleRelationScenarios:
    def test_updates_to_r_only(self):
        """For U={R}: the sibling subtree (V@C over S,T) must be stored;
        nothing on R's own path below the root is."""
        tree = make_tree()
        stored = prefixes(materialized_views(tree, {"R"}))
        assert "V@C" in stored
        assert "V@B" not in stored
        assert "R" not in stored

    def test_updates_to_s_only(self):
        tree = make_tree()
        stored = prefixes(materialized_views(tree, {"S"}))
        # Per Example 1.1: for updates to S only, materialize V@B_R and V@D_T.
        assert "V@B" in stored and "V@D" in stored
        assert "V@E" not in stored

    def test_unknown_relation_rejected(self):
        tree = make_tree()
        with pytest.raises(KeyError):
            materialization_flags(tree, {"Z"})


class TestIndicatorExtension:
    def test_indicator_base_and_host_children_stored(self):
        q = Query(
            "tri",
            {"R": ("A", "B"), "S": ("B", "C"), "T": ("C", "A")},
            ring=INT_RING,
        )
        from repro.core import VariableOrder

        tree = build_view_tree(q, chain_order(("A", "B", "C")))
        add_indicator_projections(tree)
        host = next(n for n in tree.nodes if n.indicators)
        stored = materialized_views(tree, {"R"})
        # The indicator's base must be stored to track support changes,
        # and the host's children (S, T) feed the indicator-delta join.
        assert "R" in stored
        for child in host.children:
            assert child.name in stored
