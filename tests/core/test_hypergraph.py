"""Tests for GYO reduction (an empty residual is α-acyclicity) and
connectivity."""

from repro.core import connected_components, gyo_residual


class TestGYO:
    def test_chain_is_acyclic(self):
        edges = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))]
        assert gyo_residual(edges) == []

    def test_triangle_is_cyclic(self):
        edges = [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "A"))]
        residual = gyo_residual(edges)
        assert {label for label, _ in residual} == {"R", "S", "T"}

    def test_star_is_acyclic(self):
        edges = [(f"R{i}", ("P", f"X{i}")) for i in range(5)]
        assert gyo_residual(edges) == []

    def test_snowflake_is_acyclic(self):
        edges = [
            ("Inv", ("locn", "dateid", "ksn")),
            ("It", ("ksn",)),
            ("W", ("locn", "dateid")),
            ("L", ("locn", "zip")),
            ("C", ("zip",)),
        ]
        assert gyo_residual(edges) == []

    def test_cycle_with_pendant_edge(self):
        """The acyclic appendage reduces away; the cycle core remains."""
        edges = [
            ("R", ("A", "B")),
            ("S", ("B", "C")),
            ("T", ("C", "A")),
            ("P", ("A", "X")),
        ]
        residual = {label for label, _ in gyo_residual(edges)}
        assert residual == {"R", "S", "T"}

    def test_contained_edge_absorbed(self):
        edges = [("big", ("A", "B", "C")), ("small", ("A", "B"))]
        assert gyo_residual(edges) == []

    def test_duplicate_edges_absorb_each_other(self):
        edges = [("e1", ("A", "B")), ("e2", ("A", "B"))]
        assert gyo_residual(edges) == []

    def test_loop4_is_cyclic(self):
        edges = [
            ("R1", ("A", "B")),
            ("R2", ("B", "C")),
            ("R3", ("C", "D")),
            ("R4", ("D", "A")),
        ]
        assert gyo_residual(edges)

    def test_triangle_plus_indicator_candidate(self):
        """The Figure 10 use: children edges + a candidate closing a cycle."""
        children = [("S", ("B", "C")), ("T", ("C", "A"))]
        candidate = [("ind:R", ("A", "B"))]
        residual = {label for label, _ in gyo_residual(children + candidate)}
        assert "ind:R" in residual

    def test_empty(self):
        assert gyo_residual([]) == []


class TestConnectivity:
    def test_connected_chain(self):
        edges = [("R", ("A", "B")), ("S", ("B", "C"))]
        assert len(connected_components(edges)) == 1

    def test_disconnected(self):
        edges = [("R", ("A",)), ("S", ("B",))]
        components = connected_components(edges)
        assert sorted(map(sorted, components)) == [["R"], ["S"]]

    def test_empty_edge_is_own_component(self):
        edges = [("R", ()), ("S", ("B",)), ("T", ("B",))]
        components = sorted(map(sorted, connected_components(edges)))
        assert components == [["R"], ["S", "T"]]

    def test_housing_delta_components(self):
        """Binding the update's join key disconnects a star query."""
        reduced = [(f"R{i}", (f"X{i}",)) for i in range(5)]
        assert len(connected_components(reduced)) == 5
