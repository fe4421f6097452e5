"""Tests for graphical-model inference over view trees (the paper's
'going forward' application)."""

import itertools
import random

import pytest

from repro.apps.inference import (
    FactorGraph,
    MaxProductInference,
    SumProductInference,
)


def chain_graph() -> FactorGraph:
    """X1 - X2 - X3 chain with binary variables."""
    g = FactorGraph()
    for v in ("X1", "X2", "X3"):
        g.add_variable(v, (0, 1))
    g.add_factor("f12", ("X1", "X2"), {
        (0, 0): 2.0, (0, 1): 1.0, (1, 0): 0.5, (1, 1): 3.0,
    })
    g.add_factor("f23", ("X2", "X3"), {
        (0, 0): 1.0, (0, 1): 4.0, (1, 0): 2.0, (1, 1): 0.5,
    })
    g.add_factor("u1", ("X1",), {(0,): 1.0, (1,): 2.0})
    return g


def triangle_graph() -> FactorGraph:
    """A loopy (cyclic) model — exact inference still works (elimination)."""
    g = FactorGraph()
    for v in ("A", "B", "C"):
        g.add_variable(v, (0, 1, 2))
    rng = random.Random(4)
    for name, pair in (("fab", ("A", "B")), ("fbc", ("B", "C")), ("fca", ("C", "A"))):
        table = {
            (i, j): rng.uniform(0.1, 2.0) for i in range(3) for j in range(3)
        }
        g.add_factor(name, pair, table)
    return g


class TestFactorGraphValidation:
    def test_duplicate_variable(self):
        g = FactorGraph().add_variable("X", (0, 1))
        with pytest.raises(ValueError):
            g.add_variable("X", (0,))

    def test_empty_domain(self):
        with pytest.raises(ValueError):
            FactorGraph().add_variable("X", ())

    def test_undeclared_factor_variable(self):
        g = FactorGraph().add_variable("X", (0, 1))
        with pytest.raises(ValueError):
            g.add_factor("f", ("X", "Y"), {(0, 0): 1.0})

    def test_negative_potential(self):
        g = FactorGraph().add_variable("X", (0, 1))
        with pytest.raises(ValueError):
            g.add_factor("f", ("X",), {(0,): -1.0})

    def test_assignment_arity(self):
        g = FactorGraph().add_variable("X", (0, 1))
        with pytest.raises(ValueError):
            g.add_factor("f", ("X",), {(0, 1): 1.0})

    def test_duplicate_factor(self):
        g = FactorGraph().add_variable("X", (0, 1))
        g.add_factor("f", ("X",), {(0,): 1.0})
        with pytest.raises(ValueError):
            g.add_factor("f", ("X",), {(0,): 1.0})


class TestSumProduct:
    def test_partition_function_chain(self):
        g = chain_graph()
        inference = SumProductInference(g)
        expected = g.brute_force()[()]
        assert abs(inference.partition_function() - expected) < 1e-9

    def test_marginal_chain(self):
        g = chain_graph()
        inference = SumProductInference(g, free=("X2",))
        reference = g.brute_force(free=("X2",))
        total = sum(reference.values())
        marginal = inference.marginal()
        for key, value in reference.items():
            assert abs(marginal[key] - value / total) < 1e-9

    def test_loopy_graph_exact(self):
        g = triangle_graph()
        inference = SumProductInference(g)
        expected = g.brute_force()[()]
        assert abs(inference.partition_function() - expected) < 1e-7

    def test_incremental_potential_update(self):
        g = chain_graph()
        inference = SumProductInference(g)
        inference.update_potential("f12", (0, 1), 5.0)
        g2 = chain_graph()
        g2.factors["f12"][1][(0, 1)] = 5.0
        assert abs(
            inference.partition_function() - g2.brute_force()[()]
        ) < 1e-9

    def test_incremental_update_stream(self):
        """Random potential churn: maintained Z always equals brute force."""
        rng = random.Random(9)
        g = chain_graph()
        inference = SumProductInference(g)
        tables = {name: dict(table) for name, (_, table) in g.factors.items()}
        for _ in range(30):
            factor = rng.choice(list(tables))
            variables, _ = g.factors[factor]
            assignment = tuple(rng.choice((0, 1)) for _ in variables)
            value = rng.choice([0.0, 0.5, 1.5, 3.0])
            inference.update_potential(factor, assignment, value)
            tables[factor][assignment] = value
            reference = FactorGraph()
            for v in g.domains:
                reference.add_variable(v, g.domains[v])
            for name, (vars_, _) in g.factors.items():
                reference.add_factor(name, vars_, tables[name])
            expected = reference.brute_force().get((), 0.0)
            assert abs(inference.partition_function() - expected) < 1e-9

    def test_condition_on_evidence(self):
        g = chain_graph()
        inference = SumProductInference(g, free=("X3",))
        inference.condition("X1", 1)
        # Reference: brute force over assignments with X1 = 1.
        reference = {}
        for x2, x3 in itertools.product((0, 1), repeat=2):
            weight = (
                g.factors["u1"][1][(1,)]
                * g.factors["f12"][1][(1, x2)]
                * g.factors["f23"][1][(x2, x3)]
            )
            reference[(x3,)] = reference.get((x3,), 0.0) + weight
        total = sum(reference.values())
        marginal = inference.marginal()
        for key, value in reference.items():
            assert abs(marginal[key] - value / total) < 1e-9

    def test_zero_distribution_detected(self):
        g = FactorGraph().add_variable("X", (0, 1))
        g.add_factor("f", ("X",), {(0,): 1.0})
        inference = SumProductInference(g, free=("X",))
        inference.update_potential("f", (0,), 0.0)
        with pytest.raises(ValueError):
            inference.marginal()

    def test_partition_function_requires_no_free(self):
        g = chain_graph()
        inference = SumProductInference(g, free=("X1",))
        with pytest.raises(ValueError):
            inference.partition_function()


class TestMaxProduct:
    def test_map_value_chain(self):
        g = chain_graph()
        inference = MaxProductInference(g)
        expected = g.brute_force(mode="max")[()]
        assert abs(inference.map_value() - expected) < 1e-9

    def test_map_value_loopy(self):
        g = triangle_graph()
        inference = MaxProductInference(g)
        expected = g.brute_force(mode="max")[()]
        assert abs(inference.map_value() - expected) < 1e-9

    def test_map_assignment_achieves_map_value(self):
        for graph in (chain_graph(), triangle_graph()):
            inference = MaxProductInference(graph)
            assignment, best = inference.map_assignment()
            weight = 1.0
            for variables, table in graph.factors.values():
                weight *= table[tuple(assignment[v] for v in variables)]
            assert abs(weight - best) < 1e-9
