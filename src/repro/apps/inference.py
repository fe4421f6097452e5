"""Inference in probabilistic graphical models over view trees.

The paper's closing line names "inference in probabilistic graphical
models" as the next application of the framework; this module implements
it.  A discrete factor graph is encoded as a database: one relation per
factor, keys = assignments of the factor's variables, payloads = potential
values.  Then:

* the **partition function** Z is the query ``⊕_all_vars ⊗ factors`` over
  the ℝ ring — exactly a COUNT query whose payloads happen to be
  potentials, evaluated by variable elimination along the variable order;
* **marginals** are the same query with the target variable free;
* **MAP values** swap in the max-product semiring (Appendix A) — same view
  tree, different ring.

Because ℝ has additive inverses, sum-product inference is *incrementally
maintainable*: changing a potential entry (e.g. conditioning on evidence by
zeroing rows of a unary factor) is a payload delta, and F-IVM propagates it
through the elimination tree instead of re-running inference.  Max-product
lacks inverses, so MAP inference supports static evaluation and insert-only
refinement.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.core.engine import FIVMEngine
from repro.core.query import Query
from repro.core.variable_order import VariableOrder
from repro.core.view_tree import build_view_tree
from repro.data.database import Database
from repro.data.relation import Relation
from repro.rings.numeric import MaxProductSemiring, RealRing

__all__ = ["FactorGraph", "SumProductInference", "MaxProductInference"]


class FactorGraph:
    """A discrete factor graph: variables with finite domains and factors."""

    def __init__(self):
        self.domains: Dict[str, Tuple[object, ...]] = {}
        self.factors: Dict[str, Tuple[Tuple[str, ...], Dict[tuple, float]]] = {}

    def add_variable(self, name: str, domain: Iterable[object]) -> "FactorGraph":
        if name in self.domains:
            raise ValueError(f"variable {name!r} already declared")
        domain = tuple(domain)
        if not domain:
            raise ValueError(f"variable {name!r} needs a non-empty domain")
        self.domains[name] = domain
        return self

    def add_factor(
        self,
        name: str,
        variables: Sequence[str],
        table: Mapping[tuple, float],
    ) -> "FactorGraph":
        """Register a potential table over ``variables``.

        Missing assignments are implicitly zero; potentials must be
        non-negative (a requirement of the max-product semiring and of
        probabilistic semantics).
        """
        if name in self.factors:
            raise ValueError(f"factor {name!r} already declared")
        unknown = [v for v in variables if v not in self.domains]
        if unknown:
            raise ValueError(f"undeclared variables {unknown}")
        for assignment, value in table.items():
            if len(assignment) != len(variables):
                raise ValueError(
                    f"assignment {assignment} does not match {variables}"
                )
            if value < 0:
                raise ValueError("potentials must be non-negative")
        self.factors[name] = (tuple(variables), dict(table))
        return self

    # ------------------------------------------------------------------

    def schemas(self) -> Dict[str, Tuple[str, ...]]:
        return {name: vars_ for name, (vars_, _) in self.factors.items()}

    def database(self, ring) -> Database:
        db = Database()
        for name, (variables, table) in self.factors.items():
            rel = Relation(name, variables, ring)
            for assignment, value in table.items():
                rel.add(assignment, float(value))
            db.add(rel)
        return db

    def brute_force(
        self, free: Sequence[str] = (), mode: str = "sum"
    ) -> Dict[tuple, float]:
        """Exhaustive reference: sum/max over all complete assignments."""
        import itertools

        names = list(self.domains)
        out: Dict[tuple, float] = {}
        for values in itertools.product(*(self.domains[v] for v in names)):
            binding = dict(zip(names, values))
            weight = 1.0
            for variables, table in self.factors.values():
                weight *= table.get(tuple(binding[v] for v in variables), 0.0)
                if weight == 0.0:
                    break
            if weight == 0.0:
                continue
            key = tuple(binding[v] for v in free)
            if mode == "sum":
                out[key] = out.get(key, 0.0) + weight
            else:
                out[key] = max(out.get(key, 0.0), weight)
        return out


class SumProductInference:
    """Exact sum-product inference, incrementally maintained by F-IVM."""

    def __init__(
        self,
        graph: FactorGraph,
        free: Sequence[str] = (),
        order: Optional[VariableOrder] = None,
    ):
        self.graph = graph
        self.ring = RealRing(tolerance=1e-12)
        self.query = Query(
            "sum_product", graph.schemas(), free=tuple(free), ring=self.ring
        )
        self.engine = FIVMEngine(
            self.query, order=order, db=graph.database(self.ring)
        )
        self._shadow = graph.database(self.ring)

    def partition_function(self) -> float:
        """Z (only for queries with no free variables)."""
        if self.query.free:
            raise ValueError("partition function needs free=()")
        return self.engine.result().payload(())

    def marginal(self) -> Dict[tuple, float]:
        """The normalized distribution over the free variables."""
        contents = dict(self.engine.result().items())
        total = sum(contents.values())
        if total <= 0:
            raise ValueError("all-zero distribution (contradictory evidence?)")
        return {key: value / total for key, value in contents.items()}

    def update_potential(
        self, factor: str, assignment: tuple, new_value: float
    ) -> None:
        """Change one potential entry; the delta propagates incrementally."""
        if new_value < 0:
            raise ValueError("potentials must be non-negative")
        current = self._shadow.relation(factor).payload(tuple(assignment))
        delta_value = new_value - current
        if delta_value == 0.0:
            return
        schema = self.query.schema_of(factor)
        delta = Relation(factor, schema, self.ring, {tuple(assignment): delta_value})
        self.engine.apply_update(delta)
        self._shadow.apply_update(delta.copy())

    def condition(self, variable: str, value: object) -> None:
        """Condition on evidence ``variable = value``.

        Zeroes every potential entry inconsistent with the evidence in the
        factors mentioning the variable — a batch of payload deltas, each
        maintained incrementally.
        """
        if variable not in self.graph.domains:
            raise KeyError(f"unknown variable {variable!r}")
        for factor, (variables, _) in self.graph.factors.items():
            if variable not in variables:
                continue
            position = variables.index(variable)
            shadow = self._shadow.relation(factor)
            doomed = [
                key for key in shadow.keys() if key[position] != value
            ]
            for key in doomed:
                self.update_potential(factor, key, 0.0)


class MaxProductInference:
    """Exact MAP inference via the max-product semiring (static/insert-only)."""

    def __init__(
        self,
        graph: FactorGraph,
        order: Optional[VariableOrder] = None,
    ):
        self.graph = graph
        self.ring = MaxProductSemiring()
        self.query = Query(
            "max_product", graph.schemas(), free=(), ring=self.ring
        )
        self.order = order or VariableOrder.auto(self.query)
        self._db = graph.database(self.ring)

    def map_value(self) -> float:
        """The maximal product of potentials over complete assignments."""
        tree = build_view_tree(self.query, self.order)
        result = tree.evaluate(self._db)[tree.root.name]
        return result.payload(())

    def map_assignment(self) -> Tuple[Dict[str, object], float]:
        """A maximizing assignment, decoded variable by variable.

        Conditions each variable on its max-marginal argmax in turn; exact
        regardless of ties (re-evaluating after each conditioning keeps the
        remaining problem consistent).
        """
        assignment: Dict[str, object] = {}
        db = self.graph.database(self.ring)
        best = self.map_value()
        for variable in self.graph.domains:
            query = Query(
                "decode", self.graph.schemas(), free=(variable,), ring=self.ring
            )
            tree = build_view_tree(query)
            result = tree.evaluate(db)[tree.root.name]
            choice = max(result.items(), key=lambda item: item[1])[0][0]
            assignment[variable] = choice
            # Condition db on the choice.
            for factor, (variables, _) in self.graph.factors.items():
                if variable not in variables:
                    continue
                position = variables.index(variable)
                contents = db.relation(factor)
                doomed = [k for k in contents.keys() if k[position] != choice]
                for key in doomed:
                    del contents._data[key]
        return assignment, best
