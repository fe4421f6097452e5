"""F-IVM: factorized incremental view maintenance.

A from-scratch reproduction of "Incremental View Maintenance with Triple
Lock Factorization Benefits" (Nikolic & Olteanu, SIGMOD 2018): a unified,
higher-order IVM engine over ring payloads covering SUM/COUNT aggregates,
matrix chain multiplication with low-rank updates, cofactor-matrix
maintenance for learning linear regression models over joins, and
conjunctive query evaluation with listing or factorized result
representations, plus indicator projections for cyclic joins.

Quickstart::

    from repro import Query, FIVMEngine, Relation, INT_RING

    query = Query("Q", {"R": ("A", "B"), "S": ("B", "C")}, ring=INT_RING)
    engine = FIVMEngine(query)
    engine.apply_update(Relation("R", ("A", "B"), INT_RING, {(1, 2): 1}))
    engine.apply_update(Relation("S", ("B", "C"), INT_RING, {(2, 9): 1}))
    assert engine.result().payload(()) == 1
"""

from repro.apps import (
    ConjunctiveQuery,
    CofactorModel,
    FactorGraph,
    MaxProductInference,
    SumProductInference,
    DenseChainFIVM,
    DenseChainFirstOrder,
    DenseChainReeval,
    MatrixChainIVM,
    TrainedModel,
    cofactor_query,
)
from repro.baselines import (
    FactorizedReevaluator,
    FirstOrderIVM,
    NaiveReevaluator,
    RecursiveIVM,
    ScalarAggregateBank,
    SQLOptCofactor,
)
from repro.core import (
    FIVMEngine,
    FactorizedUpdate,
    Query,
    VariableOrder,
    ViewTree,
    add_indicator_projections,
    build_view_tree,
    materialization_flags,
)
from repro.data import Database, IndicatorView, Relation
from repro.rings import (
    BOOL_SEMIRING,
    INT_RING,
    REAL_RING,
    CofactorRing,
    CofactorTriple,
    IntegerRing,
    Lifting,
    ProductRing,
    RealRing,
    RelationalRing,
    SquareMatrixRing,
    VectorRing,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Query", "VariableOrder", "ViewTree", "build_view_tree", "FIVMEngine",
    "FactorizedUpdate", "materialization_flags",
    "add_indicator_projections",
    # data
    "Relation", "Database", "IndicatorView",
    # rings
    "IntegerRing", "RealRing", "INT_RING", "REAL_RING", "BOOL_SEMIRING",
    "SquareMatrixRing", "CofactorRing", "CofactorTriple", "ProductRing",
    "RelationalRing", "VectorRing", "Lifting",
    # apps
    "ConjunctiveQuery", "CofactorModel", "TrainedModel", "cofactor_query",
    "MatrixChainIVM", "DenseChainFIVM", "DenseChainFirstOrder",
    "DenseChainReeval",
    "FactorGraph", "SumProductInference", "MaxProductInference",
    # baselines
    "FirstOrderIVM", "RecursiveIVM", "ScalarAggregateBank",
    "FactorizedReevaluator", "NaiveReevaluator", "SQLOptCofactor",
]
