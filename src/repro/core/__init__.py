"""F-IVM core: variable orders, view trees, deltas, materialization, engine."""

from repro.core.checkpoint import (
    JournaledFIVMEngine,
    UpdateJournal,
    restore_snapshot,
    take_snapshot,
)
from repro.core.engine import (
    MATERIALIZATIONS,
    DeferredRelation,
    FIVMEngine,
)
from repro.core.factorized_update import FactorizedUpdate
from repro.core.faults import FaultPlan, InjectedCrash, InjectedFault
from repro.core.hypergraph import connected_components, gyo_residual
from repro.core.indicator_trees import IndicatorSpec, add_indicator_projections
from repro.core.materialization import (
    delta_sources,
    materialization_flags,
    materialized_views,
)
from repro.core.multiview import (
    MultiViewClient,
    MultiViewEngine,
)
from repro.core.query import Query
from repro.core.serving import ActiveSet, ViewClient, upquery
from repro.core.sharded import FrameConn, ShardedFIVMEngine, stable_hash
from repro.core.variable_order import VariableOrder, VONode
from repro.core.view_tree import ViewNode, ViewTree, build_view_tree, compute_view

__all__ = [
    "FIVMEngine",
    "MATERIALIZATIONS",
    "ActiveSet",
    "ViewClient",
    "MultiViewEngine",
    "MultiViewClient",
    "upquery",
    "DeferredRelation",
    "FrameConn",
    "ShardedFIVMEngine",
    "stable_hash",
    "JournaledFIVMEngine",
    "UpdateJournal",
    "take_snapshot",
    "restore_snapshot",
    "FaultPlan",
    "InjectedCrash",
    "InjectedFault",
    "FactorizedUpdate",
    "Query",
    "VariableOrder",
    "VONode",
    "ViewNode",
    "ViewTree",
    "build_view_tree",
    "compute_view",
    "materialization_flags",
    "materialized_views",
    "delta_sources",
    "add_indicator_projections",
    "IndicatorSpec",
    "gyo_residual",
    "connected_components",
]
