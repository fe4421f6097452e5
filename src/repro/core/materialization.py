"""Which views to materialize and maintain (Figure 5).

Given a view tree and the set of updatable relations ``U``, a view is
materialized iff

* it is the root (it holds the query result), or
* it is needed to compute its parent's delta for updates to a relation it is
  not itself defined over: ``(rels(parent) \\ rels(V)) ∩ U ≠ ∅``.

Equivalently: a view is stored iff some *sibling* subtree contains an
updatable delta source.  We use that formulation because indicator
projections (Appendix B) introduce delta sources that are not leaves: an
indicator ``∃_A R`` hosted at a view behaves like an extra child of that
view, so when its base relation is updatable the host's other children — and
the siblings along the host-to-root path — must be stored too.

Leaves follow the same rule: a base relation is stored only when some
sibling needs it (Example 4.2: for U = {T}, only the root, V@E_S and V@B_R
are stored).  Bases observed by updatable indicators are additionally stored
to derive support changes.

µ is what the *triggers* need.  A reader may need more — enumeration of a
factorized result reads views no delta probes — so an engine can be told
to keep named views beside µ (:func:`resolve_flags`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.core.view_tree import ViewNode, ViewTree

__all__ = [
    "materialization_flags", "materialized_views", "delta_sources",
    "resolve_flags",
]


def delta_sources(
    tree: ViewTree, updatable: Iterable[str]
) -> Dict[str, FrozenSet[str]]:
    """Per-view delta sources: updatable relations in the subtree plus
    phantom sources for hosted indicator projections over updatable bases.

    Used both by µ (a view is stored iff a sibling subtree has a source) and
    by the engine's delta-join planner (a child can emit deltas iff its
    subtree has a source).
    """
    updates: Set[str] = set(updatable)
    sources: Dict[str, FrozenSet[str]] = {}

    def collect(node: ViewNode) -> FrozenSet[str]:
        """Updatable delta sources reaching ``node``, bottom-up."""
        found: Set[str] = set(node.relations & updates)
        for ind in node.indicators:
            if ind.base_name in updates:
                found.add(f"∃{ind.base_name}@{node.name}")
        for child in node.children:
            found |= collect(child)
        sources[node.name] = frozenset(found)
        return sources[node.name]

    collect(tree.root)
    return sources


def materialization_flags(
    tree: ViewTree, updatable: Iterable[str]
) -> Dict[str, bool]:
    """Map each view name to whether µ(τ, U) materializes it."""
    updates: Set[str] = set(updatable)
    unknown = updates - set(tree.query.relations)
    if unknown:
        raise KeyError(f"updatable relations {sorted(unknown)} not in query")

    sources = delta_sources(tree, updates)

    flags: Dict[str, bool] = {}

    def walk(node: ViewNode, parent: Optional[ViewNode]) -> None:
        """Decide materialization for ``node`` from its parent's sources."""
        if parent is None:
            flags[node.name] = True
        else:
            flags[node.name] = bool(sources[parent.name] - sources[node.name])
        for child in node.children:
            walk(child, node)

    walk(tree.root, None)

    # Indicator projections observe their base relation's support, so the
    # base must be stored whenever it is updatable (Appendix B).
    observed = {
        ind.base_name for node in tree.nodes for ind in node.indicators
    }
    for rel, leaf in tree.leaves.items():
        if rel in observed and rel in updates:
            flags[leaf.name] = True
    return flags


def resolve_flags(tree: ViewTree, updatable, materialize) -> Dict[str, bool]:
    """View name → stored, for an engine's ``materialize=`` parameter:
    µ(τ, U) for ``"auto"``, µ plus the named views for an iterable of
    names (views a reader needs beside the triggers'), every node for
    ``"all"``."""
    if materialize == "all":
        return {node.name: True for node in tree.nodes}
    flags = materialization_flags(tree, updatable)
    if materialize == "auto":
        return flags
    named = None if isinstance(materialize, str) else tuple(materialize)
    if named is None or any(name not in flags for name in named):
        raise ValueError(
            "materialize must be 'auto', 'all' or names of views of the "
            f"tree, not {materialize!r}"
        )
    flags.update(dict.fromkeys(named, True))
    return flags


def materialized_views(tree: ViewTree, updatable: Iterable[str]) -> Set[str]:
    """Names of the views µ selects (convenience wrapper)."""
    flags = materialization_flags(tree, updatable)
    return {name for name, flagged in flags.items() if flagged}
