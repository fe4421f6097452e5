"""Join hypergraphs: connectivity, components, and GYO reduction.

A query's hypergraph has one vertex per variable and one hyperedge per
relation (its schema).  Appendix B of the paper uses the GYO reduction
(Fagin et al. variant [15]) to decide which candidate indicator projections
participate in a cycle; the connected-component decomposition is what the
recursive-IVM baseline uses to mirror DBToaster's view factoring.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

__all__ = [
    "Hyperedge",
    "gyo_residual",
    "connected_components",
]

#: An identified hyperedge: (label, vertex set).  Labels keep duplicate
#: schemas distinct, which matters when deciding *which* edge is in a cycle.
Hyperedge = Tuple[str, FrozenSet[str]]


def _as_edges(edges: Iterable[Tuple[str, Iterable[str]]]) -> List[Hyperedge]:
    return [(label, frozenset(vertices)) for label, vertices in edges]


def gyo_residual(
    edges: Iterable[Tuple[str, Iterable[str]]]
) -> List[Hyperedge]:
    """Run the GYO ear-removal reduction; return the irreducible residual.

    Repeatedly (a) delete vertices that occur in exactly one hyperedge and
    (b) delete hyperedges contained in another hyperedge.  The hypergraph is
    α-acyclic iff the residual is empty; otherwise the residual edges are
    exactly those participating in the cyclic core — the ``incycle`` set of
    Figure 10.
    """
    work: List[Tuple[str, Set[str]]] = [
        (label, set(vs)) for label, vs in _as_edges(edges)
    ]
    changed = True
    while changed and work:
        changed = False
        # (a) Remove vertices appearing in exactly one edge.
        occurrences: Dict[str, int] = {}
        for _, vs in work:
            for v in vs:
                occurrences[v] = occurrences.get(v, 0) + 1
        for _, vs in work:
            lonely = {v for v in vs if occurrences[v] == 1}
            if lonely:
                vs -= lonely
                changed = True
        # Drop edges that became empty.
        nonempty = [(label, vs) for label, vs in work if vs]
        if len(nonempty) != len(work):
            work = nonempty
            changed = True
        # (b) Remove edges contained in another edge (keep one representative
        # among exact duplicates).
        survivors: List[Tuple[str, Set[str]]] = []
        for i, (label, vs) in enumerate(work):
            absorbed = False
            for j, (_, other) in enumerate(work):
                if i == j:
                    continue
                if vs < other or (vs == other and j < i):
                    absorbed = True
                    break
            if absorbed:
                changed = True
            else:
                survivors.append((label, vs))
        work = survivors
    return [(label, frozenset(vs)) for label, vs in work]


def connected_components(
    edges: Iterable[Tuple[str, Iterable[str]]]
) -> List[List[str]]:
    """Partition edge labels into connected components (shared-variable links).

    Edges with no vertices (fully aggregated relations) each form their own
    component.  Used by the recursive-IVM baseline to factor disconnected
    delta queries into products, as DBToaster does.
    """
    edge_list = _as_edges(edges)
    parent: Dict[str, str] = {label: label for label, _ in edge_list}

    def find(x: str) -> str:
        """Union-find root of ``x`` with path halving."""
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        """Merge the components of ``a`` and ``b``."""
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    by_vertex: Dict[str, str] = {}
    for label, vs in edge_list:
        for v in vs:
            if v in by_vertex:
                union(label, by_vertex[v])
            else:
                by_vertex[v] = label

    groups: Dict[str, List[str]] = {}
    for label, _ in edge_list:
        groups.setdefault(find(label), []).append(label)
    return list(groups.values())

