"""Self-joins: relations occurring several times in a query (Section 4).

The paper treats a relation occurring k times as k instances in the
(multi)set U: "the instances representing the same relation are at
different leaves in the delta tree and lead to changes along multiple
leaf-to-root paths", handled as a sequence of per-instance updates.  Here
self-joins register the physical relation under distinct logical names and
updates are applied to each instance in turn.
"""

import pytest

from repro.core import FIVMEngine, Query, build_view_tree
from repro.data import Database, Relation
from repro.rings import INT_RING

from tests.conftest import chain_order, recompute


class TestSelfJoinViaInstances:
    """Paths of length two in a graph: E(A,B) ⋈ E(B,C) as E1, E2."""

    SCHEMAS = {"E1": ("A", "B"), "E2": ("B", "C")}

    def _apply_edge(self, engine, db, edge, multiplicity):
        """One physical edge insert = sequential updates to both instances."""
        a, b = edge
        for name, key in (("E1", (a, b)), ("E2", (a, b))):
            delta = Relation(name, self.SCHEMAS[name], INT_RING, {key: multiplicity})
            engine.apply_update(delta.copy())
            db.apply_update(delta)

    def test_two_hop_path_count(self, rng):
        q = Query("paths", self.SCHEMAS, ring=INT_RING)
        order = chain_order(("B", "A", "C"))
        engine = FIVMEngine(q, order)
        db = Database(
            Relation(name, schema, INT_RING)
            for name, schema in self.SCHEMAS.items()
        )
        from collections import Counter

        edges = Counter()
        for _ in range(60):
            edge = (rng.randint(0, 4), rng.randint(0, 4))
            if edges[edge] and rng.random() < 0.4:
                self._apply_edge(engine, db, edge, -1)
                edges[edge] -= 1
            else:
                self._apply_edge(engine, db, edge, +1)
                edges[edge] += 1
            assert engine.result().same_as(recompute(q, db, order))
        # Sanity: the maintained count equals the weighted 2-path count.
        expected = sum(
            m1 * m2
            for (a, b), m1 in edges.items()
            for (b2, c), m2 in edges.items()
            if b == b2
        )
        assert engine.result().payload(()) == expected

    def test_instances_have_distinct_leaves(self):
        """Each registered instance owns its own leaf and update path."""
        q = Query("paths", self.SCHEMAS, ring=INT_RING)
        tree = build_view_tree(q, chain_order(("B", "A", "C")))
        assert set(tree.leaves) == {"E1", "E2"}
        with pytest.raises(KeyError):
            tree.leaves["E3"]

    def test_triangle_as_three_instances(self, rng):
        """The triangle query over one edge relation, via three instances."""
        schemas = {"E1": ("A", "B"), "E2": ("B", "C"), "E3": ("C", "A")}
        q = Query("tri", schemas, ring=INT_RING)
        order = chain_order(("A", "B", "C"))
        engine = FIVMEngine(q, order)
        db = Database(
            Relation(n, s, INT_RING) for n, s in schemas.items()
        )
        edges = []
        for _ in range(40):
            edge = (rng.randint(0, 3), rng.randint(0, 3))
            edges.append(edge)
            for name in schemas:
                delta = Relation(name, schemas[name], INT_RING, {edge: 1})
                engine.apply_update(delta.copy())
                db.apply_update(delta)
            assert engine.result().same_as(recompute(q, db, order))
        # Directed triangles through the shared edge set.
        count = 0
        from collections import Counter

        multiplicity = Counter(edges)
        for (a, b), m1 in multiplicity.items():
            for (b2, c), m2 in multiplicity.items():
                if b2 != b:
                    continue
                m3 = multiplicity.get((c, a), 0)
                count += m1 * m2 * m3
        assert engine.result().payload(()) == count
