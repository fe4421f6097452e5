"""The one-row walk: :meth:`FIVMEngine.apply_update` of a one-row delta
threads one ``(key, payload)`` row up the relation's planned path.

Count-based guards, no clocks: what one such update builds, absorbs and
runs; the fan-out hand-off held to the interpreter backend; the view-write
numbering a :class:`FaultPlan` sees, the same as on the bulk path; and
which end-to-end workloads take the walk at all.
"""

from __future__ import annotations

import pytest

from repro.core import FIVMEngine, Query, build_view_tree
from repro.core.view_tree import elide_copies
from repro.core.faults import FaultPlan, InjectedFault
from repro.data import Relation
from repro.rings import INT_RING, Lifting

from tests.conftest import (
    PAPER_SCHEMAS,
    make_database,
    paper_variable_order,
    spy_triggers,
)
from tests.core.test_differential_random import RING_FAMILIES

#: Figure 2c's database with each value ``x7`` read as the number 7 (lifts
#: take numbers).
ROWS = {
    "R": [(1, 1), (1, 2), (2, 3), (3, 4)],
    "S": [(1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 2, 4)],
    "T": [(1, 1), (2, 2), (2, 3), (3, 4)],
}


def retailer_b1():
    """The ``retailer_b1`` engine at the e2e ``--quick`` size after its
    whole stream, and one live row per relation, all on one join result
    (a one-row update of any of them reaches the root)."""
    from benchmarks.e2e import run as e2e
    from benchmarks.e2e.harness import final_counts
    from benchmarks.e2e.w_retailer import SCHEMAS

    instance = e2e.WORKLOADS["retailer_b1"](3, True)
    state = instance.setup()
    instance.run(state)
    live = final_counts(SCHEMAS, instance.warm + instance.ops)

    def row(rel, **match):
        """The first live row of ``rel`` with the given attribute values."""
        schema = SCHEMAS[rel]
        return next(
            key for key in live[rel]
            if all(key[schema.index(a)] == v for a, v in match.items())
        )

    inventory = row("Inventory")
    locn, dateid, ksn, _ = inventory
    location = row("Location", locn=locn)
    return state.engine, {
        "Inventory": inventory,
        "Item": row("Item", ksn=ksn),
        "Weather": row("Weather", locn=locn, dateid=dateid),
        "Location": location,
        "Census": row("Census", zip=location[1]),
    }


def test_one_row_update_builds_only_its_root_delta(monkeypatch):
    """On the Retailer cofactor engine: one trigger run per node of the
    relation's path and, unless a node's output fans out, one
    ``Relation`` built inside ``apply_update`` (the returned root delta)
    and no ``absorb_bulk``."""
    engine, rows = retailer_b1()
    ring = engine.query.ring
    deltas = {
        rel: Relation(rel, engine.tree.leaves[rel].keys, ring, {row: ring.one})
        for rel, row in rows.items()
    }
    built, bulk = [], []
    init, absorb_bulk = Relation.__init__, Relation.absorb_bulk
    monkeypatch.setattr(
        Relation, "__init__",
        lambda self, name, *args, **kwargs: built.append(name)
        or init(self, name, *args, **kwargs),
    )
    monkeypatch.setattr(
        Relation, "absorb_bulk",
        lambda self, delta: bulk.append(self.name) or absorb_bulk(self, delta),
    )
    runs = spy_triggers(engine, monkeypatch)
    for rel, delta in deltas.items():
        del built[:], bulk[:], runs[:]
        assert len(engine.apply_update(delta)) == 1
        assert runs == [step.node.name for step in engine._paths[rel]]
        if rel in ("Item", "Census"):
            # A ksn (zip) row probes Inventory (Location) on it and
            # extends keys its node keeps: the output fans out and the
            # rest of the path runs on relations.
            assert len(built) > 1 and bulk, rel
        else:
            assert built == [engine.tree.root.name] and bulk == [], rel


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_a_fanned_out_row_equals_the_interpreter(ring_name, monkeypatch):
    """A ``T`` row probes the bucket of ``V@E_S`` on ``C`` and extends
    ``A``, which ``V@C_ST`` keeps: two keys leave that node and the walk
    hands a relation to the general walk for the root."""
    ring, lifts = RING_FAMILIES[ring_name](("A", "B", "C", "D", "E"))
    query = Query("Q", PAPER_SCHEMAS, ring=ring, lifting=Lifting(ring, lifts))
    db = make_database(PAPER_SCHEMAS, ring, ROWS)
    walked = FIVMEngine(query, paper_variable_order(), db=db)
    interpreted = FIVMEngine(
        query, paper_variable_order(), db=db, backend="interpreter"
    )
    keys_out = []
    entry = next(s for s in walked._paths["T"] if s.node.name == "V@C_ST")
    trigger = entry.program._fn
    monkeypatch.setattr(
        entry.program, "_fn",
        lambda items, out: trigger(items, out) or keys_out.append(len(out)),
    )

    def delta():
        return Relation("T", ("C", "D"), ring, {(2, 9): ring.one})

    walked_root = walked.apply_update(delta())
    assert keys_out == [2]
    assert interpreted.apply_update(delta()).same_as(walked_root)
    for name, view in interpreted.views.items():
        assert view.same_as(walked.views[name]), name


def test_several_contributions_to_one_key_fold_like_the_interpreter():
    """Without group-aware probes a star root iterates its sibling's
    bucket: one row puts one contribution per matching ``S`` row on the
    same key, which the walk folds with ``ring.sum``."""
    from repro.apps.conjunctive import _factorize_tree

    schemas = {"R": ("P", "X"), "S": ("P", "Y")}
    query = Query("star", schemas, ring=INT_RING)
    rows = {"R": [(1, 1), (2, 1)], "S": [(1, 1), (1, 2), (1, 3), (2, 1)]}

    def engine(**kwargs):
        tree = elide_copies(
            _factorize_tree(build_view_tree(query), ("P", "X", "Y"))
        )
        return FIVMEngine(
            query, tree=tree, group_aware=False,
            db=make_database(schemas, INT_RING, rows), **kwargs,
        )

    walked, interpreted = engine(), engine(backend="interpreter")
    for target in (walked, interpreted):
        got = target.apply_update(Relation("R", ("P", "X"), INT_RING, {(1, 7): 1}))
        assert dict(got.items()) == {(1,): 3}
    for name, view in interpreted.views.items():
        assert view.same_as(walked.views[name]), name


@pytest.mark.parametrize("rel, row", [
    ("S", (1, 2, 9)),  # the whole path on the walk
    ("T", (2, 9)),  # fans out at V@C_ST, the root on relations
])
def test_a_write_fault_lands_on_the_same_view_as_on_the_bulk_path(rel, row):
    """``engine.write_view`` numbers the writes of a one-row update from
    the lowest stored view up to the root, like the bulk path; an error
    at the k-th leaves exactly the first k - 1 views updated."""
    query = Query("Q", PAPER_SCHEMAS, ring=INT_RING)

    def engine(**kwargs):
        return FIVMEngine(
            query, paper_variable_order(),
            db=make_database(PAPER_SCHEMAS, INT_RING, ROWS), **kwargs
        )

    def delta():
        return Relation.from_tuples(rel, PAPER_SCHEMAS[rel], INT_RING, [row])

    order = {}
    before = engine()
    for backend in (None, "interpreter"):
        reference = engine(backend=backend)
        names, write_view = [], reference._write_view
        reference._write_view = (
            lambda name, d: names.append(name) or write_view(name, d)
        )
        reference.apply_update(delta())
        order[backend] = names
    after = reference
    assert order[None] == order["interpreter"]
    assert len(order[None]) == 3
    loads = len(before.views)  # initialize writes every stored view once
    for k, failing in enumerate(order[None], start=1):
        plan = FaultPlan({"engine.write_view": {loads + k: "error"}})
        faulted = engine(faults=plan)
        with pytest.raises(InjectedFault):
            faulted.apply_update(delta())
        assert plan.fired == [("engine.write_view", loads + k, "error")]
        for name, view in faulted.views.items():
            state = after if name in order[None][:k - 1] else before
            assert view.same_as(state.views[name]), (failing, name)


@pytest.mark.parametrize("workload, walks", [
    ("retailer_b1", True), ("join_factorized", True),
    ("retailer_b600", False), ("chain_rank1", False),
])
def test_which_workloads_take_the_one_row_walk(workload, walks, monkeypatch):
    """Only the single-tuple workloads walk rows: ``retailer_b600``
    sends deltas of 3–40 rows at this size (≥ 20 at full size) and
    ``chain_rank1`` factorized updates, so the walk cannot move either."""
    from benchmarks.e2e import run as e2e

    instance = e2e.WORKLOADS[workload](3, True)
    state = instance.setup()
    calls = []
    walk_row = FIVMEngine._walk_row
    monkeypatch.setattr(
        FIVMEngine, "_walk_row",
        lambda self, *args: calls.append(1) or walk_row(self, *args),
    )
    instance.run(state)
    assert bool(calls) == walks
