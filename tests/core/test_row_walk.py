"""The generated one-row path: :meth:`FIVMEngine.apply_update` of a
one-row delta runs the relation's path function (``engine._row_paths``),
which writes the leaf and every stored view up to the root in one call.

Count-based guards, no clocks: what one such update calls, builds and
absorbs; the fan-out hand-off held to the interpreter backend; the
view-write numbering a :class:`FaultPlan` sees, the same as on the bulk
path; which end-to-end workloads take the path at all; and the two
things a write inlined at planning time must not freeze — an index
registered later, and the packed ℝ root.  Over the cofactor ring the
path multiplies rows through term tables fixed at planning: it makes no
ring call, and a payload off the planned layout (a widened view) leaves
the row to the general walk, exactly.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core import FIVMEngine, Query, build_view_tree
from repro.core.view_tree import elide_copies
from repro.core.faults import FaultPlan, InjectedFault
from repro.data import Relation
from repro.data.relation import DeferredRelation
from repro.rings import INT_RING, REAL_RING, Lifting

from tests.conftest import (
    PAPER_SCHEMAS,
    make_database,
    paper_variable_order,
    pinned,
    spy_paths,
    spy_slot_runs,
    write_hits,
)
from repro.datasets import retailer
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


def paper_engine(ring=INT_RING, lifts=None, **kwargs):
    """The Figure 2 query over ``ROWS``."""
    lifting = Lifting(ring, lifts) if lifts is not None else None
    query = Query("Q", PAPER_SCHEMAS, ring=ring, lifting=lifting)
    return FIVMEngine(
        query, paper_variable_order(),
        db=make_database(PAPER_SCHEMAS, ring, ROWS), **kwargs,
    )


def test_one_row_update_builds_only_its_root_delta(monkeypatch):
    """On the Retailer cofactor engine: one path call per one-row update
    and, unless a node's output fans out, no trigger run on relations,
    one ``Relation`` built (the returned root delta) and no
    ``absorb_bulk``; a fan-out runs the rest of the path on relations."""
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
    calls = spy_paths(engine, monkeypatch)
    runs = spy_slot_runs(monkeypatch)
    fanned, fan_out = [], engine._fan_out
    monkeypatch.setattr(
        engine, "_fan_out",
        lambda leaf, at, data: fanned.append(at) or fan_out(leaf, at, data),
    )
    for rel, delta in deltas.items():
        del built[:], bulk[:], calls[:], runs[:], fanned[:]
        assert len(engine.apply_update(delta)) == 1
        assert calls == [rel]
        path = [step.node.name for step in engine._paths[rel]]
        if rel in ("Item", "Census"):
            # A ksn (zip) row probes Inventory (Location) on it and
            # extends keys its node keeps: the output fans out and every
            # step after it runs on relations.
            assert len(fanned) == 1, rel
            at = fanned[0]
            assert at + 1 < len(path), rel
            assert len(built) > 1 and bulk, rel
            assert runs == path[at + 1:], rel
        else:
            assert fanned == [] and built == [engine.tree.root.name], rel
            assert bulk == [] and runs == [], rel


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_a_fanned_out_row_equals_the_interpreter(ring_name, monkeypatch):
    """A ``T`` row probes the bucket of ``V@E_S`` on ``C`` and extends
    ``A``, which ``V@C_ST`` keeps: two keys leave that node and the path
    hands a relation to the general walk for the root."""
    ring, lifts = RING_FAMILIES[ring_name](("A", "B", "C", "D", "E"))
    walked = paper_engine(ring, lifts)
    interpreted = paper_engine(ring, lifts, backend="interpreter")
    fanned, fan_out = [], walked._fan_out
    monkeypatch.setattr(
        walked, "_fan_out",
        lambda leaf, at, data: fanned.append(
            (walked._paths["T"][at].node.name, len(data))
        ) or fan_out(leaf, at, data),
    )

    def delta():
        return Relation("T", ("C", "D"), ring, {(2, 9): ring.one})

    walked_root = walked.apply_update(delta())
    assert fanned == [("V@C_ST", 2)]
    assert interpreted.apply_update(delta()).same_as(walked_root)
    for name, view in interpreted.views.items():
        assert view.same_as(walked.views[name]), name


def test_several_contributions_to_one_key_fold_like_the_interpreter():
    """Without group-aware probes a star root iterates its sibling's
    bucket: one row puts one contribution per matching ``S`` row on the
    same key, which the path folds with ``ring.sum``."""
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
    ("S", (1, 2, 9)),  # the whole path generated
    ("T", (2, 9)),  # fans out at V@C_ST, the root on relations
])
def test_a_write_fault_lands_on_the_same_view_as_on_the_bulk_path(rel, row):
    """``engine.write_view`` numbers the writes of a one-row update from
    the leaf up to the root, like the bulk path: one hit per stored view
    on the path, and an error at the k-th leaves exactly the first k - 1
    views updated."""

    def delta():
        return Relation.from_tuples(rel, PAPER_SCHEMAS[rel], INT_RING, [row])

    before, after = paper_engine(), paper_engine()
    reference = paper_engine(backend="interpreter")
    order, write_view = [], reference._write_view
    reference._write_view = (
        lambda name, d: order.append(name) or write_view(name, d)
    )
    reference.apply_update(delta())
    after.apply_update(delta())
    assert len(order) == 3
    loads = len(before.views)  # initialize writes every stored view once
    counted = paper_engine(faults=FaultPlan({}))
    assert rel in counted._row_paths
    counted.apply_update(delta())
    assert write_hits(counted) == loads + len(order)
    for k, failing in enumerate(order, start=1):
        plan = FaultPlan({"engine.write_view": {loads + k: "error"}})
        faulted = paper_engine(faults=plan)
        with pytest.raises(InjectedFault):
            faulted.apply_update(delta())
        assert plan.fired == [("engine.write_view", loads + k, "error")]
        for name, view in faulted.views.items():
            state = after if name in order[:k - 1] else before
            assert view.same_as(state.views[name]), (failing, name)


@pytest.mark.parametrize("workload, share", [
    ("retailer_b1", 1), ("join_factorized", 1),
    ("retailer_b600", 0), ("chain_rank1", 0),
])
def test_which_workloads_take_the_generated_path(workload, share, monkeypatch):
    """Every update of the single-tuple workloads runs a generated path,
    none of the others': ``retailer_b600`` sends deltas of 3–40 rows at
    this size (≥ 20 at full size) and ``chain_rank1`` factorized updates."""
    from benchmarks.e2e import run as e2e

    instance = e2e.WORKLOADS[workload](3, True)
    state = instance.setup()
    updates = []
    apply_update = FIVMEngine.apply_update
    monkeypatch.setattr(
        FIVMEngine, "apply_update",
        lambda self, delta: updates.append(1) or apply_update(self, delta),
    )
    calls = spy_paths(state.engine, monkeypatch)
    instance.run(state)
    assert len(calls) == share * len(updates)
    assert calls or not share


def test_an_index_registered_after_binding_stays_exact():
    """The paths are bound before any reader registers an index
    (``_EnumerationPlan`` does on the first ``enumerate()``; on the
    Housing star its indexes are the triggers' own, so this test adds one
    per relation the same way).  After a stream of one-row updates
    (inserts, deletes to zero) every bucket and sum of the late indexes
    equals a freshly registered index's."""
    from repro.apps import ConjunctiveQuery
    from repro.datasets import housing

    workload = housing.generate(scale=2, postcodes=4, seed=5)
    query = ConjunctiveQuery(
        "housing", workload.schemas, housing.ALL_VARIABLES,
        order=workload.variable_order,
    )
    engine = query.engine
    rng = np.random.default_rng(11)
    live = {rel: [] for rel in workload.schemas}
    for rel in workload.schemas:
        for row in workload.tables[rel][:3]:
            query.apply_update(
                Relation.from_tuples(rel, workload.schemas[rel], INT_RING, [row])
            )
            live[rel].append(row)
    next(iter(query.enumerate()))
    late = {
        rel: {engine.views[rel].schema[-1:]} for rel in workload.schemas
    }
    for rel, (index,) in late.items():
        assert index not in engine.views[rel]._indexes
        engine.views[rel].register_index(index)
    for step in range(200):
        rel = list(workload.schemas)[step % len(workload.schemas)]
        if live[rel] and rng.random() < 0.4:
            row, mult = live[rel].pop(int(rng.integers(len(live[rel])))), -1
        else:
            table = workload.tables[rel]
            row, mult = table[int(rng.integers(len(table)))], 1
            live[rel].append(row)
        query.apply_update(Relation(
            rel, workload.schemas[rel], INT_RING, {tuple(row): mult}
        ))
    for name, attrs in late.items():
        view = engine.views[name]
        for index in attrs:
            fresh = Relation(name, view.schema, INT_RING, dict(view.items()))
            fresh.register_index(index)
            _, buckets, sums = view._indexes[index]
            _, want_buckets, want_sums = fresh._indexes[index]
            assert buckets == want_buckets, (name, index)
            assert {k: v for k, v in sums.items() if v} == want_sums, (name, index)


def test_the_packed_real_root_is_written_through_add(monkeypatch):
    """Over ℝ the root is a :class:`DeferredRelation` that a rank-1 update
    leaves packed; a one-row update after it must fold the column first
    (it writes through ``Relation.add``, not a map bound at planning
    time), and a read then equals the interpreter's."""
    from repro.apps import MatrixChainIVM

    rng = np.random.default_rng(3)
    # I · A2 · I: a row of A2 meets one key of A1 and of A3, so a one-row
    # update stays one row up to the root.
    mats = [np.eye(10), rng.standard_normal((10, 10)), np.eye(10)]
    chain = MatrixChainIVM(mats, updatable=["A2"])
    with pinned("interpreter"):
        oracle = MatrixChainIVM(mats, updatable=["A2"])
    u, v = rng.standard_normal(10), rng.standard_normal(10)
    for target in (chain, oracle):
        target.apply_rank_one(2, u, v)
    root = chain.engine.result()
    assert isinstance(root, DeferredRelation)
    assert root._packed_form is not None, "fixture: the root is left packed"
    calls = spy_paths(chain.engine, monkeypatch)
    fanned = []
    monkeypatch.setattr(
        chain.engine, "_fan_out", lambda *args: fanned.append(args)
    )
    for target in (chain, oracle):
        target.engine.apply_update(
            Relation("A2", ("X2", "X3"), REAL_RING, {(1, 2): 0.5})
        )
    assert calls == ["A2"] and fanned == []
    assert root._packed_form is None
    np.testing.assert_allclose(chain.result_matrix(), oracle.result_matrix())
    np.testing.assert_allclose(
        chain.result_matrix(), mats[0] @ (mats[1] + np.outer(u, v)
        + 0.5 * np.eye(10)[:, [1]] @ np.eye(10)[[2]]) @ mats[2],
    )


def retailer_pair():
    """A Retailer cofactor engine and the interpreter over one query,
    both empty, and the relations' rows in a fixed order."""
    from repro.apps.regression import cofactor_query

    query = cofactor_query("rows", retailer.SCHEMAS, retailer.ALL_VARIABLES)
    workload = retailer.generate(scale=0.02, seed=3)
    return tuple(
        FIVMEngine(query, retailer.variable_order(), **kwargs)
        for kwargs in ({}, {"backend": "interpreter"})
    ) + (workload.tables,)


def one_row(engine, rel, row, payload):
    return engine.apply_update(Relation(
        rel, engine.tree.leaves[rel].keys, engine.query.ring, {row: payload}
    ))


def test_a_widened_layout_stays_exact():
    """An Inventory row whose payload carries a lifted variable
    (``ring.lift(5)(2.5)``) is off the plan, whose Inventory leaf has
    support ``()``: the guard re-plans before any write, widening
    ``V@inventoryunits_I`` from one variable to two and every view above
    it.  Then a 5-row Inventory delta whose payloads mix variables 5 and 7
    re-plans once more; and a fresh engine restores a snapshot taken
    after the widening, re-planning to the snapshot's layout.  Every
    update after each — 30 more one-row updates per relation, through
    the paths of the new plan — keeps every view and root delta equal to
    the interpreter's."""
    walked, interpreted, tables = retailer_pair()
    ring = walked.query.ring
    for step in range(40):
        for rel, table in tables.items():
            row = table[step % len(table)]
            got = one_row(walked, rel, row, ring.one)
            assert got.same_as(one_row(interpreted, rel, row, ring.one))
    row = tables["Inventory"][0]
    for engine in (walked, interpreted):
        one_row(engine, "Inventory", row, ring.lift(5)(2.5))
        assert engine.views["V@inventoryunits_I"]._data[row[:3]].support == (3, 5)
    assert walked._supports["V@inventoryunits_I"] == (3, 5)
    assert "Inventory" in walked._row_paths

    def lockstep(engines, seed):
        for step in range(30):
            for rel, table in tables.items():
                row = table[(7 * step + seed) % len(table)]
                payload = ring.from_int(1 if step % 3 else -1)
                want = one_row(interpreted, rel, row, payload)
                for engine in engines:
                    got = one_row(engine, rel, row, payload)
                    assert got.same_as(want), (step, rel)
        for name, view in interpreted.views.items():
            for engine in engines:
                assert engine.views[name].same_as(view), name

    lockstep([walked], 3)
    snapshot = walked.snapshot()
    mixed = {
        key: ring.lift(5 if i % 2 else 7)(float(i))
        for i, key in enumerate(tables["Inventory"][10:15])
    }
    want = interpreted.apply_update(
        Relation("Inventory", walked.tree.leaves["Inventory"].keys, ring,
                 dict(mixed)))
    got = walked.apply_update(
        Relation("Inventory", walked.tree.leaves["Inventory"].keys, ring,
                 dict(mixed)))
    assert got.same_as(want)
    assert walked._supports["V@inventoryunits_I"] == (3, 5, 7)
    lockstep([walked], 5)
    restored = FIVMEngine(walked.query, retailer.variable_order())
    restored.restore(snapshot)
    assert restored._supports["V@inventoryunits_I"] == (3, 5)
    # The restored engine replays what came after the snapshot.
    restored.apply_update(
        Relation("Inventory", walked.tree.leaves["Inventory"].keys, ring,
                 dict(mixed)))
    for step in range(30):
        for rel, table in tables.items():
            row = table[(7 * step + 5) % len(table)]
            one_row(restored, rel, row, ring.from_int(1 if step % 3 else -1))
    lockstep([walked, restored], 9)


@pytest.mark.parametrize("k", [2, 4, 11, 12, 31])
def test_k_row_deltas_equal_the_interpreter(k):
    """Deltas of ``k`` rows — both sides of ``MIN_BLOCK_MERGE_ROWS`` (12),
    below ``MIN_TRIGGER_ROWS`` (32) — run the scalar triggers in row form
    on packed deltas: for each relation in turn ``k`` rows are inserted,
    then, in the same order, deleted.  Every root delta and every view
    equals the interpreter's."""
    walked, interpreted, tables = retailer_pair()
    ring = walked.query.ring
    for rel, table in tables.items():  # the whole database, one row a call
        for row in table:
            walked_root = one_row(walked, rel, row, ring.one)
            assert walked_root.same_as(one_row(interpreted, rel, row, ring.one))
    for rel, table in tables.items():
        keys = walked.tree.leaves[rel].keys
        for payload in (ring.one, ring.from_int(-1)):
            delta = {row: payload for row in table[:k]}
            got = walked.apply_update(Relation(rel, keys, ring, dict(delta)))
            want = interpreted.apply_update(Relation(rel, keys, ring, delta))
            assert len(want) == 1, "fixture: the delta reaches the root"
            assert got.same_as(want), (rel, payload.count)
            for name, view in interpreted.views.items():
                assert walked.views[name].same_as(view), (rel, name)


@pytest.mark.parametrize("rows", [4, 16])
def test_k_row_calls_make_no_ring_call(rows, monkeypatch):
    """Counts, not clocks: over the quick Retailer stream at ``rows`` rows
    per call, ``apply_update`` calls no ``CofactorRing`` ``mul``, ``add``
    or ``sum``, and between the call and the read of the root delta it
    returns one ``CofactorTriple`` is built (``cofactor._triple``) per key
    of that delta, none elsewhere."""
    from benchmarks.e2e.harness import apply_ops
    from benchmarks.e2e.w_retailer import SCHEMAS, RetailerB1
    from repro.rings import cofactor

    calls, triples = [], [0]
    inside, reading = [False], [False]

    def spy(name, fn):
        return lambda *args: (inside[0] and calls.append(name)) or fn(*args)

    for name in ("mul", "add", "sum"):
        monkeypatch.setattr(
            cofactor.CofactorRing, name,
            spy(name, getattr(cofactor.CofactorRing, name)),
        )
    triple = cofactor._triple

    def counted(*args):
        triples[0] += inside[0] or reading[0]
        return triple(*args)

    monkeypatch.setattr(cofactor, "_triple", counted)
    # Built after the spies: the generated code binds the ring's methods.
    instance = type("Rows", (RetailerB1,), {"quick_batch": rows})(3, True)
    _query, engine = instance.build()
    ring = engine.query.ring
    apply_ops(SCHEMAS, ring, engine.apply_update, instance.warm)
    keys = 0
    apply_update = engine.apply_update

    def update(delta):
        nonlocal keys
        inside[0] = True
        try:
            out = apply_update(delta)
        finally:
            inside[0] = False
        reading[0] = True
        keys += len(dict(out.items()))
        reading[0] = False
        return out

    apply_ops(SCHEMAS, ring, update, instance.ops)
    assert calls == []
    assert keys and triples[0] == keys


def test_the_row_form_makes_no_ring_call(monkeypatch):
    """Counts, not clocks: over a one-row Retailer stream the generated
    paths multiply, add and test rows, so they call no ``CofactorRing``
    ``mul``, ``add`` or ``is_zero`` and look up no term table — each is
    bound at planning (a fan-out's remaining steps, run on relations by
    the scalar triggers, are not counted)."""
    from repro.rings import cofactor

    calls, inside = [], [False]

    def spy(name, fn):
        return lambda *args: (inside[0] and calls.append(name)) or fn(*args)

    for name in ("mul", "add", "is_zero"):
        monkeypatch.setattr(
            cofactor.CofactorRing, name,
            spy(name, getattr(cofactor.CofactorRing, name)),
        )
    monkeypatch.setattr(
        cofactor, "_pair_maps", spy("_pair_maps", cofactor._pair_maps))
    walked, interpreted, tables = retailer_pair()
    ring = walked.query.ring
    for rel, path in list(walked._row_paths.items()):

        def counted(key, payload, path=path):
            inside[0] = True
            try:
                return path(key, payload)
            finally:
                inside[0] = False

        monkeypatch.setitem(walked._row_paths, rel, counted)
    for step in range(30):
        for rel, table in tables.items():
            row = table[step % len(table)]
            payload = ring.from_int(1 if step % 4 else -1)
            got = one_row(walked, rel, row, payload)
            assert got.same_as(one_row(interpreted, rel, row, payload))
    assert calls == []
    assert len(walked.views["V@locn_CIILW"]) == 1, "fixture: rows reach the root"
    for name, view in interpreted.views.items():
        assert walked.views[name].same_as(view), name


def memo_hits(source):
    """Per lifted-sibling memo site of a generated path, the lines a hit
    runs: the hit branch, then the product up to the step's write."""
    lines, sites = source.splitlines(), []
    for at, line in enumerate(lines):
        if "_e.__class__ is tuple" not in line:
            continue
        indent = len(line) - len(line.lstrip())
        hit, skipping = [lines[at + 1]], False
        for text in lines[at + 2:]:
            depth = len(text) - len(text.lstrip())
            if depth == indent and text.strip() == "else:":
                skipping = True
            elif depth <= indent:
                skipping = False
            if not skipping and depth <= indent:
                hit.append(text)
                if "_write(" in text:
                    break
        sites.append(hit)
    return sites


def test_a_memo_hit_on_the_inventory_path_gathers_once():
    """The memo keeps ``sibling ⊗ lifts`` gathered for the product with
    the path's row (their supports are disjoint), so a hit multiplies it
    on after one term-table gather, of the row; a miss gathers it once,
    when it is stored."""
    walked, _, _ = retailer_pair()
    source = walked._row_paths["Inventory"].source_text
    sites = memo_hits(source)
    assert len(sites) == 3
    for hit in sites:
        gathers = [line for line in hit if re.search(r"\[_i[ab]\d", line)]
        assert [line.strip() for line in gathers] == [gathers[0].strip()]
        assert re.fullmatch(r"_v = _psrc\[_ia\d+_\d+\]", gathers[0].strip())
        assert "_v *= _tl" in [line.strip() for line in hit]


def test_a_memo_miss_on_the_inventory_path_gathers_twice():
    """The sibling, the lifts and the path's row have pairwise disjoint
    supports, so a miss builds ``sibling ⊗ lifts`` already gathered for
    the row: the row's gather is composed into the product's two term
    tables when the path is planned, and there is no third gather."""
    walked, _, _ = retailer_pair()
    source = walked._row_paths["Inventory"].source_text
    misses = re.findall(
        r"_tl = (\w+)\[_ia\d+_\d+\]\n\s+_tl \*= (\w+)\[_ib\d+_\d+\]\n", source)
    assert len(misses) == 3 and all(lv == "_lv" for _, lv in misses), misses
    assert "_tl = _tl[" not in source
