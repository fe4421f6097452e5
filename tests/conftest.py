"""Shared helpers for the F-IVM test suite."""

from __future__ import annotations

import contextlib
import random
import sys
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.core import (
    FIVMEngine,
    Query,
    VariableOrder,
    build_view_tree,
    kernels,
)
from repro.data import Database, Relation, relation
from repro.rings import INT_RING


def chain_order(variables: Sequence[str]) -> VariableOrder:
    """A single-path variable order over ``variables`` (valid for every
    query over them)."""
    spec = variables[-1]
    for var in reversed(variables[:-1]):
        spec = (var, [spec])
    return VariableOrder.from_spec(spec)


def bucket_sum(relation, attrs, subkey):
    """The ring sum of ``relation``'s bucket at ``subkey`` on ``attrs``,
    read from the index's sums map the triggers probe (ring zero when the
    bucket is absent)."""
    total = relation._indexes[tuple(attrs)][2].get(subkey)
    return relation.ring.zero if total is None else total


#: The trigger forms the differential tests compare: the two generated
#: forms (see :func:`pinned`) plus the reference interpreter.
FORMS = ("scalar", "array", "interpreter")


@contextlib.contextmanager
def pinned(form: str):
    """Engines *constructed* inside — by the test or by an app it drives —
    run one form only (see :data:`FORMS`).

    The engine reads ``kernels.MIN_TRIGGER_ROWS`` and
    ``kernels.MIN_VECTOR_ROWS`` once, at construction, as the sizes from
    which it picks array over scalar execution — of a trigger by its
    delta's rows, of a factor program by its largest factor's:
    ``"scalar"`` puts both out of reach, ``"array"`` at one row.
    The array pin also overrides the engine's rule that keeps cheap
    products scalar — a performance rule, not a semantic one — so that the
    array code is held to the interpreter on every program shape, not only
    on joins of lifted payloads (rings and factor programs without an
    array form still run scalar).  ``"interpreter"`` forces the reference
    backend.
    """
    with pytest.MonkeyPatch.context() as patch:
        if form == "interpreter":
            init = FIVMEngine.__init__
            patch.setattr(
                FIVMEngine, "__init__",
                lambda self, *args, **kwargs: init(
                    self, *args, **{**kwargs, "backend": "interpreter"}
                ),
            )
        else:
            rows = sys.maxsize if form == "scalar" else 1
            patch.setattr(kernels, "MIN_TRIGGER_ROWS", rows)
            patch.setattr(kernels, "MIN_VECTOR_ROWS", rows)
        if form == "array":
            patch.setattr(FIVMEngine, "_joins_payloads", lambda *args: True)
        yield


@contextlib.contextmanager
def packed_evaluation(on: bool):
    """Bulk evaluation inside (:meth:`Relation.join_project`,
    :meth:`Relation.marginalize`) takes its packed form from one input
    row (``on``) or never — the size constants are the only thing pinned;
    the ring and schema conditions still decide."""
    rows = 1 if on else sys.maxsize
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relation, "MIN_PACKED_ROWS", rows)
        patch.setattr(relation, "MIN_PACKED_SUM_ROWS", rows)
        yield


@pytest.fixture(params=FORMS)
def form(request):
    """Runs the requesting test once per form, every engine it builds
    pinned to it."""
    with pinned(request.param):
        yield request.param


def make_engine(form: str, query: Query, order=None, **kwargs) -> FIVMEngine:
    """An engine of one trigger form (see :data:`FORMS`)."""
    with pinned(form):
        return FIVMEngine(query, order, **kwargs)


def spy_paths(engine: FIVMEngine, monkeypatch) -> List[str]:
    """Record the relation of every generated one-row path the engine
    runs from now on (``engine._row_paths``)."""
    calls: List[str] = []
    for rel, path in list(engine._row_paths.items()):
        monkeypatch.setitem(
            engine._row_paths, rel,
            lambda key, payload, path=path, rel=rel:
            calls.append(rel) or path(key, payload),
        )
    return calls


def spy_slot_runs(monkeypatch) -> List[str]:
    """Record the node of every scalar trigger run on relations
    (``SlotProgram.run``) from now on, in any engine."""
    from repro.core.plan_exec import SlotProgram

    runs: List[str] = []
    run = SlotProgram.run
    monkeypatch.setattr(
        SlotProgram, "run",
        lambda self, delta: runs.append(self.node_name) or run(self, delta),
    )
    return runs


def write_hits(engine: FIVMEngine) -> int:
    """View writes an engine built with ``faults=FaultPlan({})`` has
    announced so far (the ``engine.write_view`` site, both the generated
    paths and :meth:`FIVMEngine._write_view`)."""
    return engine._faults._hits.get("engine.write_view", 0)


@contextlib.contextmanager
def counting_writes():
    """Engines *constructed* inside — by the test or by an app it drives —
    get a fault plan with no faults, so :func:`write_hits` counts their
    view writes."""
    from repro.core.faults import FaultPlan

    with pytest.MonkeyPatch.context() as patch:
        init = FIVMEngine.__init__
        patch.setattr(
            FIVMEngine, "__init__",
            lambda self, *args, **kwargs: init(
                self, *args, **{"faults": FaultPlan({}), **kwargs}
            ),
        )
        yield


def recompute(query: Query, db: Database, order: VariableOrder = None) -> Relation:
    """Reference result: static factorized evaluation from scratch."""
    tree = build_view_tree(query, order)
    return tree.evaluate(db)[tree.root.name]


def brute_force_result(query: Query, db: Database) -> Relation:
    """Second reference: join everything left-to-right, aggregate at the end."""
    current = None
    for rel in query.relations:
        contents = db.relation(rel)
        current = contents if current is None else current.join(contents)
    return current.group_by(query.free, query.lifting.table(), name="result")


def make_database(schemas: Dict[str, Tuple[str, ...]], ring, rows) -> Database:
    """Database from {relation: [row, ...]} with payload 1 per occurrence."""
    return Database(
        Relation.from_tuples(rel, schemas[rel], ring, rows.get(rel, []))
        for rel in schemas
    )


def random_rows(
    rng: random.Random,
    schema: Sequence[str],
    count: int,
    domain: int = 4,
) -> List[tuple]:
    return [
        tuple(rng.randint(0, domain - 1) for _ in schema) for _ in range(count)
    ]


def random_delta(
    rng: random.Random,
    name: str,
    schema: Sequence[str],
    ring,
    max_rows: int = 4,
    domain: int = 4,
    allow_deletes: bool = True,
) -> Relation:
    """A small random delta with mixed inserts/deletes."""
    delta = Relation(name, schema, ring)
    for _ in range(rng.randint(1, max_rows)):
        key = tuple(rng.randint(0, domain - 1) for _ in schema)
        choices = [1, 1, 2, -1] if allow_deletes else [1, 1, 2]
        delta.add(key, ring.from_int(rng.choice(choices)))
    return delta


#: The three-relation query of Examples 1.1/2.2: R(A,B) ⋈ S(A,C,E) ⋈ T(C,D).
PAPER_SCHEMAS: Dict[str, Tuple[str, ...]] = {
    "R": ("A", "B"),
    "S": ("A", "C", "E"),
    "T": ("C", "D"),
}


def paper_variable_order() -> VariableOrder:
    """Figure 2a's variable order A - {B, C - {D, E}}."""
    return VariableOrder.from_spec(("A", ["B", ("C", ["D", "E"])]))


def figure2_database(ring=INT_RING) -> Database:
    """The database of Figure 2c with payload 1 (the COUNT instance, 2d)."""
    rows = {
        "R": [("a1", "b1"), ("a1", "b2"), ("a2", "b3"), ("a3", "b4")],
        "S": [
            ("a1", "c1", "e1"),
            ("a1", "c1", "e2"),
            ("a1", "c2", "e3"),
            ("a2", "c2", "e4"),
        ],
        "T": [("c1", "d1"), ("c2", "d2"), ("c2", "d3"), ("c3", "d4")],
    }
    return make_database(PAPER_SCHEMAS, ring, rows)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xF1B)
