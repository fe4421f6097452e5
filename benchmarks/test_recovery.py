"""Recovery asymmetry: snapshot + journal-tail replay vs full recompute.

The paper's core asymmetry — incremental maintenance is far cheaper than
re-evaluation — is the same asymmetry a recovery story should exploit.
This bench warms a cofactor serving engine (``Q(A) = R ⋈ S ⋈ T`` with
lifts on B/C/D), checkpoints it mid-stream, journals the remaining
updates, then brings up two fresh engines:

* **recover**: ``restore(snapshot)`` + ``apply_batch`` replay of the
  journal tail (:class:`repro.core.checkpoint.JournaledFIVMEngine`);
* **reinitialize**: ``initialize(db)`` over the fully updated base data
  — the from-scratch recompute that was the only recovery path before
  the durability layer existed.

Both must land on identical views (asserted — the bench refuses to
report a speedup on wrong answers); the recover/reinitialize wall-clock
ratio is asserted > 1 and ratcheted across PRs via
``BENCH_recovery.json`` (``repro/bench/regression.py``).  This is the
quantitative half of the crash-recovery acceptance criterion; the
correctness half lives in ``tests/core/test_crash_recovery.py``.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.bench import format_table
from repro.core import FIVMEngine, Query, VariableOrder
from repro.core.checkpoint import JournaledFIVMEngine
from repro.data import Database, Relation
from repro.rings import CofactorRing, Lifting

from benchmarks.conftest import SCALE, report

SCHEMAS = {"R": ("A", "B"), "S": ("A", "C"), "T": ("A", "D")}

DOMAIN = max(400, int(1500 * SCALE))
#: Updates journaled after the checkpoint — the tail recovery replays.
TAIL_UPDATES = max(10, int(40 * SCALE))
ROWS_PER_UPDATE = 20


def make_query(tag: str) -> Query:
    ring = CofactorRing(3)
    lifts = {"B": ring.lift(0), "C": ring.lift(1), "D": ring.lift(2)}
    return Query(
        tag, SCHEMAS, free=("A",), ring=ring, lifting=Lifting(ring, lifts)
    )


def base_database(ring) -> Database:
    """Three rows per A key per relation: recompute pays the full join
    (27 combinations per key) while the snapshot holds only the
    group-aggregated views — the asymmetry under measurement."""
    rels = []
    for rel, schema in SCHEMAS.items():
        rels.append(Relation(
            rel, schema, ring,
            {
                (a, b): ring.from_int(1)
                for a in range(DOMAIN) for b in (1, 2, 3)
            },
        ))
    return Database(rels)


def tail_deltas(ring, seed: int = 0xC0FFEE):
    rng = random.Random(seed)
    for _ in range(TAIL_UPDATES):
        rel = rng.choice(sorted(SCHEMAS))
        schema = SCHEMAS[rel]
        delta = Relation(rel, schema, ring)
        for _ in range(ROWS_PER_UPDATE):
            key = (rng.randrange(DOMAIN), rng.randint(2, 9))
            delta.add(key, ring.from_int(1))
        yield delta


@pytest.mark.bench
def test_recovery_beats_reinitialize():
    query = make_query("Qw")
    ring = query.ring
    order = VariableOrder.auto(query)

    # -- straight line: init, checkpoint, journaled tail ----------------
    journaled = JournaledFIVMEngine(FIVMEngine(make_query("Qj"), order))
    db = base_database(ring)
    journaled.initialize(db)  # checkpoints the loaded state
    for delta in tail_deltas(ring):
        journaled.apply_update(delta)
    assert len(journaled.journal) == TAIL_UPDATES

    # the fully updated base data, for the recompute contender
    updated_db = base_database(ring)
    for delta in tail_deltas(ring):
        updated_db.apply_update(delta)

    # -- contender 1: snapshot + journal-tail replay --------------------
    recovered = FIVMEngine(make_query("Qr"), order)
    t0 = time.perf_counter()
    replayed = journaled.recover_into(recovered)
    recover_seconds = time.perf_counter() - t0
    assert replayed == TAIL_UPDATES

    # -- contender 2: full from-scratch recompute -----------------------
    reinitialized = FIVMEngine(make_query("Qi"), order)
    t0 = time.perf_counter()
    reinitialized.initialize(updated_db)
    reinitialize_seconds = time.perf_counter() - t0

    # identical state, or the speedup is meaningless
    ok = True
    assert set(recovered.views) == set(reinitialized.views)
    for name, view in recovered.views.items():
        same = view.same_as(reinitialized.views[name])
        ok = ok and same
        assert same, f"view {name} diverged between recovery paths"

    speedup = reinitialize_seconds / max(recover_seconds, 1e-9)
    rows = [
        ("snapshot + tail replay", f"{recover_seconds * 1e3:9.1f}",
         f"{replayed}"),
        ("initialize(db) recompute", f"{reinitialize_seconds * 1e3:9.1f}",
         "—"),
    ]
    text = format_table(
        f"Recovery: snapshot + {TAIL_UPDATES}-group journal tail vs "
        f"recompute (domain {DOMAIN}, cofactor ring) — "
        f"speedup {speedup:.1f}×",
        ("strategy", "ms", "groups replayed"),
        rows,
    )
    report("recovery", text, data={
        "speedup": speedup,
        "recover_seconds": recover_seconds,
        "reinitialize_seconds": reinitialize_seconds,
        "tail_updates": TAIL_UPDATES,
        "domain": DOMAIN,
        "ok": ok,
    })
    # The acceptance bar: recovery must be measurably faster than
    # recompute.  The margin is generous locally (typically ≥ 5×); the
    # ratchet in repro/bench/regression.py guards the trajectory.
    assert speedup > 1.5, (
        f"snapshot+replay ({recover_seconds:.3f}s) should beat recompute "
        f"({reinitialize_seconds:.3f}s)"
    )
