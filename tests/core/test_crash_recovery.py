"""The crash-recovery differential oracle and targeted supervision tests.

The oracle reuses the randomized case generator of
``test_differential_random.py`` and runs each stream twice: through a
fault-free single :class:`FIVMEngine` and through a supervised
process-executor :class:`ShardedFIVMEngine` whose forked workers carry a
seeded :class:`FaultPlan` — deterministic crashes, hangs, and transient
errors planted at the worker fault sites, including the
applied-but-not-acked window (``worker.post_apply``).  After every event
the per-update root deltas must agree, and at the end the merged views
must equal the fault-free engine's on every tested ring — i.e.
supervision (restart from shard snapshot + journal-tail replay) is
*invisible* to correctness.

``FIVM_FAULTS`` scales the plan pool: an integer runs that many seeded
plans per (ring, shards) combination (tier-1 CI runs a few, the nightly
sweep many), an explicit ``site@hit=action`` spec pins one failure for a
repro.  Hangs are generated long enough (4s) to trip the oracle's
deliberately tight 0.15s recv deadline, so a planted hang always reads
as a stuck worker.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

import repro.core.sharded as sharded_module
from repro.core import FIVMEngine, Query, ShardedFIVMEngine, VariableOrder
from repro.core.faults import (
    ACTIONS,
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    plans_from_env,
)
from repro.data import Database, Relation
from repro.rings import INT_RING, Lifting

from tests.core.test_differential_random import (
    BASE_SEED,
    RING_FAMILIES,
    _as_delta,
    _as_factorized,
    generate_case,
)

requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process executor needs the fork start method",
)

#: (label, plan factory) pairs — factories because fault-plan hit
#: counters are per process and every engine run needs fresh instances.
PLANS = plans_from_env(default_count=2, hang_seconds=4.0)
SHARD_COUNTS = (2, 4)
#: Tight reply deadline so planted hangs are detected in ~0.5s.
RECV_TIMEOUT = 0.5
#: The oracle's own, tighter deadline: each planted hang costs one per
#: worker.  A reply that is merely slow under load reads as a hang and
#: costs a recovery, which the oracle tolerates within ``max_restarts``.
ORACLE_RECV_TIMEOUT = 0.15
#: Small checkpoint interval so recovery exercises snapshot + tail
#: replay (not just whole-journal replay) within short streams.
CHECKPOINT_EVERY = 3


# ----------------------------------------------------------------------
# FaultPlan unit surface (no fork required)
# ----------------------------------------------------------------------


def test_fault_plan_fires_deterministically():
    plan = FaultPlan({"worker.recv": {2: "error"}})
    plan.fire("worker.recv")
    with pytest.raises(InjectedFault):
        plan.fire("worker.recv")
    plan.fire("worker.recv")  # hit 3: inert again
    assert plan.fired == [("worker.recv", 2, "error")]


def test_fault_plan_crash_raise_mode():
    plan = FaultPlan({"writer.loop": {1: "crash"}})
    assert plan.crash_action == "raise"
    with pytest.raises(InjectedCrash):
        plan.fire("writer.loop")


def test_fault_plan_parse_and_seeded():
    plan = FaultPlan.parse("worker.post_apply@2=crash;worker.recv@5=hang")
    assert plan.rules == {
        "worker.post_apply": {2: "crash"},
        "worker.recv": {5: "hang"},
    }
    a = FaultPlan.seeded(42)
    b = FaultPlan.seeded(42)
    assert a.rules == b.rules
    for site, schedule in a.rules.items():
        assert site.startswith("worker.")
        for hit, action in schedule.items():
            assert 1 <= hit <= 12 and action in ACTIONS


def test_fault_plan_rejects_unknown_sites_and_actions():
    with pytest.raises(ValueError):
        FaultPlan({"no.such.site": {1: "crash"}})
    with pytest.raises(ValueError):
        FaultPlan({"worker.recv": {1: "explode"}})
    with pytest.raises(ValueError):
        FaultPlan({"worker.recv": {0: "crash"}})


def test_plans_from_env_integer_and_spec(monkeypatch):
    monkeypatch.setenv("FIVM_FAULTS", "3")
    plans = plans_from_env(default_count=1)
    assert len(plans) == 3
    assert all(callable(factory) for _label, factory in plans)
    monkeypatch.setenv("FIVM_FAULTS", "worker.recv@1=hang")
    (label, factory), = plans_from_env()
    assert label == "spec"
    assert factory().rules == {"worker.recv": {1: "hang"}}


# ----------------------------------------------------------------------
# The crash-recovery differential oracle
# ----------------------------------------------------------------------


def run_crash_case(
    case: dict,
    ring_family,
    shards: int,
    plan_factory,
    executor: str = "process",
    pipeline_depth: int = 0,
):
    """Replay one random stream through a fault-free engine and a
    supervised, fault-injected process-executor sharded engine
    (synchronous or pipelined); return a divergence description or
    None."""
    schemas = case["schemas"]
    attrs = tuple(sorted({a for s in schemas.values() for a in s}))
    ring, lifts = ring_family(attrs)
    lifting = Lifting(ring, lifts)
    commutative = ring.is_commutative

    def make_query(tag: str) -> Query:
        return Query(
            f"Q{tag}", schemas, free=case["free"], ring=ring, lifting=lifting
        )

    order = VariableOrder.auto(make_query("o"))
    reference = FIVMEngine(make_query("ref"), order)
    sharded = ShardedFIVMEngine(
        make_query("s"), order, shards=shards, executor=executor,
        recv_timeout=ORACLE_RECV_TIMEOUT, checkpoint_every=CHECKPOINT_EVERY,
        faults=plan_factory, pipeline_depth=pipeline_depth,
    )
    try:
        if sharded.executor != executor:  # pragma: no cover - no fork
            return None
        empty = Database(
            Relation(rel, schema, ring) for rel, schema in schemas.items()
        )
        reference.initialize(empty)
        sharded.initialize(empty)
        # Under a pipelined executor the per-step root deltas are
        # deferred and compared only after the stream: resolving them
        # inline would drain the window every step and no fault could
        # ever land mid-window.
        pending = []
        for step, event in enumerate(case["events"]):
            kind = event["kind"]
            if kind == "update":
                def fresh():
                    return _as_delta(
                        event["rel"], schemas[event["rel"]], ring,
                        event["data"],
                    )

                expect = reference.apply_update(fresh())
                got = sharded.apply_update(fresh())
            elif kind == "batch":
                def build_items():
                    items = []
                    for item in event["items"]:
                        rel = item["rel"]
                        if item["kind"] == "factorized":
                            items.append(
                                _as_factorized(rel, ring, item["terms"])
                            )
                        else:
                            items.append(
                                _as_delta(
                                    rel, schemas[rel], ring, item["data"]
                                )
                            )
                    return items

                expect = reference.apply_batch(build_items())
                got = sharded.apply_batch(build_items())
            elif kind == "factorized":
                if not commutative:
                    continue
                rel = event["rel"]
                expect = reference.apply_factorized_update(
                    _as_factorized(rel, ring, event["terms"])
                )
                got = sharded.apply_factorized_update(
                    _as_factorized(rel, ring, event["terms"])
                )
            elif kind == "one_factor":
                # Sent as the listing delta it is: the fault oracle's
                # factorized coverage is the "factorized" events.
                if not commutative:
                    continue
                rel = event["rel"]

                def fresh():
                    return _as_delta(rel, schemas[rel], ring, event["data"])

                expect = reference.apply_update(fresh())
                got = sharded.apply_update(fresh())
            else:  # pragma: no cover - generator bug guard
                raise ValueError(f"unknown event kind {kind!r}")
            if pipeline_depth > 0:
                pending.append((step, kind, expect, got))
            else:
                if not expect.same_as(got.copy(name=expect.name)):
                    return f"step {step} ({kind}): root delta diverged"
        sharded.flush()
        for step, kind, expect, got in pending:
            if not expect.same_as(got.copy(name=expect.name)):
                return f"step {step} ({kind}): deferred root delta diverged"
        merged = sharded.merged_views()
        for view_name, contents in reference.views.items():
            if not contents.same_as(
                merged[view_name].copy(name=contents.name)
            ):
                return f"final view {view_name}: fault-free != supervised"
    finally:
        sharded.close()
    return None


@requires_fork
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_crash_recovery_oracle(ring_name, shards):
    ring_family = RING_FAMILIES[ring_name]
    allow_factorized = ring_name != "matrix"
    ring_index = sorted(RING_FAMILIES).index(ring_name)
    for i, (label, plan_factory) in enumerate(PLANS):
        # deterministic per-combination seed (hash() is salted per process)
        case = generate_case(
            BASE_SEED + 10_000 * ring_index + 100 * shards + i,
            allow_factorized,
        )
        failure = run_crash_case(case, ring_family, shards, plan_factory)
        assert failure is None, (
            f"ring={ring_name} shards={shards} plan={label}: {failure}\n"
            f"case seed {case['seed']}"
        )


#: Executor shapes the oracle re-runs beyond ``pipeline_depth=0``: the
#: send-ahead window must be exactly as invisible to correctness as
#: supervision itself — shallow, as deep as the nightly soak's
#: (``FIVM_SHARD_PIPELINE=16``), where a fault can strand a longer run
#: of unacked updates, and a window of one, which holds what depth 0
#: holds but resolves it lazily.  New shapes go last: a shape's index
#: seeds its streams.
PIPELINED_SHAPES = (("process", 4), ("process", 16), ("process", 1))


@requires_fork
@pytest.mark.parametrize("executor,depth", PIPELINED_SHAPES)
@pytest.mark.parametrize("ring_name", ("int", "cofactor"))
def test_crash_recovery_oracle_pipelined(ring_name, executor, depth):
    """The oracle over a pipelined window of the process executor:
    seeded faults land mid-window and every deferred root delta must
    still resolve to the fault-free engine's."""
    ring_family = RING_FAMILIES[ring_name]
    allow_factorized = ring_name != "matrix"
    ring_index = sorted(RING_FAMILIES).index(ring_name)
    shape_index = PIPELINED_SHAPES.index((executor, depth))
    for i, (label, plan_factory) in enumerate(PLANS):
        case = generate_case(
            BASE_SEED + 20_000 * ring_index + 1_000 * shape_index + i,
            allow_factorized,
        )
        failure = run_crash_case(
            case, ring_family, 2, plan_factory,
            executor=executor, pipeline_depth=depth,
        )
        assert failure is None, (
            f"ring={ring_name} executor={executor} depth={depth} "
            f"plan={label}: {failure}\ncase seed {case['seed']}"
        )


# ----------------------------------------------------------------------
# Targeted supervision semantics
# ----------------------------------------------------------------------


SCHEMAS = {"R": ("A", "B"), "S": ("A", "C")}


def small_query(tag: str = "Q") -> Query:
    return Query(tag, SCHEMAS, free=("A",), ring=INT_RING)


def small_db() -> Database:
    R = Relation("R", ("A", "B"), INT_RING)
    S = Relation("S", ("A", "C"), INT_RING)
    for a in range(6):
        R.add((a, 0), 1)
        S.add((a, 1), 2)
    return Database([R, S])


def deltas(n: int):
    for i in range(n):
        yield Relation("R", ("A", "B"), INT_RING, {(i % 6, 10 + i): 1})


def make_sharded(**kwargs) -> ShardedFIVMEngine:
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("executor", "process")
    kwargs.setdefault("recv_timeout", RECV_TIMEOUT)
    return ShardedFIVMEngine(small_query(), **kwargs)


@requires_fork
def test_post_apply_crash_is_applied_exactly_once():
    """A crash in the applied-but-not-acked window must not double-apply:
    recovery rebuilds the shard lineage from snapshot + journal replay."""
    reference = FIVMEngine(small_query("ref"))
    reference.initialize(small_db())
    with make_sharded(
        faults=FaultPlan.parse("worker.post_apply@2=crash"),
        checkpoint_every=2,
    ) as sharded:
        sharded.initialize(small_db())
        for delta in deltas(6):
            expect = reference.apply_update(delta.copy())
            got = sharded.apply_update(delta)
            assert expect.same_as(got.copy(name=expect.name))
        assert sharded.result().same_as(
            reference.result().copy(name=sharded.tree.root.name)
        )
        assert sum(sharded.shard_restarts) >= 1


@requires_fork
def test_unsupervised_hang_raises_naming_the_shard():
    with make_sharded(
        # Three deadlines long: the worker is still hanging when the
        # deadline expires even if the parent is descheduled for a
        # while, and closing the engine need not wait out a long sleep.
        faults=FaultPlan.parse(
            "worker.recv@2=hang", hang_seconds=3 * RECV_TIMEOUT
        ),
        max_restarts=0,
    ) as sharded:
        with pytest.raises(RuntimeError, match=r"shard worker \d"):
            sharded.initialize(small_db())
            for delta in deltas(4):
                sharded.apply_update(delta)


@requires_fork
def test_restart_budget_exhaustion_raises():
    with make_sharded(
        faults=FaultPlan.parse("worker.pre_apply@2=crash"),
        max_restarts=0,
    ) as sharded:
        with pytest.raises(RuntimeError, match="restart budget"):
            sharded.initialize(small_db())
            for delta in deltas(4):
                sharded.apply_update(delta)


def count_builds(monkeypatch, path, slow):
    """Make every shard engine build append one byte to ``path`` and,
    when ``slow(n)`` holds for its build number ``n``, sleep past the
    reply deadline first.  The count lives in a file because each build
    runs in a forked worker."""

    class CountedEngine(FIVMEngine):
        def __init__(self, *args, **kwargs):
            with open(path, "ab") as counter:
                counter.write(b".")
            if slow(os.path.getsize(path)):
                time.sleep(4 * RECV_TIMEOUT)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sharded_module, "FIVMEngine", CountedEngine)


@requires_fork
def test_slow_rebuild_after_a_crash_costs_one_more_restart(
    monkeypatch, tmp_path
):
    """Builds 1–2 are the two initial workers; build 3 replaces shard 0
    after its planted crash and misses the deadline while it builds its
    engine.  The supervisor replaces it again (build 4) and replays the
    handoff, so the stream matches the single engine at two restarts."""
    count_builds(monkeypatch, tmp_path / "builds", lambda n: n == 3)
    reference = FIVMEngine(small_query("ref"))
    reference.initialize(small_db())
    with make_sharded(
        faults={0: FaultPlan.parse("worker.pre_apply@2=crash")},
    ) as sharded:
        sharded.initialize(small_db())
        for delta in deltas(6):
            expect = reference.apply_update(delta.copy())
            got = sharded.apply_update(delta)
            assert expect.same_as(got.copy(name=expect.name))
        assert sharded.result().same_as(
            reference.result().copy(name=sharded.tree.root.name)
        )
        assert sharded.shard_restarts == [2, 0]


@requires_fork
def test_slow_rebuilds_spend_the_restart_budget(monkeypatch, tmp_path):
    """Every replacement misses the deadline while it builds: each costs
    a restart, and the supervisor gives up at the budget."""
    count_builds(monkeypatch, tmp_path / "builds", lambda n: n >= 3)
    with make_sharded(
        faults={0: FaultPlan.parse("worker.pre_apply@2=crash")},
        max_restarts=2,
    ) as sharded:
        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="restart budget"):
            sharded.initialize(small_db())
            for delta in deltas(6):
                sharded.apply_update(delta)
        assert sharded.shard_restarts == [3, 0]
        # every slow replacement is reaped, the last one too
        assert set(multiprocessing.active_children()) - before == set()


@requires_fork
@pytest.mark.parametrize(
    "policy,message",
    [({"max_restarts": 0}, "restart budget")],
    ids=["budget-spent"],
)
def test_a_fatal_failure_reaps_the_lost_worker(policy, message):
    """When the supervisor gives up on a hung worker it terminates it
    before raising: at the error only the healthy shard's worker is
    alive, and closing the engine waits on no one."""
    before = set(multiprocessing.active_children())
    with make_sharded(
        faults={0: FaultPlan.parse(
            "worker.recv@2=hang", hang_seconds=20 * RECV_TIMEOUT
        )},
        **policy,
    ) as sharded:
        with pytest.raises(RuntimeError, match=message):
            sharded.initialize(small_db())
            for delta in deltas(4):
                sharded.apply_update(delta)
            sharded.result()  # a read reaches every shard
        alive = set(multiprocessing.active_children()) - before
        assert len(alive) == 1
    assert set(multiprocessing.active_children()) - before == set()


@requires_fork
def test_recv_timeout_is_honored_and_named_in_the_error():
    with make_sharded(
        recv_timeout=0.4,
        faults=FaultPlan.parse("worker.recv@3=hang", hang_seconds=1.2),
        max_restarts=0,
    ) as sharded:
        assert sharded._exec.recv_timeout == 0.4
        with pytest.raises(RuntimeError, match="raise recv_timeout"):
            sharded.initialize(small_db())
            for delta in deltas(4):
                sharded.apply_update(delta)


@requires_fork
def test_injected_error_is_recovered_like_a_crash():
    reference = FIVMEngine(small_query("ref"))
    reference.initialize(small_db())
    with make_sharded(
        faults=FaultPlan.parse("worker.send@3=error"),
    ) as sharded:
        sharded.initialize(small_db())
        for delta in deltas(5):
            expect = reference.apply_update(delta.copy())
            got = sharded.apply_update(delta)
            assert expect.same_as(got.copy(name=expect.name))
        assert sum(sharded.shard_restarts) >= 1


@requires_fork
def test_mid_window_crash_is_exactly_once():
    """A worker killed with several applied-but-unacked updates in the
    send-ahead window is rebuilt from snapshot + journal-tail replay,
    and every deferred root delta still resolves fault-free."""
    reference = FIVMEngine(small_query("ref"))
    reference.initialize(small_db())
    expected = [reference.apply_update(d) for d in deltas(8)]
    with make_sharded(
        pipeline_depth=4,
        checkpoint_every=3,
        faults=FaultPlan.parse("worker.post_apply@3=crash"),
    ) as sharded:
        sharded.initialize(small_db())
        got = [sharded.apply_update(d) for d in deltas(8)]
        sharded.flush()
        for expect, handle in zip(expected, got):
            assert expect.same_as(handle.copy(name=expect.name))
        assert sharded.result().same_as(
            reference.result().copy(name=sharded.tree.root.name)
        )
        assert sum(sharded.shard_restarts) >= 1


@requires_fork
def test_mid_window_hang_trips_the_deadline_and_recovers():
    """A hung worker holding half a window of unacked updates reads as
    dead at the recv deadline; the window is replayed onto its successor."""
    reference = FIVMEngine(small_query("ref"))
    reference.initialize(small_db())
    for d in deltas(8):
        reference.apply_update(d)
    with make_sharded(
        pipeline_depth=4,
        checkpoint_every=None,
        faults=FaultPlan.parse("worker.recv@4=hang", hang_seconds=4.0),
    ) as sharded:
        sharded.initialize(small_db())
        for d in deltas(8):
            sharded.apply_update(d)
        sharded.flush()
        assert sharded.result().same_as(
            reference.result().copy(name=sharded.tree.root.name)
        )
        assert sum(sharded.shard_restarts) >= 1


@requires_fork
def test_supervision_survives_reads_mid_failure():
    """A worker lost on a *read* request (merged_views) is restarted and
    the read re-served after journal replay."""
    with make_sharded(
        faults=FaultPlan.parse("worker.recv@4=crash"),
        checkpoint_every=None,
    ) as sharded:
        sharded.initialize(small_db())
        for delta in deltas(2):
            sharded.apply_update(delta)
        reference = FIVMEngine(small_query("ref"))
        reference.initialize(small_db())
        for delta in deltas(2):
            reference.apply_update(delta)
        merged = sharded.merged_views()
        for name, contents in reference.views.items():
            assert contents.same_as(
                merged[name].copy(name=contents.name)
            )
