"""The process shard executor leaves nothing behind (ROADMAP 5(d)).

Five create → ``apply_update`` → read → teardown cycles, synchronous and
with a send-ahead window, torn down three ways: ``close()``, a ``with``
block, and dropping the last reference followed by ``gc.collect()``.
After each way no child process is alive and the process holds as many
file descriptors as before.  Repeated cycles leave the coordinator's
traced memory flat.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import tracemalloc

import pytest

from repro.core import Query, ShardedFIVMEngine, VariableOrder
from repro.data import Relation
from repro.rings import INT_RING

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process executor needs the fork start method",
)

SCHEMAS = {"R": ("A", "B"), "S": ("A", "C")}
CYCLES = 5


def open_fds():
    """Open descriptors of this process, or ``None`` without ``/proc``."""
    if not os.path.isdir("/proc/self/fd"):
        return None
    return len(os.listdir("/proc/self/fd"))


def make_engine(depth):
    query = Query("life", SCHEMAS, free=("A",), ring=INT_RING)
    return ShardedFIVMEngine(
        query, VariableOrder.auto(query), shards=2, executor="process",
        pipeline_depth=depth,
    )


def exercise(engine):
    """Updates and one read through the workers, then one more update
    that a pipelined engine may still hold unacked at teardown."""
    assert len(multiprocessing.active_children()) == 2
    delta = Relation("R", SCHEMAS["R"], INT_RING, {(1, 2): 1, (2, 3): 2})
    engine.apply_update(delta)
    engine.apply_update(Relation("S", SCHEMAS["S"], INT_RING, {(1, 5): 3}))
    assert dict(engine.result().items()) == {(1,): 3}
    engine.apply_update(Relation("S", SCHEMAS["S"], INT_RING, {(2, 6): 1}))


def closed(depth=0):
    engine = make_engine(depth)
    exercise(engine)
    engine.close()


def with_block(depth=0):
    with make_engine(depth) as engine:
        exercise(engine)


def dropped(depth=0):
    engine = make_engine(depth)
    exercise(engine)
    del engine
    gc.collect()


@pytest.mark.parametrize("depth", [0, 4])
@pytest.mark.parametrize("teardown", [closed, with_block, dropped])
def test_cycles_leave_no_children_and_no_descriptors(teardown, depth):
    """Synchronous (``depth`` 0) and pipelined, torn down with an update
    possibly still in the send-ahead window."""
    before = open_fds()
    for _ in range(CYCLES):
        teardown(depth)
    assert multiprocessing.active_children() == []
    if before is not None:
        assert open_fds() == before


def test_cycles_leave_coordinator_traced_memory_flat():
    """2N create → ``apply_update`` → read → ``close()`` cycles: the bytes
    ``tracemalloc`` traces in the coordinator after cycle 2N are within a
    fixed slack of those after cycle N.  A closed engine takes its
    journals, send-ahead windows, frame buffers and process handles with
    it, and nothing process-wide grows per engine."""
    cycles, slack = 4, 16 * 1024
    traced = []
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(2 * cycles):
            closed()
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert traced[-1] - traced[cycles - 1] <= slack, traced
