"""Out-of-process shard executors leave nothing behind (ROADMAP 5(d)).

Five create → ``apply_update`` → read → teardown cycles per executor, torn
down three ways: ``close()``, a ``with`` block, and dropping the last
reference followed by ``gc.collect()``.  After each way no child process
is alive and the process holds as many file descriptors as before.
"""

from __future__ import annotations

import gc
import multiprocessing
import os

import pytest

from repro.core import Query, ShardedFIVMEngine, VariableOrder
from repro.data import Relation
from repro.rings import INT_RING

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="out-of-process executors need the fork start method",
)

SCHEMAS = {"R": ("A", "B"), "S": ("A", "C")}
CYCLES = 5


def open_fds():
    """Open descriptors of this process, or ``None`` without ``/proc``."""
    if not os.path.isdir("/proc/self/fd"):
        return None
    return len(os.listdir("/proc/self/fd"))


def make_engine(executor):
    query = Query("life", SCHEMAS, free=("A",), ring=INT_RING)
    return ShardedFIVMEngine(
        query, VariableOrder.auto(query), shards=2, executor=executor
    )


def exercise(engine):
    """One update and one read through the workers."""
    assert len(multiprocessing.active_children()) == 2
    delta = Relation("R", SCHEMAS["R"], INT_RING, {(1, 2): 1, (2, 3): 2})
    engine.apply_update(delta)
    engine.apply_update(Relation("S", SCHEMAS["S"], INT_RING, {(1, 5): 3}))
    assert dict(engine.result().items()) == {(1,): 3}


def closed(executor):
    engine = make_engine(executor)
    exercise(engine)
    engine.close()


def with_block(executor):
    with make_engine(executor) as engine:
        exercise(engine)


def dropped(executor):
    engine = make_engine(executor)
    exercise(engine)
    del engine
    gc.collect()


@pytest.mark.parametrize("executor", ["process", "socket"])
@pytest.mark.parametrize("teardown", [closed, with_block, dropped])
def test_cycles_leave_no_children_and_no_descriptors(executor, teardown):
    before = open_fds()
    for _ in range(CYCLES):
        teardown(executor)
    assert multiprocessing.active_children() == []
    if before is not None:
        assert open_fds() == before
