"""Graceful degradation in the serving tier: writer-crash containment,
bounded-queue backpressure/shed, per-request timeouts, cancelled-apply
semantics, and EpochLock behaviour under task cancellation.

The invariants: clients never hang on a queue nobody drains (a dead
writer surfaces its *real* exception, ``stop()`` still returns and is
idempotent), a full queue either blocks or sheds per policy, and a
submitter that stops waiting — timeout or cancellation — does not stop
the commit: the group still applies and its epoch still publishes
(commit-anyway, the documented semantics).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import FIVMEngine, Query
from repro.core.faults import FaultPlan, InjectedCrash
from repro.data import Database, Relation
from repro.rings import INT_RING
from repro.serve import Backpressure, EpochLock, ViewServer, WriterCrashed

SCHEMAS = {"R": ("A", "B"), "S": ("A", "C")}


def make_engine(tag: str = "Q") -> FIVMEngine:
    engine = FIVMEngine(Query(tag, SCHEMAS, free=("A",), ring=INT_RING))
    R = Relation("R", ("A", "B"), INT_RING)
    S = Relation("S", ("A", "C"), INT_RING)
    for a in range(4):
        R.add((a, 0), 1)
        S.add((a, 1), 2)
    engine.initialize(Database([R, S]))
    return engine


def delta(i: int) -> Relation:
    return Relation("R", ("A", "B"), INT_RING, {(i % 4, 5 + i): 1})


# ----------------------------------------------------------------------
# Writer-crash containment
# ----------------------------------------------------------------------


def test_writer_crash_fails_clients_and_stop_does_not_deadlock():
    async def main():
        server = ViewServer(
            make_engine(), faults=FaultPlan.parse("writer.loop@2=crash")
        )
        await server.start()
        await server.apply([delta(0)])
        # the in-flight group gets the writer's real exception
        with pytest.raises(InjectedCrash):
            await server.apply([delta(1)])
        # later submitters fail fast, cause preserved
        with pytest.raises(WriterCrashed) as info:
            await server.apply([delta(2)])
        assert isinstance(info.value.__cause__, InjectedCrash)
        # stop() must not join a queue nobody drains — bound the wait
        await asyncio.wait_for(server.stop(), timeout=2.0)
        await server.stop()  # idempotent

    asyncio.run(main())


def test_writer_crash_fails_queued_futures_with_real_exception():
    async def main():
        server = ViewServer(
            make_engine(), faults=FaultPlan.parse("writer.loop@1=crash")
        )
        await server.start()
        # pile groups up while a reader blocks the writer, so the crash
        # lands with a non-empty queue
        async with server.lock.read():
            tasks = [
                asyncio.create_task(server.apply([delta(i)]))
                for i in range(3)
            ]
            await asyncio.sleep(0.01)
        results = await asyncio.gather(*tasks, return_exceptions=True)
        assert all(isinstance(r, InjectedCrash) for r in results)
        await asyncio.wait_for(server.stop(), timeout=2.0)

    asyncio.run(main())


# ----------------------------------------------------------------------
# Backpressure and shedding
# ----------------------------------------------------------------------


def test_bounded_queue_sheds_when_full():
    async def main():
        server = ViewServer(make_engine(), max_queue=1, overflow="shed")
        await server.start()
        async with server.lock.read():  # writer cannot drain
            first = asyncio.create_task(server.apply([delta(0)]))
            await asyncio.sleep(0)  # writer picks this up, blocks on lock
            second = asyncio.create_task(server.apply([delta(1)]))
            await asyncio.sleep(0)  # fills the queue
            with pytest.raises(Backpressure):
                await server.apply([delta(2)])
        await first
        await second
        await server.stop()

    asyncio.run(main())


def test_bounded_queue_wait_policy_applies_backpressure():
    async def main():
        server = ViewServer(make_engine(), max_queue=1, overflow="wait")
        await server.start()
        submitted = []
        async with server.lock.read():
            first = asyncio.create_task(server.apply([delta(0)]))
            await asyncio.sleep(0)
            second = asyncio.create_task(server.apply([delta(1)]))
            await asyncio.sleep(0)

            async def third():
                result = await server.apply([delta(2)])
                submitted.append(result)

            blocked = asyncio.create_task(third())
            await asyncio.sleep(0.01)
            assert not submitted  # still waiting for queue space
        await asyncio.gather(first, second, blocked)
        assert len(submitted) == 1
        await server.stop()

    asyncio.run(main())


# ----------------------------------------------------------------------
# Timeouts and cancellation: commit-anyway
# ----------------------------------------------------------------------


def test_apply_timeout_commits_anyway_and_publishes_epoch():
    async def main():
        server = ViewServer(make_engine())
        await server.start()
        epoch0 = server.epoch
        root = server.engine.tree.root.name
        async with server.lock.read():  # hold the writer out
            with pytest.raises(asyncio.TimeoutError):
                await server.apply([delta(0)], timeout=0.05)
        await asyncio.sleep(0.05)  # writer drains once readers release
        assert server.epoch > epoch0
        payload = await server.lookup(root, (0,))
        assert payload != INT_RING.zero  # the timed-out group committed
        await server.stop()

    asyncio.run(main())


def test_cancelled_apply_still_commits_and_advances_epoch():
    async def main():
        server = ViewServer(make_engine())
        await server.start()
        epoch0 = server.epoch
        async with server.lock.read():
            submitter = asyncio.create_task(server.apply([delta(0)]))
            await asyncio.sleep(0)  # enqueue before cancelling
            submitter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await submitter
        await asyncio.sleep(0.05)
        # documented commit-anyway semantics: the group applied and its
        # epoch published even though nobody is waiting for the result
        assert server.epoch > epoch0
        root = server.engine.tree.root.name
        assert await server.lookup(root, (0,)) != INT_RING.zero
        await server.stop()

    asyncio.run(main())


def test_default_apply_timeout_from_constructor():
    async def main():
        server = ViewServer(make_engine(), apply_timeout=0.05)
        await server.start()
        async with server.lock.read():
            with pytest.raises(asyncio.TimeoutError):
                await server.apply([delta(0)])
        await server.stop()

    asyncio.run(main())


# ----------------------------------------------------------------------
# EpochLock under cancellation
# ----------------------------------------------------------------------


def test_reader_cancelled_while_waiting_does_not_strand_writer():
    async def main():
        lock = EpochLock()
        started = asyncio.Event()
        release = asyncio.Event()

        async def writer():
            async with lock.write():
                started.set()
                await release.wait()

        w = asyncio.create_task(writer())
        await started.wait()

        async def reader():
            async with lock.read():
                pass  # pragma: no cover - must never acquire

        r = asyncio.create_task(reader())
        await asyncio.sleep(0.01)  # reader parks behind the writer
        r.cancel()
        with pytest.raises(asyncio.CancelledError):
            await r
        release.set()
        await w
        assert lock.epoch == 1
        # the lock is healthy: both sides still acquire
        async with lock.write():
            pass
        async with lock.read() as epoch:
            assert epoch == 2

    asyncio.run(main())


def test_reader_cancelled_while_holding_releases_the_lock():
    async def main():
        lock = EpochLock()
        holding = asyncio.Event()

        async def reader():
            async with lock.read():
                holding.set()
                await asyncio.sleep(30)  # cancelled long before

        r = asyncio.create_task(reader())
        await holding.wait()
        r.cancel()
        with pytest.raises(asyncio.CancelledError):
            await r
        # the read side was released: a writer can acquire promptly
        async def acquire_write():
            async with lock.write():
                pass

        await asyncio.wait_for(acquire_write(), 1.0)
        assert lock.epoch == 1

    asyncio.run(main())


def test_writer_cancelled_while_waiting_unblocks_readers():
    async def main():
        lock = EpochLock()
        holding = asyncio.Event()
        release = asyncio.Event()

        async def reader_hold():
            async with lock.read():
                holding.set()
                await release.wait()

        first = asyncio.create_task(reader_hold())
        await holding.wait()

        async def writer():
            async with lock.write():
                pass  # pragma: no cover - must never acquire

        w = asyncio.create_task(writer())
        await asyncio.sleep(0.01)  # writer now waiting; readers queue behind

        async def reader_blocked():
            async with lock.read() as epoch:
                return epoch

        r = asyncio.create_task(reader_blocked())
        await asyncio.sleep(0.01)
        assert not r.done()  # writer preference holds it back
        w.cancel()
        with pytest.raises(asyncio.CancelledError):
            await w
        # the cancelled writer must have cleared writers_waiting
        assert await asyncio.wait_for(r, 1.0) == 0
        release.set()
        await first
        assert lock.epoch == 0  # no write ever completed

    asyncio.run(main())


def test_lookup_cancellation_leaves_server_serviceable():
    async def main():
        server = ViewServer(make_engine())
        await server.start()
        root = server.engine.tree.root.name

        async def slow_lookup():
            async with server.lock.read():
                await asyncio.sleep(30)

        task = asyncio.create_task(slow_lookup())
        await asyncio.sleep(0.01)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        # writes and reads proceed; epochs stay consistent
        before = server.epoch
        await asyncio.wait_for(server.apply([delta(0)]), 1.0)
        assert server.epoch == before + 1
        await server.lookup(root, (0,))
        async with server.lock.read() as epoch:
            assert epoch == server.epoch
        await server.stop()

    asyncio.run(main())
