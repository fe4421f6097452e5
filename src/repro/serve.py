"""The asyncio request-serving loop over a maintained engine.

:mod:`repro.core.serving` gives point lookups a synchronous read path
(:class:`ViewClient`); this module puts a request loop around it shaped
like real traffic: **many concurrent reader tasks, one writer task**.
Readers call :meth:`ViewServer.lookup`;
writers submit update groups with :meth:`ViewServer.apply`, which
enqueues them for the single writer task draining the queue through
:meth:`FIVMEngine.apply_batch`.

Consistency is an **epoch handoff** over a writer-preference
reader/writer lock (:class:`EpochLock`): the writer applies each drained
group of batches while holding the write side, then bumps the epoch on
release.  A reader holds the read side across *all* the lookups of one
request, so every value it reads comes from the same epoch — it can
never observe a half-applied batch, even when its own cold keys trigger
upqueries that recompute through views the batch would have touched.
Because the event loop is cooperative, the engine itself never runs
re-entrantly; the lock exists for *multi-lookup* requests and for the
epoch bookkeeping the serving tests assert on.

The writer prefers pending writers over new readers (readers queue
behind a waiting writer), so a steady read stream cannot starve the
write path — the freshness the north star's "heavy traffic" axis needs.

Degradation is graceful rather than silent: the write queue can be
bounded (``max_queue``) with a ``"wait"`` (backpressure) or ``"shed"``
(:class:`Backpressure` raised to the submitter) overflow policy;
:meth:`ViewServer.apply` takes a per-request timeout with
**commit-anyway** semantics (the group still commits — only the wait is
abandoned, exactly like a cancelled submitter); and a writer task that
dies is contained: its real exception fails the in-flight and queued
futures, later :meth:`~ViewServer.apply` calls fail fast with
:class:`WriterCrashed`, and :meth:`ViewServer.stop` still returns (and
is idempotent) instead of joining a queue nobody will drain.

The server also fronts a :class:`~repro.core.multiview.MultiViewEngine`
(many registered queries, shared sub-views, target-lag refresh): the
writer drains ``(relation, counts)`` groups through the same
``apply_batch`` entry point, and reads go through the engine's own
client.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from typing import Dict, Iterable, List, Optional

from repro.core.serving import ViewClient

__all__ = [
    "Backpressure",
    "EpochLock",
    "ViewServer",
    "WriterCrashed",
]


class Backpressure(RuntimeError):
    """Raised by :meth:`ViewServer.apply` under the ``"shed"`` overflow
    policy when the bounded write queue is full."""


class WriterCrashed(RuntimeError):
    """Raised by :meth:`ViewServer.apply` once the writer task has died;
    ``__cause__`` carries the writer's real exception."""


class EpochLock:
    """Writer-preference asyncio reader/writer lock with an epoch counter.

    Any number of readers share the lock; a writer holds it exclusively.
    New readers queue behind a *waiting* writer (writer preference), and
    :attr:`epoch` increments on every write release — the handoff point
    readers use to tell batches apart.
    """

    def __init__(self) -> None:
        #: Completed write epochs. A reader holding the read side sees a
        #: frozen value; it changes only at write release.
        self.epoch = 0
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._cond = asyncio.Condition()

    @asynccontextmanager
    async def read(self):
        """Shared acquisition; yields the epoch the read runs in."""
        async with self._cond:
            while self._writer or self._writers_waiting:
                await self._cond.wait()
            self._readers += 1
            epoch = self.epoch
        try:
            yield epoch
        finally:
            async with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @asynccontextmanager
    async def write(self):
        """Exclusive acquisition; bumps :attr:`epoch` on release."""
        async with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    await self._cond.wait()
            finally:
                self._writers_waiting -= 1
                if self._writers_waiting == 0:
                    # A waiter leaving by cancellation must wake the
                    # readers its writer preference was parking; on the
                    # success path the wakeup is spurious but harmless
                    # (we set _writer before releasing the condition).
                    self._cond.notify_all()
            self._writer = True
        try:
            yield self.epoch
        finally:
            async with self._cond:
                self._writer = False
                self.epoch += 1
                self._cond.notify_all()


class ViewServer:
    """Many concurrent readers, one writer, over one maintained engine.

    Start the writer task with :meth:`start` (or use the server as an
    async context manager); submit update groups with :meth:`apply`;
    read with :meth:`lookup`.  A reader that holds ``lock.read()``
    across several lookups observes one epoch — the no-torn-reads
    guarantee the serving tests lock down.
    """

    def __init__(
        self,
        engine,
        max_drain: int = 16,
        max_queue: Optional[int] = None,
        overflow: str = "wait",
        apply_timeout: Optional[float] = None,
        faults=None,
    ):
        self.engine = engine
        # A multi-view engine brings its own read front door (same
        # lookup/stats surface); single engines get the classic
        # point-lookup client.
        self.client = (
            engine.client() if hasattr(engine, "client")
            else ViewClient(engine)
        )
        self.lock = EpochLock()
        #: Update groups the writer drains per write-lock hold (they all
        #: commit in one epoch; queued submitters resolve together).
        self.max_drain = max(1, max_drain)
        #: Bound on queued (unstarted) update groups; ``None`` means
        #: unbounded — the pre-backpressure behaviour.
        self.max_queue = max_queue
        if overflow not in ("wait", "shed"):
            raise ValueError("overflow must be 'wait' or 'shed'")
        #: What a full queue does to a submitter: ``"wait"`` blocks it
        #: (backpressure), ``"shed"`` raises :class:`Backpressure`.
        self.overflow = overflow
        #: Default per-request timeout for :meth:`apply` (seconds;
        #: ``None`` waits forever).  Commit-anyway: a timed-out group
        #: still commits — only the caller's wait is abandoned.
        self.apply_timeout = apply_timeout
        #: Optional :class:`repro.core.faults.FaultPlan`; the writer task
        #: announces the ``writer.loop`` site once per drained group list
        #: (the crash containment tests plant ``InjectedCrash`` there).
        self._faults = faults
        self._queue: Optional[asyncio.Queue] = None
        self._writer_task: Optional[asyncio.Task] = None
        #: The exception that killed the writer task, if any — the
        #: containment flag every write-path entry point checks.
        self._writer_error: Optional[BaseException] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "ViewServer":
        """Spawn the single writer task (idempotent)."""
        if self._writer_task is None:
            self._queue = asyncio.Queue(maxsize=self.max_queue or 0)
            self._writer_error = None
            self._writer_task = asyncio.create_task(self._writer_loop())
        return self

    async def stop(self) -> None:
        """Wait out queued writes, then cancel the writer task.

        Idempotent, and safe against a dead writer: if the writer task
        crashed, queued groups will never be ``task_done``'d, so instead
        of joining the queue forever this fails their futures with the
        writer's real exception and returns.
        """
        task, queue = self._writer_task, self._queue
        if task is None:
            return
        self._writer_task = None
        if not task.done():
            join_task = asyncio.ensure_future(queue.join())
            # The writer finishing first (it can only finish by dying)
            # unblocks this wait; a healthy writer drains the queue and
            # join() wins.
            await asyncio.wait(
                {join_task, task}, return_when=asyncio.FIRST_COMPLETED
            )
            if not join_task.done():
                join_task.cancel()
                try:
                    await join_task
                except asyncio.CancelledError:
                    pass
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        except BaseException:
            pass  # the writer's own crash, already recorded
        if self._writer_error is not None:
            self._drain_failed(self._writer_error)
        self._queue = None

    async def __aenter__(self) -> "ViewServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- the read path --------------------------------------------------

    @property
    def epoch(self) -> int:
        """Completed write epochs (reads return the epoch they ran in)."""
        return self.lock.epoch

    async def lookup(self, view_name: str, key: Iterable):
        """One point lookup under the read lock; returns the payload."""
        async with self.lock.read():
            return self.client.lookup(view_name, key)

    def stats(self, view_name: str) -> Dict[str, int]:
        """Serving counters for one partial view (see ``ViewClient``) —
        or, over a multi-view engine, that view's refresh counters and
        freshness snapshot."""
        return self.client.stats(view_name)

    # -- multi-view registration ---------------------------------------

    # -- the write path -------------------------------------------------

    async def apply(self, deltas: Iterable, timeout: Optional[float] = None):
        """Submit one update group; resolves with its root delta once the
        writer has committed it (and its epoch has been published).

        Degradation semantics:

        * a dead writer raises :class:`WriterCrashed` immediately (its
          real exception as ``__cause__``) — clients never hang on a
          queue nobody drains;
        * a full bounded queue blocks (``overflow="wait"``) or raises
          :class:`Backpressure` (``overflow="shed"``);
        * ``timeout`` (default :attr:`apply_timeout`) bounds only the
          *wait*: on expiry ``TimeoutError`` is raised but the group
          still commits and its epoch is still published — the same
          **commit-anyway** contract as a submitter whose task is
          cancelled while its group is queued (the writer checks
          ``future.cancelled()`` only to skip delivering the result).
        """
        if self._writer_task is None:
            raise RuntimeError("ViewServer.start() has not been called")
        if self._writer_error is not None:
            raise self._writer_failure()
        items = list(deltas)
        if (
            self.overflow == "shed"
            and self.max_queue is not None
            and self._queue.full()
        ):
            raise Backpressure(
                f"write queue full ({self.max_queue} groups); update shed"
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put((items, future))
        if self._writer_error is not None and not future.done():
            # the writer died while this submitter awaited queue space
            self._drain_failed(self._writer_error)
        if timeout is None:
            timeout = self.apply_timeout
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            # commit-anyway: the group stays queued and will commit;
            # retrieve its eventual outcome so it never warns unretrieved
            future.add_done_callback(
                lambda f: f.cancelled() or f.exception()
            )
            raise

    def _writer_failure(self) -> WriterCrashed:
        exc = WriterCrashed(f"writer task died: {self._writer_error!r}")
        exc.__cause__ = self._writer_error
        return exc

    def _drain_failed(self, exc: BaseException) -> None:
        """Fail every queued group with the writer's real exception and
        mark it done, so ``queue.join()`` and submitters both unblock."""
        queue = self._queue
        if queue is None:
            return
        while True:
            try:
                _items, future = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if not future.done():
                future.set_exception(exc)
            queue.task_done()

    async def _writer_loop(self) -> None:
        queue = self._queue
        groups: List[tuple] = []
        try:
            while True:
                groups = [await queue.get()]
                while len(groups) < self.max_drain:
                    try:
                        groups.append(queue.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                try:
                    if self._faults is not None:
                        self._faults.fire("writer.loop")
                    async with self.lock.write():
                        # apply_batch is synchronous: each group commits
                        # atomically with respect to the event loop, and the
                        # lock extends that atomicity over the whole drain.
                        for items, future in groups:
                            try:
                                result = self.engine.apply_batch(items)
                            except Exception as exc:  # engine rejected it
                                if not future.cancelled():
                                    future.set_exception(exc)
                            else:
                                if not future.cancelled():
                                    future.set_result(result)
                finally:
                    for _ in groups:
                        queue.task_done()
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            # Writer-crash containment: record the exception, fail the
            # in-flight and queued futures with it, and die visibly —
            # apply() and stop() check _writer_error instead of hanging.
            self._writer_error = exc
            for _items, future in groups:
                if not future.done():
                    future.set_exception(exc)
            self._drain_failed(exc)
            raise
