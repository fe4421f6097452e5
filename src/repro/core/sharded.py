"""Hash-partitioned parallel F-IVM: sharded engines, ring-merged roots.

The view trees of F-IVM are *ring-homomorphic*: every view is a
join-aggregate whose value is multilinear in the base relations, so
partitioning the domain of one join variable splits the query into
independent summands — ``Q(D) = ⊎_s Q(D_s)`` — that per-shard engines can
maintain in isolation and the coordinator can recombine with plain payload
addition (``Ring.add``, the same decomposability that conditioning work on
probabilistic databases exploits).  Concretely:

* a **shard variable** ``X`` is fixed (default: the root of the variable
  order — the paper keeps join variables on top, so the root is shared by
  the heaviest relations);
* every relation whose schema contains ``X`` is **hash-partitioned** on it
  (fragment ``s`` holds the tuples with ``hash(x) % S == s``); relations
  without ``X`` are **replicated** to all shards (the broadcast side of a
  distributed hash join);
* each shard runs a full, unmodified :class:`~repro.core.engine.FIVMEngine`
  over its fragment database.  Every full-join assignment binds ``X`` to
  one value and therefore contributes to exactly one shard, so for every
  view whose subtree touches a partitioned relation the global contents are
  the ``⊎`` of the per-shard fragments, and the global root delta of any
  update is the ``⊎`` of the per-shard root deltas.  Views over purely
  replicated subtrees are identical in every shard and are read once.

Soundness needs only ``Ring.add`` commutativity — a ring axiom — so every
payload ring works, including the non-commutative matrix ring (payload
*products* stay inside one shard, in child order).  Cyclic queries whose
indicator projections observe a partitioned relation would break the
multilinearity argument; :class:`ShardedFIVMEngine` builds plain
(unadorned) view trees, so the situation cannot arise.

Executors
---------

``executor="inline"`` (default) runs the ``S`` engines in-process — the
deterministic mode the differential tests drive; its shards, like any
engines of one process, share the process-wide trigger code cache, so
trigger code is generated once and only re-bound per shard.
``executor="process"`` forks one worker per shard (requires the ``fork``
start method; silently falls back to inline elsewhere): deltas are routed
in the coordinator, shipped as plain ``(name, schema, {key: payload})``
triples in length-prefixed pickle frames (:class:`FrameConn`) over a
``socketpair`` the worker inherits, and the per-shard root deltas come
back the same way — true parallel maintenance on multi-core hosts,
measured by ``benchmarks/test_fig_shard_scaling.py``.  No shard accepts a
connection: the only wire is the one each fork inherits.

Pipelining
----------

Every request reaches a worker through one per-shard **send-ahead
window** of unacknowledged requests.  A synchronous executor would
round-trip the transport on *every* update call, so per-update latency —
a scheduler wake-up per round trip — caps throughput regardless of how
fast the shards compute.  With ``pipeline_depth=N > 0`` the window holds
up to ``N`` mutating requests per shard: ``apply_update`` /
``apply_batch`` journal, send, and return a **lazily resolved** root
delta (:class:`~repro.core.engine.DeferredRelation`) whose payloads
materialize on first read.  A full window blocks for the oldest ack
only; at ``pipeline_depth=0`` each operation's acks are collected before
the call returns.  Reads, snapshots, and
:meth:`ShardedFIVMEngine.flush` are barriers that collect every
straggler; a read then travels the same window as an entry that is not
journaled.  Because journal-before-send holds for every mutating
request, a worker lost with requests in flight is recovered by snapshot
restore plus journal-tail replay, and the replay replies (then the
re-sent read, if one was in flight) answer every request of the window.

Fault tolerance (process executor)
----------------------------------

Forked workers die and hang; the coordinator survives both.  Every
request crosses the pipe under a coordinator-assigned **sequence
number**, every state-mutating request is journaled (packed, in the
:mod:`repro.core.checkpoint` wire format) before it is sent, and workers
ack the sequence number they applied.  Replies are awaited under a
deadline (``recv_timeout``); a missed deadline, a dead pipe, or an
injected fault hands the shard to the **supervisor**, which forks a
fresh worker and rebuilds its state as shard snapshot + journal-tail
replay — the same cheap incremental path the paper uses for
maintenance, here used for recovery.  A replacement that dies or misses
the deadline during that replay (it builds its engine first, which can be
slow under load) is replaced in turn, within the same ``max_restarts``
budget.  The restarted worker's state is a fresh lineage (snapshot +
replay), and a live worker deduplicates retried sequence numbers, so
each update group lands exactly once even when the crash hit the
applied-but-not-acked window.  Periodic
checkpoints (``checkpoint_every``) snapshot each worker and truncate its
journal, bounding both coordinator memory and replay length.
Deterministic failures are planted with :class:`repro.core.faults.
FaultPlan` via the ``faults=`` knob; ``tests/core/test_crash_recovery.py``
drives this as a differential oracle against a fault-free engine.
"""

from __future__ import annotations

import multiprocessing
import pickle
import select
import socket
import struct
import time
import traceback
import zlib
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.checkpoint import (
    UpdateJournal,
    pack_item,
    pack_relation,
    restore_snapshot,
    tail_handoff,
    take_snapshot,
    unpack_item,
    unpack_relation as _unpack_relation,
)
from repro.core.engine import (
    DeferredRelation,
    FIVMEngine,
    check_delta,
    check_factorized,
)
from repro.core.factorized_update import FactorizedUpdate
from repro.core.faults import InjectedFault
from repro.core.materialization import resolve_flags
from repro.core.query import Query
from repro.core.variable_order import VariableOrder
from repro.core.view_tree import ViewNode, build_view_tree, elide_copies
from repro.data.database import Database
from repro.data.relation import Relation

__all__ = ["FrameConn", "ShardedFIVMEngine", "stable_hash"]


def _hash_normalize(value):
    """One representative per dict-key equality class (recurses into
    tuples, so compound routing keys normalize component-wise)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, tuple):
        return tuple(_hash_normalize(part) for part in value)
    return value


def stable_hash(value) -> int:
    """A deterministic, process-independent hash for shard routing.

    Python's ``hash`` is salted per process for strings; routing must be
    replayable across runs (differential tests) and identical between a
    coordinator and its forked workers, so fragments are assigned by
    CRC-32 of the value's ``repr`` instead.

    The hasher must agree wherever dict-key equality does — tuple keys
    treat ``True``, ``1``, and ``1.0`` as the same key, so those are
    normalized to one representative before hashing (a bool/int/float
    split across shards would silently drop join matches); compound
    shard keys route on a *tuple* of component values, normalized
    component-wise.
    """
    value = _hash_normalize(value)
    return zlib.crc32(repr(value).encode("utf-8", "backslashreplace"))


# ----------------------------------------------------------------------
# Wire format (process executor): relations as plain picklable triples,
# shared with the journal/snapshot format of repro.core.checkpoint
# ----------------------------------------------------------------------

#: Request kinds the coordinator journals for recovery replay (the
#: state-mutating shard-facade surface).  ``restore`` also mutates worker
#: state but is itself the recovery mechanism and is never journaled.
_MUTATING = frozenset({"update", "factorized", "batch", "init"})

#: Mutating kinds whose replies carry a root delta.  Workers ship these
#: payloads as *opaque pickled bytes* (see :func:`_thaw`): a deferred
#: root delta the caller never reads is then never deserialized — the
#: coordinator pays for numpy-payload reconstruction only on a resolve.
_DELTA_KINDS = frozenset({"update", "factorized", "batch"})


def _thaw(payload):
    """Deserialize an opaque root-delta payload (passthrough otherwise).

    The inline executor hands back live dicts and out-of-process workers
    hand back pickled bytes; delta payloads are always dicts, so the type
    disambiguates.
    """
    if isinstance(payload, bytes):
        return pickle.loads(payload)
    return payload


def _pack_request(request: tuple, copy: bool = False) -> tuple:
    """Live-object request → picklable wire message.  ``copy=True``
    detaches the payload dicts (journaled requests outlive the deltas
    they recorded)."""
    kind = request[0]
    if kind in ("update", "factorized"):
        return pack_item(request[1], copy=copy)
    if kind == "batch":
        return ("batch", [pack_item(item, copy=copy) for item in request[1]])
    if kind == "init":
        return ("init", [pack_relation(rel, copy=copy) for rel in request[1]])
    return request  # "view", "views", "scalars", "snapshot", "stop"


def _unpack_request(msg: tuple, ring) -> tuple:
    """Wire message → live-object request (inverse of :func:`_pack_request`)."""
    kind = msg[0]
    if kind in ("update", "factorized"):
        return (kind, unpack_item(msg, ring))
    if kind == "batch":
        return ("batch", [unpack_item(p, ring) for p in msg[1]])
    if kind == "init":
        return ("init", [_unpack_relation(p, ring) for p in msg[1]])
    return msg  # "view", "views", "scalars", "snapshot", "restore", "stop"


def _dispatch(engine: FIVMEngine, request: tuple):
    """Serve one live-object request against a shard engine.

    The single dispatcher behind both executors — the in-process one calls
    it directly, the worker loop after unwiring — so every operation routed
    here is the narrow, state-isolated engine surface (the shard facade)
    and the two executors cannot drift apart.  Replies are plain data
    (delta dicts, size maps) ready for either in-process merging or the
    pipe.
    """
    kind = request[0]
    if kind == "update":
        return engine.apply_update(request[1])._data
    if kind == "factorized":
        return engine.apply_factorized_update(request[1])._data
    if kind == "batch":
        return engine.apply_batch(request[1])._data
    if kind == "init":
        engine.initialize(Database(rel for rel in request[1]))
        return None
    if kind == "view":
        return engine.views[request[1]]._data
    if kind == "views":
        return {name: view._data for name, view in engine.views.items()}
    if kind == "scalars":
        from repro.bench.memory import strategy_scalars

        return strategy_scalars(engine)
    if kind == "snapshot":
        return take_snapshot(engine)
    if kind == "restore":
        restore_snapshot(engine, request[1])
        return None
    if kind == "stop":
        return None
    raise ValueError(f"unknown shard request {kind!r}")


def _shard_worker(conn, factory: Callable[[], FIVMEngine], faults=None) -> None:
    """Worker loop: build the shard engine, then serve until ``stop``/EOF.

    Messages arrive as ``(seq, request)`` and are answered with
    ``(tag, seq, payload)`` where ``tag`` is ``"ok"``, ``"error"`` (an
    application error; the worker keeps serving), or ``"fault"`` (an
    injected environmental error; the worker dies so the supervisor
    recovers it like the transient failure it models).  The worker acks
    the last *applied* sequence number implicitly: a retried mutating
    request with ``seq <= last_applied`` is acked from the reply cache
    without re-applying — the exactly-once half of at-least-once
    delivery.

    ``faults`` is an optional :class:`repro.core.faults.FaultPlan` (or a
    zero-argument factory of one); its ``crash`` action is forced to
    ``os._exit`` here, because a worker crash *is* a process death.
    """
    plan = faults() if callable(faults) else faults
    if plan is not None:
        plan.crash_action = "exit"
    engine = factory()
    ring = engine.query.ring
    last_applied = 0
    cached_reply = (0, None)  # (seq, payload) of the last applied group
    while True:
        try:
            seq, msg = conn.recv()
        except EOFError:
            break
        kind = msg[0]
        mutating = kind in _MUTATING or kind == "restore"
        try:
            if plan is not None:
                plan.fire("worker.recv")
            if mutating and seq <= last_applied:
                payload = cached_reply[1] if cached_reply[0] == seq else None
                reply = ("ok", seq, payload)
            else:
                if plan is not None and mutating:
                    plan.fire("worker.pre_apply")
                result = _dispatch(engine, _unpack_request(msg, ring))
                if kind in _DELTA_KINDS:
                    # Opaque root delta: the coordinator unpickles it only
                    # if the deferred handle is actually read (_thaw).
                    result = pickle.dumps(
                        result, protocol=pickle.HIGHEST_PROTOCOL
                    )
                if plan is not None and mutating:
                    plan.fire("worker.post_apply")
                if mutating:
                    last_applied = seq
                    cached_reply = (seq, result)
                reply = ("ok", seq, result)
            if plan is not None:
                plan.fire("worker.send")
        except InjectedFault as exc:
            # A planted transient error: report it and die, so the
            # supervisor heals this shard exactly as for a crash.
            try:
                conn.send(("fault", seq, repr(exc)))
            finally:
                conn.close()
            return
        except BaseException as exc:  # application error: report, keep serving
            conn.send(("error", seq, f"{exc!r}\n{traceback.format_exc()}"))
            continue
        conn.send(reply)
        if kind == "stop":
            break
    conn.close()


# ----------------------------------------------------------------------
# The wire: length-prefixed pickle frames with batched writes
# ----------------------------------------------------------------------


class FrameConn:
    """Length-prefixed pickle frames over a stream socket.

    The process executor's transport, over the ``socketpair`` each forked
    worker inherits: the same ``send`` / ``poll`` / ``recv`` / ``close``
    surface as a :mod:`multiprocessing` pipe.  Each frame is a 4-byte
    big-endian length followed by the pickled object.

    Writes are **buffered**: ``send`` appends a frame to an output buffer
    and :meth:`flush` ships the whole buffer in one ``sendall`` — the
    coordinator's send-ahead window thus crosses as a handful of large
    writes instead of one small write per request.  Any wait for input
    (``poll`` / ``recv``) flushes first, so a request the caller is about
    to await can never be stuck in the buffer — but a ``poll`` that can be
    answered from already-received bytes does *not* flush, so both sides
    batch: the worker draining a burst of windowed requests accumulates
    its acks and ships them in one write when its input runs dry.
    """

    _HEADER = struct.Struct(">I")

    def __init__(self, sock: socket.socket):
        sock.setblocking(True)
        self._sock = sock
        self._out = bytearray()
        self._in = bytearray()

    def send(self, obj) -> None:
        """Buffer one frame."""
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._out += self._HEADER.pack(len(payload))
        self._out += payload

    def flush(self) -> None:
        """Ship every buffered frame in one write."""
        if self._out:
            data = bytes(self._out)
            self._out.clear()
            self._sock.sendall(data)

    def _frame_size(self) -> Optional[int]:
        if len(self._in) < self._HEADER.size:
            return None
        (size,) = self._HEADER.unpack_from(self._in)
        if len(self._in) < self._HEADER.size + size:
            return None
        return size

    def poll(self, timeout: float = 0.0) -> bool:
        """True when a complete frame is available within ``timeout``."""
        if self._frame_size() is not None:
            # A frame is already buffered: answer without flushing, so a
            # worker draining a burst of pipelined requests batches its
            # replies instead of one write syscall per ack.
            return True
        self.flush()
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._frame_size() is None:
            wait = None
            if deadline is not None:
                wait = max(0.0, deadline - time.monotonic())
            ready, _, _ = select.select([self._sock], [], [], wait)
            if not ready:
                return False
            try:
                chunk = self._sock.recv(1 << 16)
            except OSError:
                raise EOFError("shard connection closed") from None
            if not chunk:
                raise EOFError("shard connection closed")
            self._in += chunk
        return True

    def recv(self):
        """Block for the next frame; ``EOFError`` once the peer is gone
        (mirroring pipe semantics, so supervision code needs no cases)."""
        if not self.poll(None):  # pragma: no cover - poll(None) blocks
            raise EOFError("shard connection closed")
        size = self._frame_size()
        start = self._HEADER.size
        payload = bytes(self._in[start:start + size])
        del self._in[:start + size]
        return pickle.loads(payload)

    def close(self) -> None:
        """Flush best-effort and close the socket."""
        try:
            self.flush()
        except OSError:
            pass
        self._sock.close()


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------


class _PendingGroup:
    """The deferred replies of one submitted operation.

    One payload per involved shard; :meth:`resolve` drains whatever is
    still in flight (through the owning executor) and returns the full
    ``{shard: payload}`` map.  A group whose ``waiting`` set is empty is
    already resolved — the inline executor and ``pipeline_depth=0`` hand
    these back, so callers never branch on executor kind.
    """

    __slots__ = ("_executor", "waiting", "payloads")

    def __init__(self, executor, shards: Iterable[int]):
        self._executor = executor
        self.waiting = set(shards)
        self.payloads: Dict[int, object] = {}

    def resolve(self) -> Dict[int, object]:
        """Block until every shard's reply has landed; return them all."""
        if self.waiting:
            self._executor._drain_group(self)
        return self.payloads


class _Inflight:
    """One unacknowledged request in a shard's send-ahead window.

    ``read`` is ``None`` for a journaled (mutating) request, whose reply
    the journal-tail replay re-produces, and the packed request itself
    for one that is not journaled (a read or a checkpoint snapshot),
    which recovery re-sends after the tail.
    """

    __slots__ = ("seq", "group", "read")

    def __init__(self, seq: int, group: _PendingGroup, read=None):
        self.seq = seq
        self.group = group
        self.read = read


class _InlineShards:
    """All shard engines in-process; requests are served synchronously.

    The deterministic executor the differential tests drive; engines share
    the process-wide code cache, so trigger code generation is paid once.
    """

    kind = "inline"
    pipeline_depth = 0

    def __init__(self, factories: Sequence[Callable[[], FIVMEngine]]):
        self.engines = [factory() for factory in factories]

    def run(self, requests: Dict[int, tuple]) -> Dict[int, object]:
        """Dispatch each request to its shard engine, in-process."""
        return {
            shard: _dispatch(self.engines[shard], request)
            for shard, request in requests.items()
        }

    def submit(self, requests: Dict[int, tuple]) -> _PendingGroup:
        """Serve immediately; the returned group is already resolved."""
        group = _PendingGroup(self, requests)
        group.payloads = self.run(requests)
        group.waiting.clear()
        return group

    def flush(self) -> None:
        """Nothing in flight, ever."""
        pass

    def close(self) -> None:
        """Nothing to release for in-process shard engines."""
        pass


#: Default reply deadline (seconds) for process-shard workers; override
#: per engine with ``recv_timeout=``.  ``None`` or ``<= 0`` disables the
#: deadline (wait forever).
DEFAULT_SHARD_TIMEOUT = 30.0


def _process_worker(parent_sock, sock, factory, faults=None) -> None:
    """Forked-worker entry: drop the coordinator's socket end, then serve."""
    parent_sock.close()
    _shard_worker(FrameConn(sock), factory, faults)


class _ProcessShards:
    """One forked worker per shard: seq/ack protocol + supervision.

    Each worker is forked with its end of a ``socketpair`` and speaks
    :class:`FrameConn` frames over it.  Every request — update, read,
    ``initialize`` or checkpoint snapshot — enters a per-shard send-ahead
    window (:meth:`submit`) and leaves it through one reply path
    (:meth:`_drain_one`), so there is one deadline, EOF, fault and error
    handler.  An operation's requests are sent to every involved worker
    before any reply is awaited, so the workers compute in parallel while
    the coordinator blocks only on the slowest one.  With
    ``pipeline_depth > 0`` a mutating operation returns with its replies
    in flight (up to that many unacknowledged requests per shard); with
    ``0`` it collects them before returning.  Reads are :meth:`run`: a
    barrier over every window, then the read through the window,
    resolved.

    The coordinator keeps, per shard, everything recovery needs: a
    :class:`UpdateJournal` of the packed mutating requests since the last
    checkpoint, the latest checkpoint snapshot (taken in the worker,
    shipped back, truncating the journal), and the last applied sequence
    number.  When a worker dies (EOF/broken pipe), hangs past
    ``recv_timeout``, or reports an injected fault, the supervisor reaps
    it, forks a replacement *without* the fault plan (the environmental
    event already happened; recovery must not re-plant it), and replays
    the :func:`~repro.core.checkpoint.tail_handoff` bundle — snapshot
    restore plus journal tail — then re-sends the read in flight, if any.
    Because every mutating request was journaled before it was sent, the
    replay replies answer everything that was still in flight, so callers
    never see the failure.  With ``max_restarts=0`` the first failure
    raises an error naming the shard instead.
    """

    kind = "process"

    def __init__(
        self,
        factories: Sequence[Callable[[], FIVMEngine]],
        recv_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT,
        checkpoint_every: Optional[int] = 64,
        max_restarts: int = 3,
        faults=None,
        pipeline_depth: int = 0,
    ):
        if recv_timeout is not None and recv_timeout <= 0:
            recv_timeout = None
        self.recv_timeout = recv_timeout
        self.checkpoint_every = checkpoint_every
        self.max_restarts = max_restarts
        self._faults = faults
        self._factories = list(factories)
        self._ctx = multiprocessing.get_context("fork")
        self.pipeline_depth = max(0, int(pipeline_depth))
        #: Requests a shard's window holds before a send blocks for the
        #: oldest ack (one at depth 0, whose windows each operation
        #: empties before it returns).
        self._capacity = max(1, self.pipeline_depth)
        count = len(self._factories)
        self._conns: List[Optional[FrameConn]] = [None] * count
        self._procs: List[object] = [None] * count
        self._seq = 0
        self._journals = [UpdateJournal() for _ in range(count)]
        self._snapshots: List[Optional[Tuple[int, dict]]] = [None] * count
        self._applied = [0] * count
        #: Per-shard send-ahead windows of :class:`_Inflight` entries,
        #: oldest first.
        self._windows: List[deque] = [deque() for _ in range(count)]
        #: Per-shard supervisor restart counts (the liveness telemetry
        #: tests and operators read).
        self.restarts = [0] * count
        for shard in range(count):
            self._spawn(shard, self._fault_arg(shard))

    # -- lifecycle of one worker ----------------------------------------

    def _fault_arg(self, shard: int):
        if isinstance(self._faults, dict):
            return self._faults.get(shard)
        return self._faults

    def _spawn(self, shard: int, faults) -> None:
        """Fork ``shard``'s worker over a fresh socketpair."""
        parent_sock, child_sock = socket.socketpair()
        proc = self._ctx.Process(
            target=_process_worker,
            args=(parent_sock, child_sock, self._factories[shard], faults),
            daemon=True,
        )
        proc.start()
        child_sock.close()
        self._conns[shard] = FrameConn(parent_sock)
        self._procs[shard] = proc

    # -- the window: the one way a request reaches a worker -------------

    def run(self, requests: Dict[int, tuple]) -> Dict[int, object]:
        """A barrier, then ``requests`` through the window, resolved —
        so ``initialize``, reads and snapshots observe every update
        submitted before them."""
        self.flush()
        return self.submit(requests).resolve()

    def submit(self, requests: Dict[int, tuple]) -> _PendingGroup:
        """Send one operation's per-shard requests through the windows.

        Returns a :class:`_PendingGroup` that resolves lazily; at
        ``pipeline_depth == 0`` it is resolved before this returns.  Each
        shard whose journal has reached ``checkpoint_every`` is then
        checkpointed.
        """
        group = _PendingGroup(self, requests)
        for shard, request in requests.items():
            self._enqueue(shard, _pack_request(request, copy=True), group)
        if not self.pipeline_depth:
            self._drain_group(group)
        for shard in requests:
            self._maybe_checkpoint(shard)
        return group

    def _enqueue(self, shard: int, packed: tuple, group: _PendingGroup):
        """Send one packed request and record it in flight.

        Journal-before-send: a mutating request is journaled, *then*
        shipped, so a worker lost at any point of the window is rebuilt
        from state the coordinator already holds.  ``init`` first clears
        the journal and the snapshot — the journal describes updates
        since an initialize, never across one (:meth:`run` has emptied
        every window).  A full window blocks for its oldest ack, then
        harvests the acks the worker batched behind it — one blocking
        wait (and one write-buffer flush) per window of requests rather
        than per request.
        """
        window = self._windows[shard]
        if len(window) >= self._capacity:
            while len(window) >= self._capacity:
                self._drain_one(shard)
            self._drain_ready_shard(shard)
        seq = self._next_seq()
        journaled = packed[0] in _MUTATING
        if packed[0] == "init":
            self._journals[shard].clear()
            self._snapshots[shard] = None
        if journaled:
            self._journals[shard].append(seq, packed)
        window.append(_Inflight(seq, group, None if journaled else packed))
        # No opportunistic poll here: polling after every enqueue would
        # cost a syscall per shard per update and force-flush the framed
        # transport's write buffer, defeating its batching.  Acks are
        # collected when a window fills (above) — the window bound, not
        # the poll cadence, is what keeps memory finite.
        self._conns[shard].send((seq, packed))

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _deliver(self, shard: int, entry: _Inflight, payload) -> None:
        entry.group.payloads[shard] = payload
        entry.group.waiting.discard(shard)

    def _drain_one(self, shard: int) -> None:
        """Consume the oldest outstanding reply of ``shard`` (blocking)."""
        window = self._windows[shard]
        if not window:
            return
        conn = self._conns[shard]
        timeout = self.recv_timeout
        try:
            if timeout is not None and not conn.poll(timeout):
                self._recover_window(
                    shard,
                    reason=(
                        f"no reply within {timeout}s — dead or hung worker; "
                        "raise recv_timeout if it is merely slow"
                    ),
                )
                return
            tag, rseq, payload = conn.recv()
        except (EOFError, OSError) as exc:
            self._recover_window(
                shard, reason=f"worker died mid-window ({exc!r})"
            )
            return
        if tag == "fault":
            # the faulted request is still in the window; recovery
            # answers it along with everything behind it
            self._recover_window(shard, reason=f"injected fault: {payload}")
            return
        entry = window.popleft()
        if tag == "error":
            self._deliver(shard, entry, None)
            raise RuntimeError(f"shard {shard} failed:\n{payload}")
        if rseq != entry.seq:  # pragma: no cover - protocol invariant
            raise RuntimeError(
                f"shard {shard} acked seq {rseq}, expected {entry.seq}"
            )
        if entry.read is None:
            self._applied[shard] = max(self._applied[shard], entry.seq)
        self._deliver(shard, entry, payload)

    def _drain_ready_shard(self, shard: int) -> None:
        """Consume every reply of ``shard`` that is already waiting."""
        window = self._windows[shard]
        while window:
            try:
                ready = self._conns[shard].poll(0)
            except (EOFError, OSError) as exc:
                self._recover_window(
                    shard, reason=f"worker died mid-window ({exc!r})"
                )
                break
            if not ready:
                break
            self._drain_one(shard)

    def _drain_shard(self, shard: int) -> None:
        while self._windows[shard]:
            self._drain_one(shard)

    def _ship(self, shards: Iterable[int]) -> None:
        """Write every buffered request of ``shards`` before any reply is
        awaited: awaiting shard 0 with shard 1's request still in its
        write buffer would serialize workers that should run in
        parallel."""
        for shard in shards:
            try:
                self._conns[shard].flush()
            except OSError as exc:
                self._recover_window(shard, reason=f"send failed ({exc!r})")

    def _drain_group(self, group: _PendingGroup) -> None:
        """Drain windows until every shard of ``group`` has answered."""
        self._ship(sorted(group.waiting))
        while group.waiting:
            shard = next(iter(group.waiting))
            if not self._windows[shard]:  # pragma: no cover - invariant
                group.waiting.discard(shard)
                continue
            self._drain_one(shard)

    def flush(self) -> None:
        """Barrier: collect every outstanding reply."""
        self._ship(range(len(self._conns)))
        for shard in range(len(self._conns)):
            self._drain_shard(shard)

    # -- supervision ----------------------------------------------------

    def _recover_window(self, shard: int, reason: str) -> None:
        """Heal ``shard`` after a failure and answer every request that
        was still in flight.

        The window's journaled entries are a suffix of the journal
        (journal-before-send), and a read only enters an empty window
        (reads follow a barrier, snapshots a drain), so the snapshot +
        journal-tail replay, then the re-sent read, re-produce the reply
        of every unacknowledged request — recovery and pipelining compose
        with no extra bookkeeping.
        """
        window = self._windows[shard]
        entries = list(window)
        window.clear()
        replies = self._rebuild(
            shard, reason,
            [(e.seq, e.read) for e in entries if e.read is not None],
        )
        failure = None
        for entry in entries:
            tag, payload = replies[entry.seq]
            if tag == "error":
                # the in-flight group itself fails; surface it exactly as
                # the original send would have
                failure = failure or payload
                payload = None
            self._deliver(shard, entry, payload)
        if failure is not None:
            raise RuntimeError(f"shard {shard} failed:\n{failure}")

    def _restart(self, shard: int, reason: str) -> None:
        """Reap ``shard``'s lost worker, then budget-check and respawn it
        fault-free.  Reaping comes first, so a fatal error leaves no hung
        or slow worker running until :meth:`close`."""
        try:
            self._conns[shard].close()
        except OSError:  # pragma: no cover - already closed
            pass
        proc = self._procs[shard]
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=2.0)
        self.restarts[shard] += 1
        if self.restarts[shard] > self.max_restarts:
            raise RuntimeError(
                f"shard worker {shard} failed ({reason}) after exhausting "
                f"its restart budget ({self.max_restarts})"
            )
        # The restarted worker runs fault-free: the environmental event
        # happened; deterministic replay must not re-plant it.
        self._spawn(shard, None)

    def _rebuild(self, shard: int, reason: str, reads) -> dict:
        """Restart ``shard``'s worker and replay its handoff: snapshot
        restore, the journal tail, then ``reads`` — the in-flight
        ``(seq, packed)`` requests that are not journaled.

        Returns ``{seq: (tag, payload)}`` for every replayed request, in
        replay order.  A replacement that dies or misses the deadline
        during the replay (it builds its engine first, which can be slow
        under load) is replaced in turn and the handoff redone, within
        the same ``max_restarts`` budget.
        """
        while True:
            self._restart(shard, reason)
            handoff = tail_handoff(
                self._snapshots[shard], self._journals[shard]
            )
            try:
                if handoff["snapshot"] is not None:
                    tag, payload = self._replay_exchange(
                        shard, handoff["base_seq"],
                        ("restore", handoff["snapshot"]),
                    )
                    if tag != "ok":
                        raise RuntimeError(
                            f"shard worker {shard} failed to restore its "
                            f"snapshot:\n{payload}"
                        )
                replies = {
                    seq: self._replay_exchange(shard, seq, packed)
                    for seq, packed in handoff["tail"] + reads
                }
            except (EOFError, OSError) as exc:
                reason = f"lost during recovery replay ({exc!r})"
                continue
            for seq, _packed in handoff["tail"]:
                # a group that failed here failed identically when first
                # applied — the state evolution matches
                if replies[seq][0] != "error":
                    self._applied[shard] = max(self._applied[shard], seq)
            return replies

    def _replay_exchange(self, shard: int, seq: int, packed: tuple):
        """One request to a freshly restarted worker.  A lost worker
        raises ``EOFError`` or ``OSError`` (``TimeoutError`` past the
        deadline) for :meth:`_rebuild` to retry."""
        conn = self._conns[shard]
        conn.send((seq, packed))
        if self.recv_timeout is not None and not conn.poll(self.recv_timeout):
            raise TimeoutError(f"no reply within {self.recv_timeout}s")
        tag, _rseq, payload = conn.recv()
        return tag, payload

    # -- checkpointing --------------------------------------------------

    def _maybe_checkpoint(self, shard: int) -> None:
        """Snapshot ``shard``'s worker once its journal is long enough,
        and truncate the journal through the snapshot's sequence number."""
        if self.checkpoint_every is None:
            return
        if len(self._journals[shard]) < self.checkpoint_every:
            return
        self._drain_shard(shard)
        group = _PendingGroup(self, (shard,))
        self._enqueue(shard, ("snapshot",), group)
        snap = group.resolve()[shard]
        # The worker is quiescent between requests, so the snapshot
        # reflects exactly the groups applied so far.
        self._snapshots[shard] = (self._applied[shard], snap)
        self._journals[shard].truncate_through(self._applied[shard])

    def close(self) -> None:
        """Collect stragglers best-effort, then stop and join every worker."""
        try:
            self.flush()
        except Exception:  # pragma: no cover - shutdown is best-effort
            pass
        for conn in self._conns:
            if conn is None:
                continue
            conn.send((0, ("stop",)))
        for conn in self._conns:
            if conn is None:
                continue
            try:
                if conn.poll(1.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - hung worker guard
                proc.terminate()
                proc.join(timeout=1.0)
        self._conns = []
        self._procs = []
        self._windows = []


# ----------------------------------------------------------------------
# The sharded engine
# ----------------------------------------------------------------------


class ShardedFIVMEngine:
    """Maintains a join-aggregate query over ``S`` hash-partitioned shards.

    Drives ``S`` independent :class:`FIVMEngine` instances through the
    shard-safe facade (``apply_update`` / ``apply_batch`` /
    ``apply_factorized_update`` / ``initialize`` / ``views``), routing each
    delta to the shards its tuples hash into and ring-merging the per-shard
    root deltas and view fragments into the single-engine result (see the
    module docstring for the soundness argument).

    Parameters mirror :class:`FIVMEngine`, plus:

    shards:
        Number of partitions ``S`` (1 degenerates to a routed single
        engine, useful as the bench baseline).
    shard_key:
        The variable — or tuple of variables, a **compound key** — to
        hash-partition on.  Default: the root of the variable order.
        Relations whose schema contains every key component are
        partitioned (compound keys route on the :func:`stable_hash` of
        the component tuple); relations missing any component are
        replicated.  At least one relation must contain the full key.
    executor:
        ``"inline"`` (in-process, deterministic) or ``"process"`` (one
        forked worker per shard).  ``"process"`` falls back to inline on
        platforms without the ``fork`` start method.
    pipeline_depth:
        Process executor: send-ahead window size per shard.  ``0``
        (default) collects each update's replies before the call
        returns; ``N > 0`` lets ``apply_update`` / ``apply_batch`` return
        after enqueuing, with a lazily resolved root delta — see
        :meth:`flush`.
    recv_timeout:
        Process executor: seconds to wait for a worker's reply before
        declaring it hung (default 30; ``None`` or ``<= 0`` waits
        forever).
    checkpoint_every:
        Process executor: snapshot a worker and truncate its journal once
        that many mutating requests have accumulated (``None`` disables
        checkpoints; recovery then replays the whole journal).
    max_restarts:
        Process executor: per-shard restart budget before the supervisor
        gives up (``0``: the first failure raises, naming the shard).  A
        worker lost again during its recovery replay spends another
        restart.
    faults:
        Process executor, test-surface: a
        :class:`repro.core.faults.FaultPlan` (or zero-argument factory,
        or ``{shard: plan}`` dict) handed to the forked workers —
        deterministic crash/hang/error injection for the crash-recovery
        oracle.  Restarted workers never inherit it.

    Routing hashes values with :func:`stable_hash`; every shard engine is
    a default :class:`FIVMEngine` over the shared order.
    """

    def __init__(
        self,
        query: Query,
        order: Optional[VariableOrder] = None,
        shards: int = 4,
        shard_key=None,
        updatable: Optional[Iterable[str]] = None,
        db: Optional[Database] = None,
        executor: str = "inline",
        recv_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT,
        checkpoint_every: Optional[int] = 64,
        max_restarts: int = 3,
        faults=None,
        pipeline_depth: int = 0,
    ):
        if shards < 1:
            raise ValueError("shard count must be >= 1")
        self.query = query
        self.order = order or VariableOrder.auto(query)
        self.shards = int(shards)
        self.updatable = (
            frozenset(updatable) if updatable is not None
            else frozenset(query.relations)
        )
        root_var = self.order.roots[0].var
        if shard_key is None:
            shard_key = root_var
        if isinstance(shard_key, str):
            key_attrs: Tuple[str, ...] = (shard_key,)
        else:
            key_attrs = tuple(shard_key)
            if not key_attrs:
                raise ValueError("a compound shard key must not be empty")
            if len(key_attrs) == 1:
                shard_key = key_attrs[0]
        self.shard_key = shard_key
        variables = set(query.variables)
        for attr in key_attrs:
            if attr not in variables:
                raise ValueError(
                    f"shard key {attr!r} is not a query variable"
                )
        #: The shard key's components; a single-attribute key keeps the
        #: one-element tuple here and the bare attribute in `shard_key`.
        self._key_attrs = key_attrs
        #: What Relation.partition / Database.partition route on: the
        #: bare attribute for single keys, the component tuple for
        #: compound keys.
        self._partition_attr = key_attrs[0] if len(key_attrs) == 1 else key_attrs
        self.partitioned = frozenset(
            rel for rel, schema in query.relations.items()
            if all(attr in schema for attr in key_attrs)
        )
        if not self.partitioned:
            raise ValueError(
                f"no relation contains shard key {self.shard_key!r}; "
                "sharding would replicate everything"
            )
        self.replicated = frozenset(query.relations) - self.partitioned

        # Stateless reference tree: the coordinator needs the tree *shape*
        # (leaf schemas for routing, per-node relation sets for the merge
        # rule) but holds no views — state lives in the shards.
        self.tree = elide_copies(build_view_tree(query, self.order))
        self.flags = resolve_flags(self.tree, self.updatable, "auto")
        self._nodes: Dict[str, ViewNode] = {
            node.name: node for node in self.tree.nodes
        }
        #: Views whose subtree touches a partitioned relation: global
        #: contents are the ⊎ of the per-shard fragments.  The rest sit
        #: over purely replicated subtrees, are identical in every shard,
        #: and are read from shard 0 alone.
        self._summed = frozenset(
            node.name
            for node in self.tree.nodes
            if self.flags[node.name] and (node.relations & self.partitioned)
        )

        if executor not in ("inline", "process"):
            raise ValueError("executor must be 'inline' or 'process'")
        if "fork" not in multiprocessing.get_all_start_methods():
            executor = "inline"

        # Locals, not ``self``: the factories outlive set-up inside the
        # executor, and a closure over ``self`` would make the engine a
        # reference cycle.
        order, updatable = self.order, self.updatable

        def factory() -> FIVMEngine:
            """One shard-local engine of the shared configuration."""
            return FIVMEngine(query, order=order, updatable=updatable)

        factories = [factory] * self.shards
        if executor == "inline":
            self._exec = _InlineShards(factories)
        else:
            self._exec = _ProcessShards(
                factories,
                recv_timeout=recv_timeout,
                checkpoint_every=checkpoint_every,
                max_restarts=max_restarts,
                faults=faults,
                pipeline_depth=pipeline_depth,
            )
        self.executor = self._exec.kind
        #: Effective send-ahead window depth (0: each update's replies
        #: are collected before the call returns).
        self.pipeline_depth = self._exec.pipeline_depth
        if db is not None:
            self.initialize(db)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _split_listing(self, delta: Relation) -> Dict[int, Relation]:
        """Per-shard fragments of a listing delta (empty fragments elided);
        replicated relations broadcast the whole delta."""
        if delta.name in self.replicated:
            return {shard: delta for shard in range(self.shards)}
        fragments = delta.partition(
            self._partition_attr, self.shards, stable_hash
        )
        return {
            shard: fragment
            for shard, fragment in enumerate(fragments)
            if not fragment.is_empty
        }

    def _split_factorized(
        self, update: FactorizedUpdate
    ) -> Dict[int, FactorizedUpdate]:
        """Route a factorized delta: within each rank-1 term, the factor
        carrying the shard key is hash-partitioned and the other factors
        ride along unchanged, so terms stay in product form per shard.
        A compound key whose components span *different* factors has no
        such pivot; that term is flattened to a single full-schema factor
        (sound by multilinearity — the flat relation is the term) and the
        flat relation is partitioned instead."""
        rel = update.relation
        if rel in self.replicated:
            return {shard: update for shard in range(self.shards)}
        key_attrs = self._key_attrs
        schema = self.query.relations[rel]
        per_shard: List[List[List[Relation]]] = [[] for _ in range(self.shards)]
        for term in update.terms:
            pivot = next(
                (
                    i for i, factor in enumerate(term)
                    if all(attr in factor.schema for attr in key_attrs)
                ),
                None,
            )
            if pivot is None:
                flat = FactorizedUpdate(
                    rel, [term], ring=self.query.ring
                ).flatten(schema, name=rel)
                fragments = flat.partition(
                    self._partition_attr, self.shards, stable_hash
                )
                for shard, fragment in enumerate(fragments):
                    if not fragment.is_empty:
                        per_shard[shard].append([fragment])
                continue
            fragments = term[pivot].partition(
                self._partition_attr, self.shards, stable_hash
            )
            for shard, fragment in enumerate(fragments):
                if fragment.is_empty:
                    continue
                routed = list(term)
                routed[pivot] = fragment
                per_shard[shard].append(routed)
        return {
            shard: FactorizedUpdate(rel, terms, ring=self.query.ring)
            for shard, terms in enumerate(per_shard)
            if terms
        }

    def _zero_root(self) -> Relation:
        root = self.tree.root
        return Relation(root.name, root.keys, self.query.ring)

    def _merge_data(self, total: Relation, data: dict) -> None:
        fragment = Relation(total.name, total.schema, self.query.ring)
        fragment._data = data
        total.absorb_bulk(fragment)

    def _submit_merged(self, requests: Dict[int, tuple]) -> Relation:
        """Submit one mutating operation and hand back its root delta.

        Synchronous executors (and ``pipeline_depth=0``) return a plain,
        already-merged :class:`Relation`.  Pipelined executors return a
        :class:`~repro.core.engine.DeferredRelation`: the acks are still
        in flight, and the merge runs on first read (or at the
        :meth:`flush` barrier) — the caller decides whether the root
        delta is worth a round trip.
        """
        handle = self._exec.submit(requests)
        if not handle.waiting:
            total = self._zero_root()
            for data in handle.payloads.values():
                self._merge_data(total, _thaw(data))
            return total
        root = self.tree.root

        def resolve() -> dict:
            """Collect the per-shard root deltas and ring-merge them."""
            total = self._zero_root()
            for data in handle.resolve().values():
                self._merge_data(total, _thaw(data))
            return total._data

        return DeferredRelation(root.name, root.keys, self.query.ring, resolve)

    # ------------------------------------------------------------------
    # Update triggers (the same surface as FIVMEngine)
    # ------------------------------------------------------------------

    def apply_update(self, delta: Relation) -> Relation:
        """Route ``δR`` to its shards; returns the ring-merged root delta
        (equal, key for key, to the single-engine root delta).  Under a
        pipelined executor the delta is deferred — see :meth:`flush`."""
        check_delta(self.tree, self.updatable, delta)
        if delta.is_empty:
            return self._zero_root()
        requests = {
            shard: ("update", fragment)
            for shard, fragment in self._split_listing(delta).items()
        }
        return self._submit_merged(requests)

    def apply_factorized_update(self, update: FactorizedUpdate) -> Relation:
        """Route a factorized delta in product form (see
        :meth:`_split_factorized`); returns the merged root delta."""
        if not self.query.ring.is_commutative:
            raise ValueError(
                "factorized updates require a commutative payload ring"
            )
        check_factorized(self.tree, self.updatable, update)
        if not update.terms:
            return self._zero_root()
        requests = {
            shard: ("factorized", routed)
            for shard, routed in self._split_factorized(update).items()
        }
        return self._submit_merged(requests)

    def apply_batch(self, deltas: Iterable) -> Relation:
        """The batched multi-relation trigger, sharded: every item is
        routed, each shard coalesces and path-schedules its own sub-batch
        (the engines share the planner hook), and the per-shard totals are
        ring-merged.  Items are validated up front so a malformed item
        cannot leave the shards partially updated."""
        items = list(deltas)
        for item in items:
            if isinstance(item, FactorizedUpdate):
                if not self.query.ring.is_commutative:
                    raise ValueError(
                        "factorized updates require a commutative payload "
                        "ring"
                    )
                check_factorized(self.tree, self.updatable, item)
            else:
                check_delta(self.tree, self.updatable, item)
        per_shard: Dict[int, List[object]] = {}
        for item in items:
            if isinstance(item, FactorizedUpdate):
                routed = self._split_factorized(item)
            else:
                if item.is_empty:
                    continue
                routed = self._split_listing(item)
            for shard, part in routed.items():
                per_shard.setdefault(shard, []).append(part)
        requests = {
            shard: ("batch", parts) for shard, parts in per_shard.items()
        }
        if not requests:
            return self._zero_root()
        return self._submit_merged(requests)

    def flush(self) -> None:
        """Barrier: collect every outstanding pipelined root-delta ack.

        A no-op for the inline executor and at ``pipeline_depth=0``.  Reads (:meth:`result`,
        :meth:`contents`, …) and :meth:`initialize`
        flush implicitly, so they always observe every update submitted
        before them; call this explicitly to bound the in-flight window
        at stream checkpoints or before measuring.
        """
        self._exec.flush()

    def initialize(self, db: Database) -> None:
        """Partition a database snapshot and (re)load every shard."""
        shard_attrs = {
            rel: (self._partition_attr if rel in self.partitioned else None)
            for rel in self.query.relations
        }
        shard_dbs = db.partition(shard_attrs, self.shards, stable_hash)
        self._exec.run({
            shard: ("init", list(shard_dbs[shard]))
            for shard in range(self.shards)
        })

    # ------------------------------------------------------------------
    # Merged state access
    # ------------------------------------------------------------------

    def result(self) -> Relation:
        """The maintained query result, ring-merged across shards."""
        return self.contents(self.tree.root.name)

    def contents(self, view_name: str) -> Relation:
        """Global contents of a materialized view.

        Partition-touching views merge their per-shard fragments with
        ``⊎``; purely replicated views are read from shard 0 (every shard
        holds an identical copy).
        """
        node = self._nodes.get(view_name)
        if node is None or not self.flags[view_name]:
            raise KeyError(f"no materialized view {view_name!r}")
        out = Relation(view_name, node.keys, self.query.ring)
        if view_name in self._summed:
            requests = {
                shard: ("view", view_name) for shard in range(self.shards)
            }
        else:
            requests = {0: ("view", view_name)}
        for data in self._exec.run(requests).values():
            self._merge_data(out, data)
        return out

    def merged_views(self) -> Dict[str, Relation]:
        """All materialized views, merged (one round-trip per shard)."""
        replies = self._exec.run({
            shard: ("views",) for shard in range(self.shards)
        })
        out: Dict[str, Relation] = {}
        for name in self.materialized_names():
            node = self._nodes[name]
            merged = Relation(name, node.keys, self.query.ring)
            sources = (
                range(self.shards) if name in self._summed else (0,)
            )
            for shard in sources:
                self._merge_data(merged, replies[shard][name])
            out[name] = merged
        return out

    def materialized_names(self) -> Tuple[str, ...]:
        """Sorted names of the views every shard materializes."""
        return tuple(sorted(
            name for name, flagged in self.flags.items() if flagged
        ))

    @property
    def shard_restarts(self) -> List[int]:
        """Per-shard supervisor restart counts (all zeros for the inline
        executor, which cannot lose a worker)."""
        return list(getattr(self._exec, "restarts", [0] * self.shards))

    def logical_scalars(self) -> int:
        """Resident logical scalars across all shards (the sharded hook
        for :func:`repro.bench.memory.strategy_scalars`)."""
        replies = self._exec.run({
            shard: ("scalars",) for shard in range(self.shards)
        })
        return sum(replies.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down worker processes (no-op for the inline executor)."""
        self._exec.close()

    def __enter__(self) -> "ShardedFIVMEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
