"""``serve_zipf``: ``ViewServer`` over a partially materialized cofactor
view ``Q(A) = R(A,B) ⋈ S(A,C) ⋈ T(A,D)``, Zipf reads beside uniform writes.

**Open loop.**  One generator task in the server's own event loop issues
every operation at its due time (reads at a fixed rate, one 60-row write
group per 20 reads) whether or not earlier ones have finished, and every
latency is measured from the due time — so a stall is billed to all the
operations it delays.  The generator yields to the loop between bursts
instead of sleeping (asyncio timers are millisecond-grained), and reports
how late it ran.

The active-set budget (2×64 keys) is smaller than the read working set,
so about a fifth of the reads miss and pay an upquery; writes to keys
outside the active set are dropped before the root's trigger runs.
"""

from __future__ import annotations

import asyncio
import math
from types import SimpleNamespace
from typing import Dict, List

import numpy as np

from repro.bench.memory import payload_scalars, strategy_scalars
from repro.core.engine import FIVMEngine
from repro.core.query import Query
from repro.core.serving import ViewClient, upquery
from repro.core.variable_order import VariableOrder
from repro.data.database import Database
from repro.data.relation import Relation
from repro.rings.cofactor import CofactorRing
from repro.rings.lifting import Lifting
from repro.serve import Backpressure, ViewServer

from benchmarks.e2e import gen, probes
from benchmarks.e2e.harness import Unit, Workload, clock
from benchmarks.e2e.stats import percentile


def ns(seconds: float) -> int:
    """A ``perf_counter`` reading on the tracer's nanosecond clock."""
    return int(seconds * 1e9)

SCHEMAS = {"R": ("A", "B"), "S": ("A", "C"), "T": ("A", "D")}
ZIPF_S = 1.3
READS_PER_WRITE = 20
ROWS_PER_WRITE = 60
#: Limits a rung must meet to count towards ``serve.max_rate_ok``.
READ_P99_LIMIT_US = 2000.0
UPDATE_P99_LIMIT_US = 20000.0
LADDER = (4000, 8000, 16000, 32000)


class ServeZipf(Workload):
    name = "serve_zipf"
    domain = 2000
    #: Keys registered up front; the active-set budget is twice this.
    hot = 64
    #: The fixed rung the end-to-end latencies are measured at: the lowest
    #: of the ladder.  From 8 000 reads/s up, the median read sits on the
    #: edge between served at once (≈ 20 µs) and queued behind a write
    #: group (100–700 µs) and swings between the two from unit to unit.
    rate = 4000
    unit_seconds = 2.0
    rung_seconds = 1.0

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        start = clock()
        if quick:
            self.domain, self.rate, self.hot = 300, 2000, 16
            self.unit_seconds = self.rung_seconds = 0.15
        self.digest = gen.Digest(self.name, seed, quick)
        self.rng = np.random.default_rng(seed)
        self.keys, self.writes = self.schedule(self.rate, self.unit_seconds)
        self.input_digest = self.digest.hex()
        self.gen_s = clock() - start

    def schedule(self, rate: int, seconds: float):
        return gen.serve_schedule(
            self.rng, self.digest, sorted(SCHEMAS), self.domain, ZIPF_S,
            int(rate * seconds), READS_PER_WRITE, ROWS_PER_WRITE,
        )

    # -- set-up ---------------------------------------------------------

    def make_query(self) -> Query:
        ring = CofactorRing(3)
        lifts = {"B": ring.lift(0), "C": ring.lift(1), "D": ring.lift(2)}
        return Query(self.name, SCHEMAS, free=("A",), ring=ring,
                     lifting=Lifting(ring, lifts))

    def base_database(self, ring) -> Database:
        """Every A key carries one row per relation: the root is dense and
        every write row joins."""
        one = ring.from_int(1)
        return Database(
            Relation(rel, schema, ring,
                     {(a, 1): one for a in range(self.domain)})
            for rel, schema in SCHEMAS.items()
        )

    def build_engine(self, **kwargs) -> FIVMEngine:
        query = self.make_query()
        order = VariableOrder.from_spec(("A", ["B", "C", "D"]))
        engine = FIVMEngine(query, order, **kwargs)
        engine.initialize(self.base_database(query.ring))
        return engine

    def setup(self):
        engine = self.build_engine(materialization="partial")
        client = ViewClient(engine)
        root = engine.tree.root.name
        for rank in range(self.hot):  # register the hot set
            client.lookup(root, (rank,))
        # Budget: twice the hot set, in logical scalars as measured on a
        # warmed entry.
        unit_cost = 1 + payload_scalars(engine.views[root].payload((0,)))
        engine.partial[root].budget = 2 * self.hot * unit_cost
        return SimpleNamespace(
            engine=engine, ring=engine.query.ring, root=root,
            server=ViewServer(engine), applied=[],
        )

    # -- the open loop --------------------------------------------------

    def run(self, state, tracer=None) -> Unit:
        unit = asyncio.run(self.open_loop(
            state, self.rate, self.keys, self.writes, tracer))
        state.applied = self.writes
        return unit

    async def open_loop(self, state, rate, keys, writes, tracer) -> Unit:
        """Issue ``keys`` as reads at ``rate``/s, with ``writes[j]`` due
        beside read ``j * READS_PER_WRITE``; await everything; stop."""
        server, root, ring = state.server, state.root, state.ring
        unit = Unit(traced=tracer is not None)
        # indexed by operation; one that fails keeps an infinite latency
        rlat = unit.read_lat = [math.inf] * len(keys)
        wlat = unit.update_lat = [math.inf] * len(writes)
        late: List[float] = []
        failures = {"shed": 0, "timeouts": 0, "errors": 0}
        one = ring.one
        from_tuples = Relation.from_tuples
        lookup, apply = server.lookup, server.apply
        add = tracer.add if tracer is not None else None

        async def read(due, key, i):
            started = clock()
            try:
                await lookup(root, (key,))
            except Exception:
                failures["errors"] += 1
                return
            done = clock()
            rlat[i] = done - due
            if add is not None:
                span = add("serve.read", ns(due), ns(done), root_span, i)
                add("serve.read.queue", ns(due), ns(started), span, i)
                add("serve.read.lookup", ns(started), ns(done), span, i)

        async def write(due, op, i):
            rel, rows, _mult = op
            started = clock()
            delta = from_tuples(rel, SCHEMAS[rel], ring, rows, one)
            built = clock()
            try:
                await apply([delta])
            except Backpressure:
                failures["shed"] += 1
                return
            except asyncio.TimeoutError:
                failures["timeouts"] += 1
                return
            except Exception:
                failures["errors"] += 1
                return
            done = clock()
            wlat[i // READS_PER_WRITE] = done - due
            if add is not None:
                span = add("serve.write", ns(due), ns(done), root_span, i)
                add("serve.write.queue", ns(due), ns(started), span, i)
                add("ingest.build_delta", ns(started), ns(built), span, i)
                add("serve.write.commit", ns(built), ns(done), span, i)

        await server.start()
        epoch0 = server.epoch
        root_span = tracer.begin("loop.unit") if tracer is not None else 0
        tasks = set()
        spawn = asyncio.ensure_future
        n = len(keys)
        interval = 1.0 / rate
        start = clock()
        issued = 0
        while issued < n:
            due_count = min(n, int((clock() - start) * rate) + 1)
            for j in range(issued, due_count):
                due = start + j * interval
                late.append(clock() - due)
                task = spawn(read(due, keys[j], j))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                if j % READS_PER_WRITE == 0 and j // READS_PER_WRITE < len(writes):
                    task = spawn(write(due, writes[j // READS_PER_WRITE], j))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
            issued = due_count
            await asyncio.sleep(0)
        backlog = len(tasks)
        if tasks:
            await asyncio.gather(*tasks)
        unit.seconds = clock() - start
        if tracer is not None:
            tracer.end(root_span)
        epochs = server.epoch - epoch0
        await server.stop()
        late.sort()
        unit.attempted = n + len(writes)
        unit.failed = sum(failures.values())
        committed = sum(lat < math.inf for lat in wlat)
        # committed write tuples over the schedule's wall time: the offered
        # rate unless the server falls behind
        unit.tuples = committed * ROWS_PER_WRITE
        unit.extra.update(
            backlog_end=backlog, shed=failures["shed"],
            timeouts=failures["timeouts"],
            gen_late_p99_us=1e6 * percentile(late, 0.99),
            groups=committed, epochs=epochs,
        )
        return unit

    # -- gate -----------------------------------------------------------

    def scalars(self, state) -> int:
        return strategy_scalars(state.engine)

    def check(self, state) -> List[str]:
        """Every sampled key against a full-materialization engine
        initialized from the final database."""
        ring = state.ring
        db = self.base_database(ring)
        one = ring.one
        for rel, rows, _mult in state.applied:
            db.relation(rel).absorb(
                Relation.from_tuples(rel, SCHEMAS[rel], ring, rows, one))
        full = FIVMEngine(
            self.make_query(), VariableOrder.from_spec(("A", ["B", "C", "D"])))
        full.initialize(db)
        oracle = full.result()
        client = ViewClient(state.engine)
        sample = list(range(self.hot)) + list(
            range(self.hot, self.domain, max(1, self.domain // 40)))
        return [
            f"served key {key} differs from the full engine"
            for key in sample
            if not ring.eq(client.lookup(state.root, (key,)),
                           oracle.payload((key,)))
        ]

    # -- per-layer ------------------------------------------------------

    def layers(self, state, tracer, units) -> Dict[str, float]:
        stats = ViewClient(state.engine).stats(state.root)
        traced = [u for u in units if u.traced]
        out = {
            "serving.hit_ratio":
                stats["hits"] / (stats["hits"] + stats["misses"]),
            "serving.evictions": float(stats["evictions"]),
            "serving.dropped_deltas": float(stats["dropped_deltas"]),
            "serve.groups_per_epoch":
                sum(u.extra["groups"] for u in traced)
                / max(1, sum(u.extra["epochs"] for u in traced)),
            "serve.gen_late_p99_us":
                max(u.extra["gen_late_p99_us"] for u in units),
            "serve.shed": float(sum(u.extra["shed"] for u in units)),
            "serve.timeouts": float(sum(u.extra["timeouts"] for u in units)),
            "ingest.build_delta_us_per_tuple":
                tracer.total_ns("ingest.build_delta") / 1e3
                / max(1, sum(u.tuples for u in traced)),
        }
        out.update(self.engine_probe())
        out.update(self.ladder())
        return out

    def engine_probe(self) -> Dict[str, float]:
        """The serving layer without the server: cold upqueries, hot
        lookups, write groups under partial and full materialization, and
        what one lookup costs through the event loop on top of that."""
        state = self.setup()
        engine, root = state.engine, state.root
        client = ViewClient(engine)
        cold = iter(range(self.domain - 1, self.hot, -1))
        out = {
            "serving.upquery_us": probes.per_call_us(
                lambda: upquery(engine, root, (next(cold),)),
                min(200, self.domain - self.hot - 2)),
        }
        hot_us = probes.per_call_us(lambda: client.lookup(root, (3,)), 20000)
        out["serving.lookup_hot_ns"] = 1e3 * hot_us

        async def through_server(calls: int) -> float:
            await state.server.start()
            start = clock()
            for _ in range(calls):
                await state.server.lookup(root, (3,))
            took = clock() - start
            await state.server.stop()
            return 1e6 * took / calls

        out["serve.lookup_overhead_us"] = (
            asyncio.run(through_server(5000)) - hot_us)

        groups = self.writes[:100]
        for mode in ("partial", "full"):
            try:
                target = (self.setup().engine if mode == "partial"
                          else self.build_engine(materialization="full"))
            except (TypeError, ValueError):
                out[f"serving.write_us_per_group.{mode}"] = 0.0
                continue
            ring = target.query.ring
            deltas = iter([
                Relation.from_tuples(rel, SCHEMAS[rel], ring, rows, ring.one)
                for rel, rows, _m in groups
            ])
            out[f"serving.write_us_per_group.{mode}"] = probes.per_call_us(
                lambda: target.apply_batch([next(deltas)]), len(groups))
        return out

    def ladder(self) -> Dict[str, float]:
        """The rate ladder: tail latencies and closing backlog per rung,
        and the highest rung inside the limits."""
        out = {}
        best = 0.0
        for rung in LADDER:
            rate = rung // 4 if self.quick else rung
            keys, writes = self.schedule(rate, self.rung_seconds)
            state = self.setup()
            unit = asyncio.run(self.open_loop(state, rate, keys, writes, None))
            tag = f"r{rung}"
            read_p99 = 1e6 * percentile(sorted(unit.read_lat), 0.99)
            update_p99 = 1e6 * percentile(sorted(unit.update_lat), 0.99)
            out[f"serve.read_p99_us.{tag}"] = read_p99
            out[f"serve.update_p99_us.{tag}"] = update_p99
            out[f"serve.backlog_end.{tag}"] = float(unit.extra["backlog_end"])
            ok = (
                read_p99 <= READ_P99_LIMIT_US
                and update_p99 <= UPDATE_P99_LIMIT_US
                and unit.failed == 0
                and unit.extra["backlog_end"] <= 0.01 * unit.attempted
                # lateness above the read limit invalidates the rung
                and unit.extra["gen_late_p99_us"] <= READ_P99_LIMIT_US
            )
            if ok:
                best = float(rung)
        out["serve.max_rate_ok"] = best
        return out
