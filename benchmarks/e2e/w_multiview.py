"""``multiview_n100``: 100 registered views over one shared database.

Every view joins the same four-relation ℤ core with one private
dimension, all at ``target_lag=0``.  CSE sharing, fan-out and the
scheduler do the work; trigger execution per view is tiny, and the
planner runs once per registered view, inside set-up.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List

import numpy as np

from repro.bench.memory import relation_scalars
from repro.core.engine import FIVMEngine
from repro.core.multiview import MultiViewEngine
from repro.core.query import Query
from repro.data.database import Database
from repro.data.relation import Relation
from repro.rings.numeric import INT_RING

from benchmarks.e2e import gen
from benchmarks.e2e.harness import Unit, Workload, clock, drive
from benchmarks.e2e.trace import now_ns

#: The shared four-relation chain every registered query joins.
CORE = {"R": ("A", "B"), "S": ("B", "C"), "U": ("C", "D"), "W": ("D", "E")}


class MultiviewN100(Workload):
    name = "multiview_n100"
    views = 100
    domain = 40
    events = 200
    rows_per_event = 16
    read_every = 5
    #: Views compared against an independent engine by the gate.
    gate_views = 10
    #: Events of the traced run's no-sharing and single-view arms.
    arm_events = 100

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        start = clock()
        if quick:
            self.views, self.events, self.arm_events = 12, 20, 10
            self.gate_views = 3
        digest = gen.Digest(self.name, seed, quick)
        rng = np.random.default_rng(seed)
        self.seeds, self.stream = gen.multiview_inputs(
            rng, digest, CORE, self.views, self.domain, self.events,
            self.rows_per_event,
        )
        self.input_digest = digest.hex()
        self.gen_s = clock() - start

    def queries(self, count: int) -> List[Query]:
        out = []
        for i in range(count):
            relations = dict(CORE)
            relations[f"T{i:03d}"] = ("A", "F")
            out.append(
                Query(f"V{i:03d}", relations, free=("A",), ring=INT_RING))
        return out

    def build(self, count: int, **kwargs) -> MultiViewEngine:
        """Register ``count`` views and load the base contents."""
        engine = MultiViewEngine(**kwargs)
        for query in self.queries(count):
            engine.register(query, target_lag=0.0)
        keep = set(CORE) | {f"T{i:03d}" for i in range(count)}
        engine.apply_batch([s for s in self.seeds if s[0] in keep])
        engine.drain()
        return engine

    def setup(self):
        engine = self.build(self.views)
        # warm-up: one event per core relation fires every trigger once;
        # the opposite event puts the state back
        for rel in CORE:
            engine.apply_update(rel, {(0, 0): 1})
            engine.apply_update(rel, {(0, 0): -1})
        client = engine.client()
        names = engine.view_names()
        return SimpleNamespace(engine=engine, client=client, names=names)

    def run(self, state, tracer=None) -> Unit:
        engine = state.engine
        apply = engine.apply_update
        lookup = state.client.lookup
        names = state.names

        def update(event):
            apply(event[0], event[1])

        def traced_update(event, parent, i):
            t0 = now_ns()
            apply(event[0], event[1])
            tracer.add("multiview.apply_update", t0, now_ns(), parent, i)

        def read():
            """One dashboard refresh: a point read on every view."""
            for name in names:
                lookup(name, (7,))

        fanouts = engine.stats["fanouts"]
        unit = drive(self.stream, update, read, self.read_every,
                     barrier=engine.drain, tracer=tracer,
                     traced_update=traced_update)
        unit.extra["fanouts"] = engine.stats["fanouts"] - fanouts
        unit.tuples = sum(len(counts) for _rel, counts in self.stream)
        return unit

    def scalars(self, state) -> int:
        """Logical scalars of the maintained results, view by view (the
        engine exposes no count of its shared and intermediate state)."""
        return sum(
            relation_scalars(state.engine.result(name))
            for name in state.names)

    def final_counts(self) -> Dict[str, Dict[tuple, int]]:
        counts: Dict[str, Dict[tuple, int]] = {}
        for rel, delta in self.seeds + self.stream:
            table = counts.setdefault(rel, {})
            for key, n in delta.items():
                table[key] = table.get(key, 0) + n
        return counts

    def check(self, state) -> List[str]:
        """Sampled views against independent ``FIVMEngine``s initialized
        from the final database."""
        counts = self.final_counts()
        bad = []
        step = max(1, self.views // self.gate_views)
        for query in self.queries(self.views)[::step]:
            db = Database(
                Relation(rel, schema, INT_RING, counts[rel])
                for rel, schema in query.relations.items()
            )
            oracle = FIVMEngine(query, db=db).result()
            got = state.engine.result(query.name)
            if dict(got.items()) != dict(oracle.items()):
                bad.append(f"view {query.name} differs from an independent "
                           "engine")
        return bad

    def layers(self, state, tracer, units) -> Dict[str, float]:
        traced = [u for u in units if u.traced]
        events = len(self.stream) * len(traced)
        engine = state.engine
        shared = list(engine.shared_stats().values())
        hits = sum(s["hits"] for s in shared)
        refreshes = sum(s["refreshes"] for s in shared)

        start = clock()
        registered = MultiViewEngine()
        for query in self.queries(self.views):
            registered.register(query, target_lag=0.0)
        register_ms = 1e3 * (clock() - start) / self.views

        return {
            "multiview.register_ms_per_view": register_ms,
            "multiview.shared_hit_ratio": hits / max(1, hits + refreshes),
            "multiview.fanouts_per_event":
                sum(u.extra["fanouts"] for u in traced) / events,
            "multiview.apply_ms":
                tracer.total_ns("multiview.apply_update") / 1e6 / events,
            "multiview.drain_ms":
                tracer.total_ns("barrier") / 1e6 / len(traced),
            # the two simpler alternatives, on a prefix of the stream
            "multiview.no_sharing_tuples_per_s":
                self.arm(self.views, sharing=False),
            "multiview.single_view_tuples_per_s": self.arm(1),
        }

    def arm(self, count: int, **kwargs) -> float:
        """Input rows/s of ``count`` views on the first ``arm_events``."""
        try:
            engine = self.build(count, **kwargs)
        except TypeError:
            return 0.0
        prefix = self.stream[:self.arm_events]
        start = clock()
        for rel, counts in prefix:
            engine.apply_update(rel, counts)
        engine.drain()
        took = clock() - start
        return sum(len(counts) for _rel, counts in prefix) / took
