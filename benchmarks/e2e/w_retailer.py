"""``retailer_b1`` and ``retailer_b600``: cofactor maintenance over the
Retailer snowflake (5 relations, 43 variables, degree-43 cofactor ring),
all relations streaming round-robin, the last 20 % of calls deletes.

The two differ only in how many rows one ``apply_update`` call carries,
which decides the layer that does the work: at one row per call it is
per-call cost (dispatch, probe cache, scalar ring ops, dict absorb); at
600 rows it is trigger execution and view absorb, where array kernels
would run.
"""

from __future__ import annotations

import gc
import statistics
from types import SimpleNamespace
from typing import Dict, List

import numpy as np

from repro.apps.regression import cofactor_query
from repro.bench.memory import strategy_scalars
from repro.core.checkpoint import JournaledFIVMEngine, UpdateJournal, pack_item
from repro.core.engine import FIVMEngine
from repro.core.view_tree import build_view_tree
from repro.data.database import Database
from repro.data.relation import Relation
from repro.datasets import retailer as shape

from benchmarks.e2e import gen, probes
from benchmarks.e2e.harness import (
    Unit, Workload, apply_ops, clock, count_tuples, drive, final_counts,
    relation_updaters,
)

SCHEMAS = shape.SCHEMAS
NUMERIC = shape.ALL_VARIABLES

#: The (backend, storage) cells of the substitution probe, by metric name.
CELLS = {
    "source_dict": ("source", "dict"),
    "source_columnar": ("source", "columnar"),
    "kernels_dict": ("kernels", "dict"),
    "kernels_columnar": ("kernels", "columnar"),
    "interpreter_dict": ("interpreter", "dict"),
}


def final_database(ops, ring) -> Database:
    """The database a stream leaves behind, built without any engine."""
    return Database(
        Relation(rel, SCHEMAS[rel], ring,
                 {row: ring.from_int(n) for row, n in table.items()})
        for rel, table in final_counts(SCHEMAS, ops).items()
    )


def views_differ(ring, got: Dict[str, Relation], want: Dict[str, Relation]):
    """Names of the views on which two engines disagree under ``ring.eq``."""
    bad = []
    for name, expected in want.items():
        view = got.get(name)
        if view is None or len(view) != len(expected):
            bad.append(name)
            continue
        payload = view.payload
        eq = ring.eq
        if not all(eq(payload(key), value) for key, value in expected.items()):
            bad.append(name)
    return bad


class Retailer(Workload):
    """Shared body of the two Retailer workloads."""

    batch = 1
    read_every = 16
    n_inventory = 0
    #: ``--quick`` sizes: fact rows, and rows per call (small enough that
    #: every relation still sees several calls).
    quick_inventory = 0
    quick_batch = 1
    #: The substitution probe runs each cell on the first 1/this of the
    #: stream.
    probe_share = 10

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        start = clock()
        rng = np.random.default_rng(seed)
        digest = gen.Digest(self.name, seed, quick)
        if quick:
            self.batch = self.quick_batch
            tables = gen.retailer_tables(
                rng, digest, self.quick_inventory,
                locations=6, dates=8, products=30, zips=3,
            )
        else:
            tables = gen.retailer_tables(rng, digest, self.n_inventory)
        ops = gen.update_stream(
            rng, digest, tables, self.batch, ["Inventory"], 0.2
        )
        # The first call on each relation is the warm-up: it fires every
        # trigger once, inside set-up.
        self.warm, self.ops = ops[:len(SCHEMAS)], ops[len(SCHEMAS):]
        self.order = shape.variable_order()
        self.input_digest = digest.hex()
        self.gen_s = clock() - start

    def build(self, **engine_kwargs):
        """Query + engine through the default-constructed public API."""
        query = cofactor_query(self.name, SCHEMAS, NUMERIC)
        return query, FIVMEngine(query, self.order, **engine_kwargs)

    def apply_all(self, engine, ops) -> None:
        apply_ops(SCHEMAS, engine.query.ring, engine.apply_update, ops)

    def setup(self):
        query, engine = self.build()
        self.apply_all(engine, self.warm)
        engine.result().payload(()).moment_matrix()
        return SimpleNamespace(query=query, ring=query.ring, engine=engine)

    def drive(self, state, ops, tracer) -> Unit:
        """One stream segment: updates through ``apply_update``, the read
        is the application's — the moment matrix of the maintained
        cofactor triple."""
        result = state.engine.result
        update, traced_update, root_rows = relation_updaters(
            SCHEMAS, state.ring, state.engine.apply_update, tracer,
            "engine.apply", count_root_rows=True,
        )
        unit = drive(
            ops, update, lambda: result().payload(()).moment_matrix(),
            self.read_every, tracer=tracer, traced_update=traced_update,
        )
        unit.tuples = count_tuples(ops)
        if root_rows:
            unit.extra["root_delta_rows"] = root_rows[0]
        return unit

    def run(self, state, tracer=None) -> Unit:
        return self.drive(state, self.ops, tracer)

    def scalars(self, state) -> int:
        return strategy_scalars(state.engine)

    def check(self, state) -> List[str]:
        """Every maintained view against ``initialize(final_db)``."""
        query, oracle = self.build()
        db = final_database(self.warm + self.ops, query.ring)
        start = clock()
        oracle.initialize(db)
        self.recompute_s = clock() - start
        bad = views_differ(state.ring, state.engine.views, oracle.views)
        return [f"view {name} differs from recomputation" for name in bad]

    # -- per-layer ------------------------------------------------------

    def layers(self, state, tracer, units) -> Dict[str, float]:
        traced = [u for u in units if u.traced]
        tuples = sum(u.tuples for u in traced)
        calls = sum(len(u.update_lat) for u in traced)
        per_rel = {rel: 0 for rel in SCHEMAS}
        for rel, rows, _mult in self.ops:
            per_rel[rel] += len(rows)
        out = {
            "ingest.build_delta_us_per_tuple":
                tracer.total_ns("ingest.build_delta") / 1e3 / tuples,
            "engine.root_delta_rows_per_call":
                sum(u.extra["root_delta_rows"] for u in traced) / calls,
            "engine.recompute_s": self.recompute_s,
            "engine.incremental_vs_recompute":
                statistics.median(u.seconds for u in units) / self.recompute_s,
        }
        for rel in SCHEMAS:
            out[f"engine.apply_us_per_tuple.{rel}"] = (
                tracer.total_ns(f"engine.apply.{rel}") / 1e3
                / max(1, per_rel[rel] * len(traced))
            )
        out.update(self.plan_probe())
        suffix = "b600" if self.read_every == 1 else "b1"
        prefix = self.ops[:max(len(SCHEMAS), len(self.ops) // self.probe_share)]
        n_prefix = count_tuples(prefix)
        for cell, (backend, storage) in CELLS.items():
            out[f"backend.{cell}.tuples_per_s.{suffix}"] = self.cell_probe(
                prefix, n_prefix, backend=backend, storage=storage
            )
        return out

    def plan_probe(self) -> Dict[str, float]:
        """Planner cost from outside: tree build, engine constructor, and
        what the first call on each relation pays beyond the same call
        made again (after undoing it)."""
        query = cofactor_query(self.name, SCHEMAS, NUMERIC)
        t0 = clock()
        build_view_tree(query, self.order)
        t1 = clock()
        engine = FIVMEngine(query, self.order)
        t2 = clock()
        first_extra = 0.0
        for rel, rows, mult in self.warm:
            timings = []
            for sign in (mult, -mult, mult):
                start = clock()
                self.apply_all(engine, [(rel, rows, sign)])
                timings.append(clock() - start)
            first_extra += timings[0] - timings[2]
        return {
            "plan.build_tree_ms": 1e3 * (t1 - t0),
            "plan.engine_init_ms": 1e3 * (t2 - t1),
            "plan.first_call_ms": 1e3 * first_extra,
            "plan.views_materialized": float(len(engine.views)),
        }

    def cell_probe(self, prefix, n_prefix, **kwargs) -> float:
        """Tuples/s of one backend × storage cell on a fixed stream prefix;
        0 when the engine no longer takes the keyword (the cell is gone)."""
        try:
            query, engine = self.build(**kwargs)
        except (TypeError, ValueError):
            return 0.0
        self.apply_all(engine, self.warm)
        gc.collect()  # the traced units' spans are garbage-collector work
        start = clock()
        self.apply_all(engine, prefix)
        return n_prefix / (clock() - start)


class RetailerB1(Retailer):
    name = "retailer_b1"
    batch = 1
    read_every = 16
    n_inventory = 9000
    quick_inventory = 300

    def layers(self, state, tracer, units):
        out = super().layers(state, tracer, units)
        out.update(probes.ring_probe())
        return out


class RetailerB600(Retailer):
    name = "retailer_b600"
    batch = 600
    read_every = 1
    n_inventory = 24000
    quick_inventory = 900
    quick_batch = 40
    #: A tenth of this stream is five calls, too few to time a cell that
    #: runs 100k tuples/s.
    probe_share = 3

    def run(self, state, tracer=None) -> Unit:
        """The stream with ``engine.snapshot()`` taken at 90 % of it, off
        the throughput clock; :meth:`check` recovers from that snapshot."""
        cut = len(self.ops) - max(1, len(self.ops) // 10)
        unit = self.drive(state, self.ops[:cut], tracer)
        start = clock()
        state.snapshot = state.engine.snapshot()
        unit.extra["snapshot_s"] = clock() - start
        unit.merge(self.drive(state, self.ops[cut:], tracer))
        state.tail_ops = self.ops[cut:]
        return unit

    def check(self, state) -> List[str]:
        """Recomputation, plus: restore the 90 % snapshot into a fresh
        engine, replay the last 10 % of calls, compare with the original."""
        bad = super().check(state)
        _query, fresh = self.build()
        start = clock()
        fresh.restore(state.snapshot)
        restored = clock()
        self.apply_all(fresh, state.tail_ops)
        done = clock()
        self.restore_s = restored - start
        self.recover_s = done - start
        self.replay_tuples_per_s = (
            count_tuples(state.tail_ops) / (done - restored))
        bad += [
            f"view {name} differs after snapshot restore + replay"
            for name in views_differ(state.ring, fresh.views,
                                     state.engine.views)
        ]
        return bad

    def layers(self, state, tracer, units):
        out = super().layers(state, tracer, units)
        out.update(probes.storage_probe(self.ops, SCHEMAS["Inventory"]))
        out.update(self.checkpoint_probe(state, units))
        return out

    def checkpoint_probe(self, state, units) -> Dict[str, float]:
        """Checkpoint timings of this run, and what journaling each group
        costs on the same stream (``pack_item(copy=True)`` + append, and a
        stream prefix through ``JournaledFIVMEngine`` against plain)."""
        ring = state.ring
        minus_one = ring.from_int(-1)
        deltas = [
            Relation.from_tuples(rel, SCHEMAS[rel], ring, rows,
                                 ring.one if mult > 0 else minus_one)
            for rel, rows, mult in self.warm + self.ops
        ]
        journal = UpdateJournal()
        start = clock()
        for seq, delta in enumerate(deltas, 1):
            journal.append(seq, [pack_item(delta, copy=True)])
        append_s = clock() - start

        n_warm = len(self.warm)
        prefix = deltas[n_warm:n_warm + max(5, len(deltas) // 10)]
        timings = {}
        for label in ("plain", "journaled"):
            _q, target = self.build()
            for delta in deltas[:n_warm]:
                target.apply_update(delta)
            if label == "journaled":
                target = JournaledFIVMEngine(target)
            start = clock()
            for delta in prefix:
                target.apply_update(delta)
            timings[label] = clock() - start
        return {
            "checkpoint.snapshot_s": statistics.median(
                u.extra["snapshot_s"] for u in units),
            "checkpoint.snapshot_bytes":
                float(probes.pickled_size(state.snapshot)),
            "checkpoint.restore_ms": 1e3 * self.restore_s,
            "checkpoint.recover_s": self.recover_s,
            "checkpoint.replay_tuples_per_s": self.replay_tuples_per_s,
            "checkpoint.journal_append_us_per_group":
                1e6 * append_s / len(deltas),
            "checkpoint.journaled_overhead_frac":
                timings["journaled"] / timings["plain"] - 1.0,
        }
