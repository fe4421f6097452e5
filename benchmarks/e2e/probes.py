"""Small isolated probes of single layers, run only in the traced run.

Each times a layer's public functions from outside on fixed inputs.  A
probe whose subject has been removed from ``src/`` reports 0 instead of
failing, so deleting a storage mode or a knob cannot break the benchmark.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict

import numpy as np

from repro.data.relation import Relation
from repro.rings.cofactor import CofactorRing

clock = time.perf_counter


def pickled_size(obj) -> int:
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def per_call_us(fn, calls: int) -> float:
    start = clock()
    for _ in range(calls):
        fn()
    return 1e6 * (clock() - start) / calls


def timer_ns() -> float:
    """Cost of one clock read (what every recorded latency includes twice)."""
    calls = 20000
    start = clock()
    for _ in range(calls):
        clock()
    return 1e9 * (clock() - start) / calls


def ring_probe() -> Dict[str, float]:
    """Scalar ring operations of the degree-43 and degree-3 cofactor rings
    on the shapes the Retailer triggers produce: a product of two lifted
    variables, a product and a sum of two accumulated triples, one lift."""
    out = {}
    ring = CofactorRing(43)
    lifted = [ring.lift(i)(float(i + 2)) for i in range(43)]
    left = lifted[0]
    for triple in lifted[1:20]:
        left = ring.mul(left, triple)
    right = lifted[20]
    for triple in lifted[21:]:
        right = ring.mul(right, triple)
    out["ring.cofactor43.mul_us"] = per_call_us(
        lambda: ring.mul(left, right), 2000)
    out["ring.cofactor43.add_us"] = per_call_us(
        lambda: ring.add(left, left), 5000)
    values = iter(np.arange(1e6, 1e6 + 20001).tolist())  # never memoized
    lift = ring.lift(7)
    out["ring.cofactor43.lift_us"] = per_call_us(
        lambda: lift(next(values)), 20000)
    small = CofactorRing(3)
    a = small.mul(small.lift(0)(2.0), small.lift(1)(3.0))
    b = small.lift(2)(5.0)
    out["ring.cofactor3.mul_us"] = per_call_us(lambda: small.mul(a, b), 20000)
    return out


def storage_probe(ops, schema) -> Dict[str, float]:
    """``absorb_bulk`` of the workload's own Inventory deltas into an
    indexed relation, and ``payload`` point lookups, per storage."""
    try:
        from repro.data.columnar import ColumnarRelation
    except ImportError:
        ColumnarRelation = None
    ring = CofactorRing(43)
    lift = ring.lift(3)
    deltas = []
    for rel, rows, mult in ops:
        if rel != "Inventory" or mult < 0:
            continue
        deltas.append(Relation(
            rel, schema, ring, {row: lift(row[3]) for row in rows}))
        if len(deltas) == 12:
            break
    tuples = sum(len(d) for d in deltas)
    keys = [key for d in deltas for key in d.keys()][:20000]
    out = {}
    for label, cls in (("dict", Relation), ("columnar", ColumnarRelation)):
        if cls is None:
            out[f"storage.absorb_tuples_per_s.{label}"] = 0.0
            out[f"storage.payload_lookup_ns.{label}"] = 0.0
            continue
        target = cls("V", schema, ring)
        target.register_index(schema[:2])
        start = clock()
        for delta in deltas:
            target.absorb_bulk(delta)
        out[f"storage.absorb_tuples_per_s.{label}"] = (
            tuples / (clock() - start))
        payload = target.payload
        start = clock()
        for key in keys:
            payload(key)
        out[f"storage.payload_lookup_ns.{label}"] = (
            1e9 * (clock() - start) / len(keys))
    return out
