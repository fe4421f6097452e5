"""Randomized differential testing of the update triggers.

A seeded generator draws random cases — schemas, variable orders (via the
heuristic), free variables, lifting assignments — and random update
*streams* mixing single-relation deltas, multi-relation ``apply_batch``
groups (including factorized items), factorized rank-r updates, and
``apply_decomposed_update`` calls.  Every trigger form must agree on
every per-update root delta and on the final state of every materialized
view:

* one :class:`FIVMEngine` per trigger form — ``"scalar"`` (pinned to the
  generated scalar triggers, including the compiled factorized path and
  its shared probe cache), ``"array"`` (pinned to the vectorized NumPy
  programs on every node over the cofactor and degree rings; scalar on
  rings whose arrays never pay), and ``"interpreter"`` (the IR walker,
  the reference semantics).  The engine normally picks scalar or array
  per delta from its size; these streams' deltas are tiny, so the pins
  are what hold *both* forms to the interpreter on every stream: each
  engine is constructed under :func:`tests.conftest.pinned`, which sets
  the size threshold it reads once at construction to "never" /
  "always" (and, for the array pin, lifts the engine's rule that keeps
  cheap products scalar),
* the hash-partitioned :class:`ShardedFIVMEngine` (three shards,
  shard-key defaulted to the variable-order root, unpinned — the default
  size-based selection) — per-update merged root deltas and final merged
  views.  The
  executor defaults to ``inline``; ``FIVM_SHARD_EXECUTOR`` (with
  ``FIVM_SHARD_PIPELINE`` for the send-ahead window) swaps in the
  process or socket transport so CI sweeps the wire protocol too,
* :class:`RecursiveIVM` (the DBToaster-style baseline) on commutative
  rings, plus from-scratch factorized recomputation on every ring.

Runs across the ℤ, degree, product, cofactor, and (non-commutative) matrix
rings under a fixed seed.  On divergence the harness *shrinks* the failing
case — dropping events, then single keys inside deltas, while the failure
persists — and fails with the minimal stream printed, ready to paste into a
regression test.

**Partial materialization** rides along as a served-key oracle: one
partial-mode engine (eviction-sized active-set budget) per form ×
storage configuration replays the same stream, and after every event a
random sample of keys is looked up through its :class:`ViewClient` and
compared against the full primary engine's root view.  The sample mixes
the three regimes partial mode can get silently wrong — never-served
keys (cold: the lookup is an upquery), previously served keys (hot: the
maintained entry answers, and must have absorbed every delta since
registration), and evicted-then-re-served keys (the tiny budget keeps
the LRU churning, so earlier-served keys routinely re-enter cold).  Root
deltas of partial engines are *not* compared — dropping cold-key deltas
is the feature — but every key ever served must equal the full engine's
value at every later step, and again after the stream ends.

``FIVM_DIFF_STREAMS_PER_RING`` scales the stream count per ring family
(default 40 → 240 streams total); the scheduled nightly CI job elevates it
to 200 (1200 streams) to sweep a wider seed range than per-push CI can
afford.  ``FIVM_STORAGE`` narrows the view-storage dimension (``"dict"``
or ``"columnar"``): unset, every form runs on both storages; set, the
scalar and array engines run on the chosen storage with the
dict/interpreter reference alongside — the CI tier-1 matrix runs the
suite once per storage × materialization that way.  Either way the
dict/interpreter engine is always in the pool, so both trigger forms are
differentially held to the reference semantics on every stream.
``FIVM_MATERIALIZATION`` narrows the materialization dimension the same
way: ``"full"`` drops the partial riders, ``"partial"`` keeps them (the
full engines always run — they are the oracle), unset runs both.
"""

from __future__ import annotations

import os
import random
from pprint import pformat
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.baselines.recursive import RecursiveIVM
from repro.bench.memory import payload_scalars
from repro.core import (
    FIVMEngine,
    FactorizedUpdate,
    Query,
    ShardedFIVMEngine,
    VariableOrder,
    ViewClient,
)
from repro.data import Database, Relation
from repro.rings import (
    CofactorRing,
    DegreeRing,
    INT_RING,
    IntegerRing,
    Lifting,
    ProductRing,
    RealRing,
    SquareMatrixRing,
)

from tests.conftest import FORMS, make_engine, pinned, recompute

#: Fixed base seed: every CI run replays the exact same 240 streams.
BASE_SEED = 0xF1B2

#: Engine configurations (form, storage): the full product — except when
#: ``FIVM_STORAGE`` pins a storage (the CI matrix runs one per job), where
#: the pool is both generated forms on it plus the interpreter/dict
#: reference.
_ENV_STORAGE = os.environ.get("FIVM_STORAGE", "").strip()
if _ENV_STORAGE:
    CONFIGS = (
        ("scalar", _ENV_STORAGE), ("array", _ENV_STORAGE),
        ("interpreter", "dict"),
    )
else:
    CONFIGS = tuple(
        (form, storage) for form in FORMS for storage in ("dict", "columnar")
    )
#: Materialization modes, narrowed by ``FIVM_MATERIALIZATION``: the full
#: engines always run (they are the oracle every other mode is held to);
#: ``"partial"`` in the set adds one partial-mode rider per CONFIGS entry,
#: checked key-by-key through the served-key sampler after every event.
_ENV_MATERIALIZATION = os.environ.get("FIVM_MATERIALIZATION", "").strip()
if _ENV_MATERIALIZATION:
    MATERIALIZATIONS = tuple(
        dict.fromkeys((_ENV_MATERIALIZATION, "full"))
    )
else:
    MATERIALIZATIONS = ("full", "partial")
#: Streams per ring family; the nightly CI job raises this via the
#: environment (FIVM_DIFF_STREAMS_PER_RING=200 → 1200 streams) while
#: per-push runs keep the fast default.
STREAMS_PER_RING = int(os.environ.get("FIVM_DIFF_STREAMS_PER_RING", "40"))

ATTR_POOL = ("A", "B", "C", "D", "E")


# ----------------------------------------------------------------------
# Ring families: attrs -> (ring, {attr: lift})
# ----------------------------------------------------------------------


def _int_ring(attrs):
    return INT_RING, {}


def _degree_ring(attrs):
    ring = DegreeRing(len(attrs))
    lifts = {a: ring.lift(i) for i, a in enumerate(attrs) if i % 2 == 0}
    return ring, lifts


def _product_ring(attrs):
    ring = ProductRing([IntegerRing(), RealRing()])

    def lift(value):
        x = float(value)
        return (1, 1.0 + 0.5 * x)

    lifts = {a: lift for i, a in enumerate(attrs) if i % 2 == 1}
    return ring, lifts


def _real_ring(attrs):
    """ℝ — the ring whose factor programs have an array form; dyadic
    lifts keep every sum exact, so all forms agree on the key sets."""
    ring = RealRing()
    lifts = {
        a: (lambda x: 1.0 + 0.5 * float(x))
        for i, a in enumerate(attrs) if i % 2 == 1
    }
    return ring, lifts


def _cofactor_ring(attrs):
    ring = CofactorRing(len(attrs))
    lifts = {a: ring.lift(i) for i, a in enumerate(attrs) if i % 2 == 1}
    return ring, lifts


def _matrix_ring(attrs):
    ring = SquareMatrixRing(2)
    upper = np.array([[0.0, 1.0], [0.0, 0.0]])
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])

    def make_lift(direction):
        return lambda x: np.eye(2) + 0.1 * float(x) * direction

    lifts = {
        a: make_lift(upper if i % 4 == 1 else lower)
        for i, a in enumerate(attrs)
        if i % 2 == 1
    }
    return ring, lifts


RING_FAMILIES = {
    "int": _int_ring,
    "degree": _degree_ring,
    "product": _product_ring,
    "cofactor": _cofactor_ring,
    "matrix": _matrix_ring,
    "real": _real_ring,
}


# ----------------------------------------------------------------------
# Case generation (plain data — replayable, printable, shrinkable)
# ----------------------------------------------------------------------


def _delta_data(rng: random.Random, schema, domain: int = 3) -> Dict[tuple, int]:
    data: Dict[tuple, int] = {}
    for _ in range(rng.randint(1, 3)):
        key = tuple(rng.randint(0, domain - 1) for _ in schema)
        data[key] = rng.choice([1, 1, 2, -1])
    return data


def _factor_terms(rng: random.Random, schema) -> List[List[Tuple[tuple, dict]]]:
    """Random rank-1/rank-2 terms: each term partitions ``schema`` into
    factor schemas (as the shuffled split), each factor carrying 1-2 keys."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        attrs = list(schema)
        rng.shuffle(attrs)
        cuts = sorted(rng.sample(range(1, len(attrs)), rng.randint(0, len(attrs) - 1))) if len(attrs) > 1 else []
        groups, start = [], 0
        for cut in cuts + [len(attrs)]:
            groups.append(tuple(attrs[start:cut]))
            start = cut
        term = []
        for group in groups:
            data = {}
            for _ in range(rng.randint(1, 2)):
                key = tuple(rng.randint(0, 2) for _ in group)
                data[key] = rng.choice([1, 1, 2, -1])
            term.append((group, data))
        terms.append(term)
    return terms


def generate_case(seed: int, allow_factorized: bool) -> dict:
    rng = random.Random(seed)
    n_attrs = rng.randint(3, 5)
    attrs = ATTR_POOL[:n_attrs]
    schemas: Dict[str, tuple] = {}
    for i in range(rng.randint(2, 3)):
        size = rng.randint(1, min(3, n_attrs))
        schemas[f"R{i}"] = tuple(sorted(rng.sample(attrs, size)))
    used = sorted({a for s in schemas.values() for a in s})
    free = tuple(rng.sample(used, min(rng.randint(0, 2), len(used))))
    events: List[dict] = []
    for _ in range(rng.randint(3, 6)):
        rel = rng.choice(sorted(schemas))
        roll = rng.random()
        if roll < 0.40:
            events.append({
                "kind": "update", "rel": rel,
                "data": _delta_data(rng, schemas[rel]),
            })
        elif roll < 0.60:
            # apply_batch groups run on every ring (non-commutative rings
            # included — the batched trigger guards child-order products).
            items = []
            for _ in range(rng.randint(2, 3)):
                b_rel = rng.choice(sorted(schemas))
                if allow_factorized and rng.random() < 0.3:
                    items.append({
                        "kind": "factorized", "rel": b_rel,
                        "terms": _factor_terms(rng, schemas[b_rel]),
                    })
                else:
                    items.append({
                        "kind": "update", "rel": b_rel,
                        "data": _delta_data(rng, schemas[b_rel]),
                    })
            events.append({"kind": "batch", "items": items})
        elif roll < 0.85:
            if allow_factorized:
                terms = [] if rng.random() < 0.1 else _factor_terms(
                    rng, schemas[rel]
                )
                events.append({
                    "kind": "factorized", "rel": rel, "terms": terms,
                })
            else:
                events.append({
                    "kind": "update", "rel": rel,
                    "data": _delta_data(rng, schemas[rel]),
                })
        elif allow_factorized:
            events.append({
                "kind": "decomposed", "rel": rel,
                "data": _delta_data(rng, schemas[rel]),
            })
        else:
            events.append({
                "kind": "update", "rel": rel,
                "data": _delta_data(rng, schemas[rel]),
            })
    return {
        "seed": seed, "schemas": schemas, "free": free, "events": events,
    }


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------


def _as_delta(rel: str, schema, ring, data: Dict[tuple, int]) -> Relation:
    return Relation(
        rel, schema, ring,
        {key: ring.from_int(c) for key, c in data.items()},
    )


def _as_factorized(rel: str, ring, terms) -> FactorizedUpdate:
    built = []
    for term in terms:
        built.append([
            Relation(
                f"{rel}_f{j}", fschema, ring,
                {key: ring.from_int(c) for key, c in data.items()},
            )
            for j, (fschema, data) in enumerate(term)
        ])
    return FactorizedUpdate(rel, built, ring=ring)


def run_case(case: dict, ring_family) -> Optional[str]:
    """Replay one case through every form and oracle; returns a
    divergence description, or None when they all agree."""
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
    primary = "/".join(CONFIGS[0])
    engines = {
        f"{form}/{storage}": make_engine(
            form, make_query(f"{form}_{storage}"), order, storage=storage
        )
        for form, storage in CONFIGS
    }
    # Partial-materialization riders: the same form × storage pool in
    # ``materialization="partial"`` mode, under an eviction-sized budget
    # (roughly three root entries at COUNT-payload cost) so the LRU churns
    # and re-served keys routinely take the upquery path.  They replay the
    # same stream and are held to the full primary engine key-by-key via
    # the served-key sampler below.
    partial_clients: Dict[str, ViewClient] = {}
    if "partial" in MATERIALIZATIONS:
        budget = 3 * (1 + payload_scalars(ring.from_int(1)))
        for form, storage in CONFIGS:
            partial_clients[f"partial/{form}/{storage}"] = ViewClient(
                make_engine(
                    form, make_query(f"p_{form}_{storage}"), order,
                    storage=storage,
                    materialization="partial", partial_budget=budget,
                )
            )
    # The sharded engine keeps the default size-based selection; its
    # shards run on columnar storage whenever columnar is in the pool, so the sharded
    # wire protocol is exercised against array-native fragments too.
    sharded_storage = (
        "columnar" if any(s == "columnar" for _, s in CONFIGS) else "dict"
    )
    # ``FIVM_SHARD_EXECUTOR`` swaps the sharded rider's executor (CI runs
    # the differential suite once per transport); ``FIVM_SHARD_PIPELINE``
    # is inherited by the engine itself.
    sharded_executor = (
        os.environ.get("FIVM_SHARD_EXECUTOR", "inline").strip() or "inline"
    )
    sharded = ShardedFIVMEngine(
        make_query("s"), order, shards=3, executor=sharded_executor,
        storage=sharded_storage,
    )
    try:
        recursive = RecursiveIVM(make_query("r")) if commutative else None
        db = Database(
            Relation(rel, schema, ring) for rel, schema in schemas.items()
        )

        def recursive_apply(delta: Relation) -> Optional[Relation]:
            if recursive is None:
                return None
            return recursive.apply_update(delta.copy())

        # -- served-key sampling (the partial-mode oracle) ------------------
        # After every event each partial rider serves a sample mixing cold
        # keys (never served → upquery), hot keys (still registered), and
        # previously served keys the tiny budget has since evicted; each must
        # equal the full primary engine's root payload.  ``served`` is the
        # rolling history the hot/evicted picks resample from.
        root_name = engines[primary].tree.root.name
        root_keys = engines[primary].tree.root.keys
        serve_rng = random.Random(case["seed"] ^ 0x5E12)
        served: List[tuple] = []
        served_set = set()

        def check_served(step: int) -> Optional[str]:
            if not partial_clients:
                return None
            oracle = engines[primary].views[root_name]
            picks = list(serve_rng.sample(served, min(2, len(served))))
            existing = list(oracle.keys())
            if existing:
                picks.append(serve_rng.choice(existing))
            picks.append(tuple(serve_rng.randint(0, 2) for _ in root_keys))
            for name, client in partial_clients.items():
                for key in picks:
                    got = client.lookup(root_name, key)
                    if not ring.eq(got, oracle.payload(key)):
                        return f"step {step}: served key {key}: full != {name}"
            for key in picks:
                if key not in served_set:
                    served_set.add(key)
                    served.append(key)
            return None

        for step, event in enumerate(case["events"]):
            kind = event["kind"]
            rec_total: Optional[Relation] = None
            roots: Dict[str, Relation] = {}
            if kind == "update":
                def fresh():
                    return _as_delta(
                        event["rel"], schemas[event["rel"]], ring, event["data"]
                    )

                for name, engine in engines.items():
                    roots[name] = engine.apply_update(fresh())
                for client in partial_clients.values():
                    client.engine.apply_update(fresh())
                roots["sharded"] = sharded.apply_update(fresh())
                rec_total = recursive_apply(fresh())
                db.apply_update(fresh())
            elif kind == "batch":
                def build_items():
                    items = []
                    for item in event["items"]:
                        rel = item["rel"]
                        if item["kind"] == "factorized":
                            items.append(_as_factorized(rel, ring, item["terms"]))
                        else:
                            items.append(
                                _as_delta(rel, schemas[rel], ring, item["data"])
                            )
                    return items

                def build_flats():
                    flats = []
                    for item in event["items"]:
                        rel = item["rel"]
                        if item["kind"] == "factorized":
                            flats.append(
                                _as_factorized(rel, ring, item["terms"]).flatten(
                                    schemas[rel], name=rel
                                )
                            )
                        else:
                            flats.append(
                                _as_delta(rel, schemas[rel], ring, item["data"])
                            )
                    return flats

                for name, engine in engines.items():
                    roots[name] = engine.apply_batch(build_items())
                for client in partial_clients.values():
                    client.engine.apply_batch(build_items())
                roots["sharded"] = sharded.apply_batch(build_items())
                for flat in build_flats():
                    contribution = recursive_apply(flat)
                    if contribution is not None:
                        rec_total = (
                            contribution if rec_total is None
                            else rec_total.union(contribution)
                        )
                    db.apply_update(flat)
            elif kind == "factorized":
                if not commutative:
                    continue
                rel = event["rel"]
                for name, engine in engines.items():
                    roots[name] = engine.apply_factorized_update(
                        _as_factorized(rel, ring, event["terms"])
                    )
                for client in partial_clients.values():
                    client.engine.apply_factorized_update(
                        _as_factorized(rel, ring, event["terms"])
                    )
                roots["sharded"] = sharded.apply_factorized_update(
                    _as_factorized(rel, ring, event["terms"])
                )
                flat = _as_factorized(rel, ring, event["terms"]).flatten(
                    schemas[rel], name=rel
                )
                rec_total = recursive_apply(flat)
                db.apply_update(flat)
            elif kind == "decomposed":
                if not commutative:
                    continue
                rel = event["rel"]

                def fresh():
                    return _as_delta(rel, schemas[rel], ring, event["data"])

                for name, engine in engines.items():
                    roots[name] = engine.apply_decomposed_update(fresh())
                for client in partial_clients.values():
                    client.engine.apply_decomposed_update(fresh())
                roots["sharded"] = sharded.apply_decomposed_update(fresh())
                rec_total = recursive_apply(fresh())
                db.apply_update(fresh())
            else:  # pragma: no cover - generator bug guard
                raise ValueError(f"unknown event kind {kind!r}")

            base = roots[primary]
            for name, root in roots.items():
                if name == primary:
                    continue
                if not base.same_as(root.rename({}, name=base.name)):
                    return (
                        f"step {step} ({kind}): {primary} root delta != {name}"
                    )
            if rec_total is not None:
                rec_cmp = rec_total.reorder(base.schema, name=base.name)
                if not base.same_as(rec_cmp):
                    return f"step {step} ({kind}): {primary} root delta != recursive"
            failure = check_served(step)
            if failure:
                return failure

        primary_engine = engines[primary]
        for name, engine in engines.items():
            if name == primary:
                continue
            if not primary_engine.result().same_as(engine.result()):
                return f"final result: {primary} != {name}"
            for view_name, contents in primary_engine.views.items():
                if not contents.same_as(engine.views[view_name]):
                    return f"final view {view_name}: {primary} != {name}"
        sharded_views = sharded.merged_views()
        for view_name, contents in primary_engine.views.items():
            if not contents.same_as(
                sharded_views[view_name].rename({}, name=contents.name)
            ):
                return f"final view {view_name}: {primary} != sharded merge"
        if recursive is not None:
            rec_result = recursive.result().reorder(
                primary_engine.result().schema, name=primary_engine.result().name
            )
            if not primary_engine.result().same_as(rec_result):
                return "final result: primary != recursive IVM"
        expected = recompute(make_query("x"), db, order).reorder(
            primary_engine.result().schema
        )
        if not primary_engine.result().same_as(expected):
            return "final result: primary != from-scratch recomputation"
        # Every key ever served must still equal the full engine's value —
        # including keys the partial riders have long since evicted.
        oracle = primary_engine.views[root_name]
        for name, client in partial_clients.items():
            for key in served:
                if not ring.eq(client.lookup(root_name, key), oracle.payload(key)):
                    return f"final served key {key}: full != {name}"
        return None
    finally:
        sharded.close()


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------


def _data_sites(event: dict) -> List[Dict[tuple, int]]:
    """Every mutable {key: coefficient} dict inside an event."""
    if event["kind"] in ("update", "decomposed"):
        return [event["data"]]
    if event["kind"] == "factorized":
        return [data for term in event["terms"] for _, data in term]
    sites: List[Dict[tuple, int]] = []
    for item in event["items"]:
        if item["kind"] == "factorized":
            sites += [data for term in item["terms"] for _, data in term]
        else:
            sites.append(item["data"])
    return sites


def shrink_case(case: dict, ring_family) -> dict:
    """Greedy delta-debugging: drop events, then single delta keys, while
    the case still fails.  Returns the minimal failing case."""
    import copy

    current = copy.deepcopy(case)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(current["events"]):
            trial = copy.deepcopy(current)
            del trial["events"][i]
            if trial["events"] and run_case(trial, ring_family):
                current = trial
                changed = True
            else:
                i += 1
        for ei in range(len(current["events"])):
            for si in range(len(_data_sites(current["events"][ei]))):
                # Re-resolve the site from `current` on every attempt: a
                # successful shrink replaces `current` with a deep copy, so
                # a binding taken before the loop would go stale and the
                # one-key guard would stop guarding.
                for key in list(_data_sites(current["events"][ei])[si]):
                    site = _data_sites(current["events"][ei])[si]
                    if len(site) <= 1 or key not in site:
                        continue
                    trial = copy.deepcopy(current)
                    del _data_sites(trial["events"][ei])[si][key]
                    if run_case(trial, ring_family):
                        current = trial
                        changed = True
    return current


# ----------------------------------------------------------------------
# The suite: 240 streams under a fixed seed (40 per ring family)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_differential_streams(ring_name):
    ring_family = RING_FAMILIES[ring_name]
    probe_ring, _ = ring_family(ATTR_POOL[:3])
    allow_factorized = probe_ring.is_commutative
    # Deterministic per-ring seed offset (not hash(): str hashing is
    # process-randomized) so the six families draw 240 distinct stream
    # structures rather than replaying the same 40.
    ring_offset = sorted(RING_FAMILIES).index(ring_name)
    for i in range(STREAMS_PER_RING):
        seed = BASE_SEED * 1000 + ring_offset * 1000 + i
        case = generate_case(seed, allow_factorized)
        failure = run_case(case, ring_family)
        if failure:
            minimal = shrink_case(case, ring_family)
            minimal_failure = run_case(minimal, ring_family) or failure
            pytest.fail(
                f"[{ring_name}] stream seed={seed}: {failure}\n"
                f"shrunk to ({minimal_failure}):\n{pformat(minimal)}"
            )


# ----------------------------------------------------------------------
# Multi-view rider: a sharing MultiViewEngine vs N independent engines
# ----------------------------------------------------------------------


@pytest.mark.parametrize("ring_name", sorted(RING_FAMILIES))
def test_multiview_differential(ring_name):
    """A sharing :class:`MultiViewEngine` must be indistinguishable from N
    independent eager engines at every forced refresh point.

    Each case draws a pool of shared base relations plus one private
    relation per view, registers N=3 random queries (random free sets,
    random target lags under a fake clock, a random recompute_fraction so
    both refresh paths fire) on one multi-view engine with sharing on, and
    replays a random count-delta stream.  At random drain points — and
    after a final drain — every view's result must equal its own dedicated
    :class:`FIVMEngine` maintained update-by-update.  Runs on every ring
    family: commutative rings exercise the shared-sub-view cuts and the
    publish/promote rebuilds, the matrix ring checks that sharing is
    declined without losing exactness.
    """
    from repro.core import MultiViewEngine

    ring_family = RING_FAMILIES[ring_name]
    ring_offset = sorted(RING_FAMILIES).index(ring_name)
    storage = CONFIGS[0][1]
    n_cases = max(2, STREAMS_PER_RING // 10)
    for i in range(n_cases):
        seed = BASE_SEED * 2000 + ring_offset * 1000 + i
        rng = random.Random(seed)
        clock_now = [0.0]

        n_attrs = rng.randint(3, 5)
        attrs = ATTR_POOL[:n_attrs]
        shared_schemas = {
            f"R{j}": tuple(
                sorted(rng.sample(attrs, rng.randint(1, min(3, n_attrs))))
            )
            for j in range(rng.randint(2, 3))
        }
        ring, lifts = ring_family(attrs)
        lifting = Lifting(ring, lifts)

        n_views = 3
        queries: List[Query] = []
        for v in range(n_views):
            relations = dict(shared_schemas)
            if rng.random() < 0.7:
                relations[f"T{v}"] = tuple(
                    sorted(rng.sample(attrs, rng.randint(1, 2)))
                )
            used = sorted({a for s in relations.values() for a in s})
            free = tuple(rng.sample(used, min(rng.randint(0, 2), len(used))))
            queries.append(
                Query(f"V{v}", relations, free=free, ring=ring,
                      lifting=lifting)
            )

        mv = MultiViewEngine(
            storage=storage,
            recompute_fraction=rng.choice([0.0, 0.3, 1e9]),
            clock=lambda: clock_now[0],
        )
        oracles: Dict[str, FIVMEngine] = {}
        for query in queries:
            # The multi-view engine builds its per-view and shared
            # engines at registration: pin those to the array form and
            # the independent oracles to the scalar one.
            with pinned("array"):
                mv.register(
                    query, target_lag=rng.choice([0.0, 0.0, 5.0, 50.0])
                )
            oracle = make_engine("scalar", query, storage=storage)
            oracle.initialize(
                Database(
                    Relation(rel, schema, ring)
                    for rel, schema in query.relations.items()
                )
            )
            oracles[query.name] = oracle

        all_rels = sorted(
            {rel for query in queries for rel in query.relations}
        )

        def compare(step: str) -> None:
            for query in queries:
                got = mv.result(query.name)
                want = oracles[query.name].result()
                keys = set(got.keys()) | {
                    tuple(key[want.schema.index(a)] for a in query.free)
                    if tuple(want.schema) != tuple(query.free)
                    else key
                    for key in want.keys()
                }
                want_free = (
                    want if tuple(want.schema) == tuple(query.free)
                    else want.reorder(tuple(query.free))
                )
                for key in keys:
                    if not ring.eq(got.payload(key), want_free.payload(key)):
                        pytest.fail(
                            f"[{ring_name}] multiview seed={seed} "
                            f"{step}: view {query.name} key {key}: "
                            f"multiview != independent engine"
                        )

        for _ in range(rng.randint(6, 10)):
            rel = rng.choice(all_rels)
            schema = next(
                q.relations[rel] for q in queries if rel in q.relations
            )
            data = _delta_data(rng, schema)
            mv.apply_update(rel, data)
            delta = _as_delta(rel, schema, ring, data)
            for query in queries:
                if rel in query.relations:
                    oracles[query.name].apply_update(delta.copy())
            clock_now[0] += rng.choice([0.0, 1.0, 10.0, 100.0])
            if rng.random() < 0.3:
                mv.drain()
                compare("mid-stream drain")
        mv.drain()
        compare("final drain")


def test_shrinker_minimizes_a_planted_failure():
    """The shrinker itself is code under test: plant a fake oracle that
    rejects any stream touching R0 with key (1,), and check the minimal
    stream is a single one-key event."""
    case = generate_case(BASE_SEED, allow_factorized=True)
    case["events"].append(
        {"kind": "update", "rel": "R0", "data": {(0, 1): 1, (1, 1): 2}}
    )

    def planted_oracle(trial, _family=None):
        for event in trial["events"]:
            for site in _data_sites(event):
                for key in site:
                    if 1 in key:
                        return "planted failure"
        return None

    import copy

    def fake_run(trial, family):
        return planted_oracle(trial)

    original = globals()["run_case"]
    globals()["run_case"] = fake_run
    try:
        minimal = shrink_case(case, _int_ring)
    finally:
        globals()["run_case"] = original
    assert len(minimal["events"]) == 1
    sites = _data_sites(minimal["events"][0])
    assert sum(len(site) for site in sites) == 1
    assert planted_oracle(minimal)
