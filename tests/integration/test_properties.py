"""Cross-cutting property tests: numeric stability, enumeration, batching."""

import random
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ConjunctiveQuery
from repro.core import FIVMEngine, Query, VariableOrder
from repro.data import Database, Relation
from repro.rings import INT_RING, Lifting, RealRing

from tests.conftest import PAPER_SCHEMAS, paper_variable_order, recompute


class TestFloatChurnStability:
    def test_real_ring_views_stay_clean_under_heavy_churn(self, rng):
        """Insert/delete cycles with float payloads must not leave near-zero
        residue keys (the RealRing tolerance story)."""
        ring = RealRing()
        lifting = Lifting(ring, {"B": float, "D": float})
        q = Query("Q", PAPER_SCHEMAS, free=("A",), ring=ring, lifting=lifting)
        engine = FIVMEngine(q, paper_variable_order())
        live = []
        for step in range(300):
            if live and rng.random() < 0.45:
                rel, key, value = live.pop(rng.randrange(len(live)))
                delta = Relation(rel, PAPER_SCHEMAS[rel], ring, {key: -value})
            else:
                rel = rng.choice(list(PAPER_SCHEMAS))
                key = tuple(
                    float(rng.randint(0, 2)) for _ in PAPER_SCHEMAS[rel]
                )
                value = rng.choice([0.25, 1.0, 1.5])
                live.append((rel, key, value))
                delta = Relation(rel, PAPER_SCHEMAS[rel], ring, {key: value})
            engine.apply_update(delta)
        # Drain everything; all views must be empty (no float residue).
        for rel, key, value in live:
            engine.apply_update(
                Relation(rel, PAPER_SCHEMAS[rel], ring, {key: -value})
            )
        assert engine.total_keys() == 0


class TestBatchingEquivalence:
    def test_batch_size_never_changes_results(self, rng):
        """Applying one big delta or many small ones is indistinguishable."""
        q = Query("Q", PAPER_SCHEMAS, free=("A",), ring=INT_RING)
        order = paper_variable_order()
        big = FIVMEngine(q, order)
        small = FIVMEngine(q, order)
        for _ in range(15):
            rel = rng.choice(list(PAPER_SCHEMAS))
            rows = {}
            for _ in range(rng.randint(2, 6)):
                key = tuple(rng.randint(0, 2) for _ in PAPER_SCHEMAS[rel])
                rows[key] = rows.get(key, 0) + rng.choice([1, 1, -1, 2])
            rows = {k: v for k, v in rows.items() if v}
            big.apply_update(Relation(rel, PAPER_SCHEMAS[rel], INT_RING, rows))
            for key, value in rows.items():
                small.apply_update(
                    Relation(rel, PAPER_SCHEMAS[rel], INT_RING, {key: value})
                )
            assert big.result().same_as(small.result())


@st.composite
def small_instance(draw):
    def rel_rows(width):
        n = draw(st.integers(0, 5))
        return [
            tuple(draw(st.integers(0, 2)) for _ in range(width))
            for _ in range(n)
        ]

    return {
        "R": rel_rows(2),
        "S": rel_rows(3),
        "T": rel_rows(2),
    }


@given(small_instance())
@settings(max_examples=25, deadline=None)
def test_factorized_enumeration_matches_listing(rows):
    """Hypothesis: for arbitrary small instances, the factorized result
    enumerates exactly the listing result of Q(A,B,C,D)."""
    free = ("A", "B", "C", "D")
    order = paper_variable_order()
    fact = ConjunctiveQuery("Q", PAPER_SCHEMAS, free, mode="factorized", order=order)
    listing = ConjunctiveQuery("Q", PAPER_SCHEMAS, free, mode="listing_keys", order=order)
    for rel, rel_rows in rows.items():
        for engine in (fact, listing):
            ring = engine.ring
            delta = Relation(rel, PAPER_SCHEMAS[rel], ring)
            for row in rel_rows:
                delta.add(row, ring.one)
            if not delta.is_empty:
                engine.apply_update(delta)
    expected = dict(listing.result_relation().items())
    assert dict(fact.enumerate()) == expected


@st.composite
def query_shape(draw):
    """A random variable order over V0..Vn with relations along its paths
    and a free set closed under ancestors: nested free views, relations of
    one to four variables, and bound variables (shared or not) below."""
    n = draw(st.integers(2, 6))
    parent = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    children = {i: [j for j in range(n) if parent[j] == i] for i in range(n)}

    def path(i):
        return path(parent[i]) + [i] if parent[i] is not None else [i]

    def spec(i):
        return (f"V{i}", [spec(j) for j in children[i]])

    relations = []
    for i in range(n):
        if children[i] and draw(st.booleans()):
            continue  # inner variables are covered from below, see next loop
        above = [v for v in path(i)[:-1] if draw(st.booleans())]
        relations.append(above[-3:] + [i])
    covered = {v for schema in relations for v in schema}
    for i in range(n):
        if i not in covered:
            relations.append(([parent[i]] if parent[i] is not None else []) + [i])
    schemas = {
        f"R{k}": tuple(f"V{v}" for v in schema)
        for k, schema in enumerate(relations)
    }
    free = []
    for i in range(n):  # parents come first
        on_top = parent[i] is None or f"V{parent[i]}" in free
        if on_top and draw(st.integers(0, 3)) < 3:
            free.append(f"V{i}")
    return schemas, VariableOrder.from_spec(spec(0)), tuple(free)


def churn(data, schemas, engines, values):
    """A drawn stream of single-row inserts and deletes of live rows,
    over attribute values in ``range(values)``, applied to each engine."""
    names = sorted(schemas)
    live = []
    for _ in range(data.draw(st.integers(0, 25))):
        if live and data.draw(st.integers(0, 3)) == 0:
            rel, row = live.pop(data.draw(st.integers(0, len(live) - 1)))
            sign = -1
        else:
            rel = data.draw(st.sampled_from(names))
            row = tuple(
                data.draw(st.integers(0, values - 1)) for _ in schemas[rel]
            )
            live.append((rel, row))
            sign = 1
        for engine in engines:
            engine.apply_update(
                Relation(rel, schemas[rel], engine.ring, {row: sign})
            )


@given(query_shape(), st.data())
@settings(max_examples=60, deadline=None)
def test_factorized_enumeration_matches_listing_on_any_free_top(shape, data):
    """Hypothesis: whatever the shape of the free top of the variable
    order, after a stream of inserts and deletes the factorized result
    enumerates the listing result, and counts it without enumerating."""
    schemas, order, free = shape
    fact = ConjunctiveQuery("Q", schemas, free, mode="factorized", order=order)
    listing = ConjunctiveQuery("Q", schemas, free, mode="listing_keys", order=order)
    churn(data, schemas, (fact, listing), 2)
    expected = dict(listing.result_relation().items())
    enumerated = list(fact.enumerate())
    assert dict(enumerated) == expected
    assert len(enumerated) == len(expected) == fact.result_size()


@given(query_shape(), st.data())
@settings(max_examples=60, deadline=None)
def test_factorized_pages_match_listing_with_mixed_bucket_sizes(shape, data):
    """Hypothesis: with values drawn from {0, 1, 2}, buckets of one entry
    (folded into a neighbour when a run starts) and of several (nested)
    mix within one run.  The whole enumeration is the listing result, and
    a page of any length is that many distinct pairs of it."""
    schemas, order, free = shape
    fact = ConjunctiveQuery("Q", schemas, free, mode="factorized", order=order)
    listing = ConjunctiveQuery("Q", schemas, free, mode="listing_keys", order=order)
    churn(data, schemas, (fact, listing), 3)
    expected = set(listing.result_relation().items())
    enumerated = list(fact.enumerate())
    assert set(enumerated) == expected and len(enumerated) == len(expected)
    k = data.draw(st.integers(0, len(expected)))
    page = list(islice(fact.enumerate(), k))
    assert len(set(page)) == k and set(page) <= expected


@given(st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_engine_matches_recompute_seeded(seed):
    """Hypothesis-driven seeds for the end-to-end maintenance invariant."""
    rng = random.Random(seed)
    q = Query("Q", PAPER_SCHEMAS, free=("C",), ring=INT_RING)
    order = paper_variable_order()
    engine = FIVMEngine(q, order)
    db = Database(
        Relation(rel, schema, INT_RING)
        for rel, schema in PAPER_SCHEMAS.items()
    )
    for _ in range(8):
        rel = rng.choice(list(PAPER_SCHEMAS))
        delta = Relation(rel, PAPER_SCHEMAS[rel], INT_RING)
        for _ in range(rng.randint(1, 3)):
            key = tuple(rng.randint(0, 2) for _ in PAPER_SCHEMAS[rel])
            delta.add(key, rng.choice([1, -1, 2]))
        if delta.is_empty:
            continue
        engine.apply_update(delta.copy())
        db.apply_update(delta)
    assert engine.result().same_as(recompute(q, db, order))
