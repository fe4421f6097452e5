"""Edge cases for hash partitioning and secondary-index bulk maintenance.

Targets the two data-layer contracts the sharding and batching layers
lean on:

* :meth:`Relation.partition` / :func:`stable_hash` must decompose any
  relation — whatever the key values (``None`` fields, ``bytes``,
  negative ints, empty relations) — into pairwise-disjoint fragments
  whose ``⊎`` is the original, deterministically across processes;
* :meth:`Relation.absorb_bulk` must leave every registered secondary
  index (buckets *and* per-bucket sums) exactly as per-tuple
  :meth:`Relation.add` would, including cancellation deletes and the
  kept-but-zero cancelled sums.

The ring-generic contracts run on every payload family a view can hold:
Python ints and floats, NumPy-backed degree and cofactor payloads, tuples
of a product ring and matrices.
"""

import random

import pytest

from repro.core.sharded import stable_hash
from repro.data import Relation
from repro.data.schema import SchemaError
from repro.rings import (
    CofactorRing,
    DegreeRing,
    INT_RING,
    IntegerRing,
    ProductRing,
    RealRing,
    SquareMatrixRing,
)

from tests.conftest import bucket_sum

RINGS = {
    "int": lambda: INT_RING,
    "real": lambda: RealRing(),
    "degree": lambda: DegreeRing(2),
    "cofactor": lambda: CofactorRing(2),
    "product": lambda: ProductRing([IntegerRing(), RealRing()]),
    "matrix": lambda: SquareMatrixRing(2),
}


def make_payload(ring, rng):
    """A small random non-zero payload for ``ring``; lifted ones for the
    rings whose payloads carry a support."""
    if isinstance(ring, (CofactorRing, DegreeRing)) and rng.random() < 0.5:
        return ring.lift(rng.randrange(2))(rng.choice([-2, -1, 1, 2, 3]))
    return ring.from_int(rng.choice([1, 2, -1, -2]))


def random_data(ring, rng, rows, domain=4):
    return {
        (rng.randint(0, domain - 1), rng.randint(0, domain - 1)):
            make_payload(ring, rng)
        for _ in range(rows)
    }


def merge_fragments(fragments):
    merged = Relation(fragments[0].name, fragments[0].schema, fragments[0].ring)
    for fragment in fragments:
        merged.absorb_bulk(fragment)
    return merged


class TestPartitionEdgeCases:
    AWKWARD_VALUES = [
        None,
        b"\x00bytes",
        b"",
        -1,
        -(10**12),
        0,
        "",
        "x",
        ("nested", None),
        frozenset({1}),
        2.5,
        True,
    ]

    def test_awkward_values_partition_and_merge_back(self):
        data = {
            (value, i): i + 1 for i, value in enumerate(self.AWKWARD_VALUES)
        }
        r = Relation("R", ("A", "B"), INT_RING, data)
        for shards in (1, 2, 3, 7):
            fragments = r.partition("A", shards, stable_hash)
            assert len(fragments) == shards
            # Disjoint supports...
            seen = set()
            for fragment in fragments:
                keys = set(fragment.keys())
                assert not (keys & seen)
                seen |= keys
            # ...whose union is the original, payload for payload.
            assert merge_fragments(fragments).same_as(r)

    def test_fragment_assignment_is_deterministic(self):
        r = Relation(
            "R", ("A",), INT_RING,
            {(v,): 1 for v in self.AWKWARD_VALUES},
        )
        first = [set(f.keys()) for f in r.partition("A", 4, stable_hash)]
        second = [set(f.keys()) for f in r.partition("A", 4, stable_hash)]
        assert first == second

    def test_empty_relation_partitions_to_empty_fragments(self):
        r = Relation("R", ("A", "B"), INT_RING)
        fragments = r.partition("B", 3, stable_hash)
        assert len(fragments) == 3
        assert all(f.is_empty for f in fragments)
        assert all(f.schema == r.schema for f in fragments)

    def test_partition_rejects_bad_arguments(self):
        r = Relation("R", ("A",), INT_RING, {(1,): 1})
        with pytest.raises(SchemaError):
            r.partition("Z", 2, stable_hash)
        with pytest.raises(SchemaError):
            r.partition("A", 0, stable_hash)

    def test_stable_hash_handles_awkward_values(self):
        for value in self.AWKWARD_VALUES:
            h = stable_hash(value)
            assert isinstance(h, int) and h >= 0
            assert h == stable_hash(value)

    def test_stable_hash_normalizes_numeric_key_equality(self):
        # Tuple-key equality treats True == 1 == 1.0; routing must agree,
        # and negative integral floats must follow their int twins too.
        assert stable_hash(True) == stable_hash(1) == stable_hash(1.0)
        assert stable_hash(False) == stable_hash(0) == stable_hash(0.0)
        assert stable_hash(-3.0) == stable_hash(-3)
        assert stable_hash(-3.5) != stable_hash(-3)

    def test_bytes_and_str_do_not_collide_by_repr_prefix(self):
        # repr(b"x") == "b'x'" and repr("b'x'") shares characters; the
        # encoded reprs must still be distinct inputs.
        assert stable_hash(b"x") != stable_hash("x")

    @pytest.mark.parametrize("ring_name", sorted(RINGS))
    def test_fragments_keep_ring_and_payloads_on_every_ring(self, ring_name):
        ring = RINGS[ring_name]()
        r = Relation("R", ("A", "B"), ring, random_data(ring, random.Random(5), 30))
        for attr in ("A", ("A", "B")):
            fragments = r.partition(attr, 3, stable_hash)
            for i, fragment in enumerate(fragments):
                assert fragment.ring is ring and not fragment._indexes
                for key, payload in fragment.items():
                    value = key[0] if attr == "A" else key
                    assert stable_hash(value) % 3 == i
                    assert payload is r._data[key]  # moved, not re-made
            merged = merge_fragments(fragments)
            assert merged.same_as(r) and r.same_as(merged)


def assert_indexes_consistent(relation):
    """Every registered index must equal one freshly rebuilt from the
    primary map: same buckets, ``ring.eq``-equal payloads, and bucket sums
    that match the ring sum of the bucket (cancelled zero sums allowed
    only while their bucket is non-empty).  Payloads are compared with the
    ring's equality because cofactor triples and matrices have no
    ``__eq__`` that means it."""
    ring = relation.ring
    for attrs, (projector, buckets, sums) in relation._indexes.items():
        rebuilt = {}
        for key, payload in relation._data.items():
            rebuilt.setdefault(projector(key), {})[key] = payload
        assert set(buckets) == set(rebuilt), attrs
        for subkey, bucket in buckets.items():
            expected = rebuilt[subkey]
            assert set(bucket) == set(expected), (attrs, subkey)
            for key, payload in bucket.items():
                assert ring.eq(payload, expected[key]), (attrs, subkey, key)
            assert ring.eq(sums[subkey], ring.sum(expected.values())), (
                attrs, subkey,
            )
        for subkey in sums:
            assert subkey in buckets, f"dangling sum for {subkey} on {attrs}"


class TestAbsorbBulkIndexConsistency:
    @pytest.mark.parametrize("ring_name", sorted(RINGS))
    def test_bulk_matches_per_tuple_adds_under_churn(self, ring_name):
        ring = RINGS[ring_name]()
        rng = random.Random(0xB1B)
        bulk = Relation("R", ("A", "B"), ring)
        single = Relation("R", ("A", "B"), ring)
        for r in (bulk, single):
            r.register_index(("A",))
            r.register_index(("B",))
        for _ in range(120):
            data = {}
            for _ in range(rng.randint(1, 6)):
                key = (rng.randint(0, 3), rng.randint(0, 4))
                data[key] = make_payload(ring, rng)
            delta = Relation("D", ("A", "B"), ring, data)
            bulk.absorb_bulk(delta)
            for key, payload in data.items():
                single.add(key, payload)
            assert bulk.same_as(single)
            assert single.same_as(bulk)
            assert_indexes_consistent(bulk)
            assert_indexes_consistent(single)

    @pytest.mark.parametrize("ring_name", sorted(RINGS))
    def test_index_registered_after_load_matches_incremental(self, ring_name):
        # ``register_index`` on a populated relation builds buckets and
        # sums in one sweep; they must agree with an index maintained
        # delta by delta, bucket for bucket and sum for sum.
        ring = RINGS[ring_name]()
        rng = random.Random(0xCAFE)
        incremental = Relation("R", ("A", "B"), ring)
        incremental.register_index(("B",))
        rebuilt = Relation("R", ("A", "B"), ring)
        for _ in range(30):
            delta = Relation("D", ("A", "B"), ring, random_data(
                ring, rng, rng.randint(1, 5)
            ))
            incremental.absorb_bulk(delta)
            rebuilt.absorb_bulk(delta)
        rebuilt.register_index(("B",))
        assert rebuilt.same_as(incremental)
        assert_indexes_consistent(rebuilt)
        _, buckets_a, sums_a = incremental._indexes[("B",)]
        _, buckets_b, sums_b = rebuilt._indexes[("B",)]
        assert set(buckets_a) == set(buckets_b)
        for subkey in buckets_a:
            assert set(buckets_a[subkey]) == set(buckets_b[subkey])
            assert ring.eq(sums_a[subkey], sums_b[subkey])
            assert ring.eq(
                bucket_sum(incremental, ("B",), subkey),
                bucket_sum(rebuilt, ("B",), subkey),
            )

    def test_cancellation_delete_keeps_sums_sound(self):
        r = Relation("R", ("A", "B"), INT_RING, {(1, 1): 2, (1, 2): 3})
        r.register_index(("A",))
        # Cancel one key of the bucket: the bucket survives with a reduced
        # (possibly zero) sum; lookups must stay consistent.
        r.absorb_bulk(Relation("D", ("A", "B"), INT_RING, {(1, 1): -2, (1, 2): -3, (1, 3): 5}))
        assert (1, 1) not in r and (1, 2) not in r
        assert bucket_sum(r, ("A",), (1,)) == 5
        assert_indexes_consistent(r)
        # Cancel the whole bucket: bucket and sum both disappear.
        r.absorb_bulk(Relation("D", ("A", "B"), INT_RING, {(1, 3): -5}))
        assert bucket_sum(r, ("A",), (1,)) == 0
        assert not r._indexes[("A",)][1]
        assert not r._indexes[("A",)][2]

    def test_cancelled_then_reinserted_key_round_trips(self):
        r = Relation("R", ("A", "B"), INT_RING, {(1, 1): 1})
        r.register_index(("A",))
        r.absorb_bulk(Relation("D", ("A", "B"), INT_RING, {(1, 1): -1}))
        assert r.is_empty and (1, 1) not in r
        assert r.lookup(("A",), (1,)) == ()
        r.absorb_bulk(Relation("D", ("A", "B"), INT_RING, {(1, 1): 7}))
        assert r.payload((1, 1)) == 7 and r.total() == 7
        assert list(r.lookup(("A",), (1,))) == [((1, 1), 7)]
        assert bucket_sum(r, ("A",), (1,)) == 7
        assert_indexes_consistent(r)


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_copy_is_detached_and_union_adds_pointwise(ring_name):
    """A copy shares payloads but not maps: absorbing into the original
    leaves it as it was, and ``total`` / ``union`` follow the mutation."""
    ring = RINGS[ring_name]()
    rng = random.Random(11)
    data = random_data(ring, rng, 20)
    original = Relation("R", ("A", "B"), ring, data)
    original.register_index(("A",))
    clone = original.copy(name="C")
    assert clone.name == "C" and not clone._indexes
    assert clone.same_as(original)
    assert ring.eq(clone.total(), ring.sum(data.values()))
    extra = random_data(ring, rng, 8, domain=6)
    original.absorb_bulk(Relation("D", ("A", "B"), ring, extra))
    assert clone.same_as(Relation("R", ("A", "B"), ring, data))
    assert ring.eq(
        original.total(),
        ring.add(ring.sum(data.values()), ring.sum(extra.values())),
    )
    assert_indexes_consistent(original)
    summed = clone.union(original)
    for key in set(data) | set(original.keys()):
        assert ring.eq(
            summed.payload(key),
            ring.add(clone.payload(key), original.payload(key)),
        ), key
    assert not any(ring.is_zero(p) for p in summed._data.values())
