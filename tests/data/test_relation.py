"""Tests for relations over rings: the ⊎ ⊗ ⊕ operator semantics."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Relation, SchemaError
from repro.rings import INT_RING, SquareMatrixRing

import numpy as np

from tests.conftest import bucket_sum


class _GF2:
    """ℤ/2: the smallest ring in which a repeated row cancels."""

    zero, one = 0, 1
    add = staticmethod(lambda a, b: (a + b) % 2)
    mul = staticmethod(lambda a, b: a * b)
    neg = staticmethod(lambda a: a)
    is_zero = staticmethod(lambda a: a % 2 == 0)


GF2 = _GF2()


def rel(name, schema, data):
    return Relation(name, schema, INT_RING, data)


class TestConstruction:
    def test_zero_payloads_dropped(self):
        r = rel("R", ("A",), {(1,): 0, (2,): 5})
        assert (1,) not in r
        assert len(r) == 1

    def test_key_width_checked(self):
        with pytest.raises(SchemaError):
            rel("R", ("A", "B"), {(1,): 1})

    def test_from_tuples_accumulates(self):
        r = Relation.from_tuples("R", ("A",), INT_RING, [(1,), (1,), (2,)])
        assert r.payload((1,)) == 2
        assert r.payload((2,)) == 1

    def test_from_tuples_custom_payload(self):
        r = Relation.from_tuples("R", ("A",), INT_RING, [(1,)], payload=5)
        assert r.payload((1,)) == 5

    def test_from_tuples_cancels_repeated_rows(self):
        # Over ℤ/2 a row given twice sums to zero and is dropped.
        r = Relation.from_tuples("R", ("A",), GF2, [(1,), (2,), (1,)])
        assert (1,) not in r
        assert r._data == {(2,): 1}

    def test_from_tuples_takes_a_generator(self):
        rows = ((i % 3, i) for i in range(5))
        r = Relation.from_tuples("R", ("A", "B"), INT_RING, rows, payload=2)
        assert r._data == {(i % 3, i): 2 for i in range(5)}

    def test_from_tuples_zero_payload_is_empty(self):
        r = Relation.from_tuples("R", ("A",), INT_RING, [(1,), (1,)], payload=0)
        assert r.is_empty

    def test_from_tuples_one_row_equals_an_add(self):
        # List rows become tuple keys; the payload object is shared.
        payload = 7
        r = Relation.from_tuples("R", ("A", "B"), INT_RING, [[1, 2]], payload)
        want = Relation("R", ("A", "B"), INT_RING)
        want.add([1, 2], payload)
        assert r._data == want._data
        ((key, value),) = r.items()
        assert type(key) is tuple and value is payload

    def test_empty(self):
        r = Relation("R", ("A",), INT_RING)
        assert r.is_empty
        assert r.payload((1,)) == 0

    def test_duplicate_schema_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ("A", "A"), INT_RING)


class TestMutation:
    def test_add_accumulates_and_cancels(self):
        r = Relation("R", ("A",), INT_RING)
        r.add((1,), 2)
        r.add((1,), 3)
        assert r.payload((1,)) == 5
        r.add((1,), -5)
        assert (1,) not in r

    def test_absorb(self):
        r = rel("R", ("A",), {(1,): 1})
        r.absorb(rel("d", ("A",), {(1,): -1, (2,): 4}))
        assert (1,) not in r
        assert r.payload((2,)) == 4

    def test_absorb_schema_mismatch(self):
        r = rel("R", ("A",), {(1,): 1})
        with pytest.raises(SchemaError):
            r.absorb(rel("d", ("B",), {(1,): 1}))

    def test_clear(self):
        r = rel("R", ("A",), {(1,): 1})
        r.clear()
        assert r.is_empty


class TestUnion:
    def test_union_adds_payloads(self):
        a = rel("A", ("X",), {(1,): 2, (2,): 1})
        b = rel("B", ("X",), {(1,): 3, (3,): 7})
        u = a.union(b)
        assert dict(u.items()) == {(1,): 5, (2,): 1, (3,): 7}

    def test_union_cancellation_drops_keys(self):
        a = rel("A", ("X",), {(1,): 2})
        u = a.union(a.negate())
        assert u.is_empty

    def test_union_schema_mismatch(self):
        with pytest.raises(SchemaError):
            rel("A", ("X",), {}).union(rel("B", ("Y",), {}))


class TestJoin:
    def test_natural_join(self):
        r = rel("R", ("A", "B"), {(1, 10): 2, (2, 20): 1})
        s = rel("S", ("B", "C"), {(10, 7): 3, (10, 8): 1})
        j = r.join(s)
        assert j.schema == ("A", "B", "C")
        assert dict(j.items()) == {(1, 10, 7): 6, (1, 10, 8): 2}

    def test_cartesian_product(self):
        r = rel("R", ("A",), {(1,): 2})
        s = rel("S", ("B",), {(5,): 3, (6,): 1})
        j = r.join(s)
        assert dict(j.items()) == {(1, 5): 6, (1, 6): 2}

    def test_join_on_all_attrs(self):
        r = rel("R", ("A",), {(1,): 2, (2,): 1})
        s = rel("S", ("A",), {(1,): 5})
        assert dict(r.join(s).items()) == {(1,): 10}

    def test_join_payload_order_non_commutative(self):
        """Payloads multiply left*right — observable with matrices."""
        ring = SquareMatrixRing(2)
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        r = Relation("R", ("X",), ring, {(1,): a})
        s = Relation("S", ("X",), ring, {(1,): b})
        rs = r.join(s).payload((1,))
        sr = s.join(r).payload((1,))
        assert np.allclose(rs, a @ b)
        assert np.allclose(sr, b @ a)
        assert not np.allclose(rs, sr)

    def test_join_orientation_invariance(self, rng):
        """Build-side choice (size-based) must not change the result."""
        for _ in range(20):
            r = Relation.from_tuples(
                "R", ("A", "B"), INT_RING,
                [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(0, 8))],
            )
            s = Relation.from_tuples(
                "S", ("B", "C"), INT_RING,
                [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(0, 8))],
            )
            j1 = r.join(s)
            j2 = s.join(r).reorder(("A", "B", "C"))
            assert j1.same_as(j2)


class TestMarginalize:
    def test_basic_sum(self):
        r = rel("R", ("A", "B"), {(1, 10): 2, (1, 20): 3, (2, 10): 4})
        m = r.marginalize(["B"])
        assert dict(m.items()) == {(1,): 5, (2,): 4}

    def test_with_lift(self):
        r = rel("R", ("A", "B"), {(1, 10): 2, (1, 20): 3})
        m = r.marginalize(["B"], {"B": lambda b: b})
        assert m.payload((1,)) == 2 * 10 + 3 * 20

    def test_multiple_variables(self):
        r = rel("R", ("A", "B", "C"), {(1, 2, 3): 1, (1, 4, 5): 2})
        m = r.marginalize(["B", "C"], {"B": lambda b: b, "C": lambda c: c})
        assert m.payload((1,)) == 2 * 3 + 4 * 5 * 2

    def test_empty_list_copies(self):
        r = rel("R", ("A",), {(1,): 1})
        assert r.marginalize([]).same_as(r)

    def test_unknown_variable(self):
        with pytest.raises(SchemaError):
            rel("R", ("A",), {}).marginalize(["Z"])

    def test_duplicate_variable(self):
        with pytest.raises(SchemaError):
            rel("R", ("A", "B"), {}).marginalize(["B", "B"])

    def test_group_by(self):
        r = rel("R", ("A", "B", "C"), {(1, 2, 3): 1, (2, 2, 5): 4})
        g = r.group_by(["B"])
        assert g.schema == ("B",)
        assert g.payload((2,)) == 5

    def test_marginalize_all(self):
        r = rel("R", ("A", "B"), {(1, 2): 3, (4, 5): 7})
        m = r.marginalize(["A", "B"])
        assert m.schema == ()
        assert m.payload(()) == 10

    def test_total(self):
        r = rel("R", ("A",), {(1,): 3, (2,): -1})
        assert r.total() == 2


class TestReshaping:
    def test_reorder(self):
        r = rel("R", ("A", "B"), {(1, 2): 5})
        out = r.reorder(("B", "A"))
        assert out.schema == ("B", "A")
        assert out.payload((2, 1)) == 5

    def test_reorder_not_permutation(self):
        with pytest.raises(SchemaError):
            rel("R", ("A", "B"), {}).reorder(("A",))

    def test_rename(self):
        """``copy(name=…)`` renames: same schema and payloads, and the
        copy no longer follows the original's writes."""
        r = rel("R", ("A", "B"), {(1, 2): 5})
        out = r.copy(name="X")
        assert (out.name, out.schema) == ("X", ("A", "B"))
        assert out.payload((1, 2)) == 5
        r.add((1, 2), -5)
        assert out.payload((1, 2)) == 5 and r.is_empty


class TestSecondaryIndexes:
    def test_lookup_via_index(self):
        r = rel("R", ("A", "B"), {(1, 10): 2, (1, 20): 3, (2, 10): 4})
        r.register_index(("A",))
        entries = dict(r.lookup(("A",), (1,)))
        assert entries == {(1, 10): 2, (1, 20): 3}

    def test_lookup_full_schema_needs_no_index(self):
        r = rel("R", ("A", "B"), {(1, 10): 2})
        assert list(r.lookup(("A", "B"), (1, 10))) == [((1, 10), 2)]
        assert list(r.lookup(("A", "B"), (9, 9))) == []

    def test_lookup_empty_attrs_scans(self):
        r = rel("R", ("A",), {(1,): 2, (2,): 3})
        assert dict(r.lookup((), ())) == {(1,): 2, (2,): 3}

    def test_lookup_without_index_raises(self):
        r = rel("R", ("A", "B"), {(1, 10): 2})
        with pytest.raises(KeyError):
            r.lookup(("A",), (1,))

    def test_index_maintained_under_mutation(self, rng):
        r = Relation("R", ("A", "B"), INT_RING)
        r.register_index(("B",))
        shadow = {}
        for _ in range(300):
            key = (rng.randint(0, 3), rng.randint(0, 3))
            amount = rng.choice([1, 2, -1, -2])
            r.add(key, amount)
            shadow[key] = shadow.get(key, 0) + amount
            if shadow[key] == 0:
                del shadow[key]
        for b in range(4):
            expected = {k: v for k, v in shadow.items() if k[1] == b}
            assert dict(r.lookup(("B",), (b,))) == expected

    def test_index_registered_after_data(self):
        r = rel("R", ("A", "B"), {(1, 10): 2, (2, 10): 3})
        r.register_index(("B",))
        assert dict(r.lookup(("B",), (10,))) == {(1, 10): 2, (2, 10): 3}

    def test_clear_empties_indexes(self):
        r = rel("R", ("A", "B"), {(1, 10): 2})
        r.register_index(("B",))
        r.clear()
        assert list(r.lookup(("B",), (10,))) == []


class TestEquality:
    def test_same_as(self):
        a = rel("A", ("X",), {(1,): 2})
        b = rel("B", ("X",), {(1,): 2})
        assert a.same_as(b)

    def test_same_as_detects_differences(self):
        a = rel("A", ("X",), {(1,): 2})
        assert not a.same_as(rel("B", ("X",), {(1,): 3}))
        assert not a.same_as(rel("B", ("X",), {(2,): 2}))
        assert not a.same_as(rel("B", ("Y",), {(1,): 2}))

    def test_pretty_renders(self):
        r = rel("R", ("A",), {(1,): 2})
        assert "R[A]" in r.pretty()


# ----------------------------------------------------------------------
# Property-based: operator algebra
# ----------------------------------------------------------------------

keys2 = st.tuples(st.integers(0, 2), st.integers(0, 2))
payloads = st.integers(min_value=-4, max_value=4)
rel_data = st.dictionaries(keys2, payloads, max_size=6)


@given(rel_data, rel_data)
@settings(max_examples=60)
def test_union_commutative(d1, d2):
    a = Relation("A", ("X", "Y"), INT_RING, d1)
    b = Relation("B", ("X", "Y"), INT_RING, d2)
    assert a.union(b).same_as(b.union(a))


@given(rel_data, rel_data, rel_data)
@settings(max_examples=40)
def test_union_associative(d1, d2, d3):
    a = Relation("A", ("X", "Y"), INT_RING, d1)
    b = Relation("B", ("X", "Y"), INT_RING, d2)
    c = Relation("C", ("X", "Y"), INT_RING, d3)
    assert a.union(b).union(c).same_as(a.union(b.union(c)))


@given(rel_data, rel_data, rel_data)
@settings(max_examples=40)
def test_join_distributes_over_union(d1, d2, d3):
    """δ(V1 ⊗ V2) correctness rests on this distributivity (Figure 4)."""
    a = Relation("A", ("X", "Y"), INT_RING, d1)
    b = Relation("B", ("Y", "Z"), INT_RING, d2)
    c = Relation("C", ("Y", "Z"), INT_RING, d3)
    left = a.join(b.union(c))
    right = a.join(b).union(a.join(c))
    assert left.same_as(right)


@given(rel_data, rel_data)
@settings(max_examples=40)
def test_marginalization_commutes_with_union(d1, d2):
    """δ(⊕_X V) = ⊕_X δV (the third delta rule)."""
    a = Relation("A", ("X", "Y"), INT_RING, d1)
    b = Relation("B", ("X", "Y"), INT_RING, d2)
    lift = {"X": lambda x: x + 1}
    left = a.union(b).marginalize(["X"], lift)
    right = a.marginalize(["X"], lift).union(b.marginalize(["X"], lift))
    assert left.same_as(right)


@given(rel_data, rel_data)
@settings(max_examples=40)
def test_marginalize_after_join_equals_pushed(d1, d2):
    """Aggregates push past joins when the variable is local to one side."""
    a = Relation("A", ("X", "Y"), INT_RING, d1)
    b = Relation("B", ("Y", "Z"), INT_RING, d2)
    lift = {"X": lambda x: 2 * x + 1}
    pushed = a.marginalize(["X"], lift).join(b)
    unpushed = a.join(b).marginalize(["X"], lift)
    assert pushed.same_as(unpushed.reorder(pushed.schema))


class TestKeyCoercion:
    def test_list_key_lands_on_tuple_entry(self):
        """Regression: ``add`` must coerce keys like ``payload``/``in`` do —
        a list key used to create an entry no lookup could ever reach."""
        r = Relation("R", ("A", "B"), INT_RING)
        r.add([1, 2], 3)
        assert [1, 2] in r
        assert (1, 2) in r
        assert r.payload([1, 2]) == 3
        assert r.payload((1, 2)) == 3
        r.add((1, 2), -3)
        assert (1, 2) not in r
        assert len(r) == 0

    def test_list_key_maintains_indexes(self):
        r = Relation("R", ("A", "B"), INT_RING)
        r.register_index(("A",))
        r.add([1, 2], 3)
        assert list(r.lookup(("A",), (1,))) == [((1, 2), 3)]
        assert bucket_sum(r, ("A",), (1,)) == 3


class TestAbsorbBulk:
    def _indexed(self, data):
        r = Relation("R", ("A", "B"), INT_RING, data)
        r.register_index(("A",))
        r.register_index(("B",))
        return r

    def _check_indexes_consistent(self, r):
        """Every registered index must equal a freshly built one."""
        for attrs, (projector, buckets, sums) in r._indexes.items():
            fresh = Relation("F", r.schema, r.ring, dict(r._data))
            fresh.register_index(attrs)
            _, fresh_buckets, fresh_sums = fresh._indexes[attrs]
            assert buckets == fresh_buckets, attrs
            for subkey, total in sums.items():
                assert total == fresh_sums.get(subkey, 0), (attrs, subkey)

    def test_matches_per_tuple_absorb(self, rng):
        for _ in range(25):
            base_data = {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.choice([1, 2, -1])
                for _ in range(rng.randint(0, 6))
            }
            delta_data = {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.choice([1, 2, -1])
                for _ in range(rng.randint(1, 6))
            }
            bulk = self._indexed(base_data)
            reference = Relation("S", ("A", "B"), INT_RING, base_data)
            delta = Relation("D", ("A", "B"), INT_RING, delta_data)
            bulk.absorb_bulk(delta)
            for key, payload in delta.items():
                reference.add(key, payload)
            assert bulk.same_as(reference)
            self._check_indexes_consistent(bulk)

    def test_cancellation_clears_buckets(self):
        r = self._indexed({(1, 1): 2, (1, 2): 5})
        r.absorb_bulk(Relation("D", ("A", "B"), INT_RING, {(1, 1): -2}))
        assert (1, 1) not in r
        assert list(r.lookup(("A",), (1,))) == [((1, 2), 5)]
        assert bucket_sum(r, ("A",), (1,)) == 5
        r.absorb_bulk(Relation("D", ("A", "B"), INT_RING, {(1, 2): -5}))
        assert r.is_empty
        assert list(r.lookup(("A",), (1,))) == []

    def test_copy_drops_registered_indexes(self):
        """Documented behaviour: copies start index-free."""
        r = self._indexed({(1, 1): 2})
        dup = r.copy()
        assert dup._indexes == {}
        with pytest.raises(KeyError):
            dup.lookup(("A",), (1,))


class TestJoinIndexReuse:
    def test_registered_index_is_reused_and_correct(self):
        left = Relation("L", ("A", "B"), INT_RING, {(1, 10): 2, (2, 20): 3})
        right = Relation("R", ("B", "C"), INT_RING, {(10, 7): 5, (30, 8): 1})
        plain = left.join(right)
        left.register_index(("B",))
        with_index = left.join(right)
        assert with_index.same_as(plain)
        # And the indexed side keeps working after more updates.
        left.add((3, 30), 4)
        updated = left.join(right)
        assert updated.payload((3, 30, 8)) == 4
