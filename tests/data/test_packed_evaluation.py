"""The packed realization of ``join_project`` / ``marginalize`` (one
hash join on encoded sub-keys + a grouped column sum) against the scalar
loops, which stay the reference and the only path for every ring whose
payload is not one float64.

Payloads are multiples of ½ and lifts map to multiples of ½, so every sum
is exact: a product that cancels is the ring's zero on both sides and the
key must be absent from both.
"""

import sys

from hypothesis import event, given
from hypothesis import strategies as st

from repro.data import Relation, relation
from repro.rings import INT_RING, REAL_RING

from tests.conftest import packed_evaluation
from tests.settings import SELECTED

HALVES = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
LIFTS = {
    "none": None,
    "first": lambda variables: {variables[0]: lambda x: x / 2 - 1.0},
    "all": lambda variables: {v: lambda x: float(x % 3) - 0.5 for v in variables},
}

#: ``(left schema, right schema, dropped variables)``: the chain shape, a
#: two-attribute common sub-key of which one part survives, dropped
#: variables on the left only / the right only / both, everything
#: dropped, and attribute orders that differ between the sides.
JOINS = [
    (("A", "B"), ("B", "C"), ("B",)),
    (("A", "B", "C"), ("B", "C", "D"), ("C",)),
    (("A", "B", "C"), ("B", "C", "D"), ("B", "C")),
    (("A", "B"), ("B", "C"), ("A",)),
    (("A", "B"), ("B", "C"), ("C", "B")),
    (("A", "B"), ("B", "C"), ("A", "B", "C")),
    (("B", "A"), ("C", "D", "B"), ("D", "B")),
    (("A", "B", "C"), ("C", "A", "D"), ("A", "D")),
]


def relations(name, schema, domains):
    """Random ℝ relations over ``schema``; ``domains[attr]`` bounds the
    values an attribute takes (small: keys collide and joins fan out;
    large: the output is sparse in the grid of surviving key parts)."""
    key = st.tuples(*(st.integers(0, domains[a]) for a in schema))
    return st.dictionaries(key, HALVES, min_size=2, max_size=24).map(
        lambda data: Relation(name, schema, REAL_RING, data)
    )


@st.composite
def join_cases(draw):
    left_schema, right_schema, drop = draw(st.sampled_from(JOINS))
    domains = {
        a: draw(st.sampled_from([1, 2, 4, 40]))
        for a in set(left_schema) | set(right_schema)
    }
    lifts = LIFTS[draw(st.sampled_from(sorted(LIFTS)))]
    return (
        draw(relations("L", left_schema, domains)),
        draw(relations("R", right_schema, domains)),
        drop,
        lifts(drop) if lifts else None,
    )


def both_ways(evaluate):
    with packed_evaluation(False):
        scalar = evaluate()
    with packed_evaluation(True):
        packed = evaluate()
    return scalar, packed


def assert_same(scalar, packed):
    assert packed.schema == scalar.schema and packed.name == scalar.name
    assert packed.same_as(scalar), (packed.pretty(), scalar.pretty())
    assert all(type(v) is float for v in packed._data.values())


class TestPackedJoin:
    @SELECTED
    @given(join_cases())
    def test_equals_the_scalar_loop(self, case):
        left, right, drop, lifting = case
        scalar, packed = both_ways(
            lambda: left.join_project(right, drop, lifting, name="V")
        )
        assert_same(scalar, packed)
        event(f"output rows: {min(len(scalar), 3)}+")

    def chain(self, n, scale=1.0):
        a = Relation("A", ("X", "Y"), REAL_RING,
                     {(i, j): scale * (i - j + 0.5) for i in range(n) for j in range(n)})
        b = Relation("B", ("Y", "Z"), REAL_RING,
                     {(j, k): float(j + k) - 2.5 for j in range(n) for k in range(n)})
        return a, b

    def test_dense_and_sparse_outputs_take_their_own_reduction(self, monkeypatch):
        """Dense: the mixed-radix cell grid is the bincount's range.
        Sparse (few matches in a wide grid): cells are numbered first."""
        import numpy as np

        calls = []
        unique = np.unique
        monkeypatch.setattr(
            relation.np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k)
        )
        a, b = self.chain(6)
        assert_same(*both_ways(lambda: a.join_project(b, ("Y",), None, "V")))
        assert not calls
        wide = Relation("A", ("X", "Y"), REAL_RING, {(i, i): 1.0 for i in range(30)})
        tall = Relation("B", ("Y", "Z"), REAL_RING, {(i, -i): 2.0 for i in range(30)})
        assert_same(*both_ways(lambda: wide.join_project(tall, ("Y",), None, "V")))
        assert len(calls) == 1

    def test_products_that_cancel_leave_no_key(self):
        a = Relation("A", ("X", "Y"), REAL_RING, {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 2.0})
        b = Relation("B", ("Y", "Z"), REAL_RING, {(0, 5): 1.0, (1, 5): -1.0})
        scalar, packed = both_ways(lambda: a.join_project(b, ("Y",), None, "V"))
        assert_same(scalar, packed)
        assert dict(packed.items()) == {(1, 5): 2.0}

    def test_sums_inside_the_tolerance_are_zero(self):
        a = Relation("A", ("X", "Y"), REAL_RING, {(0, 0): 1e-5, (0, 1): 1.0})
        b = Relation("B", ("Y", "Z"), REAL_RING, {(0, 5): 1e-5, (1, 6): 3.0})
        scalar, packed = both_ways(lambda: a.join_project(b, ("Y",), None, "V"))
        assert_same(scalar, packed)
        assert dict(packed.items()) == {(0, 6): 3.0}

    def test_no_matches_and_empty_sides(self):
        a, b = self.chain(5)
        apart = Relation("B", ("Y", "Z"), REAL_RING, {(j + 10, 0): 1.0 for j in range(5)})
        empty = Relation("B", ("Y", "Z"), REAL_RING)
        for right in (apart, empty):
            scalar, packed = both_ways(lambda: a.join_project(right, ("Y",), None, "V"))
            assert_same(scalar, packed)
            assert packed.is_empty
        assert_same(*both_ways(lambda: Relation("A", ("X", "Y"), REAL_RING)
                               .join_project(b, ("Y",), None, "V")))

    def test_what_selects_the_packed_form(self, monkeypatch):
        """ℝ, a fused join that can fan out, the size constant, no ready
        index — everything else is the scalar loop."""
        taken = []
        real = relation._packed_join
        monkeypatch.setattr(
            relation, "_packed_join",
            lambda *args: taken.append(1) or real(*args),
        )

        def took(fn):
            taken.clear()
            fn()
            return bool(taken)

        a, b = self.chain(4)  # 32 input rows: the constant
        small_a, small_b = self.chain(3)
        assert took(lambda: a.join_project(b, ("Y",)))
        assert not took(lambda: small_a.join_project(small_b, ("Y",)))
        assert not took(lambda: a.join(b))  # nothing fused: a listing
        keyed = Relation("K", ("Y",), REAL_RING, {(j,): 1.0 for j in range(40)})
        assert not took(lambda: a.join_project(keyed, ("Y",)))  # cannot fan out
        cross = Relation("C", ("U", "V"), REAL_RING, {(i, i): 1.0 for i in range(40)})
        assert not took(lambda: a.join_project(cross, ("X",)))  # Cartesian
        ints = [Relation(r.name, r.schema, INT_RING, {k: int(2 * v) for k, v in r.items()})
                for r in (a, b)]
        out = ints[0].join_project(ints[1], ("Y",))
        assert not taken and all(type(v) is int for v in out._data.values())
        indexed = b.copy()
        indexed.register_index(("Y",))
        assert not took(lambda: a.join_project(indexed, ("Y",)))

    def test_lifts_apply_in_drop_order_on_either_side(self):
        a, b = self.chain(5)
        lifting = {"X": lambda x: x + 0.5, "Z": lambda z: z - 1.5, "Y": lambda y: 2.0 * y}
        for drop in (("X", "Y"), ("Y", "Z"), ("Z", "Y", "X"), ("Y",)):
            assert_same(*both_ways(lambda: a.join_project(b, drop, lifting, "V")))


@st.composite
def marginalize_cases(draw):
    schema = draw(st.sampled_from([("A", "B"), ("A", "B", "C"), ("C", "A", "B", "D")]))
    drop = draw(st.lists(st.sampled_from(schema), unique=True, min_size=1))
    domains = {a: draw(st.sampled_from([1, 2, 5])) for a in schema}
    lifts = LIFTS[draw(st.sampled_from(sorted(LIFTS)))]
    return draw(relations("S", schema, domains)), tuple(drop), lifts(drop) if lifts else None


class TestPackedMarginalize:
    @SELECTED
    @given(marginalize_cases())
    def test_equals_the_scalar_loop(self, case):
        rel, drop, lifting = case
        assert_same(*both_ways(lambda: rel.marginalize(drop, lifting, name="V")))

    @SELECTED
    @given(marginalize_cases(), st.randoms(use_true_random=False))
    def test_group_by_in_another_key_order(self, case, rng):
        rel, drop, lifting = case
        kept = [a for a in rel.schema if a not in drop]
        rng.shuffle(kept)
        assert_same(*both_ways(lambda: rel.group_by(kept, lifting, name="V")))

    def test_cancelling_groups_and_the_empty_relation(self):
        rel = Relation("S", ("A", "B"), REAL_RING,
                       {(0, 1): 1.0, (0, 2): -1.0, (1, 1): 0.5, (1, 2): 0.25})
        scalar, packed = both_ways(lambda: rel.marginalize(("B",), None, "V"))
        assert_same(scalar, packed)
        assert dict(packed.items()) == {(1,): 0.75}
        empty = Relation("S", ("A", "B"), REAL_RING)
        assert_same(*both_ways(lambda: empty.marginalize(("B",), None, "V")))

    def test_the_size_constant_and_the_ring_select_it(self, monkeypatch):
        taken = []
        real = relation._packed_sum
        monkeypatch.setattr(
            relation, "_packed_sum", lambda *args: taken.append(1) or real(*args)
        )
        rows = relation.MIN_PACKED_SUM_ROWS

        def build(ring, n, one):
            return Relation("S", ("A", "B"), ring, {(i % 7, i): one for i in range(n)})

        build(REAL_RING, rows - 1, 1.0).marginalize(("B",))
        assert not taken
        out = build(REAL_RING, rows, 1.0).marginalize(("B",), {"B": float})
        assert taken and out.same_as(
            Relation("V", ("A",), REAL_RING,
                     {(a,): float(sum(i for i in range(rows) if i % 7 == a))
                      for a in range(7)})
        )
        taken.clear()
        exact = build(INT_RING, rows, 2**70).marginalize(("B",))
        assert not taken and all(type(v) is int for v in exact._data.values())


def test_the_constants_are_positive_and_ordered():
    """A marginalization has no pairs to vectorize, so its crossover sits
    above the join's; both are finite (the packed form is reachable)."""
    assert 1 < relation.MIN_PACKED_ROWS < relation.MIN_PACKED_SUM_ROWS < sys.maxsize
