"""Tests for the degree-m matrix ring of regression triples (Def. 6.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rings import CofactorRing, CofactorTriple, check_ring_axioms

values = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
)


def triples(ring: CofactorRing):
    """Hypothesis strategy for ring elements built from lifts and sums."""
    m = ring.degree

    def build(seed):
        rng = np.random.default_rng(seed)
        out = ring.zero
        for _ in range(rng.integers(0, 4)):
            j = int(rng.integers(0, m))
            out = ring.add(out, ring.lift(j)(float(rng.uniform(-3, 3))))
        return out

    return st.integers(min_value=0, max_value=10_000).map(build)


class TestDefinition62:
    """The multiplication law, spelled out against the paper's formula."""

    def test_product_formula(self):
        ring = CofactorRing(3)
        rng = np.random.default_rng(5)
        a = CofactorTriple(3, 2.0, rng.normal(size=3), rng.normal(size=(3, 3)))
        b = CofactorTriple(3, 4.0, rng.normal(size=3), rng.normal(size=(3, 3)))
        product = ring.mul(a, b)
        assert product.count == a.count * b.count
        assert np.allclose(
            product.dense_sums(), b.count * a.sums + a.count * b.sums
        )
        expected_q = (
            b.count * a.quads
            + a.count * b.quads
            + np.outer(a.sums, b.sums)
            + np.outer(b.sums, a.sums)
        )
        assert np.allclose(product.dense_quads(), expected_q)

    def test_identities(self):
        ring = CofactorRing(2)
        one, zero = ring.one, ring.zero
        assert one.count == 1.0 and one.sums is None and one.quads is None
        assert zero.count == 0.0
        a = ring.lift(1)(3.0)
        assert ring.eq(ring.mul(a, one), a)
        assert ring.eq(ring.mul(one, a), a)
        assert ring.eq(ring.add(a, zero), a)

    def test_lift(self):
        ring = CofactorRing(3)
        t = ring.lift(1)(4.0)
        assert t.count == 1.0
        assert t.support == (1,)
        assert np.allclose(t.dense_sums(), [0.0, 4.0, 0.0])
        assert t.dense_quads()[1, 1] == 16.0
        assert np.count_nonzero(t.dense_quads()) == 1

    def test_lift_index_validation(self):
        ring = CofactorRing(2)
        with pytest.raises(ValueError):
            ring.lift(2)
        with pytest.raises(ValueError):
            ring.lift(-1)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            CofactorRing(0)

    def test_negation_and_deletion(self):
        """A delete payload is the additive inverse of the insert payload."""
        ring = CofactorRing(2)
        insert = ring.lift(0)(2.5)
        assert ring.is_zero(ring.add(insert, ring.neg(insert)))

    def test_commutative(self):
        ring = CofactorRing(2)
        a, b = ring.lift(0)(2.0), ring.lift(1)(-3.0)
        assert ring.eq(ring.mul(a, b), ring.mul(b, a))


class TestBlockSparsity:
    """All-zero s/Q blocks stay None through count-only arithmetic."""

    def test_counts_stay_sparse(self):
        ring = CofactorRing(40)
        a = ring.from_int(3)
        b = ring.from_int(5)
        product = ring.mul(a, b)
        assert product.sums is None and product.quads is None
        assert product.count == 15.0
        assert product.scalar_entries() == 1

    def test_mixed_block_product(self):
        ring = CofactorRing(4)
        count_only = ring.from_int(2)
        lifted = ring.lift(2)(3.0)
        product = ring.mul(count_only, lifted)
        assert np.allclose(product.dense_sums(), [0, 0, 6.0, 0])
        assert product.dense_quads()[2, 2] == 18.0

    def test_scalar_entries_follow_support(self):
        ring = CofactorRing(3)
        t = ring.lift(0)(1.0)
        # One variable seen: blocks are 1-vector and 1×1 matrix.
        assert t.scalar_entries() == 1 + 1 + 1
        grown = ring.mul(t, ring.lift(2)(2.0))
        assert grown.support == (0, 2)
        assert grown.scalar_entries() == 1 + 2 + 4


class TestMomentMatrix:
    def test_single_row(self):
        """Lifting one 'row' x and multiplying gives MᵀM of [1, x]."""
        ring = CofactorRing(2)
        row = ring.mul(ring.lift(0)(2.0), ring.lift(1)(3.0))
        mm = row.moment_matrix()
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(mm, np.outer(x, x))

    def test_sum_of_rows(self):
        ring = CofactorRing(2)
        rows = [(1.0, 2.0), (0.5, -1.0), (3.0, 0.0)]
        total = ring.zero
        for x0, x1 in rows:
            total = ring.add(
                total, ring.mul(ring.lift(0)(x0), ring.lift(1)(x1))
            )
        design = np.array([[1.0, x0, x1] for x0, x1 in rows])
        assert np.allclose(total.moment_matrix(), design.T @ design)


class TestRingAxioms:
    @given(triples(CofactorRing(3)), triples(CofactorRing(3)), triples(CofactorRing(3)))
    @settings(max_examples=25, deadline=None)
    def test_axioms_on_generated_elements(self, a, b, c):
        check_ring_axioms(CofactorRing(3), [a, b, c])


# ----------------------------------------------------------------------
# The block-sparse product against the dense formula, over any supports
# ----------------------------------------------------------------------

DEGREE = 7


@st.composite
def block_triples(draw, support=None):
    """A triple with arbitrary blocks over a random (or given) support."""
    if support is None:
        support = draw(st.sets(st.integers(0, DEGREE - 1)))
    support = tuple(sorted(support))
    count = draw(st.sampled_from([0.0, 1.0, 2.0, -1.5]))
    k = len(support)
    if not k:
        return CofactorTriple(DEGREE, count)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return CofactorTriple(
        DEGREE, count, rng.uniform(-3, 3, k), rng.uniform(-3, 3, (k, k)),
        support,
    )


def dense_product(a: CofactorTriple, b: CofactorTriple):
    """Definition 6.2 on the zero-filled m-vectors and m×m matrices."""
    sa, sb = a.dense_sums(), b.dense_sums()
    return (
        a.count * b.count,
        b.count * sa + a.count * sb,
        b.count * a.dense_quads() + a.count * b.dense_quads()
        + np.outer(sa, sb) + np.outer(sb, sa),
    )


#: One pair of supports per branch of ``CofactorRing.mul``.
SUPPORT_SHAPES = {
    "disjoint": ((0, 1, 2), (4, 5)),
    "interleaved": ((0, 2, 4, 6), (1, 3, 5)),
    "nested-left": ((0, 1, 3, 5), (1, 5)),
    "nested-right": ((2,), (0, 2, 6)),
    "lift-inside": ((1, 2, 4), (2,)),
    "overlapping": ((0, 1, 2), (2, 3)),
    "equal": ((1, 3), (1, 3)),
    "empty-right": ((0, 6), ()),
    "empty-both": ((), ()),
}


class TestBlockProduct:
    def check(self, a, b):
        ring = CofactorRing(DEGREE)
        product = ring.mul(a, b)
        count, sums, quads = dense_product(a, b)
        assert product.count == count
        assert np.allclose(product.dense_sums(), sums, rtol=0, atol=1e-12)
        assert np.allclose(product.dense_quads(), quads, rtol=0, atol=1e-12)
        assert set(product.support) <= set(a.support) | set(b.support)

    @pytest.mark.parametrize("shape", sorted(SUPPORT_SHAPES))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_named_support_shapes(self, shape, data):
        left, right = SUPPORT_SHAPES[shape]
        a = data.draw(block_triples(support=left))
        b = data.draw(block_triples(support=right))
        self.check(a, b)
        self.check(b, a)

    @given(block_triples(), block_triples())
    @settings(max_examples=150, deadline=None)
    def test_random_supports(self, a, b):
        self.check(a, b)

    @given(block_triples(), block_triples(), block_triples())
    @settings(max_examples=150, deadline=None)
    def test_regrouping_stays_inside_the_tolerance(self, a, t, l):
        """``(a·t)·l == a·(t·l)``: the regrouping the lifted-sibling memo
        of the scalar triggers performs (``t·l`` is what it stores)."""
        ring = CofactorRing(DEGREE)
        assert ring.eq(
            ring.mul(ring.mul(a, t), l), ring.mul(a, ring.mul(t, l))
        )

    @given(block_triples(), block_triples(), st.integers(0, DEGREE - 1),
           st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_regrouping_with_a_lift(self, a, t, index, value):
        ring = CofactorRing(DEGREE)
        lifted = ring.lift(index)(value)
        assert ring.eq(
            ring.mul(ring.mul(a, t), lifted),
            ring.mul(a, ring.mul(t, lifted)),
        )
