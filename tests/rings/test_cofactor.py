"""Tests for the degree-m matrix ring of regression triples (Def. 6.2)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.regression import cofactor_query
from repro.core import FIVMEngine
from repro.datasets import retailer, round_robin_stream
from repro.rings import CofactorRing, CofactorTriple, check_ring_axioms
from repro.rings import cofactor
from tests.settings import QUICK

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
        qa, qb = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        a = CofactorTriple(3, 2.0, rng.normal(size=3), qa + qa.T)
        b = CofactorTriple(3, 4.0, rng.normal(size=3), qb + qb.T)
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

    def test_asymmetric_quads_are_rejected(self):
        """Only Q's upper triangle is stored: a Q no data can produce is
        refused rather than silently symmetrized."""
        with pytest.raises(ValueError, match="symmetric"):
            CofactorTriple(2, 1.0, [1.0, 2.0], [[1.0, 2.0], [0.0, 4.0]])

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
        assert grown.scalar_entries() == 1 + 2 + 3  # Q's upper triangle


    def test_pickles_as_one_row(self):
        """Snapshots, journal items and shard frames carry the row."""
        ring = CofactorRing(4)
        t = ring.mul(ring.lift(1)(2.0), ring.lift(3)(-1.5))
        _, (degree, support, row) = t.__reduce__()
        assert (degree, support, row.size) == (4, (1, 3), 1 + 2 + 3)
        back = pickle.loads(pickle.dumps(t))
        assert back.support == t.support and ring.eq(back, t)
        assert np.array_equal(back.row, t.row)


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
    """A triple with arbitrary blocks over a random (or given) support
    (``Q`` symmetric, as every triple built from data is)."""
    if support is None:
        support = draw(st.sets(st.integers(0, DEGREE - 1)))
    support = tuple(sorted(support))
    count = draw(st.sampled_from([0.0, 1.0, 2.0, -1.5]))
    k = len(support)
    if not k:
        return CofactorTriple(DEGREE, count)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    quads = rng.uniform(-3, 3, (k, k))
    return CofactorTriple(
        DEGREE, count, rng.uniform(-3, 3, k), quads + quads.T, support,
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


def dense(t: CofactorTriple):
    return t.count, t.dense_sums(), t.dense_quads()


def assert_dense(got: CofactorTriple, want) -> None:
    count, sums, quads = want
    assert np.isclose(got.count, count, rtol=0, atol=1e-9)
    assert np.allclose(got.dense_sums(), sums, rtol=0, atol=1e-9)
    assert np.allclose(got.dense_quads(), quads, rtol=0, atol=1e-9)
    assert got.scalar_entries() == got.row.size == 1 + len(got.support) + (
        len(got.support) * (len(got.support) + 1) // 2)


class TestRowOps:
    """Every ring op and every array hook, on each named support shape,
    against the zero-filled dense reference (Definition 6.2)."""

    ring = CofactorRing(DEGREE)

    @pytest.mark.parametrize("shape", sorted(SUPPORT_SHAPES))
    @QUICK
    @given(data=st.data())
    def test_scalar_ops(self, shape, data):
        left, right = SUPPORT_SHAPES[shape]
        a = data.draw(block_triples(support=left))
        b = data.draw(block_triples(support=right))
        ring = self.ring
        for x, y in ((a, b), (b, a)):
            dx, dy = dense(x), dense(y)
            assert_dense(ring.mul(x, y), dense_product(x, y))
            assert_dense(ring.add(x, y), [p + q for p, q in zip(dx, dy)])
            assert_dense(
                ring.sum([x, y, x]), [2 * p + q for p, q in zip(dx, dy)])
            assert_dense(ring.neg(x), [-p for p in dx])
            # The same statistics laid out on a wider support are equal.
            widened = ring.add(x, CofactorTriple(DEGREE, 0.0, support=right))
            assert ring.eq(x, widened) and ring.eq(widened, x)
            assert ring.is_zero(ring.add(x, ring.neg(x)))
            assert ring.is_zero(x) == all(
                np.all(np.abs(p) <= ring.tolerance) for p in dx)
        assert ring.eq(a, b) == (
            abs(a.count - b.count) <= ring.tolerance
            and all(np.allclose(p, q, atol=ring.tolerance)
                    for p, q in zip(dense(a)[1:], dense(b)[1:])))

    @pytest.mark.parametrize("shape", sorted(SUPPORT_SHAPES))
    @QUICK
    @given(data=st.data())
    def test_kernel_hooks(self, shape, data):
        left, right = SUPPORT_SHAPES[shape]
        n = data.draw(st.integers(1, 5))
        xs = [data.draw(block_triples(support=left)) for _ in range(n)]
        ys = [data.draw(block_triples(support=right)) for _ in range(n)]
        ring = self.ring
        ops = ring.kernel_ops()
        px, py = ops.pack(xs, n), ops.pack(ys, n)
        assert px[0].shape == (n, xs[0].row.size)
        for got, x in zip(ops.unpack(px), xs):
            assert_dense(got, dense(x))
        for got, x, y in zip(ops.unpack(ops.mul_packed(px, py, n)), xs, ys):
            assert_dense(got, dense_product(x, y))
        for got, x, y in zip(ops.unpack(ops.mul_packed(py, px, n)), xs, ys):
            assert_dense(got, dense_product(y, x))
        if len(right) == 1:
            raw = data.draw(st.lists(values, min_size=n, max_size=n))
            lift = ring.lift(right[0])
            lifted = ops.pack_lift(lift, raw, n)
            for got, v in zip(ops.unpack(lifted), raw):
                assert_dense(got, dense(lift(v)))
            for got, x, v in zip(
                ops.unpack(ops.mul_packed(px, lifted, n)), xs, raw
            ):
                assert_dense(got, dense_product(x, lift(v)))
        # Grouped fold: every id in range(n_groups) occurs, in any order.
        labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        distinct = sorted(set(labels))
        ids = np.array([distinct.index(g) for g in labels], dtype=np.intp)
        reduced = ops.unpack(ops.reduce(px, ids, len(distinct)))
        for gid, got in enumerate(reduced):
            members = [dense(x) for x, i in zip(xs, ids) if i == gid]
            assert_dense(got, [sum(parts) for parts in zip(*members)])
        column = xs + [ring.add(xs[0], ring.neg(xs[0]))]
        mask = ops.zero_mask(ops.pack(column, n + 1))
        assert mask.tolist() == [ring.is_zero(t) for t in column]
        rows = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
        taken = ops.unpack(ops.take(px, np.array(rows, dtype=np.intp)))
        assert len(taken) == len(rows)
        for got, i in zip(taken, rows):
            assert_dense(got, dense(xs[i]))


def overlaps(shape) -> bool:
    left, right = SUPPORT_SHAPES[shape]
    return not set(left).isdisjoint(right)


class TestTermTable:
    """The product as one gather-multiply over a term table per support
    pair (``cofactor._pair_maps``): exact where the supports are disjoint,
    the packed product row-for-row the scalar one."""

    ring = CofactorRing(DEGREE)

    @pytest.mark.parametrize(
        "shape", sorted(s for s in SUPPORT_SHAPES if not overlaps(s)))
    @QUICK
    @given(data=st.data())
    def test_disjoint_products_are_exact(self, shape, data):
        left, right = SUPPORT_SHAPES[shape]
        a = data.draw(block_triples(support=left))
        b = data.draw(block_triples(support=right))
        for x, y in ((a, b), (b, a)):
            got = self.ring.mul(x, y)
            count, sums, quads = dense_product(x, y)
            assert got.count == count
            assert np.array_equal(got.dense_sums(), sums)
            assert np.array_equal(got.dense_quads(), quads)

    @pytest.mark.parametrize("shape", sorted(SUPPORT_SHAPES))
    @QUICK
    @given(data=st.data())
    def test_packed_rows_equal_scalar_products(self, shape, data):
        left, right = SUPPORT_SHAPES[shape]
        n = data.draw(st.integers(1, 5))
        xs = [data.draw(block_triples(support=left)) for _ in range(n)]
        ys = [data.draw(block_triples(support=right)) for _ in range(n)]
        ring, ops = self.ring, self.ring.kernel_ops()
        px, py = ops.pack(xs, n), ops.pack(ys, n)
        for (pa, pb), pairs in (((px, py), zip(xs, ys)), ((py, px), zip(ys, xs))):
            for got, (x, y) in zip(ops.unpack(ops.mul_packed(pa, pb, n)), pairs):
                want = ring.mul(x, y)
                assert got.support == want.support
                assert np.array_equal(got.row, want.row)
                if overlaps(shape):
                    count, sums, quads = dense_product(x, y)
                    assert got.count == count
                    assert np.allclose(
                        got.dense_sums(), sums, rtol=0, atol=1e-12)
                    assert np.allclose(
                        got.dense_quads(), quads, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", sorted(SUPPORT_SHAPES))
    def test_named_shape_invariants(self, shape):
        self.check_invariants(*SUPPORT_SHAPES[shape])

    @QUICK
    @given(st.sets(st.integers(0, DEGREE - 1)),
           st.sets(st.integers(0, DEGREE - 1)))
    def test_random_support_invariants(self, left, right):
        self.check_invariants(tuple(sorted(left)), tuple(sorted(right)))

    @staticmethod
    def check_invariants(left, right):
        union, width, _, _, ia, ib, starts = cofactor._pair_maps(left, right)
        assert union == tuple(sorted(set(left) | set(right)))
        assert width == 1 + len(union) + len(union) * (len(union) + 1) // 2
        assert ia.size == ib.size
        assert ia.max() < 1 + len(left) + len(left) * (len(left) + 1) // 2
        assert ib.max() < 1 + len(right) + len(right) * (len(right) + 1) // 2
        # Terms per union cell, counted through the table itself.
        ones = np.ones(max(ia.max(), ib.max()) + 1)
        terms = ones[ia] * ones[ib]
        if starts is None:
            assert set(left).isdisjoint(right)
            assert ia.size == width
        else:
            assert not set(left).isdisjoint(right)
            assert starts.size == width and starts[0] == 0
            assert (np.diff(starts) > 0).all() and starts[-1] < ia.size
            terms = np.add.reduceat(terms, starts)
            assert terms.min() >= 1 and terms.sum() > width


@pytest.mark.parametrize("batch", [1, 100])
def test_retailer_builds_one_disjoint_table_per_support_pair(
    monkeypatch, batch
):
    """Counts, not clocks: over a Retailer cofactor stream every support
    pair the ring meets is disjoint (no table has ``starts``), each
    pair's table is built once, and a second pass builds none."""
    monkeypatch.setattr(cofactor, "_ROW_MAPS", {})
    built = []
    build = cofactor._term_table

    def spy(left, right):
        table = build(left, right)
        built.append((left, right, table[-1]))
        return table

    monkeypatch.setattr(cofactor, "_term_table", spy)
    workload = retailer.generate(scale=0.05)
    query = cofactor_query(
        "retailer", workload.schemas, workload.numeric_variables)
    stream = round_robin_stream(
        workload.schemas, workload.tables, batch_size=batch,
        delete_fraction=0.2,
    )

    def run():
        engine = FIVMEngine(query, workload.variable_order)
        for delta in stream.deltas(query.ring):
            engine.apply_update(delta)

    run()
    pairs = [(left, right) for left, right, _ in built]
    assert pairs and len(set(pairs)) == len(pairs)
    assert [pair for pair in built if pair[2] is not None] == []
    run()
    assert len(built) == len(pairs)
