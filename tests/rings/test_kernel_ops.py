"""Conformance tests for the packed-column protocol (``Ring.kernel_ops``).

Every ring that exposes array hooks must compute exactly the scalar ring
semantics, column-for-column: pack/unpack round-trips, grouped reduction
against ``Ring.sum``, zero masks against ``is_zero``, and the hooks only
some rings carry — the packed product and ``take`` of the rings whose
triggers vectorize against per-payload ``mul`` and list indexing, the
cofactor and degree ``pack_lift`` against lifting value by value, ℝ's
packed addition against ``add``.
"""

import numpy as np
import pytest

from repro.rings import (
    CofactorRing,
    DegreeRing,
    IntegerRing,
    ProductRing,
    RealRing,
    SquareMatrixRing,
)


def _real_cols():
    ring = RealRing()
    a = [ring.from_int(v) * 0.5 for v in (3, -1, 4, 1, -5, 9, 2, 6)]
    b = [ring.from_int(v) * 0.25 for v in (2, 7, -1, 8, 2, -8, 1, 4)]
    return ring, a, b


def _degree_cols():
    ring = DegreeRing(3)
    lift0, lift2 = ring.lift(0), ring.lift(2)
    a = [lift0(x) for x in (0.5, -1.0, 2.0, 0.0)] + [
        ring.from_int(v) for v in (1, -2, 3, 4)
    ]
    b = [lift2(x) for x in (1.5, 0.5, -0.5, 2.5)] + [
        ring.one for _ in range(4)
    ]
    return ring, a, b


def _cofactor_cols():
    ring = CofactorRing(3)
    lift1, lift2 = ring.lift(1), ring.lift(2)
    a = [lift1(x) for x in (0.5, -1.0, 2.0, 0.0, 3.0, 1.0, -2.0, 4.0)]
    b = [lift2(x) for x in (1.5, 0.5, -0.5, 2.5, 1.0, -1.0, 2.0, 0.0)]
    return ring, a, b


def _product_cols():
    ring = ProductRing([RealRing(), RealRing()])
    a = [(v, 0.5 * v) for v in (3, -1, 4, 1, -5, 9, 2, 6)]
    b = [(v, 0.25 * v) for v in (2, 7, -1, 8, 2, -8, 1, 4)]
    return ring, a, b


def _array_product_cols():
    # Every component's triggers vectorize, so the product's do too.
    (cof, ca, cb), (deg, da, db) = _cofactor_cols(), _degree_cols()
    ring = ProductRing([cof, deg])
    return ring, list(zip(ca, da)), list(zip(cb, db))


COLUMNS = {
    "real": _real_cols,
    "degree": _degree_cols,
    "cofactor": _cofactor_cols,
    "product": _product_cols,
    "array_product": _array_product_cols,
}

#: The families whose triggers run over packed columns (one scalar product
#: is itself array work); ℝ keeps its hooks for factor programs, the
#: resident root and packed bulk evaluation.
VECTORIZED = {"degree", "cofactor", "array_product"}


@pytest.fixture(params=sorted(COLUMNS))
def ring_cols(request):
    return COLUMNS[request.param]()


@pytest.mark.parametrize("family", sorted(COLUMNS))
def test_rings_expose_kernel_ops(family):
    ring, _, _ = COLUMNS[family]()
    ops = ring.kernel_ops()
    assert ops is not None
    assert ops is ring.kernel_ops()  # memoized
    assert ops.vectorizes_triggers is (family in VECTORIZED)


def test_pack_unpack_round_trip(ring_cols):
    ring, a, _ = ring_cols
    ops = ring.kernel_ops()
    packed = ops.pack(a, len(a))
    assert packed is not None
    out = ops.unpack(packed)
    assert len(out) == len(a)
    for got, want in zip(out, a):
        assert ring.eq(got, want)


@pytest.mark.parametrize("family", sorted(VECTORIZED))
def test_packed_product_matches_scalar(family):
    ring, a, b = COLUMNS[family]()
    ops = ring.kernel_ops()
    n = len(a)
    pa, pb = ops.pack(a, n), ops.pack(b, n)
    for got, x, y in zip(ops.unpack(ops.mul_packed(pa, pb, n)), a, b):
        assert ring.eq(got, ring.mul(x, y))
    # Either side may be the un-lifted one (a bare multiplicity).
    ones = ops.pack([ring.one] * n, n)
    for got, x in zip(ops.unpack(ops.mul_packed(ones, pa, n)), a):
        assert ring.eq(got, x)
    for got, x in zip(ops.unpack(ops.mul_packed(pa, ones, n)), a):
        assert ring.eq(got, x)


@pytest.mark.parametrize("family", sorted(VECTORIZED))
def test_take_matches_list_indexing(family):
    # The passthrough hands a delta's packed block on by row selection:
    # repeated, reordered and empty selections included.
    ring, a, _ = COLUMNS[family]()
    ops = ring.kernel_ops()
    packed = ops.pack(a, len(a))
    for rows in ([5, 0, 5, 2], list(range(len(a)))[::-1], []):
        index = np.array(rows, dtype=np.intp)
        got = ops.unpack(ops.take(packed, index))
        assert len(got) == len(rows)
        for payload, i in zip(got, rows):
            assert ring.eq(payload, a[i])


@pytest.mark.parametrize("ring", [CofactorRing(3), DegreeRing(3)],
                         ids=["cofactor", "degree"])
def test_pack_lift_matches_packing_each_lifted_value(ring):
    ops = ring.kernel_ops()
    values = [0.5, -1.0, 2.0, 0.0, 3.0]
    n = len(values)
    for index in range(ring.degree):
        lift = ring.lift(index)
        packed = ops.pack_lift(lift, values, n)
        assert packed is not None
        for got, value in zip(ops.unpack(packed), values):
            assert ring.eq(got, lift(value))
    # A lift the ring did not make takes the generic per-row path.
    assert ops.pack_lift(lambda x: ring.one, values, n) is None


def test_real_packed_addition_matches_scalar():
    ring, a, b = _real_cols()
    ops = ring.kernel_ops()
    n = len(a)
    summed = ops.add_packed(ops.pack(a, n), ops.pack(b, n))
    for got, x, y in zip(ops.unpack(summed), a, b):
        assert ring.eq(got, ring.add(x, y))


def test_grouped_reduce_matches_ring_sum(ring_cols):
    # One column (uniform layout — a cofactor column mixing a's and b's
    # supports would refuse to pack, by design), three interleaved groups.
    ring, a, _ = ring_cols
    ops = ring.kernel_ops()
    column = a + list(reversed(a))
    n = len(column)
    group_ids = np.array([i % 3 for i in range(n)], dtype=np.intp)
    reduced = ops.unpack(
        ops.reduce(ops.pack(column, n), group_ids, 3)
    )
    for gid in range(3):
        expected = ring.sum(
            [p for i, p in enumerate(column) if i % 3 == gid]
        )
        assert ring.eq(reduced[gid], expected)


def test_zero_mask_matches_is_zero(ring_cols):
    ring, a, _ = ring_cols
    ops = ring.kernel_ops()
    # The cancelled payload keeps its layout (a cofactor triple keeps its
    # support with zeroed blocks), so the column still packs uniformly.
    column = list(a) + [ring.add(a[0], ring.neg(a[0]))]
    packed = ops.pack(column, len(column))
    mask = ops.zero_mask(packed)
    assert mask.dtype == bool and len(mask) == len(column)
    for got, payload in zip(mask.tolist(), column):
        assert got == ring.is_zero(payload)


def test_cofactor_mixed_support_column_packs_for_the_union():
    ring = CofactorRing(3)
    ops = ring.kernel_ops()
    mixed = [ring.lift(0)(1.0), ring.lift(1)(2.0), ring.from_int(3)]
    block, support = ops.pack(mixed, 3)
    assert support == (0, 1) and block.shape == (3, 6)
    for got, want in zip(ops.unpack((block, support)), mixed):
        assert ring.eq(got, want)
    uniform = [ring.lift(0)(1.0), ring.lift(0)(2.0)]
    assert ops.pack(uniform, 2)[1] == (0,)


def test_degree_pack_unions_vocabularies():
    ring = DegreeRing(2)
    ops = ring.kernel_ops()
    column = [ring.lift(0)(1.0), ring.lift(1)(2.0), ring.one]
    packed = ops.pack(column, 3)
    assert packed is not None  # mixed vocabularies pack fine (dense union)
    for got, want in zip(ops.unpack(packed), column):
        assert ring.eq(got, want)


def test_rings_without_kernel_ops():
    # ℤ payloads stay unbounded Python ints: nothing ever packs them.
    assert IntegerRing().kernel_ops() is None
    assert SquareMatrixRing(2).kernel_ops() is None


def test_product_requires_every_component_to_pack():
    assert ProductRing([RealRing(), RealRing()]).kernel_ops() is not None
    assert ProductRing([IntegerRing(), RealRing()]).kernel_ops() is None
    assert ProductRing(
        [RealRing(), SquareMatrixRing(2)]
    ).kernel_ops() is None



def _sorted_fold(block, ids):
    """The grouped fold that sorts first: stable sort on the id, gather the
    rows, one ``np.add.reduceat`` over the runs."""
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    return np.add.reduceat(block[order], starts, axis=0)


#: First-seen group ids (what the kernel program's encoding assigns) of
#: twelve rows, by shape.
GROUP_IDS = {
    "distinct": list(range(12)),
    "one group": [0] * 12,
    "contiguous runs": [0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 3],
    "shuffled": [0, 1, 0, 2, 1, 3, 2, 0, 3, 1, 2, 3],
    # Most groups one row: only the colliding ones are reduced.
    "mostly unique": [0, 1, 2, 1, 3, 4, 5, 6, 4, 7, 8, 9],
    "mostly unique, in order": [0, 1, 1, 2, 3, 4, 5, 5, 5, 6, 7, 8],
}


def _product_block(ring, n=12):
    """A packed column of ``n`` products of two lifted values."""
    ops = ring.kernel_ops()
    rng = np.random.default_rng(5)
    return ops.mul_packed(
        ops.pack_lift(ring.lift(0), rng.normal(size=n).tolist(), n),
        ops.pack_lift(ring.lift(1), rng.normal(size=n).tolist(), n), n,
    )


@pytest.mark.parametrize("shape", sorted(GROUP_IDS))
def test_cofactor_reduce_without_the_sort_is_exact(shape):
    # Ids in order (one group, contiguous runs, distinct) skip the sort
    # and the row gather; the result is the sorted fold's bit for bit.
    ops = CofactorRing(3).kernel_ops()
    packed = _product_block(CofactorRing(3))
    ids = np.array(GROUP_IDS[shape], dtype=np.intp)
    block, support = ops.reduce(packed, ids, int(ids.max()) + 1)
    assert support == packed[1]
    assert np.array_equal(block, _sorted_fold(packed[0], ids))


@pytest.mark.parametrize("ring", [CofactorRing(3), DegreeRing(3)],
                         ids=["cofactor", "degree"])
def test_distinct_keys_fold_to_the_block_itself(ring):
    # The kernel program skips the fold when every output key is
    # distinct: the ids are then 0..n-1 and the fold is the identity.
    packed = _product_block(ring)
    n = len(packed[0])
    block, vocab = ring.kernel_ops().reduce(packed, np.arange(n), n)
    assert vocab == packed[1]
    assert np.array_equal(block, packed[0])
