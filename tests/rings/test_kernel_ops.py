"""Conformance tests for the packed-column protocol (``Ring.kernel_ops``).

Every ring that exposes array hooks must compute exactly the scalar ring
semantics, column-for-column: pack/unpack round-trips, packed arithmetic
against per-payload ``mul``/``add``/``neg``, grouped reduction against
``Ring.sum``, zero masks against ``is_zero``, and the store hooks
(alloc/grow/put/take/add_at/zero_rows) against a plain list of payloads —
including layout widening when payloads of different cofactor supports or
degree vocabularies land in one block.
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


def _int_cols():
    ring = IntegerRing()
    a = [ring.from_int(v) for v in (3, -1, 4, 1, -5, 9, 2, 6)]
    b = [ring.from_int(v) for v in (2, 7, -1, 8, 2, -8, 1, 0)]
    return ring, a, b


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
    ring = ProductRing([IntegerRing(), RealRing()])
    a = [(v, 0.5 * v) for v in (3, -1, 4, 1, -5, 9, 2, 6)]
    b = [(v, 0.25 * v) for v in (2, 7, -1, 8, 2, -8, 1, 4)]
    return ring, a, b


def _array_product_cols():
    # Every component's triggers vectorize, so the product's do too.
    (cof, ca, cb), (deg, da, db) = _cofactor_cols(), _degree_cols()
    ring = ProductRing([cof, deg])
    return ring, list(zip(ca, da)), list(zip(cb, db))


COLUMNS = {
    "int": _int_cols,
    "real": _real_cols,
    "degree": _degree_cols,
    "cofactor": _cofactor_cols,
    "product": _product_cols,
    "array_product": _array_product_cols,
}

#: The families whose triggers run over packed columns (one scalar product
#: is itself array work); the rest keep the hooks for columnar storage.
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


def test_packed_arithmetic_matches_scalar(ring_cols):
    ring, a, b = ring_cols
    ops = ring.kernel_ops()
    n = len(a)
    pa, pb = ops.pack(a, n), ops.pack(b, n)
    for got, x, y in zip(ops.unpack(ops.add_packed(pa, pb)), a, b):
        assert ring.eq(got, ring.add(x, y))
    for got, x in zip(ops.unpack(ops.neg_packed(pa)), a):
        assert ring.eq(got, ring.neg(x))
    if not ops.vectorizes_triggers:
        return  # no packed product: triggers over this ring run scalar
    for got, x, y in zip(ops.unpack(ops.mul_packed(pa, pb, n)), a, b):
        assert ring.eq(got, ring.mul(x, y))


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


def test_store_hooks_behave_like_a_payload_list(ring_cols):
    ring, a, b = ring_cols
    ops = ring.kernel_ops()
    n = len(a)
    block = ops.alloc(4, ops.payload_layout(a[0]))
    block = ops.grow(block, 0, 2 * n)
    rows = np.arange(n, dtype=np.intp)
    block = ops.put(block, rows, ops.pack(a, n))
    for got, want in zip(ops.unpack(ops.take(block, rows)), a):
        assert ring.eq(got, want)
    # add_at must handle duplicate rows (scatter-add, not last-wins) and
    # unify layouts when the added column's layout differs.
    dup = np.zeros(n, dtype=np.intp)
    block = ops.add_at(block, dup, ops.pack(b, n))
    merged = ops.unpack(ops.take(block, np.array([0], dtype=np.intp)))[0]
    assert ring.eq(merged, ring.sum([a[0]] + list(b)))
    block = ops.zero_rows(block, rows[1:])
    for got in ops.unpack(ops.take(block, rows[1:])):
        assert ring.is_zero(got)


def test_cofactor_mixed_support_column_does_not_pack():
    ring = CofactorRing(3)
    ops = ring.kernel_ops()
    mixed = [ring.lift(0)(1.0), ring.lift(1)(2.0)]
    assert ops.pack(mixed, 2) is None
    uniform = [ring.lift(0)(1.0), ring.lift(0)(2.0)]
    assert ops.pack(uniform, 2) is not None


def test_degree_pack_unions_vocabularies():
    ring = DegreeRing(2)
    ops = ring.kernel_ops()
    column = [ring.lift(0)(1.0), ring.lift(1)(2.0), ring.one]
    packed = ops.pack(column, 3)
    assert packed is not None  # mixed vocabularies pack fine (dense union)
    for got, want in zip(ops.unpack(packed), column):
        assert ring.eq(got, want)


def test_product_requires_every_component_to_pack():
    assert ProductRing([IntegerRing(), RealRing()]).kernel_ops() is not None
    assert ProductRing(
        [IntegerRing(), SquareMatrixRing(2)]
    ).kernel_ops() is None
    assert SquareMatrixRing(2).kernel_ops() is None
