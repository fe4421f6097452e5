"""Unit tests for the scalar/array trigger selection and the array path.

The engine builds the generated scalar trigger for every entry point and,
lazily, an array program where the ring's arrays pay and the program
joins two lifted payloads; ``_delta_at_node`` picks between them from the
size of the delta against :data:`MIN_TRIGGER_ROWS`.  Rings whose scalar
arithmetic already beats packing (ℤ, ℝ, products of them) never get an
array form, which is also what keeps ℤ payloads unbounded Python ints.
The array path has one exactness escape hatch — a payload or lifting
column that refuses to pack (mixed cofactor supports) sends the batch to
the entry point's scalar trigger — which must produce the interpreter's
results.  An array program's output delta carries its packed block to
the next array trigger in the chain, which takes it instead of
re-packing.
"""

from __future__ import annotations

import pytest

from repro.core import FIVMEngine, Query
from repro.core.kernels import (
    KernelDeltaProgram,
    MIN_TRIGGER_ROWS,
    MIN_VECTOR_ROWS,
)
from repro.core.plan_exec import SlotProgram
from repro.data import Relation
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

from tests.conftest import PAPER_SCHEMAS, paper_variable_order, pinned

SCHEMAS = {"R": ("A", "B"), "S": ("B", "C")}


def join_from(engine, rel):
    """The root (join) node's entry point for deltas arriving from
    ``rel``'s side — the only entry points of the R ⋈ S tree that probe a
    sibling; the leaf-marginalization nodes below probe nothing."""
    root = engine.tree.root
    index, = (
        i for i, child in enumerate(root.children) if rel in child.relations
    )
    return (root.name, ("child", index))


def lift_only(engine, rel):
    """The entry point of ``rel``'s leaf node (probes nothing)."""
    (key,) = (
        key for key, plan in engine._plans.items()
        if not plan and engine.tree.leaves[rel].parent.name == key[0]
    )
    return key


def make_engine(ring, lifts=None, **kwargs):
    lifting = Lifting(ring, lifts or {})
    query = Query("Q", SCHEMAS, ring=ring, lifting=lifting)
    return FIVMEngine(query, **kwargs)


#: The ring the single-family dispatch tests run on: cofactor payloads
#: are NumPy blocks, so their array triggers pay and the engine builds
#: them.  The tests parametrized over :data:`VECTORIZING` run on it too.
COF = CofactorRing(3)
COF_LIFTS = {"A": COF.lift(0), "B": COF.lift(1), "C": COF.lift(2)}


def cof_engine(**kwargs):
    return make_engine(COF, COF_LIFTS, **kwargs)


def ones(rel, keys, ring=COF):
    return delta(rel, ring, {key: ring.one for key in keys})


def _degree_family():
    deg = DegreeRing(3)
    return deg, deg.lift


def _product_family():
    deg = DegreeRing(3)

    def lift(i):
        c, d = COF.lift(i), deg.lift(i)
        return lambda x: (c(x), d(x))

    return ProductRing([COF, deg]), lift


#: Every ring family whose triggers vectorize: the ring and its lift of
#: the i-th lifted variable.
VECTORIZING = {
    "cofactor": lambda: (COF, COF.lift),
    "degree": _degree_family,
    "product": _product_family,
}


def family_lifts(family, variables):
    """``family``'s ring and a lift for each of ``variables``, in order."""
    ring, lift = VECTORIZING[family]()
    return ring, {var: lift(i) for i, var in enumerate(variables)}


def delta(rel, ring, data):
    return Relation(rel, SCHEMAS[rel], ring, data)


def test_thresholds_are_named_public_constants():
    # Flat triggers and factor programs cross over at different sizes
    # (docs/architecture.md §3), so each has its own constant.
    assert isinstance(MIN_TRIGGER_ROWS, int) and MIN_TRIGGER_ROWS == 32
    assert isinstance(MIN_VECTOR_ROWS, int) and MIN_VECTOR_ROWS == 8


def test_backend_keyword_selects_only_the_reference_interpreter():
    with pytest.raises(ValueError):
        cof_engine(backend="numba")
    with pytest.raises(ValueError):
        cof_engine(storage="numpy")
    assert not cof_engine(backend="interpreter")._kernel_programs
    # The former backend and storage names select nothing: the frozen
    # benchmarks/e2e probe still constructs them, and gets the default
    # engine — the same thresholds, programs and view classes.
    default = cof_engine()
    for legacy in (
        {"backend": "kernels"}, {"backend": "source"},
        {"storage": "dict"}, {"storage": "columnar"},
    ):
        engine = cof_engine(**legacy)
        assert engine._trigger_rows == default._trigger_rows == MIN_TRIGGER_ROWS
        assert engine._vector_rows == default._vector_rows == MIN_VECTOR_ROWS
        assert engine._kernel_programs == default._kernel_programs
        assert [type(view) for view in engine.views.values()] == [
            type(view) for view in default.views.values()
        ]


@pytest.mark.parametrize("family", sorted(VECTORIZING))
def test_delta_size_selects_the_trigger_form(family, monkeypatch):
    ran = []
    original = KernelDeltaProgram.run

    def spy(self, delta):
        ran.append((self.node_name, len(delta)))
        return original(self, delta)

    monkeypatch.setattr(KernelDeltaProgram, "run", spy)
    ring, lifts = family_lifts(family, "ABC")
    engine = make_engine(ring, lifts)
    interp = make_engine(ring, lifts, backend="interpreter")
    # The join's entry points and the two lift-only leaf nodes (which
    # probe nothing and lift A, C) have an array form ...
    from_r, from_s = join_from(engine, "R"), join_from(engine, "S")
    leaf_r, leaf_s = lift_only(engine, "R"), lift_only(engine, "S")
    assert set(engine._kernel_programs) == {from_r, from_s, leaf_r, leaf_s}
    assert len(engine._programs) == 4
    # ... a one-row delta runs the generated scalar triggers and builds
    # nothing ...
    for target in (engine, interp):
        target.apply_update(ones("S", [(0, 0)], ring))
        target.apply_update(ones("R", [(0, 0)], ring))
    assert ran == []
    assert all(p is None for p in engine._kernel_programs.values())
    # ... and a threshold-row delta builds and runs the array programs
    # of the lift-only leaf and the join it reaches.
    rows = [(i, i) for i in range(MIN_TRIGGER_ROWS)]
    for target in (engine, interp):
        target.apply_update(ones("R", rows, ring))
    assert ran == [("V@A_R", MIN_TRIGGER_ROWS), ("V@B_RS", MIN_TRIGGER_ROWS)]
    assert isinstance(engine._kernel_programs[from_r], KernelDeltaProgram)
    assert engine._kernel_programs[from_s] is None
    for name, view in interp.views.items():
        assert view.same_as(engine.views[name])


@pytest.mark.parametrize("ring", [
    SquareMatrixRing(2),  # no array hooks at all
    INT_RING,  # no array hooks: payloads stay unbounded Python ints
    RealRing(),  # hooks for factor programs, but scalar ops beat packing
    ProductRing([IntegerRing(), RealRing()]),  # no array hooks (ℤ)
    ProductRing([RealRing(), RealRing()]),  # hooks, but scalar ops win
], ids=["matrix", "int", "real", "product", "real_product"])
def test_rings_whose_arrays_do_not_pay_never_build_an_array_program(ring):
    engine = make_engine(ring)
    assert engine._kernel_programs == {}
    rows = {(i, 0): ring.one for i in range(4 * MIN_TRIGGER_ROWS)}
    engine.apply_update(delta("S", ring, {(0, 0): ring.one}))
    engine.apply_update(delta("R", ring, rows))
    assert engine._kernel_programs == {}
    assert len(engine.result()) == 1


def test_only_joins_of_two_lifted_payloads_get_an_array_form():
    # A child view without lifted variables holds bare multiplicities, and
    # the node's own lifts are memoized singletons: multiplying by either
    # is a scaling the scalar trigger does faster than arrays can pack.
    assert make_engine(COF, {"B": COF.lift(1)})._kernel_programs == {}
    # A program that probes nothing counts its own lifts: the leaf node
    # lifting A builds its output column as one block.
    engine = make_engine(COF, {"A": COF.lift(0), "B": COF.lift(1)})
    assert set(engine._kernel_programs) == {lift_only(engine, "R")}
    # Both sides of the join aggregate a lifted variable: a real product.
    engine = make_engine(COF, {"A": COF.lift(0), "C": COF.lift(2)})
    assert set(engine._kernel_programs) == {
        join_from(engine, "R"), join_from(engine, "S"),
        lift_only(engine, "R"), lift_only(engine, "S"),
    }


def test_product_of_vectorizing_rings_runs_array_triggers():
    # Each component's triggers vectorize, so the product's do, through
    # the component-wise packed product; one ℤ or ℝ component would keep
    # them scalar (test_rings_whose_arrays_do_not_pay...).
    deg = DegreeRing(3)
    ring = ProductRing([COF, deg])
    lifts = {
        var: (lambda x, c=COF.lift(i), d=deg.lift(i): (c(x), d(x)))
        for i, var in enumerate("ABC")
    }
    engine = make_engine(ring, lifts)
    interp = make_engine(ring, lifts, backend="interpreter")
    n = 2 * MIN_TRIGGER_ROWS  # distinct join keys B, so both joins see n rows
    for target in (engine, interp):
        target.apply_update(
            delta("S", ring, {(b, b % 3): ring.one for b in range(n)})
        )
        target.apply_update(
            delta("R", ring, {(b % 3, b): ring.one for b in range(n)})
        )
    programs = list(engine._kernel_programs.values())
    assert len(programs) == 4  # the join from either side, the two leaves
    assert all(isinstance(p, KernelDeltaProgram) for p in programs)
    for name, view in interp.views.items():
        assert view.same_as(engine.views[name])


@pytest.mark.parametrize("family", sorted(VECTORIZING))
def test_scalar_and_vector_paths_agree_across_the_threshold(family):
    ring, lifts = family_lifts(family, "ABC")
    reference = make_engine(ring, lifts)
    interp = make_engine(ring, lifts, backend="interpreter")
    for size in (1, MIN_TRIGGER_ROWS - 1, MIN_TRIGGER_ROWS, 3 * MIN_TRIGGER_ROWS):
        for rel in ("R", "S"):
            keys = [(i + size, i) for i in range(size)]
            r1 = reference.apply_update(ones(rel, keys, ring))
            r2 = interp.apply_update(ones(rel, keys, ring))
            assert r2.same_as(r1.copy(name=r2.name))
    assert all(reference._kernel_programs.values())
    for name, view in interp.views.items():
        assert view.same_as(reference.views[name])


def test_integer_multiplicities_beyond_int64_stay_exact():
    # 2^40 x 2^40 joined multiplicities leave int64.  ℤ triggers never
    # run over int64 arrays (their scalar form always wins), so threshold-
    # row deltas keep unbounded Python ints like the interpreter does.
    big = 2 ** 40
    engine = make_engine(INT_RING)
    interp = make_engine(INT_RING, backend="interpreter")
    n = 2 * MIN_TRIGGER_ROWS
    for target in (engine, interp):
        target.apply_update(
            delta("S", INT_RING, {(b, b % 3): big for b in range(n)})
        )
        root = target.apply_update(
            delta("R", INT_RING, {(a, a): big for a in range(n)})
        )
        assert root.payload(()) == n * big * big
    assert engine._kernel_programs == {}
    for name, view in interp.views.items():
        assert view.same_as(engine.views[name])


def spy_scalar_runs(monkeypatch):
    """Record the delta size of every scalar-trigger run."""
    runs = []
    original = SlotProgram.run

    def spy(self, delta):
        runs.append(len(delta))
        return original(self, delta)

    monkeypatch.setattr(SlotProgram, "run", spy)
    return runs


def test_mixed_support_batch_falls_back_exactly(monkeypatch):
    # R's base payloads alternate between multiplicities and triples that
    # already carry a support (variable 1, which no lift plans), so the
    # R-delta is off the planned layout: the engine re-plans R's path to
    # carry variable 1, and the batch then runs on arrays at every node,
    # matching the interpreter exactly.
    runs = spy_scalar_runs(monkeypatch)
    ring = CofactorRing(3)
    lifts = {"A": ring.lift(0), "C": ring.lift(2)}
    arrays = make_engine(ring, lifts)
    interp = make_engine(ring, lifts, backend="interpreter")
    n = 2 * MIN_TRIGGER_ROWS
    mixed = {}
    for i in range(n):
        payload = ring.lift(1)(float(i)) if i % 2 else ring.from_int(1)
        mixed[(i, i)] = payload
    for engine in (arrays, interp):
        engine.apply_update(
            delta("S", ring, {(i, i % 4): ring.from_int(1) for i in range(n)})
        )
        engine.apply_update(delta("R", ring, dict(mixed)))
    assert runs == []
    root = arrays.tree.root.name
    assert 1 in arrays._supports[root]
    assert arrays.views[root]._store.support == arrays._supports[root]
    for name, view in interp.views.items():
        assert view.same_as(arrays.views[name])


def test_lift_column_that_does_not_pack_falls_back_exactly(monkeypatch):
    # A's lift marks the value 0 "missing" with the ring's one (empty
    # support) and lifts every other value onto variable 0: a lift that is
    # not the ring's own has no support to plan, so the engine runs the
    # reference interpreter — exact on any column.
    ring = CofactorRing(3)
    lift_a = ring.lift(0)
    lifts = {
        "A": lambda x: ring.one if x == 0 else lift_a(x),
        "C": ring.lift(2),
    }
    arrays = make_engine(ring, lifts)
    interp = make_engine(ring, lifts, backend="interpreter")
    n = 2 * MIN_TRIGGER_ROWS
    for engine in (arrays, interp):
        engine.apply_update(
            delta("S", ring, {(i, i % 4): ring.from_int(1) for i in range(n)})
        )
    runs = spy_scalar_runs(monkeypatch)
    for engine in (arrays, interp):
        engine.apply_update(
            delta("R", ring, {(a, a % 8): ring.from_int(1) for a in range(n)})
        )
    assert arrays._interpreted and runs == []
    for name, view in interp.views.items():
        assert view.same_as(arrays.views[name])


@pytest.mark.parametrize("family", sorted(VECTORIZING))
def test_kernel_program_output_carries_its_packed_block(family, monkeypatch):
    # T's path climbs V@D_T (lift-only) → V@C_ST → V@A_RST: two
    # consecutive joins, so the first array program's output
    # feeds the second.
    ring, lifts = family_lifts(family, "BDE")
    lifting = Lifting(ring, lifts)
    query = Query("Q", PAPER_SCHEMAS, ring=ring, lifting=lifting)
    with pinned("array"):
        engine = FIVMEngine(query, paper_variable_order())
    engine.apply_update(
        Relation("R", ("A", "B"), ring, {(a, 0): ring.one for a in range(5)})
    )
    engine.apply_update(Relation(
        "S", ("A", "C", "E"), ring,
        {(a, c, 0): ring.one for a in range(5) for c in range(4)},
    ))
    engine.apply_update(Relation("T", ("C", "D"), ring, {(0, 0): ring.one}))
    programs = engine._kernel_programs
    assert all(isinstance(p, KernelDeltaProgram) for p in programs.values())

    def entry(node_name, child_name):
        node, = (n for n in engine.tree.nodes if n.name == node_name)
        index, = (
            i for i, c in enumerate(node.children) if c.name == child_name
        )
        return programs[(node_name, ("child", index))]

    middle = entry("V@C_ST", "V@D_T")
    top = entry("V@A_RST", "V@C_ST")
    lifted_d = lifts["D"]
    out = middle.run(Relation(
        "V@D_T", ("C",), ring, {(c,): lifted_d(1.0 + c) for c in range(4)}
    ))
    assert out._packed_form is not None
    keys, block = out._packed_form
    unpacked = ring.kernel_ops().unpack(block)
    assert len(unpacked) == len(keys) > 0  # aligned with the key table
    # A packed output feeds the next program without re-packing (the
    # passthrough takes the delta's column from the block; only the
    # sibling's column is packed) and still computes the same delta.
    kops_cls = type(ring.kernel_ops())
    packed_columns = []
    pack = kops_cls.pack

    def counting_pack(self, column, n):
        packed_columns.append(n)
        return pack(self, column, n)

    monkeypatch.setattr(kops_cls, "pack", counting_pack)
    with_hint = top.run(out)
    repacked_with_hint = len(packed_columns)
    # Reading the map folds the block into payloads, in key-table order.
    assert list(out._data) == list(keys)
    assert all(map(ring.eq, unpacked, out._data.values()))
    plain = Relation(out.name, out.schema, out.ring, dict(out._data))
    without_hint = top.run(plain)
    assert len(packed_columns) - repacked_with_hint == repacked_with_hint + 1
    assert not without_hint.is_empty
    assert with_hint.same_as(without_hint)
    # The passthrough hint died with the fold: the delta is plain data.
    assert out._packed_form is None
