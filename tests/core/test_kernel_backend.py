"""Unit tests for the scalar/array trigger selection and the array path.

The engine builds the generated scalar trigger for every entry point and,
lazily, an array program where the ring's arrays pay and the program
joins two lifted payloads; ``_delta_at_node`` picks between them from the
size of the delta against :data:`MIN_TRIGGER_ROWS`.  Rings whose scalar
arithmetic already beats packing (ℤ, ℝ, products of them) never get an
array form, which is also what keeps ℤ payloads unbounded Python ints.
The array path has one exactness escape hatch — a column that refuses to
pack (mixed cofactor supports) — which must produce the interpreter's
results.  Columnar storage adds the zero-pack passthrough: an array
program's output delta carries its packed block to the absorbing view and
the next trigger in the chain.
"""

from __future__ import annotations

import pytest

from repro.core import FIVMEngine, Query
from repro.core.kernels import (
    KernelDeltaProgram,
    MIN_TRIGGER_ROWS,
    MIN_VECTOR_ROWS,
)
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


def make_engine(ring, lifts=None, **kwargs):
    lifting = Lifting(ring, lifts or {})
    query = Query("Q", SCHEMAS, ring=ring, lifting=lifting)
    return FIVMEngine(query, **kwargs)


#: The ring the dispatch tests run on: cofactor payloads are NumPy
#: blocks, so their array triggers pay and the engine builds them.
COF = CofactorRing(3)
COF_LIFTS = {"A": COF.lift(0), "B": COF.lift(1), "C": COF.lift(2)}


def cof_engine(**kwargs):
    return make_engine(COF, COF_LIFTS, **kwargs)


def ones(rel, keys):
    return delta(rel, COF, {key: COF.one for key in keys})


def delta(rel, ring, data):
    return Relation(rel, SCHEMAS[rel], ring, data)


def test_thresholds_are_named_public_constants():
    # Flat triggers and factor programs cross over at different sizes
    # (docs/architecture.md §3), so each has its own constant.
    assert isinstance(MIN_TRIGGER_ROWS, int) and MIN_TRIGGER_ROWS == 24
    assert isinstance(MIN_VECTOR_ROWS, int) and MIN_VECTOR_ROWS == 8


def test_backend_keyword_selects_only_the_reference_interpreter():
    with pytest.raises(ValueError):
        cof_engine(backend="numba")
    assert not cof_engine(backend="interpreter")._kernel_programs
    # The former backend names select nothing: the frozen benchmarks/e2e
    # probe still constructs them, and gets the default engine.
    default = cof_engine()
    for legacy in ("kernels", "source"):
        engine = cof_engine(backend=legacy)
        assert engine._trigger_rows == default._trigger_rows == MIN_TRIGGER_ROWS
        assert engine._vector_rows == default._vector_rows == MIN_VECTOR_ROWS
        assert engine._kernel_programs == default._kernel_programs


@pytest.mark.parametrize("storage", ["dict", "columnar"])
def test_delta_size_selects_the_trigger_form(storage, monkeypatch):
    ran = []
    original = KernelDeltaProgram.run

    def spy(self, delta):
        ran.append((self.node_name, len(delta)))
        return original(self, delta)

    monkeypatch.setattr(KernelDeltaProgram, "run", spy)
    engine = cof_engine(storage=storage)
    interp = cof_engine(backend="interpreter")
    # Only the join's entry points have an array form at all ...
    from_r, from_s = join_from(engine, "R"), join_from(engine, "S")
    assert set(engine._kernel_programs) == {from_r, from_s}
    assert len(engine._programs) == 4  # the two leaf nodes: scalar only
    # ... a one-row delta runs the generated scalar triggers and builds
    # nothing ...
    for target in (engine, interp):
        target.apply_update(ones("S", [(0, 0)]))
        target.apply_update(ones("R", [(0, 0)]))
    assert ran == []
    assert all(p is None for p in engine._kernel_programs.values())
    # ... and a threshold-row delta builds and runs the array program of
    # the join it reaches (the lift-only leaf stays scalar).
    rows = [(i, i) for i in range(MIN_TRIGGER_ROWS)]
    for target in (engine, interp):
        target.apply_update(ones("R", rows))
    assert ran == [("V@B_RS", MIN_TRIGGER_ROWS)]
    assert isinstance(engine._kernel_programs[from_r], KernelDeltaProgram)
    assert engine._kernel_programs[from_s] is None
    for name, view in interp.views.items():
        assert view.same_as(engine.views[name])


@pytest.mark.parametrize("ring", [
    SquareMatrixRing(2),  # no array hooks at all
    INT_RING,  # hooks for columnar storage, but scalar ops beat packing
    ProductRing([IntegerRing(), RealRing()]),
], ids=["matrix", "int", "product"])
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
    for lifts in ({"B": COF.lift(1)}, {"A": COF.lift(0), "B": COF.lift(1)}):
        assert make_engine(COF, lifts)._kernel_programs == {}
    # Both sides of the join aggregate a lifted variable: a real product.
    engine = make_engine(COF, {"A": COF.lift(0), "C": COF.lift(2)})
    assert set(engine._kernel_programs) == {
        join_from(engine, "R"), join_from(engine, "S")
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
    assert len(programs) == 2  # the join, entered from either side
    assert all(isinstance(p, KernelDeltaProgram) for p in programs)
    for name, view in interp.views.items():
        assert view.same_as(engine.views[name])


def test_scalar_and_vector_paths_agree_across_the_threshold():
    reference = cof_engine()
    interp = cof_engine(backend="interpreter")
    for size in (1, MIN_TRIGGER_ROWS - 1, MIN_TRIGGER_ROWS, 3 * MIN_TRIGGER_ROWS):
        for rel in ("R", "S"):
            keys = [(i + size, i) for i in range(size)]
            r1 = reference.apply_update(ones(rel, keys))
            r2 = interp.apply_update(ones(rel, keys))
            assert r2.same_as(r1.rename({}, name=r2.name))
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


@pytest.mark.parametrize("storage", ["dict", "columnar"])
def test_mixed_support_batch_falls_back_exactly(storage, monkeypatch):
    # R's base payloads alternate between multiplicities and triples that
    # already carry a support, so the R-delta reaches the join with a
    # payload column of mixed supports, which refuses to pack — the run
    # must take the scalar fold and still match the interpreter exactly.
    folds = []
    original = KernelDeltaProgram._finish_scalar

    def spy(self, keys, *rest):
        folds.append(len(keys))
        return original(self, keys, *rest)

    monkeypatch.setattr(KernelDeltaProgram, "_finish_scalar", spy)
    ring = CofactorRing(3)
    lifts = {"A": ring.lift(0), "C": ring.lift(2)}
    arrays = make_engine(ring, lifts, storage=storage)
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
    assert folds == [n]
    for name, view in interp.views.items():
        assert view.same_as(arrays.views[name])


def test_kernel_program_output_carries_its_packed_block():
    # T's path climbs V@D_T (lift-only) → V@C_ST → V@A_RST: two
    # consecutive joins, so the first array program's output
    # feeds the second.
    ring = CofactorRing(3)
    lifting = Lifting(
        ring, {"B": ring.lift(0), "D": ring.lift(1), "E": ring.lift(2)}
    )
    query = Query("Q", PAPER_SCHEMAS, ring=ring, lifting=lifting)
    with pinned("array"):
        engine = FIVMEngine(query, paper_variable_order(), storage="columnar")
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
    lifted_d = ring.lift(1)
    out = middle.run(Relation(
        "V@D_T", ("C",), ring, {(c,): lifted_d(1.0 + c) for c in range(4)}
    ))
    assert out._kernel_packed is not None
    unpacked = ring.kernel_ops().unpack(out._kernel_packed)
    assert len(unpacked) == len(out) > 0  # aligned, insertion order
    assert all(map(ring.eq, unpacked, out._data.values()))
    # A packed output feeds the next program without re-packing (the
    # passthrough consumes the block) and still computes the same delta.
    with_hint = top.run(out)
    plain = Relation(out.name, out.schema, out.ring, dict(out._data))
    without_hint = top.run(plain)
    assert not without_hint.is_empty
    assert with_hint.same_as(without_hint)
    # The passthrough hint dies on mutation: the delta is then plain data.
    out.add((99,), ring.one)
    assert out._kernel_packed is None
