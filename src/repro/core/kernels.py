"""The array form of a trigger: IR delta programs over packed arrays.

The second generated realization of the delta-program IR
(:mod:`repro.core.ir`).  The engine runs it instead of the scalar trigger
of :mod:`repro.core.plan_exec` when a delta of at least
:data:`MIN_TRIGGER_ROWS` rows reaches a node that has one (a payload ring
whose ``Ring.kernel_ops`` say ``vectorizes_triggers`` and a join of at
least two lifted payloads to multiply; see
:meth:`FIVMEngine._delta_at_node`).
Where the scalar trigger multiplies and folds payloads tuple by tuple,
this one splits the work into two phases:

1. **gather** — a generated probe loop (the same specialization the
   scalar trigger emits, shared through the :class:`ProgramLibrary`) that
   walks the delta and the sibling probes but *defers all ring
   arithmetic*: instead of multiplying payloads it appends, per match
   row, the output key and each payload factor to per-column lists (plus
   the raw values feeding each lifting function);
2. **kernel** — the ring's array hooks (``Ring.kernel_ops``) pack each
   column into NumPy arrays, multiply whole columns at once (for the
   cofactor ring: the vectorized Definition 6.2 formula over stacked
   ``(n, k)``/``(n, k, k)`` blocks), and fold the rows onto their output
   keys with one grouped reduction (``np.bincount`` /
   ``np.add.reduceat``) instead of n-1 ring additions.

Zero-pack gathers over columnar storage
---------------------------------------

When a probed target is a :class:`~repro.data.columnar.ColumnarRelation`
(``FIVMEngine(storage="columnar")``), the payloads already live in packed
blocks, so re-packing them per delta would be pure tax.  The gather for a
columnar target is generated differently — probes walk the key → row-id
map (or the index's group-id map) and append *row ids* instead of payload
objects — and the kernel phase turns each row-id column into a packed
column with one array ``take`` from the target's (or the index sum
store's) block.  Likewise the program's *output* carries its reduced
packed block along (:class:`_KernelDelta`), so a columnar parent view
absorbs it and the next trigger in the propagation chain gathers from it
without ever packing: payloads cross the whole update path as arrays.
Programs are cached per (IR, per-target storage signature), so dict and
columnar engines can share one library.

The two phases compute exactly the scalar semantics: the product order
within a row is the IR's reference order, and regrouping the additions is
sound because ring addition is commutative by the ring axioms.  Rings
without array hooks never reach this module, and a batch whose payload
columns do not pack (mixed cofactor supports) takes the exact scalar
fold inside :meth:`KernelDeltaProgram.run`, so the array form is always
exact, never approximate.

Array factor programs
---------------------

The factorized path has an array form too, over ℝ
(:class:`ArrayFactorProgram`; docs/architecture.md §3 has the measurements).
It pays where the flat ℝ triggers do not because its packed operand — the
memoized sibling rows — lives in the probe cache across updates, so
nothing but the delta's own factors is packed per update.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, product, repeat
from typing import List, Optional

import numpy as np

from repro.core.ir import (
    DeltaProgram,
    FactorProgramIR,
    IndexProbe,
    Probe,
    SiblingMerge,
    cache_site,
    reduce_bucket,
)
from repro.core.plan_exec import (
    ProgramLibrary,
    _bind_env,
    _Generated,
    _tuple_display,
)
from repro.data.columnar import ColumnarRelation
from repro.data.relation import DeferredRelation, Relation
from repro.data.relation import float_column_ops as factor_column_ops

__all__ = [
    "KernelDeltaProgram",
    "kernel_delta_program",
    "ArrayFactorProgram",
    "array_factor_program",
    "factor_column_ops",
    "packed_factor",
    "factor_dict",
    "MIN_TRIGGER_ROWS",
    "MIN_VECTOR_ROWS",
]

#: Below this many delta rows the scalar trigger beats the array one:
#: the fixed cost of packing columns outweighs the vectorized arithmetic,
#: and the scalar trigger's lifted-sibling memo shares products between
#: the rows of a small delta.  Read by
#: :class:`~repro.core.engine.FIVMEngine`, which selects per delta;
#: measured on the Retailer cofactor stream (docs/architecture.md §3).
MIN_TRIGGER_ROWS = 24

#: The same crossover for factor programs (:class:`ArrayFactorProgram`),
#: compared with a term's largest factor; measured on the ℝ matrix chain.
MIN_VECTOR_ROWS = 8


class _KernelDelta(Relation):
    """A kernel program's output delta with its packed block attached.

    ``_kernel_packed`` is the reduced packed column aligned with the
    insertion order of ``_data`` — consumed by columnar absorbs and by the
    next kernel gather in the propagation chain (zero-pack passthrough).
    Any mutation invalidates the hint; deltas are normally read-only.
    """

    __slots__ = ("_kernel_packed",)

    def __init__(self, name, schema, ring):
        super().__init__(name, schema, ring)
        self._kernel_packed = None

    def add(self, key, payload):
        """Point write; invalidates the packed column cache."""
        self._kernel_packed = None
        super().add(key, payload)

    def absorb_bulk(self, delta):
        """Bulk absorb; invalidates the packed column cache."""
        self._kernel_packed = None
        super().absorb_bulk(delta)

    def clear(self):
        """Drop contents and the packed column cache."""
        self._kernel_packed = None
        super().clear()


def _storage_signature(targets) -> tuple:
    """Per-target flag: gather row ids (packed columnar) or payloads."""
    return tuple(
        isinstance(target, ColumnarRelation) and target._packed
        for target in targets
    )


def kernel_delta_program(
    ir: DeltaProgram, targets, query, library: Optional[ProgramLibrary] = None
) -> "KernelDeltaProgram":
    """Build the array program for one IR program over a ring with array
    hooks (``query.ring.kernel_ops()`` must not be ``None``; whether the
    array form *pays* for the ring is the engine's question, not asked
    here)."""
    kops = query.ring.kernel_ops()
    columnar = _storage_signature(targets)
    key = ("kernel", ir, columnar)
    generated = library.lookup(key) if library is not None else None
    if generated is None:
        generated = _generate_gather(ir, columnar)
        if library is not None:
            library.store(key, generated)
    env = _bind_env(generated, targets, query)
    return KernelDeltaProgram(
        ir, query, kops, env["_gather"], generated, targets, columnar
    )


def _factor_specs(ir: DeltaProgram, columnar: tuple) -> list:
    """How each factor column is resolved into a packed column at run time:

    * ``("source",)`` — the delta's own payloads (packed, or taken from
      the incoming delta's passthrough block when present);
    * ``("payload",)`` — gathered payload objects, packed per delta;
    * ``("row", i)`` — gathered row ids into target ``i``'s payload block;
    * ``("gid", i, attrs)`` — gathered group ids into the sum block of
      target ``i``'s index on ``attrs``.
    """
    specs = []
    for where, i in ir.accumulate.factors:
        if where == "source":
            specs.append(("source",))
            continue
        op = ir.ops[i]
        if not columnar[op.target]:
            specs.append(("payload",))
        elif op.aggregated and not op.probe_attrs:
            specs.append(("payload",))  # hoisted total: one payload object
        elif op.aggregated and isinstance(op, IndexProbe):
            specs.append(("gid", op.target, op.probe_attrs))
        else:
            specs.append(("row", op.target))
    return specs


def _generate_gather(ir: DeltaProgram, columnar: tuple) -> _Generated:
    """Generate the gather loop: the source backend's probe walk with the
    innermost arithmetic replaced by column appends.

    The generated function takes the delta items plus one bound
    ``list.append`` per column — the output key column first, then one
    column per payload factor, then one per lifting input — so the hot
    loop carries no attribute lookups.  Probes against columnar targets
    walk the row-id maps and append row/group ids (see the module
    docstring); the kernel phase resolves them with array takes.
    """
    kind, idx = ir.source
    ops = ir.ops

    def rname(register: int) -> str:
        """Source name of a key register."""
        return f"r{register}"

    n_factors = len(ir.accumulate.factors)
    n_lifts = len(ir.accumulate.lifts)
    params = ["_items", "_ak"]
    params += [f"_af{j}" for j in range(n_factors)]
    params += [f"_al{j}" for j in range(n_lifts)]
    requests: List[tuple] = []
    lines: List[str] = [f"def _gather({', '.join(params)}):"]

    def emit(depth: int, text: str) -> None:
        """Append one generated source line at ``depth``."""
        lines.append("    " * depth + text)

    for i, op in enumerate(ops):
        if columnar[op.target]:
            requests.append((f"_rows{i}", ("rows", op.target)))
        else:
            requests.append((f"_data{i}", ("data", op.target)))
        if op.aggregated and not op.probe_attrs:
            if columnar[op.target]:
                requests.append((f"_tot{i}", ("total", op.target)))
                emit(1, f"_t{i} = _tot{i}()")
            else:
                emit(1, f"_t{i} = _rsum(_data{i}.values())")
            emit(1, f"if _iszero(_t{i}):")
            emit(2, "return")

    emit(1, "for _key, _psrc in _items:")
    depth = 2
    for position, register in ir.loads:
        emit(depth, f"{rname(register)} = _key[{position}]")

    op_pay = {}
    for i, op in enumerate(ops):
        probe = op.probe_attrs
        col = columnar[op.target]
        if isinstance(op, IndexProbe):
            if col:
                requests.append((f"_gid{i}", ("gids", op.target, probe)))
                requests.append((f"_mem{i}", ("members", op.target, probe)))
                requests.append((f"_ix{i}", ("idxstate", op.target, probe)))
            else:
                requests.append((f"_bkt{i}", ("buckets", op.target, probe)))
                requests.append((f"_sum{i}", ("sums", op.target, probe)))
        probe_key = _tuple_display([rname(r) for r in op.probe_regs])
        if op.aggregated:
            if not probe:
                pass  # hoisted; payload is _t{i}
            elif isinstance(op, Probe):
                source = f"_rows{i}" if col else f"_data{i}"
                emit(depth, f"_t{i} = {source}.get({probe_key})")
                emit(depth, f"if _t{i} is not None:")
                depth += 1
            elif col:
                emit(depth, f"_t{i} = _gid{i}.get({probe_key})")
                emit(
                    depth,
                    f"if _t{i} is not None and not _ix{i}.szero[_t{i}]:",
                )
                depth += 1
            else:
                emit(depth, f"_t{i} = _sum{i}.get({probe_key})")
                emit(depth, f"if _t{i} is not None and not _iszero(_t{i}):")
                depth += 1
            op_pay[i] = f"_t{i}"
        else:
            source = f"_rows{i}" if col else f"_data{i}"
            if isinstance(op, Probe) and probe:
                emit(depth, f"_p{i} = {source}.get({probe_key})")
                emit(depth, f"if _p{i} is not None:")
                depth += 1
            elif isinstance(op, Probe):
                emit(depth, f"for _k{i}, _p{i} in {source}.items():")
                depth += 1
            else:
                bucket_map = f"_mem{i}" if col else f"_bkt{i}"
                emit(depth, f"_b{i} = {bucket_map}.get({probe_key})")
                emit(depth, f"if _b{i}:")
                depth += 1
                emit(depth, f"for _k{i}, _p{i} in _b{i}.items():")
                depth += 1
            for position, register in op.extend:
                emit(depth, f"{rname(register)} = _k{i}[{position}]")
            op_pay[i] = f"_p{i}"

    out_key = _tuple_display([rname(r) for r in ir.accumulate.out_regs])
    emit(depth, f"_ak({out_key})")
    for j, (where, i) in enumerate(ir.accumulate.factors):
        emit(depth, f"_af{j}({'_psrc' if where == 'source' else op_pay[i]})")
    for j, (var, register) in enumerate(ir.accumulate.lifts):
        emit(depth, f"_al{j}({rname(register)})")

    source_text = "\n".join(lines) + "\n"
    code = compile(
        source_text, f"<kernel-gather {ir.node_name}:{kind}{idx}>", "exec"
    )
    return _Generated(code, requests, source_text, ir.out_schema)


class KernelDeltaProgram:
    """A flat delta trigger executed as gather + array kernel."""

    __slots__ = (
        "node_name", "out_schema", "ring", "_kops", "_gather", "_lift_fns",
        "_n_factors", "source_text", "_specs", "_stores",
    )

    def __init__(self, ir, query, kops, gather, generated, targets, columnar):
        self.node_name = ir.node_name
        self.out_schema = ir.out_schema
        self.ring = query.ring
        self._kops = kops
        self._gather = gather
        self._n_factors = len(ir.accumulate.factors)
        lift_table = query.lifting.table()
        self._lift_fns = [lift_table[var] for var, _ in ir.accumulate.lifts]
        #: The generated gather source (debugging and the test suite).
        self.source_text = generated.source_text
        self._specs = _factor_specs(ir, columnar)
        #: Per-factor payload store for row/gid columns (binding the store
        #: object is safe: stores are identity-stable across compaction).
        stores = []
        for spec in self._specs:
            if spec[0] == "row":
                stores.append(targets[spec[1]]._store)
            elif spec[0] == "gid":
                stores.append(targets[spec[1]]._states[spec[2]].sums)
            else:
                stores.append(None)
        self._stores = stores

    def _materialize(self, factor_cols, delta_packed):
        """Resolve row/gid columns to payload objects (scalar fallback)."""
        kops = self._kops
        out_cols = []
        for spec, store, col in zip(self._specs, self._stores, factor_cols):
            if store is not None:
                rows = np.array(col, dtype=np.intp)
                out_cols.append(kops.unpack(store.take(rows)))
            elif spec[0] == "source" and delta_packed is not None:
                rows = np.array(col, dtype=np.intp)
                out_cols.append(kops.unpack(kops.take(delta_packed, rows)))
            else:
                out_cols.append(col)
        return out_cols

    def _finish_scalar(self, keys, factor_cols, lift_cols, out):
        """The exact scalar fold (used when a column cannot pack):
        row-wise reference-order products, per-key contribution lists,
        one ``ring.sum`` per key, zeros dropped."""
        ring = self.ring
        mul = ring.mul
        acc = {}
        lifted_cols = list(zip(self._lift_fns, lift_cols))
        for row, key in enumerate(keys):
            value = None
            for col in factor_cols:
                factor = col[row]
                value = factor if value is None else mul(value, factor)
            lv = None
            for lift, col in lifted_cols:
                term = lift(col[row])
                lv = term if lv is None else mul(lv, term)
            if value is None:
                value = ring.one if lv is None else lv
            elif lv is not None:
                value = mul(value, lv)
            current = acc.get(key)
            if current is None:
                acc[key] = [value]
            else:
                current.append(value)
        rsum = ring.sum
        is_zero = ring.is_zero
        data = out._data
        for key, values in acc.items():
            total = values[0] if len(values) == 1 else rsum(values)
            if not is_zero(total):
                data[key] = total
        return out

    def run(self, delta: Relation) -> Relation:
        """Vectorized trigger execution over ``delta`` (NumPy kernels)."""
        ring = self.ring
        out = _KernelDelta(self.node_name, self.out_schema, ring)
        keys: List[tuple] = []
        factor_cols: List[list] = [[] for _ in range(self._n_factors)]
        lift_cols: List[list] = [[] for _ in range(len(self._lift_fns))]
        appends = [keys.append]
        appends += [col.append for col in factor_cols]
        appends += [col.append for col in lift_cols]
        delta_packed = getattr(delta, "_kernel_packed", None)
        if delta_packed is not None:
            # Zero-pack passthrough: feed row indices as the source
            # "payloads" and take them from the attached block below.
            items = zip(delta._data.keys(), range(len(delta._data)))
        else:
            items = delta._data.items()
        self._gather(items, *appends)
        n = len(keys)
        if n == 0:
            return out
        kops = self._kops
        packed = None
        for spec, store, col in zip(self._specs, self._stores, factor_cols):
            if store is not None:
                p = store.take(np.array(col, dtype=np.intp))
            elif spec[0] == "source" and delta_packed is not None:
                p = kops.take(delta_packed, np.array(col, dtype=np.intp))
            else:
                p = kops.pack(col, n)
                if p is None:  # unpackable batch: exact scalar fallback
                    return self._finish_scalar(
                        keys,
                        self._materialize(factor_cols, delta_packed),
                        lift_cols,
                        out,
                    )
            packed = p if packed is None else kops.mul_packed(packed, p, n)
        pack_lift = getattr(kops, "pack_lift", None)
        for lift, col in zip(self._lift_fns, lift_cols):
            p = pack_lift(lift, col, n) if pack_lift is not None else None
            if p is None:
                p = kops.pack([lift(value) for value in col], n)
            if p is None:  # pragma: no cover - lifts share one layout
                return self._finish_scalar(
                    keys,
                    self._materialize(factor_cols, delta_packed),
                    lift_cols,
                    out,
                )
            # (never the first factor: the delta's own payload always is)
            packed = kops.mul_packed(packed, p, n)
        # Group rows by output key (ids assigned first-seen, so every id in
        # range(n_groups) occurs — the reduce hooks rely on that).
        group_of: dict = {}
        group_ids = np.empty(n, dtype=np.intp)
        unique_keys: List[tuple] = []
        for row, key in enumerate(keys):
            gid = group_of.get(key)
            if gid is None:
                gid = len(unique_keys)
                group_of[key] = gid
                unique_keys.append(key)
            group_ids[row] = gid
        reduced = kops.reduce(packed, group_ids, len(unique_keys))
        zero = kops.zero_mask(reduced)
        if zero.any():
            kept = np.flatnonzero(~zero)
            reduced = kops.take(reduced, kept)
            unique_keys = [unique_keys[i] for i in kept.tolist()]
        payloads = kops.unpack(reduced)
        data = out._data
        for key, payload in zip(unique_keys, payloads):
            data[key] = payload
        out._kernel_packed = reduced if unique_keys else None
        return out


# ----------------------------------------------------------------------
# Array factor programs (the factorized-update path over ℝ)
# ----------------------------------------------------------------------


def packed_factor(factor, kops) -> tuple:
    """A term factor — a dict, or packed already — as ``(key tuple,
    payload column)``."""
    if type(factor) is dict:
        return tuple(factor), kops.pack(list(factor.values()), len(factor))
    return factor


def factor_dict(factor, kops) -> dict:
    """The inverse of :func:`packed_factor`."""
    if type(factor) is dict:
        return factor
    keys, column = factor
    return dict(zip(keys, kops.unpack(column)))


def _merges_packed(op) -> bool:
    """Whether a factor-program op is the matrix–vector shape the array
    form realizes: a memoized partial-match merge of one factor, keyed
    exactly by the probe, whose attributes all sum out inside the merge —
    so the output is keyed by the sibling's surviving extends alone."""
    return (
        isinstance(op, SiblingMerge)
        and op.mode == "memo"
        and len(op.inputs) == 1
        and op.inputs[0].schema == op.probe_attrs
        and op.out.schema == op.kept_extends
        and not op.row_lifts
    )


def array_factor_program(
    ir: FactorProgramIR, targets, query, kops
) -> Optional["ArrayFactorProgram"]:
    """The array form of a factor program over ``kops`` columns
    (:func:`factor_column_ops`), or ``None`` when an op has no array
    realization (see :func:`_merges_packed`; flattens always have one)."""
    if ir.margs or not all(_merges_packed(op) for op in ir.ops):
        return None
    return ArrayFactorProgram(ir, targets, query, kops)


class ArrayFactorProgram:
    """A :class:`~repro.core.ir.FactorProgramIR` executed over packed
    factors — the run contract of
    :class:`~repro.core.plan_exec.FactorProgram` with ``(key tuple,
    column)`` pairs for the factor dicts and a packed
    :class:`~repro.data.relation.DeferredRelation` for the flat dict."""

    __slots__ = (
        "ir", "out_partition", "ring", "_kops", "_lifts", "_merges",
        "_flat_from", "_table",
    )

    def __init__(self, ir, targets, query, kops):
        self.ir = ir
        self.out_partition = ir.out_partition
        self.ring = query.ring
        self._kops = kops
        self._lifts = query.lifting.table()
        #: Per merge: the op, the sibling's bucket index it probes, and
        #: this binding's own probe-cache site (its memo rows are arrays,
        #: the scalar program's are tuples).
        self._merges = []
        for op in ir.ops:
            target = targets[op.target]
            target.register_index(op.probe_attrs)
            self._merges.append(
                (op, target._indexes[op.probe_attrs][1], object())
            )
        if ir.flatten is not None:
            attrs = [a for slot in ir.flatten.inputs for a in slot.schema]
            #: Where each output key component sits in the concatenated
            #: factor keys.
            self._flat_from = [attrs.index(a) for a in ir.flatten.out_keys]
        #: The last flatten's factor key tuples and the output key table
        #: built from them (dense updates present the same keys each time).
        self._table = (None, ())

    def _memo_row(self, op, bucket, slot_of):
        """A sibling bucket reduced to its surviving extends
        (:func:`~repro.core.ir.reduce_bucket`), as the output slots it
        lands on and its payload column."""
        rows = reduce_bucket(bucket, op, self.ring, self._lifts) if bucket else ()
        slots = [slot_of.setdefault(key, len(slot_of)) for key, _ in rows]
        return (
            np.array(slots, dtype=np.intp),
            self._kops.pack([payload for _, payload in rows], len(rows)),
        )

    def _merge(self, op, buckets, site, keys, column):
        """``out[extends] = Σ_key column[key] · sibling[key, extends]``;
        ``None`` when the result is the ring zero."""
        # Besides the memo rows the site holds, under ``None``: the
        # numbering of output keys (first-seen order; it lives and dies
        # with the rows that refer to it) and the rows of the last factor
        # key tuple laid end to end — dense updates present the same keys
        # every time, and then the merge is one grouped sum.
        if not keys:
            return None
        state = site.get(None)
        if state is None:
            state = site[None] = [{}, None, None]
        slot_of = state[0]
        if keys != state[1]:
            rows = list(map(site.get, keys))
            for i, row in enumerate(rows):
                if row is None:
                    rows[i] = site[keys[i]] = self._memo_row(
                        op, buckets.get(keys[i]), slot_of
                    )
            state[1] = keys
            state[2] = (
                np.concatenate([slots for slots, _ in rows]),
                np.concatenate([payloads for _, payloads in rows]),
                np.array([len(slots) for slots, _ in rows]),
            )
        slots, payloads, counts = state[2]
        acc = np.bincount(
            slots, payloads * np.repeat(column, counts), len(slot_of)
        )
        live = ~self._kops.zero_mask(acc)
        if not live.any():
            return None
        if live.all():
            return tuple(slot_of), acc
        return tuple(compress(slot_of, live.tolist())), acc[live]

    def _flatten(self, factors):
        """The factor product as a packed delta in the node's key order."""
        flatten = self.ir.flatten
        key_lists = tuple(keys for keys, _ in factors)
        if key_lists != self._table[0]:
            take = self._flat_from
            self._table = (key_lists, tuple(
                tuple([flat[i] for i in take])
                for flat in map(sum, product(*key_lists), repeat(()))
            ))
        table = self._table[1]
        column = reduce(np.multiply.outer, [col for _, col in factors]).ravel()
        # Products of non-zeros can still cancel: explicit zeros, which
        # neither the packed absorb nor the resolved map lets through.
        column = np.where(self._kops.zero_mask(column), 0.0, column)
        return DeferredRelation(
            self.ir.node_name, flatten.out_keys, self.ring,
            packed=(table, column),
        )

    def run(self, factors, cache):
        """Propagate one rank-1 term's packed factors through the node."""
        ir = self.ir
        slots = {slot.id: factors[i] for i, slot in enumerate(ir.initial_slots)}
        for op, buckets, sentinel in self._merges:
            merged = self._merge(
                op, buckets, cache_site(cache, op.target_name, sentinel),
                *slots[op.inputs[0].id],
            )
            if merged is None:
                return (None, None)
            slots[op.out.id] = merged
        flat = None
        if ir.flatten is not None:
            flat = self._flatten([slots[s.id] for s in ir.flatten.inputs])
        return tuple(slots[s.id] for s in ir.out_slots), flat
