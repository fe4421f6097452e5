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

1. **gather** — the scalar trigger's own probe walk, emitted by
   :func:`~repro.core.plan_exec._emit_trigger` (sink ``"gather"``) and
   compiled once per process, that *defers all ring arithmetic*: instead
   of multiplying payloads it appends, per match row, the output key and
   each payload factor to per-column lists (plus the raw values feeding
   each lifting function);
2. **kernel** — the ring's array hooks (``Ring.kernel_ops``) pack each
   column into NumPy arrays, multiply whole columns at once (for the
   cofactor ring: the vectorized Definition 6.2 formula over one stacked
   ``(n, w)`` block of payload rows), and fold the rows onto their output
   keys with one grouped reduction (``np.bincount`` /
   ``np.add.reduceat``) instead of n-1 ring additions.

Packed passthrough
------------------

A program's *output* is its reduced packed block and its key table (a
packed :class:`~repro.data.relation.DeferredRelation`); no payload object
is built.  When the next trigger on the propagation path runs in array
form too, its gather appends row indices into that block for the delta's
own payloads, and the kernel phase takes them from it with one array
``take``.  Sibling payloads stored in block views
(:class:`~repro.data.relation.BlockRelation`) are gathered the same way:
as row indices into the view's block or its index's sum block.  A block
view absorbs the output as rows.

The two phases compute exactly the scalar semantics: the product order
within a row is the IR's reference order, and regrouping the additions is
sound because ring addition is commutative by the ring axioms.  Rings
without array hooks never reach this module, and every column packs (a
cofactor column of mixed supports is laid out for their union; over
block views the engine's plan sees that no such column arises), so the
array form is always exact, never approximate.

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
    SiblingMerge,
    cache_site,
    reduce_bucket,
)
from repro.core.plan_exec import (
    _base_env,
    _bind_env,
    _emit_trigger,
    _Generated,
    _generated,
)
from repro.data.relation import BlockRelation, DeferredRelation, Relation, _encode
from repro.data.relation import float_column_ops as factor_column_ops

__all__ = [
    "KernelDeltaProgram",
    "kernel_delta_program",
    "ArrayFactorProgram",
    "array_factor_program",
    "factor_column_ops",
    "packed_factors",
    "factor_dicts",
    "MIN_TRIGGER_ROWS",
    "MIN_VECTOR_ROWS",
]

#: Below this many delta rows the scalar trigger beats the array one:
#: the fixed cost of packing columns outweighs the vectorized arithmetic,
#: and the scalar trigger's lifted-sibling memo shares products between
#: the rows of a small delta.  Read by
#: :class:`~repro.core.engine.FIVMEngine`, which selects per delta;
#: measured on the Retailer cofactor stream (docs/architecture.md §3).
MIN_TRIGGER_ROWS = 32

#: The same crossover for factor programs (:class:`ArrayFactorProgram`),
#: compared with a term's largest factor; measured on the ℝ matrix chain.
MIN_VECTOR_ROWS = 8


def kernel_delta_program(ir: DeltaProgram, targets, query) -> "KernelDeltaProgram":
    """Build the array program for one IR program over a ring with array
    hooks (``query.ring.kernel_ops()`` must not be ``None``; whether the
    array form *pays* for the ring is the engine's question, not asked
    here)."""
    blocks = any(isinstance(t, BlockRelation) for t in targets)
    generated = _generated(_generate_gather, ir, blocks)
    return KernelDeltaProgram(
        ir, targets, blocks, query,
        _bind_env(generated, targets, query, _base_env(query.ring)),
        generated,
    )


def _generate_gather(ir: DeltaProgram, blocks: bool = False) -> _Generated:
    """Generate the gather loop: the scalar trigger's probe walk
    (:func:`~repro.core.plan_exec._emit_trigger`, sink ``"gather"``) with
    the innermost arithmetic replaced by column appends.

    The generated function takes the delta items plus one bound
    ``list.append`` per column — the output key column first, then one
    column per payload factor, then one per lifting input — so the hot
    loop carries no attribute lookups.
    """
    kind, idx = ir.source
    params = ["_items", "_ak"]
    params += [f"_af{j}" for j in range(len(ir.accumulate.factors))]
    params += [f"_al{j}" for j in range(len(ir.accumulate.lifts))]
    requests: List[tuple] = []
    lines: List[str] = [f"def _gather({', '.join(params)}):"]

    def emit(depth: int, text: str) -> None:
        """Append one generated source line at ``depth``."""
        lines.append("    " * depth + text)

    _emit_trigger(ir, emit, requests, "gather", blocks=blocks)
    return _Generated(
        lines, requests, ir.out_schema, f"kernel-gather {ir.node_name}:{kind}{idx}"
    )


class KernelDeltaProgram:
    """A flat delta trigger executed as gather + array kernel.

    Its output is packed: a :class:`~repro.data.relation.DeferredRelation`
    over the output keys and their reduced block, with no payload object
    built — the next array program takes the delta's own payloads from
    that block by row index, a block view absorbs it as rows, and only a
    reader of ``_data`` (a scalar trigger, the caller) folds it.
    """

    __slots__ = (
        "node_name", "out_schema", "ring", "_kops", "_gather", "_lift_fns",
        "source_text", "_columns",
    )

    def __init__(self, ir, targets, blocks, query, gather, generated):
        self.node_name = ir.node_name
        self.out_schema = ir.out_schema
        self.ring = query.ring
        self._kops = query.ring.kernel_ops()
        self._gather = gather
        lift_table = query.lifting.table()
        self._lift_fns = [lift_table[var] for var, _ in ir.accumulate.lifts]
        #: The generated gather source (debugging and the test suite).
        self.source_text = generated.source_text
        #: Per factor column, what it holds: ``"source"`` (the delta's
        #: payloads, or row indices into its packed block), ``None``
        #: (payload objects) or the rows (:class:`~repro.data.relation.
        #: _Rows`: a view's block or an index's sums) its indices point
        #: into.
        self._columns = []
        for where, i in ir.accumulate.factors:
            if where == "source":
                self._columns.append("source")
                continue
            op = ir.ops[i]
            target = targets[op.target]
            if not blocks or (op.aggregated and not op.probe_attrs):
                self._columns.append(None)
            elif op.aggregated and isinstance(op, IndexProbe):
                self._columns.append(target._blocks[op.probe_attrs])
            else:
                self._columns.append(target._store)

    def run(self, delta: Relation) -> Relation:
        """Vectorized trigger execution over ``delta`` (NumPy kernels)."""
        keys: List[tuple] = []
        factor_cols: List[list] = [[] for _ in self._columns]
        lift_cols: List[list] = [[] for _ in self._lift_fns]
        appends = [keys.append]
        appends += [col.append for col in factor_cols]
        appends += [col.append for col in lift_cols]
        delta_packed = delta._packed_form
        if delta_packed is not None:
            # Packed passthrough: feed row indices as the source
            # "payloads" and take them from the delta's block below.
            table, delta_packed = delta_packed
            items = zip(table, range(len(table)))
        else:
            items = delta._data.items()
        self._gather(items, *appends)
        n = len(keys)
        if n == 0:
            return Relation(self.node_name, self.out_schema, self.ring)
        kops = self._kops
        columns = []
        for kind, col in zip(self._columns, factor_cols):
            if kind is None or (kind == "source" and delta_packed is None):
                p = kops.pack(col, n)
            else:
                rows = np.fromiter(col, np.intp, n)
                p = (
                    kops.take(delta_packed, rows) if kind == "source"
                    else (kind.block.take(rows, axis=0), kind.support)
                )
            columns.append(p)
        pack_lift = getattr(kops, "pack_lift", None)
        for lift, col in zip(self._lift_fns, lift_cols):
            p = pack_lift(lift, col, n) if pack_lift is not None else None
            columns.append(
                p if p is not None else kops.pack([lift(value) for value in col], n)
            )
        if self.ring.is_commutative and "source" in self._columns:
            # The delta's own column last: δ ⊗ (siblings ⊗ lifts), as the
            # scalar memo multiplies (the narrower intermediate).
            columns.append(columns.pop(self._columns.index("source")))
        packed = reduce(lambda a, b: kops.mul_packed(a, b, n), columns)
        # Group rows by output key (ids assigned first-seen, so every id in
        # range(n_groups) occurs — the reduce hooks rely on that).  When
        # every key is distinct the ids are 0..n-1 and the fold is the
        # identity.
        unique_keys, group_ids = _encode(keys, n)
        reduced = (
            packed if len(unique_keys) == n
            else kops.reduce(packed, group_ids, len(unique_keys))
        )
        zero = kops.zero_mask(reduced)
        if zero.any():
            kept = np.flatnonzero(~zero)
            if not kept.size:
                return Relation(self.node_name, self.out_schema, self.ring)
            reduced = kops.take(reduced, kept)
            unique_keys = [unique_keys[i] for i in kept.tolist()]
        return DeferredRelation(
            self.node_name, self.out_schema, self.ring,
            packed=(unique_keys, reduced),
        )


# ----------------------------------------------------------------------
# Array factor programs (the factorized-update path over ℝ)
# ----------------------------------------------------------------------


def packed_factors(factors, kops) -> tuple:
    """Term factor dicts as ``(key tuples, payload columns)``."""
    return [tuple(f) for f in factors], [
        kops.pack(list(f.values()), len(f)) for f in factors
    ]


def factor_dicts(keys, columns, kops) -> list:
    """The inverse of :func:`packed_factors`."""
    return [dict(zip(k, kops.unpack(c))) for k, c in zip(keys, columns)]


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
    :class:`~repro.core.plan_exec.FactorProgram` with the factors' key
    tuples and columns for the factor dicts and a packed
    :class:`~repro.data.relation.DeferredRelation` for the flat dict."""

    __slots__ = (
        "ir", "out_partition", "ring", "_kops", "_lifts", "_merges", "_out",
        "_flat", "_flat_from", "_table",
    )

    def __init__(self, ir, targets, query, kops):
        self.ir = ir
        self.out_partition = ir.out_partition
        self.ring = query.ring
        self._kops = kops
        self._lifts = query.lifting.table()
        #: Where each slot sits in a run's lists: the incoming factors,
        #: then each merge's output.
        at = {slot.id: i for i, slot in enumerate(ir.initial_slots)}
        #: Per merge: the op, its input's position, the sibling's bucket
        #: index it probes, and the probe-cache view and site it keeps its
        #: memo rows in (its own site: they are arrays, the scalar
        #: program's are tuples).
        self._merges = []
        for op in ir.ops:
            target = targets[op.target]
            target.register_index(op.probe_attrs)
            self._merges.append((
                op, at[op.inputs[0].id], target._indexes[op.probe_attrs][1],
                op.target_name, object(),
            ))
            at[op.out.id] = len(at)
        self._out = [at[s.id] for s in ir.out_slots]
        self._flat = None
        if ir.flatten is not None:
            self._flat = [at[s.id] for s in ir.flatten.inputs]
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

    def _gather(self, op, buckets, site, keys):
        """The site's state with the rows of factor key tuple ``keys``
        gathered: ``[numbering of output keys, keys, block, output key
        tuple]``, kept in the site under ``None``."""
        # The numbering is first-seen order (it lives and dies with the
        # memo rows that refer to it); the block is zero-filled, one line
        # per factor key and one column per output key, so the merge is
        # a vector–matrix contraction.  Dense updates present the same
        # keys every time.
        state = site.get(None)
        if state is None:
            state = site[None] = [{}, None, None, ()]
        if keys != state[1]:
            slot_of = state[0]
            rows = list(map(site.get, keys))
            for i, row in enumerate(rows):
                if row is None:
                    rows[i] = site[keys[i]] = self._memo_row(
                        op, buckets.get(keys[i]), slot_of
                    )
            state[1] = keys
            # A row's slots are distinct, so row i scatters into line i.
            block = state[2] = np.zeros((len(rows), len(slot_of)))
            block[
                np.arange(len(rows)).repeat([len(slots) for slots, _ in rows]),
                np.concatenate([slots for slots, _ in rows]),
            ] = np.concatenate([payloads for _, payloads in rows])
        return state

    def _flatten(self, keys, columns):
        """The factor product as a packed delta in the node's key order."""
        key_lists = tuple(keys)
        # Tuple comparison tests each factor's key table by identity
        # first: the merges and full-support vectors keep theirs.
        if key_lists != self._table[0]:
            take = self._flat_from
            self._table = (key_lists, tuple(
                tuple([flat[i] for i in take])
                for flat in map(sum, product(*key_lists), repeat(()))
            ))
        column = reduce(np.multiply.outer, columns).ravel()
        # Products of non-zeros can still cancel: explicit zeros, which
        # neither the packed absorb nor the resolved map lets through.
        zero = self._kops.zero_mask(column)
        if np.count_nonzero(zero):
            column = np.where(zero, 0.0, column)
        return DeferredRelation(
            self.ir.node_name, self.ir.flatten.out_keys, self.ring,
            packed=(self._table[1], column),
        )

    def run(self, keys, columns, cache):
        """Propagate one rank-1 term through the node: its factors' key
        tuples and columns, aligned with the partition (the lists grow by
        the merges' outputs), to the outgoing ones and the flattened
        delta; ``(None, None, None)`` when a merge is the ring zero."""
        zero_mask = self._kops.zero_mask
        for op, at, buckets, view, sentinel in self._merges:
            site = cache_site(cache, view, sentinel)
            state = site.get(None)
            factor_keys = keys[at]
            if state is None or factor_keys is not state[1]:
                if not factor_keys:
                    return None, None, None
                state = self._gather(op, buckets, site, factor_keys)
            slot_of = state[0]
            if not slot_of:  # no row at the site has a surviving extend
                return None, None, None
            # out[extends] = Σ_key column[key] · sibling[key, extends]
            acc = np.einsum("i,ij->j", columns[at], state[2])
            zero = zero_mask(acc)
            dead = np.count_nonzero(zero)
            if not dead:
                if len(state[3]) != len(slot_of):
                    state[3] = tuple(slot_of)
                keys.append(state[3])
            elif dead == len(acc):
                return None, None, None
            else:
                live = ~zero
                keys.append(tuple(compress(slot_of, live.tolist())))
                acc = acc[live]
            columns.append(acc)
        flat = self._flat
        if flat is not None:
            flat = self._flatten(
                [keys[i] for i in flat], [columns[i] for i in flat]
            )
        out = self._out
        return [keys[i] for i in out], [columns[i] for i in out], flat
