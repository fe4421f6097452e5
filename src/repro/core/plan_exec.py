"""Source codegen: IR delta programs as generated Python triggers.

The engine lowers every delta plan to the typed IR of
:mod:`repro.core.ir`; this module turns an IR program into a specialized
Python trigger in the style of DBToaster's generated code — the scalar
form every engine builds for every entry point:

* every IR register becomes a local ``r<i>`` of the generated function
  (the lowering already withheld registers from dead attributes);
* each :class:`~repro.core.ir.Probe` / :class:`~repro.core.ir.IndexProbe`
  becomes a direct dictionary ``get`` against the target relation's
  primary map or the bucket/sum dicts of its registered secondary index
  (no method dispatch, no projector call: the probe subkey is built from
  registers with a tuple display);
* aggregated probes read the index's per-bucket ring sum; a whole-target
  collapse (no shared attributes) is loop-invariant and hoisted out of
  the delta loop entirely;
* the :class:`~repro.core.ir.Accumulate` payload product is unrolled in
  the IR's reference factor order, so non-commutative rings (matrix
  payloads) see the same product as the interpreter backend;
* the output accumulates into a plain dict with the ring's ``add`` bound
  to a global of the generated function; zero payloads are dropped in one
  sweep at the end instead of being tested per accumulation.

Over block views (the cofactor ring) the triggers are in **row form**
(:func:`_emit_trigger`): they read a packed delta's block, or each
payload's row, multiply float64 rows through term tables fixed at
planning, and return a packed delta (:meth:`SlotProgram.output`).

Binding the index dictionaries at compile time is sound because the engine
creates all view/indicator relations before compiling and ``Relation``
mutates its primary map and index dicts strictly in place (``clear``
empties them, it never replaces them).

The IR interpreter remains available via
``FIVMEngine(backend="interpreter")`` as the executable reference
semantics; the differential tests hold the generated triggers (and full
recomputation) key-for-key equal to it across rings.

Factor programs
---------------

:func:`compile_factor_program` generates the factorized trigger from a
:class:`~repro.core.ir.FactorProgramIR`, op for op:

* each :class:`~repro.core.ir.SiblingMerge` becomes one fused loop nest —
  the sharing factors are iterated (they are tiny delta vectors), the
  sibling is probed through its primary map or a registered secondary
  index, and variables whose coverage completes inside the merge are
  marginalized on the fly (the compiled ``join_project``);
* a :class:`~repro.core.ir.AppendSibling` aliases the stored sibling's
  primary map — read-only, never copied;
* leftover :class:`~repro.core.ir.Marginalize` ops are fused per factor
  into one grouped pass;
* a :class:`~repro.core.ir.Flatten` materializes the factor product into
  a fresh delta dict in the node's key order (zero products dropped —
  truncating rings can cancel inside a product).

**Shared probe results.**  The probe memos are decided at lowering time
(the op ``mode``, see :mod:`repro.core.ir`), so the generated code shares
them with every other backend: ``"cached"`` collapses memoize the folded
bucket sum, ``"memo"`` partial-match probes memoize the bucket reduced to
its surviving extends, and pristine marginalizations memoize the whole
collapse — all in the caller-supplied probe cache
(``cache[view_name][site][subkey]``), which the engine shares across the
terms of an update, the relations of one ``apply_batch`` pass, and
consecutive updates, and invalidates per view write.

Factorized updates require a commutative ring, so the generated code is
free to reorder and pre-aggregate payload products; accumulation still
goes through per-key contribution lists folded by ``ring.sum``
(vectorized for the degree and product rings).

Generation vs binding (code compiled once per process)
------------------------------------------------------

Compilation is split in two stages:

* **generation** walks the IR and emits the trigger *source text* plus a
  list of :class:`environment requests <_Generated>` — symbolic
  descriptions ("the primary map of target 2", "the bucket dict of target
  0's index on (A, B)", "a fresh cache-site sentinel") of every
  target-derived global the code needs — and compiles it.  It reads the
  IR alone (target *schemas and names*, never live relation state; the
  ring and the lifting functions are bound, not generated), so the code
  is valid for every engine whose planner lowered the same IR;
* **binding** realizes the requests against one engine's actual stored
  relations (registering any secondary index a probe needs) and execs
  the compiled code object with those globals — dictionaries stay bound
  directly in the trigger's globals, so the run-time fast path pays no
  indirection.  The function is then taken out of its own globals, so a
  dropped engine's triggers are freed by reference counting, not left as
  cyclic garbage.

Every generator is memoized per IR (IR is hashable plain data) in one
bounded process-wide LRU (:func:`_generated`, :data:`CODE_CACHE_SIZE`
entries): shard engines, multi-view registrations and repeated set-ups of
one query compile each trigger once per process and each bind their own
copy.

Paths
-----

:func:`compile_path` generates one function per updatable relation, for
a delta of any number of rows: the leaf write, then per node the scalar
trigger's body over the rows in hand, their sums per key (zero sums
dropped) and their writes into the node's view (the fault hook and the
probe-cache pop included).  It builds no relation but the root delta.
Over block views the path is in row form too.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.ir import (
    DeltaProgram,
    FactorProgramIR,
    IndexProbe,
    Probe,
    SiblingMerge,
    cache_site,
)
from repro.data.relation import BlockRelation, DeferredRelation, Relation
from repro.rings.cofactor import CofactorKernelOps

__all__ = [
    "SlotProgram",
    "compile_slot_program",
    "FactorProgram",
    "compile_factor_program",
    "PathIR",
    "compile_path",
    "canonical_partition",
    "CODE_CACHE_SIZE",
]

#: Generated programs kept by the process-wide code cache.  Distinct
#: programs one e2e workload's set-up generates, counted in a fresh
#: process: ``multiview_n100`` 122 (its 100 registrations; 404 more
#: requests hit), ``retailer_b600`` 25, ``retailer_b1`` 18 (13 triggers,
#: 5 paths), ``join_factorized`` 12.  The bound is about eight times the
#: largest; past it the least recently used code is compiled again on
#: its next use, which costs time, not correctness.
CODE_CACHE_SIZE = 1024


def canonical_partition(partition: Sequence[Tuple[str, ...]]) -> tuple:
    """Sort factor schemas into the canonical (lexicographic) order.

    Returns ``(sorted_partition, permutation)`` where ``permutation[i]`` is
    the index in the *original* partition of the i-th canonical factor.
    Factor programs are cached per partition; canonicalizing first means
    permuted factor orders of the same decomposition — which are semantically
    identical on the (required) commutative ring — hit one compiled program
    instead of compiling duplicates.
    """
    order = sorted(range(len(partition)), key=lambda i: partition[i])
    return tuple(partition[i] for i in order), tuple(order)


class _Generated:
    """The shareable half of a compiled trigger: code + environment requests.

    ``requests`` is a list of ``(global_name, spec)`` pairs where ``spec``
    describes how to realize the binding against live targets:

    * ``("data", i)`` — the primary map of target ``i``;
    * ``("buckets", i, attrs)`` / ``("sums", i, attrs)`` — the bucket/sum
      dicts of target ``i``'s secondary index on ``attrs`` (registered at
      bind time when missing);
    * ``("lift", var)`` — the query's lifting function for ``var``;
    * ``("sentinel",)`` — a fresh per-binding cache-site identity;
    * ``("memo",)`` — a fresh per-binding lifted-sibling memo dict (see
      :func:`_generate_slot`).

    Over block views (:data:`_BLOCK_REQUESTS`) the triggers request rows
    instead; in row form also ``("liftrow", var)``, the lift's row
    function, and ``("const", value)``: a constant of the code (the row
    form's term tables and supports).

    A path (:func:`compile_path`) requests ``("view", i)`` — the
    ``i``-th stored view on the path (0 the leaf) — or its bound
    :meth:`Relation._put`, ``("put", i)``, and ``("step", i, name)``:
    global ``name`` of the ``i``-th step's bound trigger; in row form
    also ``("layout", i)``, the support view ``i`` is laid out for.

    ``meta`` carries the program-class payload (the output schema and, in
    row form, support for slot programs, the outgoing factor partition
    for factor programs, a path's constants).
    ``name`` is the one function the code defines.  Construction compiles
    the source; :func:`_generated` makes that happen once per process.
    """

    __slots__ = ("code", "requests", "source_text", "meta", "name")

    def __init__(self, lines, requests, meta, label):
        self.source_text = "\n".join(lines) + "\n"
        self.code = compile(self.source_text, f"<{label}>", "exec")
        self.requests = requests
        self.meta = meta
        self.name = lines[0][4:lines[0].index("(")]


@lru_cache(maxsize=CODE_CACHE_SIZE)
def _generated(generate, ir, *layout) -> _Generated:
    """``generate(ir, *layout)``, memoized process-wide: the one code
    cache every generator (slot, factor, gather, path) goes through.
    ``layout`` is what the code depends on beside the IR: a trigger's
    planned supports, or whether a gather's targets are block views."""
    return generate(ir, *layout)


def _base_env(ring) -> dict:
    """The globals every generated program binds: the ring's operations
    (over a block-view ring also its payload constructor and what the row
    form computes with)."""
    env = {
        "_mul": ring.mul,
        "_add": ring.add,
        "_neg": ring.neg,
        "_one": ring.one,
        "_iszero": ring.is_zero,
        "_rsum": ring.sum,
        "_zero": ring.zero,
        "_NONE": (None, None),
        "_finalize": _make_finalize(ring.sum, ring.is_zero),
        "_site": cache_site,
    }
    kops = ring.kernel_ops()
    if getattr(kops, "block_views", False):
        env.update(
            _payload=kops.payload, _tol=kops.tolerance, _abs=np.abs,
            _reduceat=np.add.reduceat,
        )
    return env


def _exec(generated: _Generated, env: dict):
    """Exec the code in ``env`` and return its function, removed from the
    globals it closes over (no function is recursive): the function ↔
    globals cycle would otherwise keep a dropped engine's views alive
    until a full collection."""
    exec(generated.code, env)
    return env.pop(generated.name)


#: How a request against a block view (:class:`BlockRelation`) binds:
#: its key table (key → row), its total (a payload, or a row), per index
#: the buckets (key → row) and sums (subkey → row of its block, kept from
#: this request on), and the row copies cached for the triggers
#: (:class:`~repro.data.relation._Rows`), the view's or, given ``at``, an
#: index's sums', and their reader.
_BLOCK_REQUESTS = {
    "rows": lambda view: view._slot,
    "total": lambda view: view.total,
    "rowtotal": lambda view: lambda: view.total().row,
    "rowbuckets": lambda view, attrs: view._blocks[attrs].buckets,
    "rowsums": lambda view, attrs: view._blocks[attrs].keep_sums(),
    "cache": lambda view, *at: (view._blocks[at[0]] if at else view._store).cache,
    "read": lambda view, *at: (view._blocks[at[0]] if at else view._store).read,
}


def _bind_env(generated: _Generated, targets, query, env: dict):
    """Realize a generated program's environment against live targets.

    ``env`` is the program's own copy of :func:`_base_env`, which this
    fills.  Registers any secondary index the requests name (idempotent),
    then execs the code object so the trigger's globals point straight at
    this engine's dictionaries.  Returns the function; its ``__globals__``
    is the environment.
    """
    lift_table = query.lifting.table()
    for name, spec in generated.requests:
        kind = spec[0]
        if kind in _BLOCK_REQUESTS:
            target = targets[spec[1]]
            if len(spec) > 2:
                target.register_index(spec[2])
            env[name] = _BLOCK_REQUESTS[kind](target, *spec[2:])
        elif kind == "data":
            env[name] = targets[spec[1]]._data
        elif kind == "buckets":
            target = targets[spec[1]]
            target.register_index(spec[2])
            env[name] = target._indexes[spec[2]][1]
        elif kind == "sums":
            target = targets[spec[1]]
            target.register_index(spec[2])
            env[name] = target._indexes[spec[2]][2]
        elif kind == "lift":
            env[name] = lift_table[spec[1]]
        elif kind == "liftrow":
            env[name] = lift_table[spec[1]].rows
        elif kind == "const":
            env[name] = spec[1]
        elif kind == "sentinel":
            env[name] = object()
        elif kind == "memo":
            env[name] = {}
        else:  # pragma: no cover - generator/binder contract guard
            raise ValueError(f"unknown environment request {spec!r}")
    return _exec(generated, env)


_row = attrgetter("row")


class SlotProgram:
    """A compiled delta trigger for one ``(node, source)`` IR program."""

    __slots__ = (
        "node_name", "out_schema", "ring", "_fn", "source_text", "memo_sites",
        "layout", "_support",
    )

    def __init__(
        self, node_name, out_schema, ring, fn, source_text, memo_sites,
        layout, support,
    ):
        self.node_name = node_name
        self.out_schema = out_schema
        self.ring = ring
        self._fn = fn
        #: The generated Python source (for debugging and the test suite).
        self.source_text = source_text
        #: Site (``"node:child0"``) → ``(memo dict, sibling relation)`` of
        #: a trigger that keeps a lifted-sibling memo, else empty.  The
        #: dict holds strong references to sibling payloads (rows); the
        #: engine owns its lifetime.
        self.memo_sites = memo_sites
        #: The planned supports the code is in row form for
        #: (:func:`_emit_trigger`), ``None`` outside it; and the output's.
        self.layout = layout
        self._support = support

    def run(self, delta: Relation) -> Relation:
        """Evaluate the node's delta view for ``delta`` entering at the
        compiled source; returns a fresh relation over the node's keys.

        The trigger collects per-key contribution lists; they are summed
        in one ``ring.sum`` per key and zero totals dropped in a final
        sweep (the interpreter's eager per-``add`` zero test, deferred).
        In row form it reads a packed delta's block, or each payload's
        ``row``, and returns a packed delta (:meth:`output`).
        """
        out: dict = {}
        packed = delta._packed_form
        if self.layout is None:
            self._fn(delta._data.items(), out)
            if out:
                self._fn.__globals__["_finalize"](out)
        elif packed is not None:
            self._fn(zip(packed[0], packed[1][0]), out)
        else:
            self._fn(zip(delta._data, map(_row, delta._data.values())), out)
        return self.output(out)

    def output(self, out: dict) -> Relation:
        """The node's delta for what the trigger collected: ``out``'s
        payloads, folded, outside the row form.  In it, per key its
        contribution rows: each key's summed, those whose sum is zero
        (the test :meth:`BlockRelation._write` makes) dropped, the rest
        stacked into one packed delta ``(keys, (block, support))``."""
        if self.layout is not None:
            tolerance = self.ring.kernel_ops().tolerance
            keys, rows = [], []
            for key, parts in out.items():
                row = parts[0] if len(parts) == 1 else np.add.reduce(parts)
                if abs(row[0]) > tolerance or (np.abs(row) > tolerance).any():
                    keys.append(key)
                    rows.append(row)
            if keys:
                block = np.array(rows) if len(rows) != 1 else rows[0][None]
                return DeferredRelation(
                    self.node_name, self.out_schema, self.ring,
                    packed=(keys, (block, self._support)),
                )
            out = {}
        rel = Relation(self.node_name, self.out_schema, self.ring)
        rel._data = out
        return rel


def _tuple_display(registers: Sequence[str]) -> str:
    """Source text for a tuple built from registers (incl. 0/1-ary forms)."""
    if not registers:
        return "()"
    if len(registers) == 1:
        return f"({registers[0]},)"
    return "(" + ", ".join(registers) + ")"


def compile_slot_program(
    ir: DeltaProgram, targets, query, base: dict,
    layout: Optional[tuple] = None,
) -> SlotProgram:
    """Compile one IR delta program into a :class:`SlotProgram`.

    ``targets`` are the stored relations the IR's probes read, aligned with
    the ops' ``target`` indices.  Any secondary index a probe needs is
    registered at bind time (idempotent — the engine already registers them
    while planning).  ``base`` is the ring's :func:`_base_env`, built once
    per engine and copied here.  ``layout`` puts the code in row form
    (:func:`_emit_trigger`).  The code comes from the process-wide cache;
    only the environment binding is per-engine.
    """
    generated = _generated(_generate_slot, ir, layout)
    fn = _bind_env(generated, targets, query, dict(base))
    memo = ir.accumulate.memo
    return SlotProgram(
        ir.node_name, ir.out_schema, query.ring, fn, generated.source_text,
        {} if memo is None else {
            f"{ir.node_name}:{ir.source[0]}{ir.source[1]}":
                (fn.__globals__["_memo"], targets[ir.ops[memo].target])
        },
        layout, generated.meta,
    )


def _generate_slot(
    ir: DeltaProgram, layout: Optional[tuple] = None) -> _Generated:
    """Generate the slot-program source and environment requests from IR
    and the targets' layout (no live relation state is read — see the
    module docstring).  ``meta`` is the output's support (``None``
    outside the row form)."""
    kind, idx = ir.source
    requests: List[tuple] = []
    lines: List[str] = ["def _trigger(_items, _out):"]

    def emit(depth: int, text: str) -> None:
        """Append one generated source line at ``depth``."""
        lines.append("    " * depth + text)

    support = _emit_trigger(ir, emit, requests, "rows", layout=layout)
    return _Generated(
        lines, requests, support, f"slot-program {ir.node_name}:{kind}{idx}"
    )


def _point(ir: DeltaProgram) -> bool:
    """Whether the trigger runs no loop per delta row — every probe a
    point lookup or a bucket sum — so one row yields at most one output
    row, which a path takes on in place (:func:`_generate_path`)."""
    return all(
        op.aggregated or (isinstance(op, Probe) and op.probe_attrs)
        for op in ir.ops
    )


def _zero(value: str, rows: bool) -> str:
    """Source of the test that ``value`` is the ring zero (over a row: the
    test :meth:`BlockRelation._write` makes)."""
    if rows:
        return f"abs({value}[0]) <= _tol and not (_abs({value}) > _tol).any()"
    return f"_iszero({value})"


def _emit_trigger(
    ir: DeltaProgram, emit, requests, sink: str, tag: str = "",
    blocks: bool = False, layout: Optional[tuple] = None, head=None,
):
    """Emit a scalar trigger body: the probes, the payload product and
    where it goes.

    The body runs per ``(key, payload)`` row of ``_items`` in its own
    loop, or, given ``head``, in a path's, ahead of which ``head(line)``
    puts the hoisted sums.  ``sink`` is ``"rows"`` (collect per-key
    contributions in ``_out``: lists, in a path their sums),
    ``"point"`` (a :func:`_point` body in a path: a failed probe or a
    zero product skips the row, the output row is left in ``(_key,
    _psrc)``) or ``"gather"`` (the array form's, :mod:`repro.core.kernels`:
    no ring arithmetic — per match it appends the output key, each
    payload factor and each lifting input to the columns ``_ak``,
    ``_af<j>``, ``_al<j>``; the lifted-sibling memo is ignored).  ``tag``
    suffixes every requested global and hoisted sum, so several bodies
    can share one function.  Over block views (``blocks``) a gather binds
    the row index itself — key table, bucket or sum row — which the
    kernel phase takes from the block.

    ``layout``, planned — ``(source support, per-target supports,
    per-lift supports)`` — puts a body over block views in **row form**:
    ``_psrc``, the probed payloads and the products are float64 rows.  A
    probe reads the view's row for the key, a copy cached until the key's
    next write (:class:`~repro.data.relation.BlockRelation`).  A product
    gathers through its supports' term table, a constant of the code
    (``_v = _v[_ia]; _v *= _tl[_ib]``, reduced where the supports
    overlap); a count-only operand scales the other, or passes it on at
    count 1 unless it is a probed row.  Returns the output's support
    (``None`` outside the row form).
    """
    ops = ir.ops
    point = sink == "point"
    gather = sink == "gather"
    rows = layout is not None
    blocks = blocks or rows  # the row form is over block views

    def rname(register: int) -> str:
        """Source name of a key register."""
        return f"r{register}"

    def glob(name: str, spec: tuple) -> str:
        """Request a global for this body; returns its source name."""
        requests.append((name + tag, spec))
        return name + tag

    depth = 1

    def guard(test: str, fail: str) -> None:
        """Continue only where ``test`` holds: nest under it, or — for a
        point body — skip the row where ``fail`` (its negation) holds."""
        nonlocal depth
        if point:
            emit(depth, f"if {fail}:")
            emit(depth + 1, "continue")
        else:
            emit(depth, f"if {test}:")
            depth += 1

    def mul(dest: str, a: tuple, b: tuple) -> tuple:
        """Emit ``dest = a ⊗ b`` over operands ``(source, support, may be
        passed on)``; returns the product as one."""
        (ea, sa, _), (eb, sb, _) = a, b
        if not rows:
            emit(depth, f"{dest} = _mul({ea}, {eb})")
            return (dest, None, True)
        if not sb or not sa:
            # As ``mul``: a count-only b scales a, else a count-only a b.
            (ek, sk, pk), es = (a, eb) if not sb else (b, ea)
            emit(depth, f"{dest} = {ek} if {es}[0] == 1.0 else {ek} * {es}"
                 if pk else f"{dest} = {ek} * {es}")
            return (dest, sk, True)
        n = len(requests)
        union, ia, ib, starts = CofactorKernelOps.terms(sa, sb)
        emit(depth, f"{dest} = {ea}[{glob(f'_ia{n}', ('const', ia))}]")
        emit(depth, f"{dest} *= {eb}[{glob(f'_ib{n}', ('const', ib))}]")
        if starts is not None:  # the supports overlap
            starts = glob(f"_st{n}", ("const", starts))
            emit(depth, f"{dest} = _reduceat({dest}, {starts})")
        return (dest, union, True)

    # Hoist loop-invariant group-aware probes (no shared attributes): the
    # whole sibling collapses to one ring sum, computed once per trigger.
    data = [
        glob(f"_data{i}", ("rows" if blocks else "data", op.target))
        for i, op in enumerate(ops)
    ]
    for i, op in enumerate(ops):
        if op.aggregated and not op.probe_attrs:
            total = "rowtotal" if rows else "total"
            (head or partial(emit, 1))(f"_h{i}{tag} = " + (
                f"{glob(f'_tot{i}', (total, op.target))}()" if blocks
                else f"_rsum({data[i]}.values())"))
            if head is None:
                emit(1, f"if {_zero(f'_h{i}{tag}', rows)}:")
                emit(2, "return")

    def fetch(i: int, var: str, key: str, table: str, spec: tuple,
              at: Optional[str] = None) -> None:
        """``var`` := ``key``'s payload in ``table`` (``None`` if absent);
        in row form its row: the copy cached in the row store ``spec``
        names, else row ``at`` (or ``table``'s) copied and cached."""
        if not rows:
            emit(depth, f"{var} = {table}.get({key})")
            return
        emit(depth, f"{var} = {glob(f'_rc{i}', ('cache',) + spec)}.get({key})")
        emit(depth, f"if {var} is None:")
        reader = glob(f"_rr{i}", ("read",) + spec)
        if at is None:
            emit(depth + 1, f"_j{i} = {table}.get({key})")
            emit(depth + 1, f"if _j{i} is not None:")
            emit(depth + 2, f"{var} = {reader}({key}, _j{i})")
        else:
            emit(depth + 1, f"{var} = {reader}({key}, {at})")

    if head is None:
        emit(1, "for _key, _psrc in _items:")
    depth = 2
    for position, register in ir.loads:
        emit(depth, f"{rname(register)} = _key[{position}]")

    memo = None if gather else ir.accumulate.memo
    op_pay: Dict[int, str] = {}
    for i, op in enumerate(ops):
        probe = op.probe_attrs
        if isinstance(op, IndexProbe):  # its bucket sums, or its buckets
            name, kind = ("_sum", "sums") if op.aggregated else ("_bkt", "buckets")
            index = glob(f"{name}{i}", (
                ("row" if blocks else "") + kind, op.target, probe))
        probe_key = _tuple_display([rname(r) for r in op.probe_regs])
        if rows and probe and i != memo and (
                op.aggregated or isinstance(op, Probe)):
            emit(depth, f"_q{i} = {probe_key}")
            probe_key = f"_q{i}"
        if op.aggregated:
            if not probe:  # hoisted above the delta loop
                if head is not None:
                    test = _zero(f"_h{i}{tag}", rows)
                    guard(f"not ({test})" if rows else f"not {test}", test)
            elif isinstance(op, Probe):
                # Full-key probe: the stored payload *is* the bucket sum
                # (primary-map entries are never zero).
                if i == memo:
                    emit(depth, f"_pk = {probe_key}")
                    probe_key = "_pk"
                fetch(i, f"_t{i}", probe_key, data[i], (op.target,))
                guard(f"_t{i} is not None", f"_t{i} is None")
            else:
                # Bucket sums may hold cancelled zeros; test them (a
                # gather's sum row that cancelled contributes zeros).
                fetch(i, f"_t{i}", probe_key, index, (op.target, probe))
                test = _zero(f"_t{i}", rows)
                if gather and blocks:
                    guard(f"_t{i} is not None", f"_t{i} is None")
                else:
                    guard(
                        f"_t{i} is not None and not "
                        + (f"({test})" if rows else test),
                        f"_t{i} is None or {test}",
                    )
            op_pay[i] = f"_h{i}{tag}" if not probe else f"_t{i}"
        else:
            if isinstance(op, Probe) and probe:
                fetch(i, f"_p{i}", probe_key, data[i], (op.target,))
                guard(f"_p{i} is not None", f"_p{i} is None")
            else:
                if isinstance(op, Probe):
                    emit(depth, f"for _k{i}, _{'j' if rows else 'p'}{i}"
                         f" in {data[i]}.items():")
                else:
                    emit(depth, f"_b{i} = {index}.get({probe_key})")
                    emit(depth, f"if _b{i}:")
                    depth += 1
                    emit(depth, f"for _k{i}, _{'j' if rows else 'p'}{i}"
                         f" in _b{i}.items():")
                depth += 1
                if rows:
                    fetch(i, f"_p{i}", f"_k{i}", None, (op.target,), f"_j{i}")
            for position, register in op.extend:
                emit(depth, f"{rname(register)} = _k{i}[{position}]")
            op_pay[i] = f"_p{i}"
        # For non-aggregated Probe-with-full-key the key var is the subkey
        # itself; extends there are impossible (nothing new to bind) except
        # through the scan form, which binds _k{i}.

    # Innermost body: the payload product in the IR's reference order.  The
    # lift factors are folded together *first* and multiplied onto the
    # payload once: by associativity ``(v·l₁)·l₂ = v·(l₁·l₂)`` (order
    # preserved, so non-commutative rings are safe), and the intermediate
    # lift products stay small while the accumulated payload is the big one.
    source, supports, lifted = layout or (None, [None] * len(ops), None)
    operands = {"_psrc": ("_psrc", source, True)}
    for i, op in enumerate(ops):
        operands[op_pay[i]] = (op_pay[i], supports[op.target], False)
    factors = [
        "_psrc" if where == "source" else op_pay[i]
        for where, i in ir.accumulate.factors
    ]
    out_key = _tuple_display([rname(r) for r in ir.accumulate.out_regs])
    if gather:
        emit(depth, f"_ak({out_key})")
        for j, factor in enumerate(factors):
            emit(depth, f"_af{j}({factor})")
        for j, (var, register) in enumerate(ir.accumulate.lifts):
            emit(depth, f"_al{j}({rname(register)})")
        return None

    def lift_lines() -> None:
        """``_lv`` := the product of the lifts."""
        for j, (var, register) in enumerate(ir.accumulate.lifts):
            fn = glob(f"_lift{j}", ("liftrow" if rows else "lift", var))
            lift = (f"{fn}({rname(register)})", lifted and lifted[j], True)
            if j:
                operands["_lv"] = mul("_lv", operands["_lv"], lift)
            else:
                emit(depth, f"_lv = {lift[0]}")
                operands["_lv"] = ("_lv",) + lift[1:]

    gathered = None  # the memo's term table, where it keeps rows gathered
    if memo is None:
        lift_lines()
        if ir.accumulate.lifts:
            factors.append("_lv")
    else:
        # Lifted-sibling memo (``Accumulate.memo``): ``sibling ⊗ lifts``
        # is kept per probe key as ``(payload, product)``.  Payloads are
        # immutable and every absorb installs a new object (a block
        # view's cached row is dropped), so an entry is valid iff it holds
        # the very payload just probed — no invalidation hook.  A product
        # is admitted on the second sighting of one payload (the first
        # leaves ``id(payload)``: a sibling rewritten between probes costs
        # a marker, not a block), and a site outgrowing twice its
        # sibling's live keys starts over.  In row form both are rows; where
        # the product with ``_psrc`` is over disjoint supports, the row is
        # kept gathered for it, so a hit multiplies without a gather.
        memo_d = glob("_memo", ("memo",))
        sibling = op_pay[memo]
        emit(depth, f"_e = {memo_d}.get(_pk)")
        emit(depth, f"if _e.__class__ is tuple and _e[0] is {sibling}:")
        emit(depth + 1, "_tl = _e[1]")
        emit(depth, "else:")
        depth += 1
        lift_lines()
        operands["_tl"] = mul("_tl", operands[sibling], operands["_lv"])
        tl = operands["_tl"][1]
        terms = rows and source and tl and CofactorKernelOps.terms(source, tl)
        if terms and terms[3] is None:  # disjoint supports
            gathered = terms
            (_, sa, _), (_, sb, _) = operands[sibling], operands["_lv"]
            if sa and sb and CofactorKernelOps.terms(sa, sb)[3] is None:
                # No reduceat: compose the gather into the tables mul requested.
                requests[-2:] = [
                    (name, ("const", table[terms[2]]))
                    for name, (_, table) in requests[-2:]
                ]
            else:
                ib = glob(f"_ib{len(requests)}", ("const", terms[2]))
                emit(depth, f"_tl = _tl[{ib}]")
        depth -= 1
        emit(depth + 1, f"if _e == id({sibling}):")
        emit(depth + 2, f"{memo_d}[_pk] = ({sibling}, _tl)")
        emit(depth + 1, "else:")
        emit(depth + 2, f"if len({memo_d}) > 2 * len({data[memo]}):")
        emit(depth + 3, f"{memo_d}.clear()")
        emit(depth + 2, f"{memo_d}[_pk] = id({sibling})")
        factors = ["_psrc", "_tl"]
    if gathered:
        ia = glob(f"_ia{len(requests)}", ("const", gathered[1]))
        emit(depth, f"_v = _psrc[{ia}]")
        emit(depth, "_v *= _tl")
        value = ("_v", gathered[0], True)
    elif not factors:
        emit(depth, "_v = _one.row" if rows else "_v = _one")
        value = ("_v", (), True)
    else:
        emit(depth, f"_v = {operands[factors[0]][0]}")
        value = ("_v",) + operands[factors[0]][1:]
        for factor in factors[1:]:
            value = mul("_v", value, operands[factor])
    if point:
        emit(depth, f"if {_zero('_v', rows)}:")
        emit(depth + 1, "continue")
        emit(depth, f"_key = {out_key}")
        emit(depth, "_psrc = _v")
        return value[1]
    # A trigger defers accumulation: contributions are collected per output
    # key and summed once by ``_finalize`` via ``ring.sum`` — rings with a
    # vectorized sum (the degree ring's grouped ``np.add.at``) fold a batch
    # in a few array operations instead of pairwise allocations.  A path,
    # whose deltas are below the array threshold, sums as they come.  (Ring
    # addition is commutative by the ring axioms, so the regrouping is
    # sound on every ring, including non-commutative-multiplication ones.)
    emit(depth, f"_ok = {out_key}")
    emit(depth, "_cur = _out.get(_ok)")
    if head is not None:
        emit(depth, "_out[_ok] = _v if _cur is None else " + (
            "_cur + _v" if rows else "_add(_cur, _v)"))
        return value[1]
    emit(depth, "if _cur is None:")
    emit(depth + 1, "_out[_ok] = [_v]")
    emit(depth, "else:")
    emit(depth + 1, "_cur.append(_v)")
    return value[1]


# ----------------------------------------------------------------------
# Factor slot programs (the compiled factorized-update path)
# ----------------------------------------------------------------------


def _make_finalize(rsum, iszero):
    """Fold per-key contribution lists with ``ring.sum``, dropping zeros."""

    def _finalize(data):
        dead = []
        for key, values in data.items():
            total = values[0] if len(values) == 1 else rsum(values)
            if iszero(total):
                dead.append(key)
            else:
                data[key] = total
        for key in dead:
            del data[key]
        return data

    return _finalize


class FactorProgram:
    """A compiled factorized-delta trigger for one ``(node, source)`` entry
    point and one factor-schema partition."""

    __slots__ = ("node_name", "out_partition", "ring", "_fn", "source_text")

    def __init__(self, node_name, out_partition, ring, fn, source_text):
        self.node_name = node_name
        #: Schemas of the factors the program hands to the parent node, in
        #: slot order — the parent's program is compiled for this partition.
        self.out_partition = out_partition
        self.ring = ring
        self._fn = fn
        #: The generated Python source (for debugging and the test suite).
        self.source_text = source_text

    def run(self, fdatas, cache):
        """Propagate one rank-1 term through the node.

        ``fdatas`` are the term's factor dicts aligned with the compiled
        partition; ``cache`` is the engine's probe cache.  Returns
        ``(out_dicts, flat_dict_or_None)`` — the outgoing factors (aligned
        with :attr:`out_partition`) and, at materialized nodes, the
        flattened delta in the node's key order — or ``(None, None)`` when
        a factor cancelled to empty (the delta is the ring zero from here
        on up).
        """
        return self._fn(fdatas, cache)


def compile_factor_program(
    ir: FactorProgramIR, targets, query
) -> FactorProgram:
    """Compile a factor IR program into a :class:`FactorProgram`.

    ``targets`` are the stored sibling relations in the IR's merge order.
    Secondary indexes the probes need are registered at bind time.  The
    code comes from the process-wide cache; the engine canonicalizes the
    partition before lowering, so permuted factor orders of one
    decomposition share one cache entry too.
    """
    generated = _generated(_generate_factor, ir)
    return FactorProgram(
        ir.node_name, generated.meta, query.ring,
        _bind_env(generated, targets, query, _base_env(query.ring)),
        generated.source_text,
    )


def _generate_factor(ir: FactorProgramIR) -> _Generated:
    """Generate the factor-program source and environment requests from IR
    (target names and schemas only — see the module docstring)."""
    kind, idx = ir.source
    requests: List[tuple] = []
    lines: List[str] = ["def _factor(_fs, _cache):"]

    def emit(depth: int, text: str) -> None:
        """Append one generated source line at ``depth``."""
        lines.append("    " * depth + text)

    lift_names: Dict[str, str] = {}

    def lift_ref(var: str) -> str:
        """Bound name of ``var``'s lift, requested on first use."""
        name = lift_names.get(var)
        if name is None:
            name = f"_lift{len(lift_names)}"
            lift_names[var] = name
            requests.append((name, ("lift", var)))
        return name

    #: Runtime expression per slot id.
    exprs: Dict[int, str] = {
        slot.id: f"_fs[{i}]" for i, slot in enumerate(ir.initial_slots)
    }
    op_no = 0

    # ---- sibling merges (the fused join_project loop nests) ----
    for op in ir.ops:
        if not isinstance(op, SiblingMerge):
            # AppendSibling: alias the stored sibling's primary map.
            requests.append((f"_sd{op.target}", ("data", op.target)))
            exprs[op.slot.id] = f"_sd{op.target}"
            continue
        n = op_no
        op_no += 1
        ts = op.target_schema
        probe = op.probe_attrs
        mode = op.mode

        if probe != ts:
            requests.append((f"_bk{n}", ("buckets", op.target, probe)))
            if mode == "sum":
                requests.append((f"_ss{n}", ("sums", op.target, probe)))
        if mode == "full":
            requests.append((f"_sd{n}x", ("data", op.target)))
        if mode in ("cached", "memo"):
            requests.append((f"_sid{n}", ("sentinel",)))
            emit(1, f"_cs{n} = _site(_cache, {op.target_name!r}, _sid{n})")

        registers: Dict[str, str] = {}

        def reg(attr: str, registers=registers, n=n) -> str:
            """Stable register name for ``attr`` within this op."""
            name = registers.get(attr)
            if name is None:
                name = f"r{n}_{len(registers)}"
                registers[attr] = name
            return name

        needed = set(probe) | set(op.out.schema) | set(op.row_lifts)

        emit(1, f"_m{n} = {{}}")
        depth = 1
        for j, slot in enumerate(op.inputs):
            kv = f"_k{n}_{j}"
            emit(depth, f"for {kv}, _p{n}_{j} in {exprs[slot.id]}.items():")
            depth += 1
            for pos, attr in enumerate(slot.schema):
                if attr in needed:
                    emit(depth, f"{reg(attr)} = {kv}[{pos}]")
        subkey = _tuple_display([registers[a] for a in probe])

        if mode == "full":
            # Full-key probe: the stored payload is the whole match.
            emit(depth, f"_t{n} = _sd{n}x.get({subkey})")
            emit(depth, f"if _t{n} is not None:")
            depth += 1
            sib_pay = f"_t{n}"
        elif mode == "sum":
            # Group-aware probe: the index bucket sum is the contribution
            # (no lifts on the summed-out attributes).  Sums may hold
            # cancelled zeros; test them.
            emit(depth, f"_t{n} = _ss{n}.get({subkey})")
            emit(depth, f"if _t{n} is not None and not _iszero(_t{n}):")
            depth += 1
            sib_pay = f"_t{n}"
        elif mode == "cached":
            # Lifted bucket collapse, memoized in the shared probe cache:
            # later terms (and later relations in a batch) probing the
            # same subkey reuse the folded sum.
            emit(depth, f"_sk{n} = {subkey}")
            emit(depth, f"_t{n} = _cs{n}.get(_sk{n})")
            emit(depth, f"if _t{n} is None:")
            emit(depth + 1, f"_b{n} = _bk{n}.get(_sk{n})")
            emit(depth + 1, f"if _b{n} is None:")
            emit(depth + 2, f"_t{n} = _zero")
            emit(depth + 1, "else:")
            emit(depth + 2, f"_acc{n} = []")
            emit(depth + 2, f"for _tk{n}, _tp{n} in _b{n}.items():")
            first = True
            for pos, var in op.ext_lifts:
                term = f"{lift_ref(var)}(_tk{n}[{pos}])"
                if first:
                    emit(depth + 3, f"_lv{n} = {term}")
                    first = False
                else:
                    emit(depth + 3, f"_lv{n} = _mul(_lv{n}, {term})")
            emit(depth + 3, f"_acc{n}.append(_mul(_tp{n}, _lv{n}))")
            emit(depth + 2, f"_t{n} = _rsum(_acc{n})")
            emit(depth + 1, f"_cs{n}[_sk{n}] = _t{n}")
            emit(depth, f"if not _iszero(_t{n}):")
            depth += 1
            sib_pay = f"_t{n}"
        elif mode == "memo":
            # Partial-match probe sharing: the bucket reduced to the
            # surviving extends (dropped lifted extends folded in, rows
            # pre-aggregated per surviving key), memoized per subkey.
            emit(depth, f"_sk{n} = {subkey}")
            emit(depth, f"_rw{n} = _cs{n}.get(_sk{n})")
            emit(depth, f"if _rw{n} is None:")
            emit(depth + 1, f"_b{n} = _bk{n}.get(_sk{n})")
            emit(depth + 1, f"if _b{n} is None:")
            emit(depth + 2, f"_rw{n} = ()")
            emit(depth + 1, "else:")
            emit(depth + 2, f"_ra{n} = {{}}")
            emit(depth + 2, f"for _tk{n}, _tp{n} in _b{n}.items():")
            fold = f"_tp{n}"
            for pos, var in op.ext_lifts:
                emit(
                    depth + 3,
                    f"_tp{n} = _mul({fold}, {lift_ref(var)}(_tk{n}[{pos}]))",
                )
            kept_key = _tuple_display([
                f"_tk{n}[{ts.index(a)}]" for a in op.kept_extends
            ])
            emit(depth + 3, f"_ek{n} = {kept_key}")
            emit(depth + 3, f"_rc{n} = _ra{n}.get(_ek{n})")
            emit(depth + 3, f"if _rc{n} is None:")
            emit(depth + 4, f"_ra{n}[_ek{n}] = [_tp{n}]")
            emit(depth + 3, "else:")
            emit(depth + 4, f"_rc{n}.append(_tp{n})")
            emit(depth + 2, f"_rw{n} = tuple(_finalize(_ra{n}).items())")
            emit(depth + 1, f"_cs{n}[_sk{n}] = _rw{n}")
            emit(depth, f"for _ek{n}, _tp{n} in _rw{n}:")
            depth += 1
            for j, attr in enumerate(op.kept_extends):
                if attr in needed:
                    emit(depth, f"{reg(attr)} = _ek{n}[{j}]")
            sib_pay = f"_tp{n}"
        else:  # "iterate"
            emit(depth, f"_b{n} = _bk{n}.get({subkey})")
            emit(depth, f"if _b{n}:")
            depth += 1
            emit(depth, f"for _tk{n}, _tp{n} in _b{n}.items():")
            depth += 1
            for pos, attr in enumerate(ts):
                if attr in set(op.extends) and attr in needed:
                    emit(depth, f"{reg(attr)} = _tk{n}[{pos}]")
            sib_pay = f"_tp{n}"

        pays = [f"_p{n}_{j}" for j in range(len(op.inputs))] + [sib_pay]
        emit(depth, f"_v{n} = {pays[0]}")
        for pay in pays[1:]:
            emit(depth, f"_v{n} = _mul(_v{n}, {pay})")
        for var in op.row_lifts:
            emit(depth, f"_v{n} = _mul(_v{n}, {lift_ref(var)}({registers[var]}))")
        emit(depth, f"_ok{n} = {_tuple_display([registers[a] for a in op.out.schema])}")
        emit(depth, f"_cur{n} = _m{n}.get(_ok{n})")
        emit(depth, f"if _cur{n} is None:")
        emit(depth + 1, f"_m{n}[_ok{n}] = [_v{n}]")
        emit(depth, "else:")
        emit(depth + 1, f"_cur{n}.append(_v{n})")
        emit(1, f"_m{n} = _finalize(_m{n})")
        emit(1, f"if not _m{n}: return _NONE")
        exprs[op.out.id] = f"_m{n}"

    # ---- leftover marginalizations, fused per factor ----
    for op in ir.margs:
        n = op_no
        op_no += 1
        schema_i = op.input.schema
        expr_i = exprs[op.input.id]
        base = 1
        if op.input.pristine is not None:
            # A whole-sibling collapse: the result depends only on the
            # stored view, so it is memoized per view state.
            requests.append((f"_sid{n}", ("sentinel",)))
            emit(1, f"_cs{n} = _site(_cache, {op.input.pristine!r}, _sid{n})")
            emit(1, f"_g{n} = _cs{n}.get(0)")
            emit(1, f"if _g{n} is None:")
            base = 2
        emit(base, f"_g{n} = {{}}")
        emit(base, f"for _k{n}, _p{n} in {expr_i}.items():")
        emit(base + 1, f"_v{n} = _p{n}")
        for pos, var in op.lifted:
            emit(base + 1, f"_v{n} = _mul(_v{n}, {lift_ref(var)}(_k{n}[{pos}]))")
        key = _tuple_display(
            [f"_k{n}[{schema_i.index(a)}]" for a in op.out.schema]
        )
        emit(base + 1, f"_ok{n} = {key}")
        emit(base + 1, f"_cur{n} = _g{n}.get(_ok{n})")
        emit(base + 1, f"if _cur{n} is None:")
        emit(base + 2, f"_g{n}[_ok{n}] = [_v{n}]")
        emit(base + 1, "else:")
        emit(base + 2, f"_cur{n}.append(_v{n})")
        emit(base, f"_g{n} = _finalize(_g{n})")
        if op.input.pristine is not None:
            emit(base, f"_cs{n}[0] = _g{n}")
        emit(1, f"if not _g{n}: return _NONE")
        exprs[op.out.id] = f"_g{n}"

    # ---- flatten at materialized nodes ----
    flat_expr = "None"
    if ir.flatten is not None:
        flatten = ir.flatten
        n = op_no
        op_no += 1
        if (
            len(flatten.inputs) == 1
            and flatten.inputs[0].schema == flatten.out_keys
        ):
            emit(1, f"_fl{n} = dict({exprs[flatten.inputs[0].id]})")
        else:
            key_src: Dict[str, str] = {}
            emit(1, f"_fl{n} = {{}}")
            depth = 1
            for j, slot in enumerate(flatten.inputs):
                kv = f"_fk{n}_{j}"
                emit(depth, f"for {kv}, _fp{n}_{j} in {exprs[slot.id]}.items():")
                depth += 1
                for pos, attr in enumerate(slot.schema):
                    key_src[attr] = f"{kv}[{pos}]"
            pays = [f"_fp{n}_{j}" for j in range(len(flatten.inputs))]
            emit(depth, f"_fv{n} = {pays[0]}")
            for pay in pays[1:]:
                emit(depth, f"_fv{n} = _mul(_fv{n}, {pay})")
            # Factor schemas are disjoint, so each combination lands on a
            # distinct key — but a product of non-zeros can still cancel
            # (truncating rings), hence the per-entry test.
            emit(depth, f"if not _iszero(_fv{n}):")
            out_key = _tuple_display([key_src[a] for a in flatten.out_keys])
            emit(depth + 1, f"_fl{n}[{out_key}] = _fv{n}")
        flat_expr = f"_fl{n}"

    outs = ", ".join(exprs[slot.id] for slot in ir.out_slots)
    if len(ir.out_slots) == 1:
        outs += ","
    emit(1, f"return (({outs}), {flat_expr})")
    return _Generated(
        lines, requests, ir.out_partition,
        f"factor-program {ir.node_name}:{kind}{idx}",
    )


# ----------------------------------------------------------------------
# Paths (one generated function per updatable relation)
# ----------------------------------------------------------------------


class PathIR(NamedTuple):
    """What a path's code depends on: the leaf view's name, how each
    stored view is written (``"row"``: a block view's row write,
    :meth:`BlockRelation._write`; ``"put"``: :meth:`Relation._put`;
    ``None``: not stored), the path's trigger IR with, for the row form,
    its planned supports (:func:`_emit_trigger`), and whether the engine
    has a fault plan."""

    leaf: str
    leaf_write: Optional[str]
    steps: Tuple[Tuple[DeltaProgram, Optional[str], Optional[tuple]], ...]
    faults: bool


def _generate_path(path: PathIR) -> _Generated:
    """Generate ``_path(_delta, _pf)``, which returns the root delta as
    one :class:`Relation`; ``_pf`` is a block view's packed leaf delta,
    absorbed whole (``None``: the rows are read off the payloads).

    A loop over the rows in hand, ``(key, payload)`` (in row form ``(key,
    row)``), takes each from the step below — a zero sum skipped — and
    writes it into that step's view; then the steps' bodies run in it.  A
    :func:`_point` body below the root maps the row to at most one row,
    written at once, and the loop goes on; another body sums its output
    per key in ``_out`` and ends the loop.  The root delta is read off
    the last ``_out``.  Under a fault plan every body sums, so a loop
    writes one view: its hook fires once, before its first row, and a
    fault leaves the views below it whole, as ``_write_view`` does.
    """
    requests: List[tuple] = []
    lines: List[str] = ["def _path(_delta, _pf):"]
    rows = path.steps[0][2] is not None  # the row form, over block views
    names = [path.leaf] + [ir.node_name for ir, _, _ in path.steps]
    loop: List[str] = []  # the open loop: its ``for`` line and body
    ahead: List[str] = []  # what runs before it: the hoisted sums, flags
    written: List[str] = []  # the views it writes

    def emit(depth: int, text: str) -> None:
        """Append a source line, to the open loop if there is one."""
        (loop if loop else lines).append("    " * depth + text)

    def head(text: str) -> None:
        """Put a line of depth 1 ahead of the open loop."""
        ahead.append("    " + text)

    def write(at: int, how: Optional[str], depth: int = 2) -> None:
        """Add the row ``(_key, _psrc)`` into stored view ``at``."""
        if how is None:
            return
        written.append(names[at])
        if path.faults and at:  # the leaf's fires ahead of every loop
            head("_w = True")
            emit(depth, 'if _w: _faults.fire("engine.write_view"); _w = False')
        if how == "row":
            requests.extend(((f"_v{at}", ("view", at)), (f"_s{at}", ("layout", at))))
            emit(depth, f"_v{at}._write(_key, _psrc, _s{at})")
        else:
            requests.append((f"_put{at}", ("put", at)))
            emit(depth, f"_put{at}(_key, _psrc)")

    def open_loop(below: int, how: Optional[str], items: str) -> None:
        """Open a loop over ``items``, each row taken from step ``below``."""
        loop.append(f"    for _key, _psrc in {items}:")
        if below:
            emit(2, f"if {_zero('_psrc', rows)}:")
            emit(3, "continue")
        elif rows:
            emit(2, "if _pf is None:")
            emit(3, "_psrc = _psrc.row")
        write(below, how, 3 if rows and not below else 2)

    def close() -> None:
        """Emit what runs ahead, the loop, then its probe-cache pops."""
        lines.extend(ahead + loop)
        del ahead[:], loop[:]
        if written:
            emit(1, "if _cache:")
            for name in written:
                emit(2, f"_cache.pop({name!r}, None)")
            written.clear()

    if path.leaf_write is not None and path.faults:
        emit(1, '_faults.fire("engine.write_view")')
    emit(1, "_items = _delta._data.items()")
    if rows:
        emit(1, "if _pf is not None:")
        emit(2, "_items = zip(_pf[0], _pf[1][0])")
        if path.leaf_write is not None:  # a packed leaf delta: whole
            requests.append(("_v0", ("view", 0)))
            emit(2, "_v0._absorb_rows(_pf[0], *_pf[1])")
    below, how = 0, path.leaf_write  # the rows' step, its view's write
    for at, (ir, step_how, layout) in enumerate(path.steps, start=1):
        if not loop:
            if below:
                emit(1, "if not _out:")
                emit(2, "return _Relation(_root, _root_keys, _ring)")
                emit(1, "_items = _out.items()")
            open_loop(below, how, "_items")
            head("_out = {}")
        step: List[tuple] = []
        point = _point(ir) and not path.faults and at < len(path.steps)
        support = _emit_trigger(
            ir, emit, step, "point" if point else "rows", f"_{at}",
            layout=layout, head=head)
        if point:
            write(at, step_how)
        else:
            close()
        below, how = at, None if point else step_how
        # The trigger's globals are bound by the step's own program (the
        # path shares them, lifted-sibling memos included); the row
        # form's term tables and supports are constants of the code.
        requests += [
            (name, spec if spec[0] == "const"
             else ("step", at, name[:-len(f"_{at}")]))
            for name, spec in step
        ]
    emit(1, "_r = _Relation(_root, _root_keys, _ring)")
    emit(1, "_rd = _r._data")
    open_loop(below, how, "_out.items()")
    if rows:
        requests.append(("_sr", ("const", support)))
    emit(2, "_rd[_key] = " + ("_payload(_sr, _psrc)" if rows else "_psrc"))
    close()
    emit(1, "return _r")
    consts = {name: spec[1] for name, spec in requests if spec[0] == "const"}
    requests = [request for request in requests if request[0] not in consts]
    return _Generated(lines, requests, consts, f"path {path.leaf}")


def compile_path(leaf, steps, cache, faults, root, query, base):
    """Generate and bind the path of ``leaf`` (its stored view or
    ``None``) up ``steps`` — ``(ir, scalar program, stored view or
    None)`` per node, leaf to root.  ``cache`` is the engine's probe
    cache, ``faults`` its fault plan, ``root`` the root node (the returned
    delta's name and keys), ``base`` the ring's :func:`_base_env` (copied).
    The path is in row form where its steps' programs are.  The
    function's ``source_text`` is its generated source."""

    views = [leaf[1]] + [view for _, _, view in steps]
    hows = [  # how the generated code writes each view
        view if view is None else "row" if isinstance(view, BlockRelation)
        else "put" for view in views
    ]
    generated = _generated(_generate_path, PathIR(
        leaf[0], hows[0],
        tuple((ir, how, program.layout)
              for (ir, program, _), how in zip(steps, hows[1:])),
        faults is not None,
    ))
    env = dict(base)
    env.update(
        generated.meta, _cache=cache, _faults=faults, _Relation=Relation,
        _root=root.name, _root_keys=root.keys, _ring=query.ring,
    )
    for name, spec in generated.requests:
        kind, at = spec[0], spec[1]
        if kind == "view":
            env[name] = views[at]
        elif kind == "put":  # bound; it reads the view's map per call
            env[name] = views[at]._put
        elif kind == "layout":
            env[name] = views[at]._store.support
        else:  # "step": the step program's own binding
            env[name] = steps[at - 1][1]._fn.__globals__[spec[2]]
    path = _exec(generated, env)
    #: The generated Python source (for debugging and the test suite).
    path.source_text = generated.source_text
    return path
