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
(vectorized for the cofactor, degree, and product rings).

Generation vs binding (shard-local triggers)
--------------------------------------------

Compilation is split in two stages so that sharded engines can share the
expensive half:

* **generation** walks the IR and emits the trigger *source text* plus a
  list of :class:`environment requests <_Generated>` — symbolic
  descriptions ("the primary map of target 2", "the bucket dict of target
  0's index on (A, B)", "a fresh cache-site sentinel") of every
  target-derived global the code needs.  The IR itself reads only target
  *schemas and names*, never live relation state, so generated code is
  valid for any engine holding an isomorphic view tree;
* **binding** realizes the requests against one engine's actual stored
  relations (registering any secondary index a probe needs) and execs
  the pre-compiled code object with those globals — per-shard dictionaries
  stay bound directly in the trigger's globals, so the run-time fast path
  is unchanged.

A :class:`ProgramLibrary` memoizes generated programs keyed by the IR
program itself (IR is hashable plain data), so ``S`` hash-partitioned
shard engines built over the same query pay for code generation once and
each bind their own copy.  A library must only be shared by identically
configured engines (same query, order, and planner flags).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.ir import (
    DeltaProgram,
    FactorProgramIR,
    IndexProbe,
    Probe,
    SiblingMerge,
    cache_site,
)
from repro.data.relation import Relation

__all__ = [
    "SlotProgram",
    "compile_slot_program",
    "FactorProgram",
    "compile_factor_program",
    "ProgramLibrary",
    "canonical_partition",
]


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
      :func:`_generate_slot`);
    * columnar-target requests (kernel gathers over
      :class:`repro.data.columnar.ColumnarRelation` targets, which probe
      row ids instead of payloads): ``("rows", i)`` — the key → row-id
      map; ``("gids", i, attrs)`` / ``("members", i, attrs)`` /
      ``("idxstate", i, attrs)`` — the subkey → group-id map, the subkey
      → ``{key: row}`` buckets, and the index state object (for its
      maintained ``szero`` zero-mask) of target ``i``'s index on
      ``attrs``; ``("total", i)`` — the target's memoized vectorized
      ``total`` bound method.

    ``meta`` carries the program-class payload (the output schema for slot
    programs, the outgoing factor partition for factor programs).
    """

    __slots__ = ("code", "requests", "source_text", "meta")

    def __init__(self, code, requests, source_text, meta):
        self.code = code
        self.requests = requests
        self.source_text = source_text
        self.meta = meta


class ProgramLibrary:
    """A cross-engine cache of generated trigger code.

    Owned by :class:`repro.core.sharded.ShardedFIVMEngine` and handed to
    every shard's :class:`~repro.core.engine.FIVMEngine`: shard 0 generates
    and compiles each trigger's source once, shards 1..S-1 only re-bind the
    cached code object against their own view fragments.
    """

    def __init__(self):
        self._generated: Dict[tuple, _Generated] = {}

    def __len__(self) -> int:
        return len(self._generated)

    def lookup(self, key: tuple) -> Optional[_Generated]:
        """The cached generated program for ``key``, if any."""
        return self._generated.get(key)

    def store(self, key: tuple, generated: _Generated) -> None:
        """Cache a generated program under ``key``."""
        self._generated[key] = generated


def _bind_env(generated: _Generated, targets, query) -> dict:
    """Realize a generated program's environment against live targets.

    Registers any secondary index the requests name (idempotent), then
    execs the code object so the trigger's globals point straight at this
    engine's dictionaries.
    """
    ring = query.ring
    env = {
        "_mul": ring.mul,
        "_add": ring.add,
        "_one": ring.one,
        "_iszero": ring.is_zero,
        "_rsum": ring.sum,
        "_zero": ring.zero,
        "_NONE": (None, None),
        "_finalize": _make_finalize(ring.sum, ring.is_zero),
        "_site": cache_site,
    }
    lift_table = query.lifting.table()
    for name, spec in generated.requests:
        kind = spec[0]
        if kind == "data":
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
        elif kind == "sentinel":
            env[name] = object()
        elif kind == "memo":
            env[name] = {}
        elif kind == "rows":
            env[name] = targets[spec[1]]._rows
        elif kind == "total":
            env[name] = targets[spec[1]].total
        elif kind in ("gids", "members", "idxstate"):
            target = targets[spec[1]]
            target.register_index(spec[2])
            state = target._states[spec[2]]
            env[name] = (
                state.gids if kind == "gids"
                else state.members if kind == "members"
                else state
            )
        else:  # pragma: no cover - generator/binder contract guard
            raise ValueError(f"unknown environment request {spec!r}")
    exec(generated.code, env)
    return env


class SlotProgram:
    """A compiled delta trigger for one ``(node, source)`` IR program."""

    __slots__ = (
        "node_name", "out_schema", "ring", "_fn", "source_text", "memo_sites",
    )

    def __init__(self, node_name, out_schema, ring, fn, source_text, memo_sites):
        self.node_name = node_name
        self.out_schema = out_schema
        self.ring = ring
        self._fn = fn
        #: The generated Python source (for debugging and the test suite).
        self.source_text = source_text
        #: Site (``"node:child0"``) → ``(memo dict, sibling relation)`` of
        #: a trigger that keeps a lifted-sibling memo, else empty.  The
        #: dict holds strong references to sibling payloads; the engine
        #: owns its lifetime.
        self.memo_sites = memo_sites

    def run(self, delta: Relation) -> Relation:
        """Evaluate the node's delta view for ``delta`` entering at the
        compiled source; returns a fresh relation over the node's keys.

        The trigger collects per-key contribution lists; they are summed
        here in one ``ring.sum`` per key and zero totals dropped in a final
        sweep (the interpreter's eager per-``add`` zero test, deferred).
        """
        out = Relation(self.node_name, self.out_schema, self.ring)
        data = out._data
        self._fn(delta._data.items(), data)
        if data:
            ring = self.ring
            rsum = ring.sum
            is_zero = ring.is_zero
            dead = []
            for key, values in data.items():
                total = values[0] if len(values) == 1 else rsum(values)
                if is_zero(total):
                    dead.append(key)
                else:
                    data[key] = total
            for key in dead:
                del data[key]
        return out


def _tuple_display(registers: Sequence[str]) -> str:
    """Source text for a tuple built from registers (incl. 0/1-ary forms)."""
    if not registers:
        return "()"
    if len(registers) == 1:
        return f"({registers[0]},)"
    return "(" + ", ".join(registers) + ")"


def compile_slot_program(
    ir: DeltaProgram, targets, query, library: Optional[ProgramLibrary] = None
) -> SlotProgram:
    """Compile one IR delta program into a :class:`SlotProgram`.

    ``targets`` are the stored relations the IR's probes read, aligned with
    the ops' ``target`` indices.  Any secondary index a probe needs is
    registered at bind time (idempotent — the engine already registers them
    while planning).  With a ``library``, generated code is shared across
    engines holding isomorphic trees (sharding): only the environment
    binding is per-engine.
    """
    key = ("slot", ir)
    generated = library.lookup(key) if library is not None else None
    if generated is None:
        generated = _generate_slot(ir)
        if library is not None:
            library.store(key, generated)
    env = _bind_env(generated, targets, query)
    memo = ir.accumulate.memo
    return SlotProgram(
        ir.node_name, generated.meta, query.ring, env["_trigger"],
        generated.source_text,
        {} if memo is None else {
            f"{ir.node_name}:{ir.source[0]}{ir.source[1]}":
                (env["_memo"], targets[ir.ops[memo].target])
        },
    )


def _generate_slot(ir: DeltaProgram) -> _Generated:
    """Generate the slot-program source and environment requests from IR
    (no live relation state is read — see the module docstring)."""
    kind, idx = ir.source
    ops = ir.ops

    def rname(register: int) -> str:
        """Source name of a key register."""
        return f"r{register}"

    requests: List[tuple] = []
    lines: List[str] = ["def _trigger(_items, _out):"]

    def emit(depth: int, text: str) -> None:
        """Append one generated source line at ``depth``."""
        lines.append("    " * depth + text)

    # Hoist loop-invariant group-aware probes (no shared attributes): the
    # whole sibling collapses to one ring sum, computed once per trigger.
    for i, op in enumerate(ops):
        requests.append((f"_data{i}", ("data", op.target)))
        if op.aggregated and not op.probe_attrs:
            emit(1, f"_t{i} = _rsum(_data{i}.values())")
            emit(1, f"if _iszero(_t{i}):")
            emit(2, "return")

    emit(1, "for _key, _psrc in _items:")
    depth = 2
    for position, register in ir.loads:
        emit(depth, f"{rname(register)} = _key[{position}]")

    memo = ir.accumulate.memo
    op_pay: Dict[int, str] = {}
    for i, op in enumerate(ops):
        probe = op.probe_attrs
        if isinstance(op, IndexProbe):
            requests.append((f"_bkt{i}", ("buckets", op.target, probe)))
            requests.append((f"_sum{i}", ("sums", op.target, probe)))
        probe_key = _tuple_display([rname(r) for r in op.probe_regs])
        if op.aggregated:
            if not probe:
                pass  # hoisted above the delta loop; payload is _t{i}
            elif isinstance(op, Probe):
                # Full-key probe: the stored payload *is* the bucket sum
                # (primary-map entries are never zero).
                if i == memo:
                    emit(depth, f"_pk = {probe_key}")
                    probe_key = "_pk"
                emit(depth, f"_t{i} = _data{i}.get({probe_key})")
                emit(depth, f"if _t{i} is not None:")
                depth += 1
            else:
                # Bucket sums may hold cancelled zeros; test them.
                emit(depth, f"_t{i} = _sum{i}.get({probe_key})")
                emit(depth, f"if _t{i} is not None and not _iszero(_t{i}):")
                depth += 1
            op_pay[i] = f"_t{i}"
        else:
            if isinstance(op, Probe) and probe:
                emit(depth, f"_p{i} = _data{i}.get({probe_key})")
                emit(depth, f"if _p{i} is not None:")
                depth += 1
            elif isinstance(op, Probe):
                emit(depth, f"for _k{i}, _p{i} in _data{i}.items():")
                depth += 1
            else:
                emit(depth, f"_b{i} = _bkt{i}.get({probe_key})")
                emit(depth, f"if _b{i}:")
                depth += 1
                emit(depth, f"for _k{i}, _p{i} in _b{i}.items():")
                depth += 1
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
    factors = [
        "_psrc" if where == "source" else op_pay[i]
        for where, i in ir.accumulate.factors
    ]
    lift_lines = []
    for j, (var, register) in enumerate(ir.accumulate.lifts):
        requests.append((f"_lift{j}", ("lift", var)))
        term = f"_lift{j}({rname(register)})"
        lift_lines.append(f"_lv = _mul(_lv, {term})" if j else f"_lv = {term}")
    if memo is None:
        for line in lift_lines:
            emit(depth, line)
        if lift_lines:
            factors.append("_lv")
    else:
        # Lifted-sibling memo (``Accumulate.memo``): ``sibling ⊗ lifts``
        # is kept per probe key as ``(payload, product)``.  Payloads are
        # immutable and every absorb installs a new object, so an entry is
        # valid iff it holds the very payload just probed — no
        # invalidation hook.  A product is admitted on the second sighting
        # of one payload (the first leaves ``id(payload)``: a sibling
        # rewritten between probes costs a marker, not a block), and a
        # site outgrowing twice its sibling's live keys starts over.
        requests.append(("_memo", ("memo",)))
        sibling = op_pay[memo]
        emit(depth, "_e = _memo.get(_pk)")
        emit(depth, f"if _e.__class__ is tuple and _e[0] is {sibling}:")
        emit(depth + 1, "_tl = _e[1]")
        emit(depth, "else:")
        for line in lift_lines:
            emit(depth + 1, line)
        emit(depth + 1, f"_tl = _mul({sibling}, _lv)")
        emit(depth + 1, f"if _e == id({sibling}):")
        emit(depth + 2, f"_memo[_pk] = ({sibling}, _tl)")
        emit(depth + 1, "else:")
        emit(depth + 2, f"if len(_memo) > 2 * len(_data{memo}):")
        emit(depth + 3, "_memo.clear()")
        emit(depth + 2, f"_memo[_pk] = id({sibling})")
        factors = ["_psrc", "_tl"]
    if not factors:
        emit(depth, "_v = _one")
    else:
        emit(depth, f"_v = {factors[0]}")
        for factor in factors[1:]:
            emit(depth, f"_v = _mul(_v, {factor})")
    # Accumulation is deferred: contributions are collected per output key
    # and summed once in :meth:`SlotProgram.run` via ``ring.sum`` — rings
    # with a vectorized sum (the cofactor ring stacks blocks) fold a whole
    # batch in a few array operations instead of pairwise allocations.
    # (Ring addition is commutative by the ring axioms, so the regrouping
    # is sound on every ring, including non-commutative-multiplication ones.)
    emit(depth, f"_ok = {_tuple_display([rname(r) for r in ir.accumulate.out_regs])}")
    emit(depth, "_cur = _out.get(_ok)")
    emit(depth, "if _cur is None:")
    emit(depth + 1, "_out[_ok] = [_v]")
    emit(depth, "else:")
    emit(depth + 1, "_cur.append(_v)")

    source_text = "\n".join(lines) + "\n"
    code = compile(
        source_text, f"<slot-program {ir.node_name}:{kind}{idx}>", "exec"
    )
    return _Generated(code, requests, source_text, ir.out_schema)


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
    ir: FactorProgramIR, targets, query, library: Optional[ProgramLibrary] = None
) -> FactorProgram:
    """Compile a factor IR program into a :class:`FactorProgram`.

    ``targets`` are the stored sibling relations in the IR's merge order.
    Secondary indexes the probes need are registered at bind time.  With a
    ``library``, generated code is shared across isomorphic engines
    (sharding); the engine canonicalizes the partition before lowering, so
    permuted factor orders of one decomposition share one cache entry too.
    """
    key = ("factor", ir)
    generated = library.lookup(key) if library is not None else None
    if generated is None:
        generated = _generate_factor(ir)
        if library is not None:
            library.store(key, generated)
    env = _bind_env(generated, targets, query)
    return FactorProgram(
        ir.node_name, generated.meta, query.ring, env["_factor"],
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

    source_text = "\n".join(lines) + "\n"
    code = compile(
        source_text, f"<factor-program {ir.node_name}:{kind}{idx}>", "exec"
    )
    return _Generated(code, requests, source_text, ir.out_partition)
