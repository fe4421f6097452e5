"""A typed delta-program IR: one lowering, several executors.

The engine's planner (:meth:`FIVMEngine._compile_plans`) fixes, per
``(node, source)`` delta entry point, a greedy probe order over the node's
stored siblings and indicators.  Historically that plan was *realized*
three separate times — a dict-binding interpreter, a flat slot-program
generator, and a factor-program generator — so every new capability had to
be wired into each path by hand.  This module is the seam that unifies
them: the plan is lowered **once** into a small typed IR, and every
executor realizes the same program:

* :class:`InterpreterDeltaProgram` / :class:`InterpreterFactorProgram`
  (this module) walk the IR directly — the executable reference semantics
  (``FIVMEngine(backend="interpreter")``);
* :mod:`repro.core.plan_exec` generates specialized Python source from the
  IR — the scalar triggers every engine builds, DBToaster-style, with the
  generate/bind split that lets sharded engines share code objects;
* :mod:`repro.core.kernels` executes the IR with vectorized NumPy kernels
  for rings that expose array hooks — the array form the engine switches
  to for large deltas: keys packed into arrays, payload products and
  ``Ring.sum`` folds replaced by stacked array arithmetic and grouped
  reductions.

Flat programs (listing deltas)
------------------------------

A :class:`DeltaProgram` evaluates one node's delta view for a delta
entering at one source.  Every attribute that is probed, lifted, or part
of the output key gets an explicit **register** (dead attributes get
none); ops reference registers by index:

* :class:`Probe` — read a target through its primary map: a full-key
  lookup, a whole-relation scan (no shared attributes), or — when
  ``aggregated`` — a whole-relation ring-sum collapse (loop-invariant,
  hoisted by every backend);
* :class:`IndexProbe` — read a target through a secondary index on a
  proper subset of its schema: iterate the matching bucket (binding the
  ``extend`` registers) or, when ``aggregated``, read the per-bucket ring
  sum (the group-aware join);
* :class:`Accumulate` — the innermost op: multiply the payload factors in
  the interpreter's exact order (children by child position, aggregated
  indicator counts, the indicator sign, then the folded lifting product),
  and accumulate onto the output key built from registers.

Factor programs (factorized deltas)
-----------------------------------

A :class:`FactorProgramIR` propagates one rank-1 term (a list of factor
dicts over pairwise-disjoint schemas) through a node, mirroring
marginalization-past-joins (Section 5 of the paper):

* :class:`AppendSibling` — a stored sibling sharing no attributes with the
  term joins the factor list by aliasing its primary map (read-only);
* :class:`SiblingMerge` — a sibling sharing attributes is merged with the
  sharing factors through one fused loop nest; variables whose coverage
  completes inside the merge are dropped on the fly (the fused
  ``join_project``).  The probe against the sibling takes one of five
  modes (see :attr:`SiblingMerge.mode`);
* :class:`Marginalize` — leftover marginalizations, fused per factor; a
  pristine (whole-sibling) collapse is memoized per view state;
* :class:`Flatten` — at materialized nodes, the factors are multiplied out
  into a delta dict in the node's key order.

**IR-level probe memos.**  Sibling reads that collapse state to one value
are memoized in the engine's probe cache (``cache[view][site][subkey]``),
and because the memo is decided here — at lowering time, as the op's
``mode`` — every backend shares it:

* ``"cached"`` — an aggregated probe whose summed-out attributes are
  lifted: the folded bucket sum is memoized per subkey;
* ``"memo"`` — a **partial-match probe**: the bucket is iterated and some
  extends survive downstream, so the memo stores the bucket *reduced* to
  the surviving extends — dropped lifted extends folded into the payload,
  rows pre-aggregated per surviving key — and later terms (and later
  relations of a batch) iterate the reduced rows instead of the raw
  bucket.  This is the bucket-iteration probe sharing the flat modes
  could not cache before;
* pristine :class:`Marginalize` collapses are memoized per view state
  under key ``0``.

All memos key under the *view name*, so the engine's per-write
invalidation (:meth:`FIVMEngine._invalidate`) keeps every backend sound.
Factorized updates require a commutative ring, which is what makes the
lift folding and pre-aggregation inside the memos legal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.relation import Relation

__all__ = [
    "Probe",
    "IndexProbe",
    "Accumulate",
    "DeltaProgram",
    "AppendSibling",
    "SiblingMerge",
    "Marginalize",
    "Flatten",
    "FactorSlot",
    "FactorProgramIR",
    "lower_delta_plan",
    "lower_factor_plan",
    "InterpreterDeltaProgram",
    "InterpreterFactorProgram",
    "cache_site",
]


# ----------------------------------------------------------------------
# Flat delta programs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """Probe a target through its primary map.

    ``probe_attrs`` is either the target's full schema (a point lookup) or
    empty (no shared attributes: iterate the whole map, or — when
    ``aggregated`` — collapse it to one ring sum, hoisted out of the delta
    loop by every backend).  ``extend`` lists ``(key position, register)``
    pairs for the attributes the probe binds that are live downstream.
    """

    target: int
    kind: str  # "child" | "ind"
    child_slot: int  # child position in the payload product; -1 for "ind"
    probe_attrs: Tuple[str, ...]
    probe_regs: Tuple[int, ...]
    extend: Tuple[Tuple[int, int], ...]
    aggregated: bool


@dataclass(frozen=True)
class IndexProbe:
    """Probe a target through a secondary index on a proper attribute
    subset: iterate the matching bucket, or — when ``aggregated`` — read
    the per-bucket ring sum (the group-aware join; bucket sums may hold
    cancelled zeros, so backends test them)."""

    target: int
    kind: str
    child_slot: int
    probe_attrs: Tuple[str, ...]
    probe_regs: Tuple[int, ...]
    extend: Tuple[Tuple[int, int], ...]
    aggregated: bool


@dataclass(frozen=True)
class Accumulate:
    """The innermost op of a flat program: the payload product (in the
    reference order — fixed here so every backend multiplies identically,
    which is what keeps non-commutative rings safe) followed by the folded
    lifting product, accumulated onto the output key."""

    #: Ordered factor references: ``("source", 0)`` is the delta payload,
    #: ``("op", i)`` the payload bound by op ``i``.
    factors: Tuple[Tuple[str, int], ...]
    #: ``(variable, register)`` pairs, in marginalization order.
    lifts: Tuple[Tuple[str, int], ...]
    out_regs: Tuple[int, ...]
    #: The **lifted-sibling memo**: index of the probe whose payload times
    #: the folded lifts depends on its probe key alone, which a generated
    #: trigger may keep per key (:mod:`repro.core.plan_exec`; the
    #: interpreter and the array programs ignore it).  ``None``: no memo.
    memo: Optional[int] = None


@dataclass(frozen=True)
class DeltaProgram:
    """A lowered flat delta trigger for one ``(node, source)`` plan."""

    node_name: str
    source: Tuple[str, int]
    source_attrs: Tuple[str, ...]
    out_schema: Tuple[str, ...]
    #: ``(delta key position, register)`` loads executed per delta tuple.
    loads: Tuple[Tuple[int, int], ...]
    ops: Tuple[object, ...]
    accumulate: Accumulate
    target_schemas: Tuple[Tuple[str, ...], ...]
    n_registers: int


def lower_delta_plan(
    node, source, plan, target_schemas, query, dict_stored=True
) -> DeltaProgram:
    """Lower one delta-join plan (the engine's ``_PlanStep`` list) to IR.

    Reads only schemas and plan structure — never live relation state — so
    the result is valid for any engine holding an isomorphic view tree
    (the property the generate/bind split and the sharding layer rely on).
    """
    kind, idx = source
    if kind == "child":
        source_attrs = node.children[idx].keys
    else:
        source_attrs = node.indicators[idx].attrs
    lift_entries = [(var, query.lifting.get(var)) for var in node.marginalized]
    out_attrs = node.keys

    # Attribute liveness: needed_after[i] = attrs read after step i's probe
    # (later probes, output keys, lifted variables).  Extends outside this
    # set never get a register.
    live = {var for var, lift in lift_entries if lift is not None}
    live |= set(out_attrs)
    needed_after: List[set] = [set()] * len(plan)
    for i in range(len(plan) - 1, -1, -1):
        needed_after[i] = set(live)
        live |= set(plan[i].probe_attrs)
    source_needed = live

    registers: Dict[str, int] = {}

    def reg(attr: str) -> int:
        """Stable register index for ``attr`` (allocated on first use)."""
        index = registers.get(attr)
        if index is None:
            index = len(registers)
            registers[attr] = index
        return index

    loads = tuple(
        (position, reg(attr))
        for position, attr in enumerate(source_attrs)
        if attr in source_needed
    )

    ops: List[object] = []
    for i, step in enumerate(plan):
        schema = target_schemas[i]
        probe = step.probe_attrs
        probe_regs = tuple(registers[a] for a in probe)
        if step.aggregated:
            extend: Tuple[Tuple[int, int], ...] = ()
        else:
            extend = tuple(
                (schema.index(attr), reg(attr))
                for attr in step.extend_attrs
                if attr in needed_after[i]
            )
        cls = Probe if (probe == schema or not probe) else IndexProbe
        ops.append(cls(
            target=i,
            kind=step.kind,
            child_slot=step.index if step.kind == "child" else -1,
            probe_attrs=probe,
            probe_regs=probe_regs,
            extend=extend,
            aggregated=step.aggregated,
        ))

    # Payload product order (the reference order): children by child
    # position — the source child's payload sits at its own position —
    # then aggregated indicator counts in op order, then the indicator
    # sign (central), then the folded lifting product.
    pay_by_child: Dict[int, Tuple[str, int]] = {}
    ind_sums: List[Tuple[str, int]] = []
    if kind == "child":
        pay_by_child[idx] = ("source", 0)
    for i, op in enumerate(ops):
        if op.kind == "child":
            pay_by_child[op.child_slot] = ("op", i)
        elif op.aggregated:
            ind_sums.append(("op", i))
        # Non-aggregated indicator probes are pure filters (payload 1).
    factors = [pay_by_child[c] for c in sorted(pay_by_child)] + ind_sums
    if kind == "ind":
        factors.append(("source", 0))
    lifts = tuple(
        (var, registers[var]) for var, lift in lift_entries if lift is not None
    )
    # Lifted-sibling memo: regrouping as ``source ⊗ (sibling ⊗ lifts)``
    # needs a commutative ring and pays only where a product is array
    # work (over ℤ/ℝ a ``*`` is cheaper than a dict probe); the program
    # must be one keyed aggregated point probe binding every lifted
    # register, of a dict-stored sibling (entries are validated by payload
    # identity, and a columnar view builds a fresh payload per read).
    kops = query.ring.kernel_ops()
    memo = None
    if (
        dict_stored
        and query.ring.is_commutative
        and kops is not None
        and kops.vectorizes_triggers
        and lifts
        and len(ops) == 1
        and isinstance(ops[0], Probe)
        and ops[0].aggregated
        and ops[0].probe_attrs
        and {register for _, register in lifts} <= set(ops[0].probe_regs)
    ):
        memo = 0
    missing = [a for a in out_attrs if a not in registers]
    if missing:  # pragma: no cover - the planner always binds output keys
        raise RuntimeError(
            f"delta program for {node.name}: output keys {missing} unbound"
        )
    return DeltaProgram(
        node_name=node.name,
        source=source,
        source_attrs=tuple(source_attrs),
        out_schema=tuple(out_attrs),
        loads=loads,
        ops=tuple(ops),
        accumulate=Accumulate(
            factors=tuple(factors),
            lifts=lifts,
            out_regs=tuple(registers[a] for a in out_attrs),
            memo=memo,
        ),
        target_schemas=tuple(tuple(s) for s in target_schemas),
        n_registers=len(registers),
    )


# ----------------------------------------------------------------------
# Factor programs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FactorSlot:
    """One live factor of a rank-1 term flowing through a node.

    ``pristine`` names the stored sibling view a slot aliases (read-only);
    collapses of pristine slots depend only on the view state and are
    memoized per view in the probe cache.
    """

    id: int
    schema: Tuple[str, ...]
    pristine: Optional[str] = None


@dataclass(frozen=True)
class AppendSibling:
    """Alias a disjoint stored sibling's primary map as a new factor."""

    target: int
    name: str
    slot: FactorSlot


@dataclass(frozen=True)
class SiblingMerge:
    """Merge a stored sibling into the factors it shares attributes with.

    The sharing factors (``inputs``) are iterated — they are tiny delta
    vectors — and the sibling is probed per combination.  ``mode`` selects
    the probe specialization, decided once here for every backend:

    * ``"full"`` — the probe covers the sibling's whole schema: one
      primary-map lookup;
    * ``"sum"`` — all extends are summed out, none lifted: read the
      secondary index's per-bucket ring sum;
    * ``"cached"`` — all extends summed out, some lifted: fold the bucket
      once (lifts applied) and memoize the sum per subkey in the probe
      cache;
    * ``"memo"`` — some extends survive downstream (the partial-match
      probe): reduce the bucket to the surviving extends — dropped lifted
      extends folded in, rows pre-aggregated per surviving key — memoize
      the reduced rows per subkey, and iterate those;
    * ``"iterate"`` — plain bucket iteration (``group_aware=False``).
    """

    target: int
    target_name: str
    target_schema: Tuple[str, ...]
    inputs: Tuple[FactorSlot, ...]
    probe_attrs: Tuple[str, ...]
    extends: Tuple[str, ...]
    #: Extends surviving into ``out.schema`` (the ``"memo"`` reduction key),
    #: in target-schema order.
    kept_extends: Tuple[str, ...]
    drop: Tuple[str, ...]
    #: Dropped lifted extends as ``(target key position, variable)`` —
    #: folded into the probe result ("cached"/"memo") or applied per row
    #: ("iterate").
    ext_lifts: Tuple[Tuple[int, str], ...]
    #: Dropped lifted variables bound by the iterated factors, applied per
    #: row (in drop order).
    row_lifts: Tuple[str, ...]
    out: FactorSlot
    mode: str


@dataclass(frozen=True)
class Marginalize:
    """Sum the given variables out of one factor (lifts applied); pristine
    inputs collapse once per view state (memoized under key ``0``)."""

    input: FactorSlot
    vars: Tuple[str, ...]
    #: ``(key position, variable)`` for the lifted subset of ``vars``.
    lifted: Tuple[Tuple[int, str], ...]
    out: FactorSlot


@dataclass(frozen=True)
class Flatten:
    """Materialize the factor product in the node's key order."""

    inputs: Tuple[FactorSlot, ...]
    out_keys: Tuple[str, ...]


@dataclass(frozen=True)
class FactorProgramIR:
    """A lowered factorized trigger for one node, source, and partition."""

    node_name: str
    source: Tuple[str, int]
    partition: Tuple[Tuple[str, ...], ...]
    #: The incoming factors' slots, aligned with ``partition``.
    initial_slots: Tuple[FactorSlot, ...]
    #: :class:`AppendSibling` / :class:`SiblingMerge`, in target order.
    ops: Tuple[object, ...]
    margs: Tuple[Marginalize, ...]
    flatten: Optional[Flatten]
    #: The factors handed to the parent, in slot order; the parent's
    #: program is compiled for ``out_partition``.
    out_slots: Tuple[FactorSlot, ...]
    out_partition: Tuple[Tuple[str, ...], ...]
    materialized: bool
    group_aware: bool


def lower_factor_plan(
    node,
    source,
    partition: Sequence[Tuple[str, ...]],
    target_names: Sequence[str],
    target_schemas: Sequence[Tuple[str, ...]],
    materialized: bool,
    query,
    group_aware: bool = True,
) -> FactorProgramIR:
    """Lower the factorized trigger for one node, source, and partition.

    ``partition`` is the tuple of factor schemas of the incoming rank-1
    term (pairwise disjoint); ``target_names``/``target_schemas`` describe
    the stored siblings in merge order (children in child order, the
    entering child skipped, then hosted indicator projections).  Like
    :func:`lower_delta_plan`, reads no live relation state.
    """
    kind, idx = source
    if kind != "child":
        raise ValueError("factorized deltas always enter through a child")
    if not partition:
        raise ValueError("a factor program needs at least one factor")
    lift_table = query.lifting.table()
    droppable = set(node.marginalized) - set(node.keys)

    next_id = [0]

    def new_slot(schema, pristine=None) -> FactorSlot:
        """Allocate the next factor slot over ``schema``."""
        slot = FactorSlot(next_id[0], tuple(schema), pristine)
        next_id[0] += 1
        return slot

    initial = tuple(new_slot(schema) for schema in partition)
    slots: List[FactorSlot] = list(initial)
    fused_away: set = set()
    ops: List[object] = []

    for ti in range(len(target_schemas)):
        ts = tuple(target_schemas[ti])
        ts_set = set(ts)
        sharing = [i for i, slot in enumerate(slots) if ts_set & set(slot.schema)]
        if not sharing:
            slot = new_slot(ts, pristine=target_names[ti])
            ops.append(AppendSibling(target=ti, name=target_names[ti], slot=slot))
            slots.append(slot)
            continue
        pending: set = set()
        for later in target_schemas[ti + 1:]:
            pending |= set(later)
        rest = [i for i in range(len(slots)) if i not in set(sharing)]
        rest_attrs = {a for i in rest for a in slots[i].schema}
        shared_attrs = {a for i in sharing for a in slots[i].schema}
        merged_schema: List[str] = list(ts)
        for i in sharing:
            merged_schema += [a for a in slots[i].schema if a not in merged_schema]
        droppable_now = droppable - pending
        drop = tuple(
            v for v in merged_schema
            if v in droppable_now and v not in rest_attrs
        )
        out_schema = tuple(a for a in merged_schema if a not in drop)
        fused_away.update(drop)

        probe = tuple(a for a in ts if a in shared_attrs)
        extends = tuple(a for a in ts if a not in shared_attrs)
        dropped_extends = tuple(a for a in extends if a in drop)
        kept_extends = tuple(a for a in extends if a not in drop)
        aggregated = bool(
            group_aware and extends and len(dropped_extends) == len(extends)
        )
        ext_lifts = tuple(
            (ts.index(a), a) for a in dropped_extends
            if lift_table.get(a) is not None
        )
        if not extends:
            mode = "full"
        elif aggregated:
            mode = "cached" if ext_lifts else "sum"
        elif group_aware:
            mode = "memo"
        else:
            mode = "iterate"
        if mode == "iterate":
            row_lift_pool = shared_attrs | set(extends)
        else:
            row_lift_pool = shared_attrs
        row_lifts = tuple(
            v for v in drop
            if lift_table.get(v) is not None and v in row_lift_pool
        )
        if mode == "iterate":
            # Per-row lifts cover the dropped extends too; nothing to fold.
            ext_lifts = ()
        out = new_slot(out_schema)
        ops.append(SiblingMerge(
            target=ti,
            target_name=target_names[ti],
            target_schema=ts,
            inputs=tuple(slots[i] for i in sharing),
            probe_attrs=probe,
            extends=extends,
            kept_extends=kept_extends,
            drop=drop,
            ext_lifts=ext_lifts,
            row_lifts=row_lifts,
            out=out,
            mode=mode,
        ))
        slots = [slots[i] for i in rest] + [out]

    # Leftover marginalizations, fused per factor.
    marg_vars: Dict[int, List[str]] = {}
    for var in node.marginalized:
        if var in fused_away:
            continue
        for i, slot in enumerate(slots):
            if var in slot.schema:
                marg_vars.setdefault(i, []).append(var)
                break
        else:
            raise RuntimeError(f"variable {var} not found in any delta factor")
    margs: List[Marginalize] = []
    for i, vars_i in marg_vars.items():
        slot = slots[i]
        var_set = set(vars_i)
        out_schema = tuple(a for a in slot.schema if a not in var_set)
        lifted = tuple(
            (slot.schema.index(v), v) for v in vars_i
            if lift_table.get(v) is not None
        )
        out = new_slot(out_schema)
        margs.append(Marginalize(
            input=slot, vars=tuple(vars_i), lifted=lifted, out=out
        ))
        slots[i] = out

    flatten: Optional[Flatten] = None
    if materialized:
        covered: set = set()
        for slot in slots:
            covered |= set(slot.schema)
        if covered != set(node.keys):
            raise RuntimeError(
                f"flattened delta schema {sorted(covered)} != view keys "
                f"{node.keys} at {node.name}"
            )
        flatten = Flatten(inputs=tuple(slots), out_keys=tuple(node.keys))

    return FactorProgramIR(
        node_name=node.name,
        source=source,
        partition=tuple(tuple(s) for s in partition),
        initial_slots=initial,
        ops=tuple(ops),
        margs=tuple(margs),
        flatten=flatten,
        out_slots=tuple(slots),
        out_partition=tuple(slot.schema for slot in slots),
        materialized=materialized,
        group_aware=group_aware,
    )


# ----------------------------------------------------------------------
# Probe-cache plumbing shared by every backend
# ----------------------------------------------------------------------


def cache_site(cache, view, site):
    """The per-``(view, site)`` memo dict inside a probe cache.

    ``cache`` maps view names to per-view dicts (the engine invalidates a
    whole view's entries by popping its name); each op instance owns a
    unique ``site`` sentinel keying its own sub-dict, so two ops probing
    the same view never collide — across backends too.
    """
    per_view = cache.get(view)
    if per_view is None:
        per_view = cache[view] = {}
    per_site = per_view.get(site)
    if per_site is None:
        per_site = per_view[site] = {}
    return per_site


def reduce_bucket(bucket, op: SiblingMerge, ring, lift_fns):
    """The ``"memo"`` reduction of a bucket: rows projected onto the
    surviving extends, dropped lifted extends folded into the payload,
    payloads pre-aggregated per surviving key.  Shared by the interpreter
    and kernel backends (the source backend emits its specialized copy).
    """
    schema = op.target_schema
    kept_positions = [schema.index(a) for a in op.kept_extends]
    mul = ring.mul
    acc: Dict[tuple, list] = {}
    for tkey, tpay in bucket.items():
        value = tpay
        for position, var in op.ext_lifts:
            value = mul(value, lift_fns[var](tkey[position]))
        ekey = tuple(tkey[p] for p in kept_positions)
        current = acc.get(ekey)
        if current is None:
            acc[ekey] = [value]
        else:
            current.append(value)
    rsum = ring.sum
    is_zero = ring.is_zero
    rows = []
    for ekey, values in acc.items():
        total = values[0] if len(values) == 1 else rsum(values)
        if not is_zero(total):
            rows.append((ekey, total))
    return tuple(rows)


# ----------------------------------------------------------------------
# The interpreter backend: walk the IR directly
# ----------------------------------------------------------------------


class InterpreterDeltaProgram:
    """Reference executor for a flat :class:`DeltaProgram`.

    Walks the ops per delta tuple with an explicit register file and a
    work stack — the executable semantics the generated backends are held
    to by the differential suites.
    """

    __slots__ = ("ir", "ring", "_targets", "_lift_fns")

    def __init__(self, ir: DeltaProgram, targets, query):
        self.ir = ir
        self.ring = query.ring
        self._targets = list(targets)
        lift_table = query.lifting.table()
        self._lift_fns = [(reg, lift_table[var]) for var, reg in ir.accumulate.lifts]
        for op in ir.ops:
            if isinstance(op, IndexProbe):
                self._targets[op.target].register_index(op.probe_attrs)

    def run(self, delta: Relation) -> Relation:
        """Interpret the trigger IR over ``delta``; returns the root delta."""
        ir = self.ir
        ring = self.ring
        mul = ring.mul
        out = Relation(ir.node_name, ir.out_schema, ring)
        add = out.add
        ops = ir.ops
        n_ops = len(ops)

        # Hoist loop-invariant whole-target collapses.
        hoisted: Dict[int, object] = {}
        for i, op in enumerate(ops):
            if op.aggregated and not op.probe_attrs:
                total = ring.sum(self._targets[op.target]._data.values())
                if ring.is_zero(total):
                    return out
                hoisted[i] = total

        factors = ir.accumulate.factors
        lifts = self._lift_fns
        out_regs = ir.accumulate.out_regs
        for key, psrc in delta._data.items():
            regs: List[object] = [None] * ir.n_registers
            for position, r in ir.loads:
                regs[r] = key[position]
            stack = [(0, regs, [None] * n_ops)]
            while stack:
                depth, rg, vals = stack.pop()
                if depth == n_ops:
                    value = None
                    for where, i in factors:
                        factor = psrc if where == "source" else vals[i]
                        value = factor if value is None else mul(value, factor)
                    lv = None
                    for r, lift in lifts:
                        term = lift(rg[r])
                        lv = term if lv is None else mul(lv, term)
                    if value is None:
                        value = ring.one if lv is None else lv
                    elif lv is not None:
                        value = mul(value, lv)
                    add(tuple(rg[r] for r in out_regs), value)
                    continue
                op = ops[depth]
                target = self._targets[op.target]
                subkey = tuple(rg[r] for r in op.probe_regs)
                if op.aggregated:
                    if not op.probe_attrs:
                        total = hoisted[depth]
                    elif isinstance(op, Probe):
                        # Full-key probe: the stored payload is the bucket
                        # sum (primary-map entries are never zero).
                        total = target._data.get(subkey)
                        if total is None:
                            continue
                    else:
                        total = target._indexes[op.probe_attrs][2].get(subkey)
                        if total is None or ring.is_zero(total):
                            continue
                    new_vals = list(vals)
                    new_vals[depth] = total
                    stack.append((depth + 1, rg, new_vals))
                    continue
                if isinstance(op, Probe):
                    if op.probe_attrs:
                        payload = target._data.get(subkey)
                        rows = ((subkey, payload),) if payload is not None else ()
                    else:
                        rows = target._data.items()
                else:
                    bucket = target._indexes[op.probe_attrs][1].get(subkey)
                    rows = bucket.items() if bucket else ()
                for tkey, tpayload in rows:
                    if op.extend:
                        new_rg = list(rg)
                        for position, r in op.extend:
                            new_rg[r] = tkey[position]
                    else:
                        new_rg = rg
                    if op.kind == "child":
                        new_vals = list(vals)
                        new_vals[depth] = tpayload
                    else:
                        new_vals = vals  # indicator rows filter (payload 1)
                    stack.append((depth + 1, new_rg, new_vals))
        return out


class InterpreterFactorProgram:
    """Reference executor for a :class:`FactorProgramIR`.

    Same run contract as the generated factor programs:
    ``run(fdatas, cache) -> (out_dicts, flat_or_None)`` with
    ``(None, None)`` when a factor cancelled to empty.
    """

    __slots__ = (
        "ir", "ring", "out_partition", "_targets", "_lift_table", "_sites",
    )

    def __init__(self, ir: FactorProgramIR, targets, query):
        self.ir = ir
        self.ring = query.ring
        self.out_partition = ir.out_partition
        self._targets = list(targets)
        self._lift_table = query.lifting.table()
        #: Per-op cache-site sentinels (fresh per binding, like the source
        #: backend's ``("sentinel",)`` environment requests).
        self._sites: Dict[int, object] = {}
        for op in ir.ops:
            if isinstance(op, SiblingMerge):
                if op.probe_attrs != op.target_schema:
                    self._targets[op.target].register_index(op.probe_attrs)
                if op.mode in ("cached", "memo"):
                    self._sites[id(op)] = object()
        for op in ir.margs:
            if op.input.pristine is not None:
                self._sites[id(op)] = object()

    # -- op executors ---------------------------------------------------

    def _finalize(self, acc: dict) -> dict:
        rsum = self.ring.sum
        is_zero = self.ring.is_zero
        dead = []
        for key, values in acc.items():
            total = values[0] if len(values) == 1 else rsum(values)
            if is_zero(total):
                dead.append(key)
            else:
                acc[key] = total
        for key in dead:
            del acc[key]
        return acc

    def _merge(self, op: SiblingMerge, slot_data, cache):
        ring = self.ring
        mul = ring.mul
        target = self._targets[op.target]
        lift_table = self._lift_table
        schema = op.target_schema
        mode = op.mode
        if mode in ("sum", "cached", "memo", "iterate") and (
            op.probe_attrs != schema
        ):
            index = target._indexes[op.probe_attrs]
        else:
            index = None
        site = None
        if mode in ("cached", "memo"):
            site = cache_site(cache, op.target_name, self._sites[id(op)])
        row_lift_fns = [(v, lift_table[v]) for v in op.row_lifts]
        acc: Dict[tuple, list] = {}

        input_schemas = [slot.schema for slot in op.inputs]
        input_dicts = [slot_data[slot.id] for slot in op.inputs]
        for combo in itertools.product(*(d.items() for d in input_dicts)):
            binding: Dict[str, object] = {}
            base = None
            for (fkey, fpay), fschema in zip(combo, input_schemas):
                for attr, value in zip(fschema, fkey):
                    binding[attr] = value
                base = fpay if base is None else mul(base, fpay)
            subkey = tuple(binding[a] for a in op.probe_attrs)

            if mode == "full":
                payload = target._data.get(subkey)
                rows = (((), payload),) if payload is not None else ()
            elif mode == "sum":
                total = index[2].get(subkey)
                if total is None or ring.is_zero(total):
                    rows = ()
                else:
                    rows = (((), total),)
            elif mode == "cached":
                total = site.get(subkey)
                if total is None:
                    bucket = index[1].get(subkey)
                    if bucket is None:
                        total = ring.zero
                    else:
                        values = []
                        for tkey, tpay in bucket.items():
                            value = tpay
                            for position, var in op.ext_lifts:
                                value = mul(
                                    value, lift_table[var](tkey[position])
                                )
                            values.append(value)
                        total = ring.sum(values)
                    site[subkey] = total
                rows = () if ring.is_zero(total) else (((), total),)
            elif mode == "memo":
                rows = site.get(subkey)
                if rows is None:
                    bucket = index[1].get(subkey)
                    rows = (
                        reduce_bucket(bucket, op, ring, lift_table)
                        if bucket else ()
                    )
                    site[subkey] = rows
            else:  # "iterate"
                bucket = index[1].get(subkey)
                rows = ()
                if bucket:
                    ext_positions = [
                        (schema.index(a), a) for a in op.extends
                    ]
                    rows = tuple(
                        (
                            tuple(tkey[p] for p, _ in ext_positions),
                            tpay,
                        )
                        for tkey, tpay in bucket.items()
                    )

            ext_attrs = op.extends if mode == "iterate" else op.kept_extends
            for ekey, spayload in rows:
                row_binding = binding
                if ext_attrs:
                    row_binding = dict(binding)
                    for attr, value in zip(ext_attrs, ekey):
                        row_binding[attr] = value
                value = mul(base, spayload) if base is not None else spayload
                for var, lift in row_lift_fns:
                    value = mul(value, lift(row_binding[var]))
                out_key = tuple(row_binding[a] for a in op.out.schema)
                current = acc.get(out_key)
                if current is None:
                    acc[out_key] = [value]
                else:
                    current.append(value)
        return self._finalize(acc)

    def _marginalize(self, op: Marginalize, data, cache):
        ring = self.ring
        mul = ring.mul
        site = None
        if op.input.pristine is not None:
            site = cache_site(cache, op.input.pristine, self._sites[id(op)])
            memo = site.get(0)
            if memo is not None:
                return memo
        schema = op.input.schema
        keep_positions = [
            i for i, a in enumerate(schema) if a not in set(op.vars)
        ]
        lifted = [(position, self._lift_table[var]) for position, var in op.lifted]
        acc: Dict[tuple, list] = {}
        for key, payload in data.items():
            value = payload
            for position, lift in lifted:
                value = mul(value, lift(key[position]))
            out_key = tuple(key[p] for p in keep_positions)
            current = acc.get(out_key)
            if current is None:
                acc[out_key] = [value]
            else:
                current.append(value)
        result = self._finalize(acc)
        if site is not None:
            site[0] = result
        return result

    def _flatten(self, op: Flatten, slot_data):
        ring = self.ring
        mul = ring.mul
        is_zero = ring.is_zero

        input_schemas = [slot.schema for slot in op.inputs]
        input_dicts = [slot_data[slot.id] for slot in op.inputs]
        if len(op.inputs) == 1 and input_schemas[0] == op.out_keys:
            return dict(input_dicts[0])
        flat: Dict[tuple, object] = {}
        for combo in itertools.product(*(d.items() for d in input_dicts)):
            binding: Dict[str, object] = {}
            value = None
            for (fkey, fpay), fschema in zip(combo, input_schemas):
                for attr, v in zip(fschema, fkey):
                    binding[attr] = v
                value = fpay if value is None else mul(value, fpay)
            # Factor schemas are disjoint, so each combination lands on a
            # distinct key — but products of non-zeros can cancel.
            if not is_zero(value):
                flat[tuple(binding[a] for a in op.out_keys)] = value
        return flat

    # -- the run contract -------------------------------------------------

    def run(self, fdatas, cache):
        """Interpret the factorized IR over the update's factor dicts."""
        ir = self.ir
        slot_data: Dict[int, dict] = {
            slot.id: fdatas[i] for i, slot in enumerate(ir.initial_slots)
        }
        for op in ir.ops:
            if isinstance(op, AppendSibling):
                slot_data[op.slot.id] = self._targets[op.target]._data
                continue
            merged = self._merge(op, slot_data, cache)
            if not merged:
                return (None, None)
            slot_data[op.out.id] = merged
        for op in ir.margs:
            reduced = self._marginalize(op, slot_data[op.input.id], cache)
            if not reduced:
                return (None, None)
            slot_data[op.out.id] = reduced
        flat = self._flatten(ir.flatten, slot_data) if ir.flatten else None
        outs = tuple(slot_data[slot.id] for slot in ir.out_slots)
        return outs, flat
