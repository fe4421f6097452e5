"""The measurement protocol every workload runs under.

One *unit* is a fixed, seeded piece of work (an update stream with reads
interleaved) applied to a freshly set-up system.  A run repeats
``set-up → unit`` until the units have measured for ``--seconds`` seconds
(at least three times) — so a faster engine measures more units, not a
shorter time.  Every unit replays the same calls from the same state, so
exact metrics (``state_scalars``, digests) repeat exactly for a seed, and
what differs from unit to unit is how fast the shared machine happened to
run.  That is measured beside the work by the gauge (below), every timing
is put on the gauge's clock, and the run reports the median over the
calmer half of its units (:func:`end_to_end`).

Before each unit: the set-up warms every trigger, then ``gc.collect();
gc.freeze()``; the collector stays on inside the unit.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.data.relation import Relation

from benchmarks.e2e.trace import Tracer, now_ns

clock = time.perf_counter

# ----------------------------------------------------------------------
# The gauge: how fast this machine is running right now
# ----------------------------------------------------------------------
#
# A shared host slows a guest down by 10-80 % for stretches of a tenth of
# a second to minutes (a neighbour's load on the same core and caches; it
# is not visible as steal), so the same code measures differently from one
# run to the next and no run length inside the driver's limits averages
# that out.  The gauge is one fixed slice of interpreter work (dict and
# tuple traffic plus a 44x44 matrix product, the mix the engines run)
# timed again and again beside the measured work: inside a closed-loop
# unit at every read point, off the update clock, for ``GAUGE_SHARE`` of
# the time; and in a burst before and after every set-up.  A slice's time
# over ``GAUGE_REF_S`` is the *gauge factor* there: how much slower than
# the calm reference box the machine ran at that moment.  End-to-end
# timings are divided by it call by call (:func:`unit_figures`).

#: One slice on the box the benchmark was sized on, when it is calm.
GAUGE_REF_S = 43e-6
#: Share of a unit's update time spent in timed gauge slices.
GAUGE_SHARE = 0.04
#: Slices in the rolling median that gives the factor at one point of a
#: unit: wide enough to shrug off a descheduled slice, narrow enough to
#: follow a slow-down that lasts a few tens of milliseconds.
GAUGE_WINDOW = 25
#: Slices before and after a set-up.
GAUGE_BURST = 40
_GAUGE_KEYS = [(i % 97, i % 13) for i in range(400)]
_GAUGE_MATRIX = np.arange(44.0 * 44.0).reshape(44, 44) / 1000.0


def gauge_slice() -> float:
    """Seconds one fixed slice of interpreter + NumPy work takes now."""
    table: Dict[tuple, int] = {}
    get = table.get
    matrix = _GAUGE_MATRIX
    start = clock()
    for key in _GAUGE_KEYS:
        table[key] = get(key, 0) + 1
    (matrix @ matrix + matrix).sum()
    return clock() - start


def gauge_burst() -> List[float]:
    gauge_slice()  # the first slice after other work runs on cold caches
    return [gauge_slice() for _ in range(GAUGE_BURST)]


#: Fewest units per run, whatever ``--seconds`` says: a median over the
#: calmer half needs a few to choose from.
MIN_UNITS = 3
#: ``setup_s`` is a median of several set-ups: one per unit, then extra
#: ones (built and closed on no unit's clock) until there are at least
#: ``MIN_SETUPS`` and, for cheap set-ups, ``SETUP_SECONDS`` of them in all
#: or ``MAX_SETUPS``.
MIN_SETUPS = 7
MAX_SETUPS = 30
SETUP_SECONDS = 1.0


@dataclass
class Unit:
    """What one timed unit measured."""

    tuples: int = 0
    #: Wall time of the update region: every update call plus the closing
    #: barrier (``flush``/``drain``), interleaved reads excluded.
    seconds: float = 0.0
    update_lat: List[float] = field(default_factory=list)
    read_lat: List[float] = field(default_factory=list)
    #: Gauge slices timed inside this unit, and for each slice and each
    #: read how many updates had been made by then.
    gauge: List[float] = field(default_factory=list)
    gauge_at: List[int] = field(default_factory=list)
    read_at: List[int] = field(default_factory=list)
    #: Operations attempted / failed (exceptions, sheds, timeouts).
    attempted: int = 0
    failed: int = 0
    #: Whether this unit was recorded by the tracer.
    traced: bool = False
    extra: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "Unit") -> None:
        """Fold a later segment of the same unit into this one."""
        self.tuples += other.tuples
        self.seconds += other.seconds
        done = len(self.update_lat)
        self.gauge += other.gauge
        self.gauge_at += [done + at for at in other.gauge_at]
        self.read_at += [done + at for at in other.read_at]
        self.update_lat += other.update_lat
        self.read_lat += other.read_lat
        self.attempted += other.attempted
        self.failed += other.failed
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value


class Workload:
    """Base class: inputs are generated once, units run many times."""

    name = ""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick
        self.input_digest = ""
        self.gen_s = 0.0

    # -- protocol -------------------------------------------------------

    def setup(self):
        """Construct, preload and warm up the system; returns its state."""
        raise NotImplementedError

    def run(self, state, tracer: Optional[Tracer] = None) -> Unit:
        raise NotImplementedError

    def scalars(self, state) -> int:
        raise NotImplementedError

    def check(self, state) -> List[str]:
        """Correctness gate: mismatches against recomputation."""
        raise NotImplementedError

    def close(self, state) -> None:
        """Release what :meth:`setup` opened (workers, sockets)."""

    def layers(self, state, tracer: Tracer, units: List[Unit]) -> Dict[str, float]:
        """Per-layer metrics of the traced run (spans + probes)."""
        return {}


# ----------------------------------------------------------------------
# The shared closed-loop driver
# ----------------------------------------------------------------------


def drive(
    ops,
    update: Callable,
    read: Callable,
    read_every: int,
    barrier: Optional[Callable] = None,
    tracer: Optional[Tracer] = None,
    traced_update: Optional[Callable] = None,
) -> Unit:
    """Closed loop: ``update(op)`` per op, one ``read()`` per ``read_every``
    ops (none when 0), then ``barrier()``; every call is timed on its own.
    After each read the gauge runs, off the update clock like the read:
    one slice to refill the caches, then timed slices until they have had
    ``GAUGE_SHARE`` of the update time so far.

    With a tracer, ``traced_update(op, parent_span, op_id)`` runs instead
    and records the spans of the layers it calls into under a ``loop.op``
    span; reads and the barrier get spans of their own.
    """
    unit = Unit(traced=tracer is not None)
    lat, rlat, gauge = unit.update_lat, unit.read_lat, unit.gauge
    gauge_at, read_at = unit.gauge_at, unit.read_at
    countdown = read_every
    # time spent off the update clock (reads, gauge), and in gauge slices
    off_clock = gauged = 0.0
    if tracer is None:
        start = clock()
        for op in ops:
            t0 = clock()
            update(op)
            t1 = clock()
            lat.append(t1 - t0)
            countdown -= 1
            if not countdown:
                countdown = read_every
                read()
                t2 = clock()
                rlat.append(t2 - t1)
                read_at.append(len(lat))
                gauge_slice()
                while gauged < GAUGE_SHARE * (t2 - start - off_clock):
                    gauge.append(gauge_slice())
                    gauge_at.append(len(lat))
                    gauged += gauge[-1]
                off_clock += clock() - t1
        if barrier is not None:
            barrier()
        unit.seconds = clock() - start - off_clock
    else:
        spans = tracer.spans
        root = tracer.begin("loop.unit")
        start = clock()
        for i, op in enumerate(ops):
            span = tracer.begin("loop.op", root, i)
            traced_update(op, span, i)
            tracer.end(span)
            lat.append((spans[span - 1][5] - spans[span - 1][4]) * 1e-9)
            countdown -= 1
            if not countdown:
                countdown = read_every
                t0 = now_ns()
                read()
                t1 = now_ns()
                tracer.add("read", t0, t1, root, i)
                rlat.append((t1 - t0) * 1e-9)
                read_at.append(len(lat))
                gauge_slice()
                while gauged < GAUGE_SHARE * (t1 * 1e-9 - start - off_clock):
                    gauge.append(gauge_slice())
                    gauge_at.append(len(lat))
                    gauged += gauge[-1]
                t2 = now_ns()
                tracer.add("gauge", t1, t2, root, i)
                off_clock += (t2 - t0) * 1e-9
        if barrier is not None:
            t0 = now_ns()
            barrier()
            tracer.add("barrier", t0, now_ns(), root)
        unit.seconds = clock() - start - off_clock
        tracer.end(root)
    unit.attempted = len(lat) + len(rlat)
    return unit


def relation_updaters(schemas, ring, apply: Callable, tracer, span: str,
                      count_root_rows: bool = False):
    """The two update callables of a relation-shaped stream whose ops are
    ``(relation, rows, multiplicity)``.  The clock of one update covers
    ``Relation.from_tuples`` **and** the apply call, because callers pay
    both; traced, the two are separate spans (``ingest.build_delta`` and
    ``<span>.<relation>``) and, on request, the rows of each returned root
    delta are counted into ``root_rows[0]`` (not for a pipelined engine:
    measuring a deferred delta would force it).
    """
    from_tuples = Relation.from_tuples
    one, minus_one = ring.one, ring.from_int(-1)

    def update(op):
        rel, rows, mult = op
        apply(from_tuples(rel, schemas[rel], ring, rows,
                          one if mult > 0 else minus_one))

    if tracer is None:
        return update, None, None
    add = tracer.add
    names = {rel: f"{span}.{rel}" for rel in schemas}
    root_rows = [0]

    def traced_update(op, parent, i):
        rel, rows, mult = op
        t0 = now_ns()
        delta = from_tuples(rel, schemas[rel], ring, rows,
                            one if mult > 0 else minus_one)
        t1 = now_ns()
        out = apply(delta)
        t2 = now_ns()
        add("ingest.build_delta", t0, t1, parent, i)
        add(names[rel], t1, t2, parent, i)
        if count_root_rows:
            root_rows[0] += len(out)

    return update, traced_update, root_rows


def apply_ops(schemas, ring, apply: Callable, ops) -> None:
    """Apply ``(relation, rows, multiplicity)`` ops off any clock."""
    update, _traced, _rows = relation_updaters(schemas, ring, apply, None, "")
    for op in ops:
        update(op)


def count_tuples(ops) -> int:
    return sum(len(rows) for _rel, rows, _mult in ops)


def final_counts(relations, ops) -> Dict[str, Dict[tuple, int]]:
    """The tables a stream of ops leaves behind, row → multiplicity,
    built without any engine (the input of every recomputation oracle)."""
    counts: Dict[str, Dict[tuple, int]] = {rel: {} for rel in relations}
    for rel, rows, mult in ops:
        table = counts[rel]
        for row in rows:
            table[row] = table.get(row, 0) + mult
    return {
        rel: {row: n for row, n in table.items() if n}
        for rel, table in counts.items()
    }


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------


@dataclass
class Measurement:
    """Everything one run of one workload produced."""

    units: List[Unit]
    #: Raw seconds of every set-up, and the gauge factor around each.
    setups: List[float]
    setup_factors: List[float]
    peak_rss_mb: float
    rss_after_setup_mb: float
    state_scalars: int
    mismatches: List[str]
    tracer: Optional[Tracer]
    layers: Dict[str, float]
    loadavg_start: float
    loadavg_end: float


def own_rss_mb() -> float:
    """Peak resident set of this process so far, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Largest peak resident set among the children reaped so far, MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def measure(workload: Workload, seconds: float, trace: bool) -> Measurement:
    """Repeat set-up + unit until ``seconds`` were measured, then gate.

    Peak memory is that of the first set-up + unit alone (this process
    when the unit ends, plus its largest worker once they are reaped), and
    the previous unit's state is released before the next is built — so
    the figure does not grow with the number of units a faster engine
    fits into ``seconds``.

    A traced run makes exactly ``MIN_UNITS`` units whatever ``seconds``
    says — the first untraced, as the base of ``bench.trace_overhead_frac``
    — because its spans live in memory; the rest of its time goes to the
    probes.
    """
    loadavg_start = os.getloadavg()[0]
    tracer = Tracer(workload.name) if trace else None
    units: List[Unit] = []
    setups: List[float] = []
    setup_factors: List[float] = []

    def timed_setup():
        """One set-up between two gauge bursts."""
        gc.collect()
        burst = gauge_burst()
        start = clock()
        state = workload.setup()
        setups.append(clock() - start)
        burst += gauge_burst()
        setup_factors.append(statistics.median(burst) / GAUGE_REF_S)
        return state

    state = None
    measured = peak = rss_after_setup = 0.0
    try:
        while len(units) < MIN_UNITS or (not trace and measured < seconds):
            if state is not None:
                workload.close(state)
                state = None
                if len(units) == 1:
                    peak += children_rss_mb()
            state = timed_setup()
            if not units:
                rss_after_setup = own_rss_mb()
            gc.collect()
            gc.freeze()
            try:
                unit = workload.run(state, tracer if units else None)
            finally:
                gc.unfreeze()
            if not units:
                peak = own_rss_mb()
            units.append(unit)
            measured += unit.seconds
        scalars = workload.scalars(state)
        mismatches = workload.check(state)
        layers = workload.layers(state, tracer, units) if trace else {}
    finally:
        if state is not None:
            workload.close(state)
    while len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS and sum(setups) < SETUP_SECONDS):
        workload.close(timed_setup())
    return Measurement(
        units=units, setups=setups, setup_factors=setup_factors,
        peak_rss_mb=peak,
        rss_after_setup_mb=rss_after_setup, state_scalars=scalars,
        mismatches=mismatches, tracer=tracer, layers=layers,
        loadavg_start=loadavg_start, loadavg_end=os.getloadavg()[0],
    )


def pooled(units: List[Unit], attr: str) -> List[float]:
    out: List[float] = []
    for unit in units:
        out.extend(getattr(unit, attr))
    out.sort()
    return out


def unit_figures(unit: Unit) -> Dict[str, float]:
    """What one unit measured: throughput of its update region and the
    medians of its update and read latencies — raw, and on the gauge's
    clock (``*_norm``), where every call's time is divided by the gauge
    factor at that point of the unit (a rolling median over
    ``GAUGE_WINDOW`` slices) and the update region shrinks by as much as
    its calls did.  A unit without gauge slices (the open-loop workload,
    whose wall time the schedule fixes) has factor 1 throughout.
    """
    lat = np.asarray(unit.update_lat)
    reads = np.asarray(unit.read_lat)
    if unit.gauge:
        half = GAUGE_WINDOW // 2
        padded = np.pad(np.asarray(unit.gauge), half, mode="edge")
        smooth = np.median(
            np.lib.stride_tricks.sliding_window_view(padded, GAUGE_WINDOW),
            axis=1) / GAUGE_REF_S
        at = np.asarray(unit.gauge_at)
        last = len(at) - 1
        # the first slice timed after each update, and after each read
        factor = smooth[np.minimum(
            np.searchsorted(at, np.arange(len(lat)), side="right"), last)]
        read_factor = smooth[np.minimum(
            np.searchsorted(at, unit.read_at, side="left"), last)]
    else:
        smooth = factor = read_factor = np.ones(1)
    lat_norm = lat / factor
    seconds_norm = unit.seconds * lat_norm.sum() / lat.sum()
    return {
        "update_tuples_per_s": unit.tuples / unit.seconds,
        "update_p50_us": 1e6 * float(np.median(lat)),
        "read_p50_us": 1e6 * float(np.median(reads)),
        "update_tuples_per_s_norm": unit.tuples / seconds_norm,
        "update_p50_us_norm": 1e6 * float(np.median(lat_norm)),
        "read_p50_us_norm": 1e6 * float(np.median(reads / read_factor)),
        "gauge_factor": float(np.median(smooth)),
    }


def end_to_end(workload: Workload, m: Measurement) -> Dict[str, dict]:
    """The end-to-end metrics: value, unit and sample count by name.

    Timings are on the gauge's clock (:func:`unit_figures`): what the run
    would have measured on the reference box running calm.  Every unit
    makes the same calls from the same state, and the correction is the
    more exact the less there is to correct, so each figure is the median
    over the calmer half of the run's untraced units (those with the
    lowest gauge factor).  ``setup_s`` is the same over the run's set-ups,
    each divided by the gauge factor of the bursts around it.
    """
    figures = sorted(
        (unit_figures(u) for u in m.units if not u.traced),
        key=lambda f: f["gauge_factor"])
    figures = figures[:(len(figures) + 1) // 2]

    def metric(value, unit, n):
        return {"value": float(value), "unit": unit, "n": n}

    def over_units(name):
        return statistics.median(f[name + "_norm"] for f in figures)

    calm = sorted(zip(m.setup_factors, m.setups))[:(len(m.setups) + 1) // 2]
    first = m.units[0]
    return {
        "setup_s": metric(
            statistics.median(s / f for f, s in calm), "s", len(calm)),
        "update_tuples_per_s": metric(
            over_units("update_tuples_per_s"), "1/s", len(figures)),
        "update_p50_us": metric(
            over_units("update_p50_us"), "us", len(first.update_lat)),
        "read_p50_us": metric(
            over_units("read_p50_us"), "us", len(first.read_lat)),
        "peak_rss_mb": metric(m.peak_rss_mb, "MB", 1),
        "state_scalars": metric(m.state_scalars, "count", 1),
    }
