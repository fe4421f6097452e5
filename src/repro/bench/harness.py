"""Throughput/memory harness shared by all benchmarks.

Runs a maintenance strategy over an update stream, recording cumulative
throughput (tuples/second) and logical memory at evenly spaced stream
fractions — the axes of the paper's Figures 7, 8, and 13.  A time budget
emulates the paper's one-hour timeout (scaled down): strategies that exceed
it are marked timed out and report the fraction they reached.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.bench.memory import strategy_scalars
from repro.datasets.streams import UpdateStream

__all__ = [
    "StreamRunResult",
    "run_stream",
    "timed_per_update",
    "timed_chain_rank_one",
    "format_table",
]


def timed_per_update(fn: Callable[[], object], repeats: int) -> float:
    """Average wall-clock seconds per call of ``fn`` over ``repeats`` calls.

    The update-shaped twin of :func:`run_stream` for workloads that are not
    tuple streams (rank-1 matrix updates, factorized deltas): the fig6
    benchmarks, the factorized ablation, and the CI smoke's factorized
    column all time through this one helper so their numbers compare.
    """
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def timed_chain_rank_one(mats, terms, form: str = "default", index: int = 2):
    """Seconds per rank-1 update to ``A<index>`` of a hash-engine matrix
    chain, plus the driven engine (so callers can compare end states).

    The one protocol shared by the factorized ablation and the CI smoke's
    factorized column: the first update is burned off the clock (it pays
    the lazy factor-program compilation), the rest are timed through
    :func:`timed_per_update` — so at least two terms are required.
    ``form`` picks the engine over :class:`~repro.apps.MatrixChainIVM`'s
    tree: ``"default"`` (factor programs in array form from
    ``kernels.MIN_VECTOR_ROWS`` factor rows up), ``"scalar"`` (that
    threshold out of reach: the generated source only) or
    ``"interpreter"`` (the reference both are measured against).
    """
    from repro.apps.matrix_chain import (
        chain_database,
        chain_query,
        chain_variable_order,
        rank_one_update,
    )
    from repro.core import kernels
    from repro.core.engine import FIVMEngine

    if len(terms) < 2:
        raise ValueError(
            "timed_chain_rank_one needs >= 2 terms: the first is burned as "
            "the compilation warm-up"
        )

    dims = [mats[0].shape[0], *(matrix.shape[1] for matrix in mats)]
    threshold = kernels.MIN_VECTOR_ROWS
    if form == "scalar":
        kernels.MIN_VECTOR_ROWS = sys.maxsize  # read once, at construction
    try:
        engine = FIVMEngine(
            chain_query(len(mats)),
            chain_variable_order(len(mats), dims),
            updatable=[f"A{index}"],
            db=chain_database(mats),
            backend="interpreter" if form == "interpreter" else None,
        )
    finally:
        kernels.MIN_VECTOR_ROWS = threshold
    queue = iter(terms)

    def one_update():
        u, v = next(queue)
        engine.apply_factorized_update(rank_one_update(index, u, v))

    one_update()
    return engine, timed_per_update(one_update, len(terms) - 1)


@dataclass
class StreamRunResult:
    """Checkpointed measurements from one strategy over one stream."""

    name: str
    fractions: List[float] = field(default_factory=list)
    throughput: List[float] = field(default_factory=list)
    memory: List[int] = field(default_factory=list)
    total_tuples: int = 0
    total_seconds: float = 0.0
    timed_out: bool = False

    @property
    def average_throughput(self) -> float:
        if self.total_seconds <= 0:
            return float("inf")
        return self.total_tuples / self.total_seconds

    @property
    def peak_memory(self) -> int:
        return max(self.memory) if self.memory else 0


def run_stream(
    name: str,
    strategy,
    stream: UpdateStream,
    ring,
    checkpoints: int = 10,
    time_budget: Optional[float] = None,
    apply: Optional[Callable] = None,
    group: int = 1,
) -> StreamRunResult:
    """Drive ``strategy`` through the stream, sampling at checkpoints.

    ``apply`` overrides how a delta is fed to the strategy (default:
    ``strategy.apply_update(delta)``).  Timing covers only the apply calls;
    delta construction and memory accounting are outside the clock.

    ``group`` > 1 exercises the batched multi-relation trigger: ``group``
    consecutive deltas are handed to ``apply`` as one list (default:
    ``strategy.apply_batch(deltas)``), so per-relation coalescing and
    single-pass path propagation are on the clock while the stream, its
    checkpoints, and the tuple accounting stay identical.
    """
    if group > 1:
        apply = apply or (lambda deltas: strategy.apply_batch(deltas))
    else:
        apply = apply or (lambda delta: strategy.apply_update(delta))
    result = StreamRunResult(name=name)
    total_batches = len(stream.batches)
    if total_batches == 0:
        return result
    marks = {
        max(0, round(total_batches * i / checkpoints) - 1)
        for i in range(1, checkpoints + 1)
    }
    elapsed = 0.0
    tuples_done = 0
    total_tuples = max(1, stream.total_tuples)
    pending: List = []
    pending_tuples = 0
    for index, delta in enumerate(stream.deltas(ring)):
        batch_tuples = len(stream.batches[index])
        if group > 1:
            pending.append(delta)
            pending_tuples += batch_tuples
            # Flush on a full group, at checkpoints (so measurements line
            # up across group sizes), and at the end of the stream.
            if (
                len(pending) < group
                and index not in marks
                and index != total_batches - 1
            ):
                continue
            start = time.perf_counter()
            apply(pending)
            elapsed += time.perf_counter() - start
            tuples_done += pending_tuples
            pending = []
            pending_tuples = 0
        else:
            start = time.perf_counter()
            apply(delta)
            elapsed += time.perf_counter() - start
            tuples_done += batch_tuples
        if index in marks:
            result.fractions.append(tuples_done / total_tuples)
            result.throughput.append(
                tuples_done / elapsed if elapsed > 0 else float("inf")
            )
            result.memory.append(strategy_scalars(strategy))
        if time_budget is not None and elapsed > time_budget:
            result.timed_out = True
            break
    result.total_tuples = tuples_done
    result.total_seconds = elapsed
    if not result.fractions or result.fractions[-1] < 1.0:
        result.fractions.append(tuples_done / max(1, stream.total_tuples))
        result.throughput.append(
            tuples_done / elapsed if elapsed > 0 else float("inf")
        )
        result.memory.append(strategy_scalars(strategy))
    return result


def format_table(title: str, headers: List[str], rows: List[List[object]]) -> str:
    """Render an aligned text table (the benches print paper-style tables)."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.01:
                return f"{value:.3e}"
            return f"{value:.3f}"
        return str(value)

    str_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in str_rows)) if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
