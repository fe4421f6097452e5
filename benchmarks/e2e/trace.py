"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around each call into
a layer's public function; nothing inside ``src/`` is instrumented.  A
span is ``(span_id, parent_id, op_id, workload, name, start_ns, end_ns)``;
spans of one operation share ``op_id``.  The list lives in memory and is
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List

now_ns = time.perf_counter_ns


class Tracer:
    """Collects spans of one workload and derives per-name self times."""

    def __init__(self, workload: str):
        self.workload = workload
        #: ``[span_id, parent_id, op_id, name, start_ns, end_ns]`` rows;
        #: ``span_id`` is the row's 1-based position, 0 means "no parent".
        self.spans: List[list] = []

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: int = 0, op_id: int = -1) -> int:
        """Record a finished span; returns its id (for use as a parent)."""
        spans = self.spans
        spans.append([len(spans) + 1, parent, op_id, name, start_ns, end_ns])
        return len(spans)

    def begin(self, name: str, parent: int = 0, op_id: int = -1) -> int:
        """Open a span that :meth:`end` closes (for long, rare regions)."""
        return self.add(name, now_ns(), 0, parent, op_id)

    def end(self, span_id: int) -> None:
        self.spans[span_id - 1][5] = now_ns()

    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, List[int]]:
        """Per span name: ``[count, total_ns, self_ns]``.

        Self time is the span's duration minus the part of it that its
        direct children cover.  Children of a closed-loop span nest without
        overlap; the concurrent operations of the open-loop workload
        overlap each other, so there the children of the unit span cover
        more than its duration, its self time is clamped to zero, and the
        shares add up to more than the wall time.
        """
        covered = defaultdict(int)
        for _sid, parent, _op, _name, start, end in self.spans:
            if parent:
                p = self.spans[parent - 1]
                covered[parent] += max(0, min(end, p[5]) - max(start, p[4]))
        out: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        for sid, _parent, _op, name, start, end in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += max(0, end - start - covered.get(sid, 0))
        return dict(out)

    def total_ns(self, name: str) -> int:
        return sum(s[5] - s[4] for s in self.spans if s[3] == name)

    def layer_self_pct(self, wall_ns: int) -> Dict[str, float]:
        """Self time per layer (the span name up to its first dot) as a
        percentage of ``wall_ns``."""
        layers: Dict[str, int] = defaultdict(int)
        for name, (_count, _total, self_ns) in self.totals().items():
            layers[name.split(".", 1)[0]] += self_ns
        return {
            layer: 100.0 * ns / wall_ns for layer, ns in sorted(layers.items())
        }

    def table(self, wall_ns: int) -> str:
        """The self-time table: one row per span name, percent of wall."""
        rows = sorted(
            self.totals().items(), key=lambda item: -item[1][2]
        )
        lines = [
            f"self time by span, {self.workload} "
            f"(traced wall {wall_ns / 1e9:.3f} s)",
            f"  {'span':<34}{'count':>9}{'total ms':>12}{'self ms':>12}"
            f"{'self %':>9}",
        ]
        for name, (count, total, self_ns) in rows:
            lines.append(
                f"  {name:<34}{count:>9}{total / 1e6:>12.2f}"
                f"{self_ns / 1e6:>12.2f}{100.0 * self_ns / wall_ns:>9.2f}"
            )
        return "\n".join(lines)

    def write(self, path) -> None:
        """One JSON object per span, in recording order."""
        with open(path, "w") as out:
            for sid, parent, op_id, name, start, end in self.spans:
                out.write(json.dumps({
                    "span_id": sid, "parent_id": parent, "op_id": op_id,
                    "workload": self.workload, "name": name,
                    "start_ns": start, "end_ns": end,
                }) + "\n")
