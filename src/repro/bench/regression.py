"""Bench-regression ratchet: fresh BENCH_*.json vs committed baselines.

CI regenerates the smoke benchmarks on every push (``repro.bench.smoke``,
``repro.bench.shard_smoke``) and this module compares the fresh JSON
against the baselines committed under ``benchmarks/results/``, failing on
a regression beyond the tolerance band.

What is ratcheted — and what deliberately is not:

* **Ratio metrics** (compiled/interpreter, compiled/generic, array/scalar
  triggers, sharded S=4/S=1) are dimensionless and survive a hardware
  change, so they are compared directly:
  ``fresh >= baseline * (1 - tolerance)`` or the check fails.  This is
  the throughput-regression ratchet — a strategy slipping >15% against
  its in-run reference trips it on any machine.
* **Flag metrics** (``merge_equal``, ``ok``) must simply stay truthy.
* **Parallel-scaling ratios** additionally require the fresh host to have
  at least the baseline's core count (``cpu_guard``): a 1-core laptop
  cannot be held to a 4-core baseline's speedup (the reverse — a beefier
  host vs a weaker baseline — is enforced, which is how the ratchet
  tightens when baselines are regenerated on CI-class hardware).
* **Absolute throughputs** are printed for context but never enforced:
  tuples/second on different machines are not comparable, and a 15% band
  on them would only measure runner variance.

Run as::

    PYTHONPATH=src python -m repro.bench.regression --fresh fresh/ \
        [--baseline benchmarks/results] [--tolerance 0.15] \
        [--update-baselines] [--strict]

Exit status 0 when every present metric holds, 1 otherwise.  Fresh files
without a committed baseline (a brand-new bench), and baselines written
before a newly added metric existed, pass with a warn-and-record notice —
commit the fresh JSON (or run with ``--update-baselines``, which copies
every fresh report over the baseline directory) to start ratcheting.  A
baseline that exists but cannot be *parsed* is the dangerous case — the
ratchet silently stops ratcheting — so ``--strict`` (CI mode) makes that
a hard failure instead of a warn.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

__all__ = ["compare", "update_baselines", "main"]

#: filename -> list of (json path, kind, cpu_guard) to enforce.  ``kind``
#: is "ratio" (tolerance-banded, higher is better) or "flag" (must be
#: truthy).  ``cpu_guard`` skips the metric when the fresh host has fewer
#: CPUs than the baseline host (parallel speedup needs parallel hardware).
METRICS = {
    "BENCH_smoke.json": [
        (("compiled_over_interpreter",), "ratio", False),
        (("factorized", "compiled_over_generic"), "ratio", False),
        (("ok",), "flag", False),
    ],
    "BENCH_shard_smoke.json": [
        (("merge_equal",), "flag", False),
        (("ok",), "flag", False),
        (("speedup",), "ratio", True),
    ],
    "BENCH_shard_scaling.json": [
        (("merge_equal",), "flag", False),
        (("speedup", "one", "S=4"), "ratio", True),
    ],
    "BENCH_shard_pipeline.json": [
        (("merge_equal",), "flag", False),
        (("speedup",), "ratio", False),
        (("ok",), "flag", False),
    ],
    "BENCH_ablation_kernel_backend.json": [
        (("speedup",), "ratio", False),
        (("array_over_interpreter",), "ratio", False),
    ],
    "BENCH_ingest_throughput.json": [
        (("speedup",), "ratio", False),
    ],
    "BENCH_serving_latency.json": [
        (("speedup",), "ratio", False),
    ],
    "BENCH_multiview.json": [
        (("speedup",), "ratio", False),
    ],
    "BENCH_recovery.json": [
        (("speedup",), "ratio", False),
        (("ok",), "flag", False),
    ],
}


def _dig(payload: dict, path: Tuple[str, ...]):
    value = payload
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def compare(
    fresh_dir: Path,
    baseline_dir: Path,
    tolerance: float,
    out: Optional[List[str]] = None,
    strict: bool = False,
) -> List[str]:
    """Compare every registered fresh file against its baseline.

    Returns the list of failure messages (empty = ratchet holds); human
    readable progress lines are appended to ``out`` when given, else
    printed.  ``strict`` turns a corrupt (unparseable) baseline into a
    hard failure instead of a warn-and-record: interactively a broken
    file should not block a dev loop, but under CI it means the ratchet
    silently stopped ratcheting — exactly what the gate exists to catch.
    """
    lines: List[str] = out if out is not None else []
    failures: List[str] = []
    seen_any = False
    for filename, metrics in METRICS.items():
        fresh_path = fresh_dir / filename
        if not fresh_path.exists():
            continue
        seen_any = True
        fresh = json.loads(fresh_path.read_text())
        baseline_path = baseline_dir / filename
        if not baseline_path.exists():
            lines.append(
                f"{filename}: no committed baseline — skipping ratchet "
                "(commit the fresh JSON or rerun with --update-baselines)"
            )
            continue
        try:
            baseline = json.loads(baseline_path.read_text())
        except ValueError as exc:
            if strict:
                failures.append(
                    f"{filename}: baseline is not valid JSON ({exc}) — "
                    "a corrupt baseline disables the ratchet; restore or "
                    "regenerate it (--update-baselines)"
                )
                continue
            # A corrupt baseline must not mask a fresh run: record every
            # fresh value and move on (regenerate the baseline to ratchet).
            lines.append(
                f"warn {filename}: baseline is not valid JSON — recording "
                "fresh values without ratcheting"
            )
            baseline = {}
        fresh_cpus = fresh.get("cpu_count", 1)
        base_cpus = baseline.get("cpu_count", 1)
        for path, kind, cpu_guard in metrics:
            label = f"{filename}:{'.'.join(path)}"
            fresh_value = _dig(fresh, path)
            base_value = _dig(baseline, path)
            if fresh_value is None:
                failures.append(f"{label}: missing from fresh run")
                continue
            if kind == "flag":
                if not fresh_value:
                    failures.append(f"{label}: expected truthy, got {fresh_value!r}")
                else:
                    lines.append(f"ok   {label} = {fresh_value}")
                continue
            if base_value is None:
                # A baseline written before this metric existed: warn and
                # record the fresh value instead of failing — regenerating
                # the baseline (e.g. --update-baselines) starts the ratchet.
                lines.append(
                    f"warn {label} = {fresh_value:.3f} (baseline lacks this "
                    "metric; recorded, not ratcheted)"
                )
                continue
            if cpu_guard and fresh_cpus < base_cpus:
                lines.append(
                    f"skip {label}: fresh host has {fresh_cpus} CPUs < "
                    f"baseline's {base_cpus} (parallel ratio not comparable)"
                )
                continue
            floor = base_value * (1.0 - tolerance)
            if fresh_value < floor:
                failures.append(
                    f"{label}: {fresh_value:.3f} < floor {floor:.3f} "
                    f"(baseline {base_value:.3f}, tolerance {tolerance:.0%})"
                )
            else:
                lines.append(
                    f"ok   {label} = {fresh_value:.3f} "
                    f"(baseline {base_value:.3f}, floor {floor:.3f})"
                )
    if not seen_any:
        failures.append(
            f"no registered BENCH_*.json found under {fresh_dir} — "
            "did the smoke runs write their reports?"
        )
    return failures


def update_baselines(fresh_dir: Path, baseline_dir: Path) -> List[str]:
    """Copy every fresh report (``BENCH_*.json`` and the ``.txt`` tables
    next to them) over the baselines.

    The explicit refresh path for intentional perf-trajectory changes
    (new metrics, reworked strategies) — the benchmarks themselves never
    write into the baseline directory: after this, the next ratchet run
    compares against today's numbers.  Returns the copied filenames.
    """
    baseline_dir.mkdir(parents=True, exist_ok=True)
    copied: List[str] = []
    for pattern in ("BENCH_*.json", "*.txt"):
        for fresh_path in sorted(fresh_dir.glob(pattern)):
            (baseline_dir / fresh_path.name).write_text(fresh_path.read_text())
            copied.append(fresh_path.name)
    return copied


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh", type=Path, required=True,
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline", type=Path, default=Path("benchmarks/results"),
        help="directory of committed baselines (default benchmarks/results)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.15,
        help="allowed fractional regression on ratio metrics (default 0.15)",
    )
    parser.add_argument(
        "--update-baselines", action="store_true",
        help="copy the fresh reports over the baseline directory "
        "(prints the comparison for context, then exits 0)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail on a corrupt baseline file instead of warn-and-record "
        "(CI mode: a baseline that cannot be parsed disables the ratchet)",
    )
    args = parser.parse_args(argv)
    lines: List[str] = []
    failures = compare(
        args.fresh, args.baseline, args.tolerance, out=lines,
        strict=args.strict,
    )
    for line in lines:
        print(line)
    if args.update_baselines:
        for filename in update_baselines(args.fresh, args.baseline):
            print(f"updated baseline {args.baseline / filename}")
        return 0
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
