#!/usr/bin/env python3
"""Run the end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR] [--quick]

Without ``--workload`` all seven workloads run in turn (``BENCHMARK.json``
names the four the PR driver runs).  ``--trace 0`` (the default) is the
untraced run that produces the end-to-end metrics, timings on the gauge's
clock (``harness.py``) with the raw medians printed beside them;
``--trace 1`` is a separate run that records spans around every call
into a layer and runs the substitution probes, producing the per-layer
metrics.  Files (``run_*.json``, ``trace_<workload>.jsonl``) are written
only under ``--out``; without it nothing is written anywhere.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when
any operation failed or any result differs from recomputation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: {ROOT / 'src' / 'repro'} not found: the benchmark "
             "drives the program in src/ and cannot run without it")
# Import the benchmark as the package it is (``benchmarks.e2e``), not from
# the script directory, whose ``trace.py`` would shadow the stdlib module.
if sys.path and Path(sys.path[0] or ".").resolve() == Path(__file__).resolve().parent:
    del sys.path[0]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy  # noqa: E402

from benchmarks.e2e import harness, probes  # noqa: E402
from benchmarks.e2e.stats import percentile  # noqa: E402
from benchmarks.e2e.w_chain import ChainRank1  # noqa: E402
from benchmarks.e2e.w_join import JoinFactorized  # noqa: E402
from benchmarks.e2e.w_multiview import MultiviewN100  # noqa: E402
from benchmarks.e2e.w_retailer import RetailerB1, RetailerB600  # noqa: E402
from benchmarks.e2e.w_serve import ServeZipf  # noqa: E402
from benchmarks.e2e.w_shard import ShardS2  # noqa: E402

WORKLOADS = {cls.name: cls for cls in (
    RetailerB1, RetailerB600, ChainRank1, JoinFactorized,
    ServeZipf, MultiviewN100, ShardS2,
)}

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def commit_id() -> str:
    """HEAD of the checkout, read from ``.git`` without spawning git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per_layer(workload, m: harness.Measurement) -> dict:
    """Every per-layer metric of the manifest; one this workload's layers
    do not produce reads 0."""
    values = dict(m.layers)
    figures = [harness.unit_figures(u) for u in m.units]
    if m.tracer is not None and any(u.traced for u in m.units):
        wall_ns = m.tracer.total_ns("loop.unit")
        for layer, pct in m.tracer.layer_self_pct(wall_ns).items():
            values[f"selftime.{layer}_pct"] = pct
        # like with like on a moving machine: both on the gauge's clock
        speed = {
            traced: statistics.median(
                f["update_tuples_per_s_norm"]
                for f, u in zip(figures, m.units) if u.traced == traced)
            for traced in (False, True)
        }
        values["bench.trace_overhead_frac"] = speed[False] / speed[True] - 1.0
    update = harness.pooled(m.units, "update_lat")
    reads = harness.pooled(m.units, "read_lat")
    values.update({
        "latency.update_p95_us": 1e6 * percentile(update, 0.95),
        "latency.update_p99_us": 1e6 * percentile(update, 0.99),
        "latency.read_p99_us": 1e6 * percentile(reads, 0.99),
        "mem.rss_after_setup_mb": m.rss_after_setup_mb,
        "mem.bytes_per_scalar":
            m.peak_rss_mb * 1024 * 1024 / max(1, m.state_scalars),
        "bench.gen_s": workload.gen_s,
        "bench.timer_ns": probes.timer_ns(),
        "bench.loadavg1": m.loadavg_start,
        "bench.gauge_factor": statistics.median(
            f["gauge_factor"] for f in figures),
    })
    known = {entry["name"]: entry["unit"] for entry in MANIFEST["per_layer"]}
    unknown = sorted(set(values) - set(known))
    if unknown:
        raise SystemExit(f"per-layer metrics missing from BENCHMARK.json: "
                         f"{unknown}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in known.items()
    }


def run_workload(name: str, args) -> dict:
    """Generate, measure and gate one workload; returns its result record."""
    workload = WORKLOADS[name](args.seed, args.quick)
    m = harness.measure(workload, args.seconds, bool(args.trace))
    e2e = harness.end_to_end(workload, m)
    attempted = sum(u.attempted for u in m.units) + 1
    failed = sum(u.failed for u in m.units) + len(m.mismatches)
    e2e_units = {e["name"]: e["unit"] for e in MANIFEST["end_to_end"]}
    if set(e2e) != set(e2e_units):
        raise SystemExit("end-to-end metrics differ from BENCHMARK.json: "
                         f"{sorted(set(e2e) ^ set(e2e_units))}")
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(bool(args.trace)),
        "quick": args.quick,
        "input_digest": workload.input_digest,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_frac": failed / attempted,
        "mismatches": m.mismatches,
        "units": len(m.units),
        # per unit, raw and on the gauge's clock: what the medians below
        # are made from
        "unit_figures": [harness.unit_figures(u) for u in m.units],
        "setups": [list(pair) for pair in zip(m.setups, m.setup_factors)],
        "end_to_end": e2e,
        "per_layer": per_layer(workload, m) if args.trace else {},
        "meta": {
            "commit": commit_id(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "loadavg1_start": m.loadavg_start,
            "loadavg1_end": m.loadavg_end,
            # A run that starts on a busy box is marked; compare.py drops it.
            "noisy": m.loadavg_start > (os.cpu_count() or 1),
        },
    }
    print_report(record, m)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stamp = time.time_ns()
        (out / f"run_{name}_{stamp}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        if m.tracer is not None:
            m.tracer.write(out / f"trace_{name}.jsonl")
    return record


def print_report(record: dict, m: harness.Measurement) -> None:
    """The human-readable part: every metric by name, unit, sample count."""
    meta = record["meta"]
    print(f"== {record['workload']}  seed={record['seed']} "
          f"digest={record['input_digest']} units={record['units']} "
          f"commit={meta['commit'][:12]} py={meta['python']} "
          f"numpy={meta['numpy']} cpus={meta['cpu_count']} "
          f"load={meta['loadavg1_start']:.2f}->{meta['loadavg1_end']:.2f}"
          f"{' NOISY' if meta['noisy'] else ''}")
    figures = [f for f, u in zip(record["unit_figures"], m.units)
               if not u.traced]
    for name, entry in record["end_to_end"].items():
        line = (f"  {name:<24}{entry['value']:>16.4f} {entry['unit']:<6}"
                f" n={entry['n']}")
        if name in figures[0]:  # a timing: the raw median beside it
            raw = statistics.median(f[name] for f in figures)
            line += f"  (raw {raw:.4f})"
        print(line)
    print(f"  {'gauge_factor':<24}"
          f"{statistics.median(f['gauge_factor'] for f in figures):>16.4f}")
    print(f"  {'failed_ops_frac':<24}{record['failed_ops_frac']:>16.6f}"
          f"        n={record['attempted']}")
    for line in record["mismatches"]:
        print(f"  MISMATCH: {line}")
    if record["per_layer"]:
        wall_ns = m.tracer.total_ns("loop.unit")
        print(m.tracer.table(wall_ns))
        for name, entry in record["per_layer"].items():
            if entry["value"]:
                print(f"  {name:<44}{entry['value']:>16.4f} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(MANIFEST["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="directory for run_*.json and traces")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs (the tier-1 smoke size)")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = min(args.seconds, 0.0)
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = [run_workload(name, args) for name in names]
    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for record in records:
        prefix = "" if args.workload else record["workload"] + "."
        for name, entry in record[key].items():
            metrics[prefix + name] = {
                "value": entry["value"], "unit": entry["unit"]}
    bad = [k for k, e in metrics.items() if not math.isfinite(e["value"])]
    failed = sum(r["failed"] for r in records) + len(bad)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
