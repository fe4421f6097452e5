#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A_DIR B_DIR``.

Each directory holds the ``run_*.json`` files that ``run.py --out DIR``
wrote (several runs per workload; noisy and ``--quick`` runs are ignored).
Per workload × end-to-end metric it prints each side's median and
quartiles over the untraced runs, the ratio B/A with its base, and a
verdict against the metric's bound in ``BENCHMARK.json`` (for all seven
workloads of ``run.py``, the three the driver does not run included):

``same`` / ``worse`` / ``better``
    B's median against A's, by more than the bound or not;
``unresolved``
    either side's quartile spread exceeds the bound, so the runs cannot
    tell.

Where both directories also hold traced runs (``--trace 1``), the
per-layer metrics in :data:`JUDGED_LAYERS` get the same verdicts from
those: the single-workload metrics the manifest cannot bound (its
end-to-end metrics are reported by every workload), each with the bound
ISSUE 11 gave it.

Exact quantities (``state_scalars``, ``failed_ops_frac``, the input digest
of each seed) must be identical.  Exit code 1 on any ``worse``,
``unresolved`` or exact mismatch.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.stats import quartile_spread, quartiles  # noqa: E402


TAILS = ("retailer_b1", "chain_rank1", "join_factorized", "serve_zipf",
         "multiview_n100", "shard_s2")  # ≥ 1 000 update calls per run

#: Per-layer metric → (workloads it is judged on, better, bound).  A bound
#: of 0 means "may not get worse at all".
JUDGED_LAYERS = {
    "latency.update_p99_us": (TAILS, "lower", 0.15),
    "latency.update_p95_us": (("retailer_b600",), "lower", 0.15),
    "latency.read_p99_us": (("serve_zipf",), "lower", 0.15),
    "serve.max_rate_ok": (("serve_zipf",), "higher", 0.0),
    "enumerate.tuples_per_s": (("join_factorized",), "higher", 0.10),
    "checkpoint.snapshot_s": (("retailer_b600",), "lower", 0.10),
    "checkpoint.recover_s": (("retailer_b600",), "lower", 0.10),
    "sharded.vs_single_ratio": (("shard_s2",), "higher", 0.10),
}


def load(directory: str, traced: bool):
    """``{workload: [record, ...]}`` of the usable untraced (or traced)
    runs in a directory."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("run_*.json")):
        record = json.loads(path.read_text())
        if (record["meta"]["noisy"] or record["quick"]
                or bool(record["trace"]) != traced):
            continue
        runs[record["workload"]].append(record)
    return runs


def exact(record) -> tuple:
    """What must repeat exactly for a seed."""
    return (record["input_digest"], record["failed_ops_frac"],
            record["end_to_end"]["state_scalars"]["value"])


def verdict(a, b, better: str, bound: float) -> str:
    if quartile_spread(a) > bound or quartile_spread(b) > bound:
        return "unresolved"
    base, new = quartiles(a)[1], quartiles(b)[1]
    change = (new - base) / base if base else 0.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = load(argv[0], False), load(argv[1], False)
    traced_a, traced_b = load(argv[0], True), load(argv[1], True)
    failures = 0

    def judge(name, unit, better, bound, a, b) -> None:
        nonlocal failures
        qa, qb = quartiles(a), quartiles(b)
        result = verdict(a, b, better, bound)
        failures += result in ("worse", "unresolved")
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        print(
            f"  {name:<24} A {qa[1]:>13.4f} [{qa[0]:.4f}, {qa[2]:.4f}]"
            f"  B {qb[1]:>13.4f} [{qb[0]:.4f}, {qb[2]:.4f}]"
            f"  B/A {ratio:.3f} (base {qa[1]:.4f} {unit})"
            f"  bound {bound:.2f}  {result}"
        )

    print(f"A = {argv[0]}   B = {argv[1]}")
    # every workload either side ran, the driver's four or not
    for workload in sorted(set(side_a) | set(side_b)):
        a_runs, b_runs = side_a.get(workload, []), side_b.get(workload, [])
        if not a_runs or not b_runs:
            print(f"== {workload}: missing on {'A' if not a_runs else 'B'}")
            failures += 1
            continue
        print(f"== {workload}  (A: {len(a_runs)} runs, B: {len(b_runs)} runs)")
        for entry in manifest["end_to_end"]:
            name = entry["name"]
            judge(name, entry["unit"], entry["better"], entry["bound"],
                  [r["end_to_end"][name]["value"] for r in a_runs],
                  [r["end_to_end"][name]["value"] for r in b_runs])
        a_traced, b_traced = traced_a.get(workload), traced_b.get(workload)
        if a_traced and b_traced:
            print(f"  -- per-layer, from the traced runs "
                  f"(A: {len(a_traced)}, B: {len(b_traced)})")
            for name, (workloads, better, bound) in JUDGED_LAYERS.items():
                if workload in workloads:
                    judge(name, a_traced[0]["per_layer"][name]["unit"],
                          better, bound,
                          [r["per_layer"][name]["value"] for r in a_traced],
                          [r["per_layer"][name]["value"] for r in b_traced])
        # exact quantities, seed by seed
        exact_a = {
            r["seed"]: exact(r) for r in a_runs
        }
        for record in b_runs:
            mine = exact(record)
            theirs = exact_a.get(record["seed"])
            if theirs is not None and theirs != mine:
                print(f"  EXACT MISMATCH seed {record['seed']}: "
                      f"A {theirs}  B {mine}")
                failures += 1
        failed = [r["failed_ops_frac"] for r in a_runs + b_runs]
        print(f"  {'failed_ops_frac':<22} max {max(failed):.6f}  "
              f"{'identical' if max(failed) == 0 else 'NON-ZERO'}")
        failures += max(failed) > 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
