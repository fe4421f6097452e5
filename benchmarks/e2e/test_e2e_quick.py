"""Tier-1 smoke of the end-to-end benchmark at ``--quick`` size.

Runs all workloads untraced and traced and asserts that every metric
named in ``BENCHMARK.json`` is emitted and finite, that nothing failed,
and that a seed fixes the inputs — so a later PR that deletes a keyword
or renames an API the benchmark drives breaks tier-1, not the next perf
review.  No timing is asserted.
"""

from __future__ import annotations

import json
import math

from benchmarks.e2e import run as e2e


def run_quick(tmp_path, capsys, *extra):
    code = e2e.main(["--quick", "--out", str(tmp_path), *extra])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    records = {}
    for path in tmp_path.glob("run_*.json"):
        record = json.loads(path.read_text())
        records[record["workload"]] = record
    return code, summary, records


def test_untraced_run_emits_every_end_to_end_metric(tmp_path, capsys):
    code, summary, records = run_quick(tmp_path, capsys)
    assert code == 0 and summary["correct"] and summary["failed"] == 0
    assert sorted(records) == sorted(e2e.WORKLOADS)
    assert {w["name"] for w in e2e.MANIFEST["workloads"]} <= set(records)
    names = {m["name"] for m in e2e.MANIFEST["end_to_end"]}
    for workload, record in records.items():
        assert record["failed_ops_frac"] == 0, (workload, record["mismatches"])
        assert set(record["end_to_end"]) == names
        for name, entry in record["end_to_end"].items():
            assert math.isfinite(entry["value"]) and entry["value"] > 0, (
                workload, name, entry)


def test_traced_run_emits_every_per_layer_metric(tmp_path, capsys):
    code, summary, records = run_quick(tmp_path, capsys, "--trace", "1")
    assert code == 0 and summary["correct"]
    names = {m["name"] for m in e2e.MANIFEST["per_layer"]}
    produced = set()
    for workload, record in records.items():
        assert record["failed_ops_frac"] == 0, (workload, record["mismatches"])
        assert set(record["per_layer"]) == names
        for name, entry in record["per_layer"].items():
            assert math.isfinite(entry["value"]), (workload, name)
            if entry["value"]:
                produced.add(name)
        assert (tmp_path / f"trace_{workload}.jsonl").stat().st_size > 0
    # every per-layer metric is measured by some workload (counts of
    # things that should not happen may honestly be 0 everywhere)
    may_be_zero = {n for n in names if n.startswith(
        ("serve.shed", "serve.timeouts", "serve.backlog_end",
         "serve.max_rate_ok", "sharded.restarts"))}
    assert produced | may_be_zero == names, sorted(names - produced)


def test_seed_fixes_the_inputs():
    for name, cls in e2e.WORKLOADS.items():
        assert cls(5, True).input_digest == cls(5, True).input_digest, name
        assert cls(5, True).input_digest != cls(6, True).input_digest, name
