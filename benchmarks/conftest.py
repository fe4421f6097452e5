"""Shared configuration for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's evaluation
(Section 7 / Appendix C), prints a paper-style table, and writes it to the
directory ``FIVM_BENCH_OUT`` names — a pytest temporary directory when
unset, so a test run leaves the checkout clean.  The committed baselines
under ``benchmarks/results/`` change only through
``python -m repro.bench.regression --fresh <dir> --update-baselines``.
Workloads are scaled down so the full suite runs in minutes; set
``FIVM_BENCH_SCALE`` (default 1.0) to grow them.

Absolute numbers are not comparable to the paper's compiled C++ on an Azure
DS14 — the *shape* (who wins, by what factor, where crossovers fall) is
what these benches verify, via assertions in each test.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import sys
from pathlib import Path

import pytest

from repro.core import kernels

#: Global workload multiplier (FIVM_BENCH_SCALE=4 → 4× larger streams).
SCALE = float(os.environ.get("FIVM_BENCH_SCALE", "1.0"))

#: Per-strategy time budget in seconds (the paper's one-hour timeout,
#: scaled); slow baselines report the stream fraction they reached.
TIME_BUDGET = float(os.environ.get("FIVM_BENCH_BUDGET", "10.0")) * SCALE

#: Where :func:`report` writes; set once per session by :func:`_out_dir`.
_OUT_DIR: Path


@pytest.fixture(scope="session", autouse=True)
def _out_dir(tmp_path_factory):
    """Point reports at ``FIVM_BENCH_OUT`` or a fresh temporary directory."""
    global _OUT_DIR
    named = os.environ.get("FIVM_BENCH_OUT")
    if named:
        _OUT_DIR = Path(named)
        _OUT_DIR.mkdir(parents=True, exist_ok=True)
    else:
        _OUT_DIR = tmp_path_factory.mktemp("bench_results")


def report(name: str, text: str, data=None) -> None:
    """Print a results table and persist it in the report directory.

    ``data`` (any JSON-serializable value) is additionally written to
    ``BENCH_<name>.json`` next to the text table, so the perf trajectory is
    machine-readable across PRs.
    """
    path = _OUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    if data is not None:
        json_path = _OUT_DIR / f"BENCH_{name}.json"
        json_path.write_text(
            json.dumps(data, indent=2, sort_keys=True, default=float) + "\n"
        )
        print(f"[metrics written to {json_path}]")


@contextlib.contextmanager
def scalar_triggers():
    """Engines *constructed* inside (forked shard workers included) keep
    every delta on the scalar trigger form: the row threshold they read
    once at construction is out of reach.

    The reference arm of the array-vs-scalar ablation, and the setting
    for benches whose ratio compares arms that hand one trigger deltas of
    different sizes (partial materialization filters the root's delta,
    hash partitioning cuts it S ways): the array form's cost per row
    falls with the delta's size, so on the size-selected default those
    ratios would measure that as well.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "MIN_TRIGGER_ROWS", sys.maxsize)
        patch.setattr(kernels, "MIN_VECTOR_ROWS", sys.maxsize)
        yield


def stream_results_data(results) -> dict:
    """JSON payload for a list of :class:`StreamRunResult`.

    Captures, per strategy, the average throughput and peak memory plus the
    full per-checkpoint (fraction, throughput, memory) series — the axes of
    the paper's figures, keyed for cross-PR comparison.
    """
    return {
        r.name: {
            "average_throughput": r.average_throughput,
            "peak_memory": r.peak_memory,
            "total_tuples": r.total_tuples,
            "total_seconds": r.total_seconds,
            "timed_out": r.timed_out,
            "checkpoints": [
                {"fraction": f, "throughput": t, "memory": m}
                for f, t, m in zip(r.fractions, r.throughput, r.memory)
            ],
        }
        for r in results
    }


@pytest.fixture
def scale() -> float:
    return SCALE


@pytest.fixture(autouse=True)
def _collect_between_benches():
    """Drain cyclic garbage before each timed experiment.

    Columnar relations tie their payload stores, index states, and dict
    facades into reference cycles, so a previous benchmark's engines
    linger as cyclic garbage until a gen-2 pass — which would otherwise
    fire (and be billed) inside a later benchmark's timed region.
    """
    gc.collect()
    yield
