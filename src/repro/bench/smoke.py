"""Micro-bench smoke check: the compiled trigger paths must not regress.

Four guards, all designed for CI (small enough to finish in seconds, loud
enough to catch a compiled-path performance regression; prints a JSON
report so the numbers are machine-readable):

* **flat path** — a tiny retailer stream, twice: the cofactor ring
  through the default engine and the batched ``apply_batch`` trigger
  (throughput context for the trajectory), and a COUNT query (ℤ ring)
  through the default engine and the reference IR interpreter.  The
  ratcheted ``compiled_over_interpreter`` ratio comes from the COUNT
  run: there trigger overhead — the thing code generation removes —
  dominates, so the generated path must clear ``MIN_RATIO`` × the
  interpreter with real headroom;
* **cofactor ring, one tuple per call** — the paper's headline scenario:
  the default engine over the reference interpreter on the same stream,
  at least ``MIN_COFACTOR_SINGLE_RATIO`` ×.  Both pay the same
  ``CofactorRing.mul``; only the generated triggers keep the
  lifted-sibling memo (``sibling ⊗ lift`` per probe key, see
  docs/architecture.md §3), so beyond codegen's usual edge this ratio is
  the memo's share of a single-tuple update;
* **factorized path** — rank-1 updates to the middle of a small matrix
  chain through the generated factor programs vs the IR-interpreter
  factor path; the compiled path must reach at least
  ``MIN_FACTORIZED_RATIO`` × the interpreter's update rate, and at
  n = 48 the default engine (array factor programs) at least
  ``MIN_ARRAY_FACTORIZED_RATIO`` × the generated source alone;
* **factorized enumeration** — a Housing-shaped star join maintained as
  a factorized conjunctive query: result tuples enumerated per second
  over single-tuple updates maintained per second, in one process.
  Reading a tuple off the factorization must stay at least
  ``MIN_ENUMERATE_RATIO`` × cheaper than maintaining one.

Run as ``PYTHONPATH=src python -m repro.bench.smoke``.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from repro.apps.conjunctive import ConjunctiveQuery
from repro.apps.regression import CofactorModel, cofactor_query
from repro.bench.harness import run_stream, timed_chain_rank_one
from repro.datasets import housing, retailer
from repro.datasets.matrices import random_matrix, rank_r_update
from repro.datasets.streams import round_robin_stream

__all__ = [
    "run_smoke", "run_factorized_smoke", "run_enumeration_smoke", "main",
]

#: The generated triggers must reach at least this multiple of the
#: IR interpreter's throughput on the COUNT workload (measured ~2x; the
#: floor leaves noise headroom while still catching a compiled path that
#: loses its edge over the reference semantics).
MIN_RATIO = 1.2

#: Cofactor ring at one tuple per call, default engine over interpreter
#: (five runs of this module: 1.45, 1.45, 1.45, 1.48, 1.48; 1.08–1.13
#: before the memo, when both paid the same ring arithmetic).
MIN_COFACTOR_SINGLE_RATIO = 1.2

#: The compiled factorized path must reach at least this fraction of the
#: IR-interpreter factor-program update rate.
MIN_FACTORIZED_RATIO = 1.0

#: Array factor programs over the scalar ones at n = 48 (measured 3–4×).
MIN_ARRAY_FACTORIZED_RATIO = 1.5

#: Result tuples enumerated per second over single-tuple updates
#: maintained per second on the Housing star (measured 16–17×; 0.7× when
#: every tuple re-walked the view tree and re-probed every leaf).
MIN_ENUMERATE_RATIO = 3.0


def _model(workload) -> CofactorModel:
    return CofactorModel(
        "smoke",
        workload.schemas,
        workload.numeric_variables,
        order=workload.variable_order,
    )


def run_smoke(scale: float = 0.08, batch_size: int = 10, repeats: int = 5) -> dict:
    """Measure compiled / interpreter / batched throughput on tiny streams.

    Takes the best of ``repeats`` interleaved runs per strategy to damp
    scheduler noise; the streams are identical, so results are directly
    comparable.  The cofactor runs are recorded for the trajectory; the
    ratcheted compiled/interpreter ratio comes from the COUNT runs (see
    the module docstring).
    """
    from repro.core import FIVMEngine, Query
    from repro.rings import INT_RING

    workload = retailer.generate(scale=scale, seed=7)
    stream = round_robin_stream(
        workload.schemas, workload.tables, batch_size=batch_size
    )

    single = round_robin_stream(
        workload.schemas, workload.tables, batch_size=1
    )

    def count_engine(backend=None) -> FIVMEngine:
        query = Query("smoke_count", workload.schemas, ring=INT_RING)
        return FIVMEngine(query, workload.variable_order, backend=backend)

    def cofactor_engine(backend=None) -> FIVMEngine:
        query = cofactor_query(
            "smoke_single", workload.schemas, workload.numeric_variables
        )
        return FIVMEngine(query, workload.variable_order, backend=backend)

    best = {
        "compiled": 0.0, "batched": 0.0,
        "count_compiled": 0.0, "count_interpreter": 0.0,
        "single_compiled": 0.0, "single_interpreter": 0.0,
    }
    for _ in range(repeats):
        compiled = _model(workload)
        result = run_stream(
            "compiled", compiled.engine, stream, compiled.query.ring,
            checkpoints=2,
        )
        best["compiled"] = max(best["compiled"], result.average_throughput)

        batched = _model(workload)
        result = run_stream(
            "batched", batched.engine, stream, batched.query.ring,
            checkpoints=2, group=20,
        )
        best["batched"] = max(best["batched"], result.average_throughput)

        for name, backend in (
            ("count_compiled", None), ("count_interpreter", "interpreter")
        ):
            engine = count_engine(backend)
            result = run_stream(name, engine, stream, INT_RING, checkpoints=2)
            best[name] = max(best[name], result.average_throughput)

        for name, backend in (
            ("single_compiled", None), ("single_interpreter", "interpreter")
        ):
            engine = cofactor_engine(backend)
            result = run_stream(
                name, engine, single, engine.query.ring, checkpoints=2
            )
            best[name] = max(best[name], result.average_throughput)

    def over_interpreter(arm: str) -> float:
        reference = best[f"{arm}_interpreter"]
        return best[f"{arm}_compiled"] / reference if reference > 0 else float("inf")

    ratio = over_interpreter("count")
    single_ratio = over_interpreter("single")
    factorized = run_factorized_smoke()
    enumeration = run_enumeration_smoke()
    ok = (
        ratio >= MIN_RATIO
        and single_ratio >= MIN_COFACTOR_SINGLE_RATIO
        and factorized["ok"]
        and enumeration["ok"]
    )
    return {
        "tuples": stream.total_tuples,
        "throughput": {name: round(value) for name, value in best.items()},
        "compiled_over_interpreter": round(ratio, 3),
        "min_ratio": MIN_RATIO,
        "cofactor_single_over_interpreter": round(single_ratio, 3),
        "min_cofactor_single_ratio": MIN_COFACTOR_SINGLE_RATIO,
        "factorized": factorized,
        "enumeration": enumeration,
        "ok": ok,
    }


def run_enumeration_smoke(
    scale: int = 10, postcodes: int = 30, repeats: int = 5
) -> dict:
    """Housing star as a factorized conjunctive query: best-of-``repeats``
    single-tuple update rate, then enumeration rate of the whole result
    (``scale``³ tuples per postcode) from the same engine."""
    workload = housing.generate(scale=scale, postcodes=postcodes, seed=7)
    single = round_robin_stream(
        workload.schemas, workload.tables, batch_size=1
    )
    updates = reads = 0.0
    result_tuples = 0
    for _ in range(repeats):
        join = ConjunctiveQuery(
            "smoke_join", workload.schemas, housing.ALL_VARIABLES,
            order=workload.variable_order,
        )
        result = run_stream(
            "updates", join.engine, single, join.ring, checkpoints=2,
            apply=join.apply_update,
        )
        updates = max(updates, result.average_throughput)
        start = time.perf_counter()
        result_tuples = sum(1 for _ in join.enumerate())
        reads = max(reads, result_tuples / (time.perf_counter() - start))
    ratio = reads / updates if updates > 0 else float("inf")
    return {
        "result_tuples": result_tuples,
        "updates_per_s": round(updates),
        "enumerated_per_s": round(reads),
        "enumerated_over_updates": round(ratio, 3),
        "min_ratio": MIN_ENUMERATE_RATIO,
        "ok": ratio >= MIN_ENUMERATE_RATIO,
    }


def _chain_seconds(n: int, updates: int, repeats: int, forms) -> dict:
    """Best-of-``repeats`` seconds per rank-1 update of an n×n chain's
    middle matrix, per engine form (interleaved)."""
    rng = np.random.default_rng(7)
    mats = [random_matrix(n, n, rng) for _ in range(3)]
    terms = rank_r_update(n, 1, rng) * updates
    best = dict.fromkeys(forms, float("inf"))
    for _ in range(repeats):
        for form in forms:
            _, seconds = timed_chain_rank_one(mats, terms, form)
            best[form] = min(best[form], seconds)
    return best


def run_factorized_smoke(n: int = 32, updates: int = 12, repeats: int = 3) -> dict:
    """Rank-1 matrix-chain updates: generated factor programs vs the
    IR-interpreter factor path, and — at n = 48 — the default engine's
    array factor programs vs the generated source alone."""
    best = _chain_seconds(n, updates, repeats, ("scalar", "interpreter"))
    ratio = best["interpreter"] / best["scalar"]
    wide = _chain_seconds(48, updates, repeats, ("default", "scalar"))
    array_ratio = wide["scalar"] / wide["default"]
    return {
        "chain_n": n,
        "sec_per_update": {
            "compiled": round(best["scalar"], 6),
            "generic": round(best["interpreter"], 6),
        },
        "compiled_over_generic": round(ratio, 3),
        "min_ratio": MIN_FACTORIZED_RATIO,
        "array_over_scalar": round(array_ratio, 3),
        "min_array_ratio": MIN_ARRAY_FACTORIZED_RATIO,
        "ok": (
            ratio >= MIN_FACTORIZED_RATIO
            and array_ratio >= MIN_ARRAY_FACTORIZED_RATIO
        ),
    }


def main() -> int:
    report = run_smoke()
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report["ok"]:
        if report["compiled_over_interpreter"] < MIN_RATIO:
            print(
                f"FAIL: compiled path at "
                f"{report['compiled_over_interpreter']}x interpreter "
                f"(minimum {MIN_RATIO}x)",
                file=sys.stderr,
            )
        if report["cofactor_single_over_interpreter"] < MIN_COFACTOR_SINGLE_RATIO:
            print(
                f"FAIL: cofactor ring at one tuple per call, default engine "
                f"at {report['cofactor_single_over_interpreter']}x "
                f"interpreter (minimum {MIN_COFACTOR_SINGLE_RATIO}x)",
                file=sys.stderr,
            )
        if not report["factorized"]["ok"]:
            print(
                f"FAIL: compiled factorized path at "
                f"{report['factorized']['compiled_over_generic']}x the "
                f"generic path (minimum {MIN_FACTORIZED_RATIO}x), array at "
                f"{report['factorized']['array_over_scalar']}x the scalar "
                f"(minimum {MIN_ARRAY_FACTORIZED_RATIO}x)",
                file=sys.stderr,
            )
        if not report["enumeration"]["ok"]:
            print(
                f"FAIL: factorized enumeration at "
                f"{report['enumeration']['enumerated_over_updates']}x the "
                f"single-tuple update rate (minimum {MIN_ENUMERATE_RATIO}x)",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
