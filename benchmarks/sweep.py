"""Throughput of the Retailer cofactor stream by rows per call.

    python benchmarks/sweep.py [--sizes 1,2,4,8,16,31,32,600] [--repeat 3]
                               [--seed 7] [--quick]

Runs the ``retailer_b1`` stream of ``benchmarks/e2e`` (the full one, or
its ``--quick`` size) regrouped into calls of each size in turn: for each
size a fresh engine takes the warm-up calls, then the timed rest of the
stream through ``apply_update``, timed with ``time.process_time`` (this
process's CPU time, so a second process on the box shifts it less than a
wall clock).  Prints, per size, the tuples of the timed stream and the
best of ``--repeat`` runs in tuples/s.  The sizes straddle the engine's
constants: ``MIN_BLOCK_MERGE_ROWS`` (12), below which a view writes a
delta row by row, and ``MIN_TRIGGER_ROWS`` (32), from which a node runs
its array program.  Not a pytest file: nothing collects or gates it.
"""

import argparse
import gc
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]
from benchmarks.e2e.harness import count_tuples  # noqa: E402
from benchmarks.e2e.w_retailer import RetailerB1  # noqa: E402

SIZES = (1, 2, 4, 8, 16, 31, 32, 600)


def stream(rows: int, seed: int, quick: bool):
    """The Retailer stream at ``rows`` rows per call (``--quick``: the e2e
    quick tables, every call ``rows`` rows as well)."""
    workload = type(
        "RetailerSweep", (RetailerB1,), {"batch": rows, "quick_batch": rows})
    return workload(seed, quick)


def best_rate(instance, repeat: int) -> float:
    """Tuples/s of the timed stream on a fresh engine, best of ``repeat``."""
    tuples = count_tuples(instance.ops)
    best = 0.0
    for _ in range(repeat):
        _query, engine = instance.build()
        instance.apply_all(engine, instance.warm)
        gc.collect()
        start = time.process_time()
        instance.apply_all(engine, instance.ops)
        best = max(best, tuples / (time.process_time() - start))
    return best


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    print(f"{'rows/call':>9} {'tuples':>7} {'tuples/s':>10}")
    for rows in map(int, args.sizes.split(",")):
        instance = stream(rows, args.seed, args.quick)
        rate = best_rate(instance, args.repeat)
        print(f"{rows:>9} {count_tuples(instance.ops):>7} {rate:>10.0f}",
              flush=True)


if __name__ == "__main__":
    main()
