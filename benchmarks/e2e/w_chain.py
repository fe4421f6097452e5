"""``chain_rank1``: ``A = A1·A2·A3`` maintained under rank-1 updates to A2.

The only workload that drives factorized updates and factor programs
(``AppendSibling``/``SiblingMerge``/``Marginalize``/``Flatten``), which
use the planner, the IR and the backend differently from the flat
cofactor path.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

import numpy as np

from repro.apps.matrix_chain import DenseChainFIVM, MatrixChainIVM
from repro.bench.memory import strategy_scalars

from benchmarks.e2e import gen, probes
from benchmarks.e2e.harness import Unit, Workload, clock, drive
from benchmarks.e2e.trace import now_ns


class ChainRank1(Workload):
    name = "chain_rank1"
    n = 48
    updates = 700
    read_every = 10

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        start = clock()
        if quick:
            self.n, self.updates = 8, 40
        digest = gen.Digest(self.name, seed, quick)
        rng = np.random.default_rng(seed)
        self.mats, terms = gen.chain_inputs(rng, digest, self.n, self.updates)
        # The first update is the warm-up: it pays the lazy factor-program
        # compilation, inside set-up.
        self.warm, self.ops = terms[0], terms[1:]
        self.input_digest = digest.hex()
        self.gen_s = clock() - start

    def setup(self):
        chain = MatrixChainIVM(self.mats, updatable=["A2"])
        chain.apply_rank_one(2, *self.warm)
        chain.result_matrix()
        return chain

    def run(self, chain, tracer=None) -> Unit:
        apply = chain.apply_rank_one

        def update(term):
            apply(2, term[0], term[1])

        def traced_update(term, parent, i):
            t0 = now_ns()
            apply(2, term[0], term[1])
            tracer.add("factorized.apply_rank_one", t0, now_ns(), parent, i)

        unit = drive(self.ops, update, chain.result_matrix, self.read_every,
                     tracer=tracer, traced_update=traced_update)
        unit.tuples = len(self.ops)
        return unit

    def scalars(self, chain) -> int:
        return strategy_scalars(chain.engine)

    def check(self, chain) -> List[str]:
        """The maintained product against the NumPy product."""
        a1, a2, a3 = self.mats
        a2 = a2 + sum(np.outer(u, v) for u, v in [self.warm] + self.ops)
        if np.allclose(chain.result_matrix(), a1 @ a2 @ a3):
            return []
        return ["maintained product differs from A1 @ A2 @ A3"]

    def layers(self, chain, tracer, units) -> Dict[str, float]:
        spans = [s[5] - s[4] for s in tracer.spans
                 if s[3] == "factorized.apply_rank_one"]
        sample = self.ops[:20]
        listing = MatrixChainIVM(self.mats, updatable=["A2"])
        listing.apply_dense_delta(2, np.outer(*self.warm))
        dense = DenseChainFIVM(*self.mats)
        terms = iter(sample * 50)
        return {
            "factorized.rank1_us": statistics.median(spans) / 1e3,
            # the same change in listing form: what factorization saves
            "factorized.listing_us": statistics.median(
                probes.per_call_us(
                    lambda: listing.apply_dense_delta(2, np.outer(u, v)), 1)
                for u, v in sample),
            # the NumPy floor
            "factorized.dense_us": probes.per_call_us(
                lambda: dense.apply_rank_one(*next(terms)), len(sample) * 50),
        }
