"""``join_factorized``: a factorized conjunctive query over a Housing-
shaped star join, single-tuple updates on ℤ, then enumeration.

Key factorization with ``materialize="all"`` on ℤ is the cheapest
per-call path in the repo, so ``Relation.from_tuples`` and dispatch are
the largest share here; it is also the only enumeration read path.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

import numpy as np

from repro.apps.conjunctive import ConjunctiveQuery
from repro.bench.memory import strategy_scalars
from repro.data.relation import Relation
from repro.datasets import housing as shape

from benchmarks.e2e import gen
from benchmarks.e2e.harness import (
    Unit, Workload, clock, drive, final_counts, relation_updaters,
)

SCHEMAS = shape.SCHEMAS
FREE = shape.ALL_VARIABLES
SCALING = shape.SCALING_RELATIONS


class JoinFactorized(Workload):
    name = "join_factorized"
    postcodes = 1000
    rows_per_scaling_relation = 32000
    read_every = 4000
    #: One read pulls this many result tuples from ``enumerate()``.
    page = 1000
    #: Result tuples the traced run enumerates for ``enumerate.*``.
    enumerate_tuples = 300_000
    #: Enumerated tuples the gate verifies against the base relations.
    verify_tuples = 2000

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        start = clock()
        if quick:
            self.postcodes, self.rows_per_scaling_relation = 20, 60
            self.read_every, self.page = 100, 50
            self.enumerate_tuples = 2000
        digest = gen.Digest(self.name, seed, quick)
        rng = np.random.default_rng(seed)
        tables = gen.housing_tables(
            rng, digest, SCHEMAS, self.postcodes, SCALING,
            self.rows_per_scaling_relation,
        )
        ops = gen.update_stream(rng, digest, tables, 1, SCALING, 0.2)
        self.warm, self.ops = ops[:len(SCHEMAS)], ops[len(SCHEMAS):]
        self.order = shape.variable_order()
        self.input_digest = digest.hex()
        self.gen_s = clock() - start

    def build(self, mode: str = "factorized") -> ConjunctiveQuery:
        return ConjunctiveQuery(
            self.name, SCHEMAS, FREE, mode=mode, order=self.order)

    def read_page(self, cq: ConjunctiveQuery) -> list:
        return list(itertools.islice(cq.enumerate(), self.page))

    def setup(self):
        cq = self.build()
        for rel, rows, _mult in self.warm:
            cq.apply_update(Relation.from_tuples(rel, SCHEMAS[rel], cq.ring, rows))
        # The first enumeration registers the probe indexes the reader
        # needs; writers maintain them from then on.
        self.read_page(cq)
        return cq

    def run(self, cq, tracer=None) -> Unit:
        update, traced_update, _rows = relation_updaters(
            SCHEMAS, cq.ring, cq.apply_update, tracer, "engine.apply_join")
        unit = drive(self.ops, update, lambda: self.read_page(cq),
                     self.read_every, tracer=tracer,
                     traced_update=traced_update)
        unit.tuples = len(self.ops)
        return unit

    def scalars(self, cq) -> int:
        return strategy_scalars(cq.engine)

    def check(self, cq) -> List[str]:
        """Every factorized view against an engine-free recomputation (a
        view over one relation's attributes holds that relation's counts;
        the root holds, per postcode, the product of the relations' row
        counts), and a sample of enumerated tuples against the listing
        join, relation by relation.  ``initialize(final_db)`` is not the
        oracle here: it would list the join the workload exists to avoid.
        """
        counts = final_counts(SCHEMAS, self.warm + self.ops)
        per_code: Dict[tuple, int] = {}
        for code in range(1, self.postcodes + 1):
            per_code[(code,)] = 1
        for table in counts.values():
            hits: Dict[tuple, int] = {}
            for row, n in table.items():
                hits[row[:1]] = hits.get(row[:1], 0) + n
            per_code = {
                code: product * hits[code]
                for code, product in per_code.items() if hits.get(code)
            }
        expected = {tuple(schema): counts[rel] for rel, schema in SCHEMAS.items()}
        expected[("postcode",)] = per_code
        bad = []
        for name, view in cq.engine.views.items():
            if dict(view.items()) != expected[tuple(view.schema)]:
                bad.append(f"view {name} differs from recomputation")

        positions = {
            rel: [cq.output_schema.index(a) for a in schema]
            for rel, schema in SCHEMAS.items()
        }
        for row, multiplicity in itertools.islice(
            cq.enumerate(), self.verify_tuples
        ):
            expected = 1
            for rel, where in positions.items():
                expected *= counts[rel].get(tuple(row[p] for p in where), 0)
            if expected != multiplicity:
                bad.append(f"enumerated tuple {row} has multiplicity "
                           f"{multiplicity}, the listing join says {expected}")
                break
        return bad

    def layers(self, cq, tracer, units) -> Dict[str, float]:
        traced = [u for u in units if u.traced]
        out = {
            "ingest.build_delta_us_per_tuple":
                tracer.total_ns("ingest.build_delta") / 1e3
                / sum(u.tuples for u in traced),
        }
        start = clock()
        rows = cq.enumerate()
        next(rows)
        first = clock()
        pulled = 1 + sum(
            1 for _ in itertools.islice(rows, self.enumerate_tuples - 1))
        done = clock()
        out["enumerate.first_tuple_us"] = 1e6 * (first - start)
        out["enumerate.delay_ns_per_tuple"] = 1e9 * (done - first) / pulled
        out["enumerate.tuples_per_s"] = pulled / (done - start)

        # The same stream with the relational data ring: the one ring
        # without kernel_ops, i.e. the generated-source fallback.  Its
        # payloads hold the listing result, so it is capped by time.
        listing = self.build("listing_payloads")
        ring = listing.ring
        deadline = clock() + 1.0
        applied = 0
        start = clock()
        for rel, rows, mult in self.warm + self.ops:
            listing.apply_update(Relation.from_tuples(
                rel, SCHEMAS[rel], ring, rows,
                ring.one if mult > 0 else ring.from_int(-1)))
            applied += 1
            if clock() > deadline:
                break
        out["join.listing_payloads_tuples_per_s"] = applied / (clock() - start)
        return out
