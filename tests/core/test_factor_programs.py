"""Targeted tests for compiled factor slot programs (the factorized path).

The randomized differential suite (``test_differential_random.py``) sweeps
broad behavior; these tests pin the *specialized probe shapes* the compiler
emits — group-aware bucket-sum merges, cached lifted collapses, pristine
whole-sibling collapses — on tree shapes constructed to trigger each one,
plus the probe-cache sharing/invalidation contract.
"""

import random

import pytest

from repro.core import FIVMEngine, FactorizedUpdate, Query, VariableOrder
from repro.core.ir import lower_factor_plan
from repro.core.plan_exec import compile_factor_program
from repro.core.view_tree import ViewNode
from repro.data import Relation
from repro.rings import DegreeRing, INT_RING, Lifting, REAL_RING

from tests.conftest import random_delta

#: Every test runs once per form (scalar-pinned, array-pinned, interpreter).
pytestmark = pytest.mark.usefixtures("form")

#: A chain-collapsed node joining two leaves: V@W marginalizes (V, W) with
#: children [R(A,V), S(V,W)] — so for updates to R the sibling S has probe
#: attrs (V,) and extend attrs (W,) that are dropped *inside* the merge.
COLLAPSE_SCHEMAS = {"R": ("A", "V"), "S": ("V", "W")}


def collapse_order():
    return VariableOrder.from_spec(("A", [("W", ["V"])]))


def seed_s(engine):
    engine.apply_update(Relation(
        "S", ("V", "W"), engine.query.ring,
        {(1, 5): engine.query.ring.from_int(1),
         (1, 6): engine.query.ring.from_int(2),
         (2, 5): engine.query.ring.from_int(1)},
    ))


def rank_one_r(ring, a_data, v_data):
    return FactorizedUpdate.rank_one("R", [
        Relation("uA", ("A",), ring, {k: ring.from_int(c) for k, c in a_data.items()}),
        Relation("uV", ("V",), ring, {k: ring.from_int(c) for k, c in v_data.items()}),
    ])


def drive_alternating(make_engine, steps=25, seed=0xFAC, s_schema=("V", "W")):
    """Alternate flat S updates and factorized R updates through compiled
    and interpreted engines; sibling views change mid-stream, so stale
    probe-cache entries would surface immediately."""
    rng = random.Random(seed)
    compiled = make_engine()
    interp = make_engine("interpreter")
    ring = compiled.query.ring
    for step in range(steps):
        if step % 2 == 0:
            delta = random_delta(rng, "S", s_schema, ring, domain=3)
            root_c = compiled.apply_update(delta.copy())
            root_i = interp.apply_update(delta.copy())
        else:
            update = rank_one_r(
                ring,
                {(rng.randint(0, 2),): rng.choice([1, -1, 2])},
                {(rng.randint(0, 2),): 1, (rng.randint(0, 2),): 1},
            )
            root_c = compiled.apply_factorized_update(update)
            root_i = interp.apply_factorized_update(update_copy(update, ring))
        assert root_c.same_as(root_i.rename({}, name=root_c.name)), step
        assert compiled.result().same_as(interp.result()), step
    for name, contents in compiled.views.items():
        assert contents.same_as(interp.views[name]), name
    return compiled


def generated_sources(engine):
    """Source text of the engine's generated factor programs (the
    interpreter form generates none)."""
    return [
        program.source_text
        for program in engine._factor_programs.values()
        if hasattr(program, "source_text")
    ]


def update_copy(update, ring):
    return FactorizedUpdate(
        update.relation,
        [[f.copy() for f in term] for term in update.terms],
        ring=ring,
    )


class TestAggregatedMerges:
    def test_bucket_sum_merge_compiled_and_correct(self, form):
        """No lifts: the dropped sibling extends read the index bucket sum
        (one ``_ss`` lookup replaces iterating the bucket)."""
        def make(backend=None):
            q = Query("c", COLLAPSE_SCHEMAS, free=("A",), ring=INT_RING)
            return FIVMEngine(q, collapse_order(), backend=backend)

        compiled = drive_alternating(make)
        sources = generated_sources(compiled)
        assert form == "interpreter" or any("= _ss" in src for src in sources), \
            "expected a group-aware bucket-sum merge"

    def test_cached_lifted_merge_compiled_and_correct(self, form):
        """A lift on the dropped extend forces the folded-sum probe-cache
        site (index sums cannot apply lifts)."""
        def make(backend=None):
            ring = DegreeRing(2)
            lifting = Lifting(ring, {"V": ring.lift(0), "W": ring.lift(1)})
            q = Query(
                "c", COLLAPSE_SCHEMAS, free=("A",), ring=ring,
                lifting=lifting,
            )
            return FIVMEngine(q, collapse_order(), backend=backend)

        compiled = drive_alternating(make)
        sources = generated_sources(compiled)
        assert form == "interpreter" or any(
            "_site(_cache" in src for src in sources
        ), "expected a cached lifted bucket collapse"

    def test_group_aware_off_disables_aggregation_but_agrees(self):
        def make(backend=None):
            q = Query("c", COLLAPSE_SCHEMAS, free=("A",), ring=INT_RING)
            return FIVMEngine(
                q, collapse_order(), backend=backend, group_aware=False
            )

        compiled = drive_alternating(make)
        for source in generated_sources(compiled):
            assert "= _ss" not in source
            assert "_site(_cache" not in source


class TestProbeCacheContract:
    def _engine(self, backend=None):
        ring = DegreeRing(2)
        lifting = Lifting(ring, {"V": ring.lift(0), "W": ring.lift(1)})
        q = Query(
            "c", COLLAPSE_SCHEMAS, free=("A",), ring=ring, lifting=lifting
        )
        return FIVMEngine(q, collapse_order(), backend=backend)

    def test_cache_fills_on_factorized_and_invalidates_on_sibling_write(self):
        engine = self._engine()
        ring = engine.query.ring
        seed_s(engine)
        engine.apply_factorized_update(
            rank_one_r(ring, {(7,): 1}, {(1,): 1, (2,): 1})
        )
        sibling = engine.tree.leaves["S"].name
        assert sibling in engine._probe_cache, \
            "lifted collapse results must be memoized per sibling view"
        cached = engine._probe_cache[sibling]
        assert any(site for site in cached.values())
        # A write to the sibling view must drop its entries...
        engine.apply_update(Relation(
            "S", ("V", "W"), ring, {(1, 5): ring.from_int(1)}
        ))
        assert sibling not in engine._probe_cache
        # ...and the next factorized update recomputes correctly.
        interp = self._engine("interpreter")
        seed_s(interp)
        interp.apply_factorized_update(
            rank_one_r(ring, {(7,): 1}, {(1,): 1, (2,): 1})
        )
        interp.apply_update(Relation(
            "S", ("V", "W"), ring, {(1, 5): ring.from_int(1)}
        ))
        update = rank_one_r(ring, {(8,): 1}, {(1,): 1})
        root_c = engine.apply_factorized_update(update)
        root_i = interp.apply_factorized_update(
            update_copy(update, ring)
        )
        assert root_c.same_as(root_i.rename({}, name=root_c.name))
        assert engine.result().same_as(interp.result())

    def test_cache_shared_across_terms(self):
        """Rank-2 terms probing the same subkey reuse the folded sum: the
        per-site memo holds one entry per distinct subkey, not per term."""
        engine = self._engine()
        ring = engine.query.ring
        seed_s(engine)
        update = FactorizedUpdate("R", [
            rank_one_r(ring, {(7,): 1}, {(1,): 1}).terms[0],
            rank_one_r(ring, {(8,): 1}, {(1,): 1}).terms[0],
        ])
        engine.apply_factorized_update(update)
        sibling = engine.tree.leaves["S"].name
        sites = engine._probe_cache[sibling]
        per_site_keys = [set(entries) for entries in sites.values()]
        assert any((1,) in keys for keys in per_site_keys)

    def test_batch_mixing_flat_and_factorized_items(self):
        """apply_batch accepts FactorizedUpdate items; state and total equal
        the sequential application."""
        engine = self._engine()
        sequential = self._engine()
        ring = engine.query.ring
        seed_s(engine)
        seed_s(sequential)
        flat = Relation("S", ("V", "W"), ring, {(2, 6): ring.from_int(1)})
        fact = rank_one_r(ring, {(7,): 1}, {(1,): 1, (2,): -1})
        total = engine.apply_batch(
            [flat.copy(), update_copy(fact, ring)]
        )
        expected = sequential.apply_update(flat.copy()).union(
            sequential.apply_factorized_update(update_copy(fact, ring))
        )
        assert engine.result().same_as(sequential.result())
        assert total.same_as(expected.rename({}, name=total.name))


class TestPartialMatchMemo:
    """The IR-level partial-match probe memo: a sibling bucket iterated
    with *surviving* extends is reduced (rows pre-aggregated per surviving
    key) and memoized per subkey, shared by every backend."""

    def _make(self, backend=None):
        # W is free, so the merge of S(V, W) into the V-factor keeps W:
        # extends survive and the probe compiles to the "memo" mode.
        q = Query(
            "pm", COLLAPSE_SCHEMAS, free=("A", "W"), ring=INT_RING
        )
        return FIVMEngine(q, collapse_order(), backend=backend)

    def test_memo_mode_compiled_and_differentially_correct(self, form):
        compiled = drive_alternating(self._make)
        sources = generated_sources(compiled)
        assert form == "interpreter" or any("_rw" in src for src in sources), (
            "expected a memoized partial-match bucket probe"
        )

    def test_memo_fills_reduces_and_invalidates(self):
        engine = self._make()
        ring = engine.query.ring
        seed_s(engine)
        # S holds (1,5):1, (1,6):2, (2,5):1 — probing V=1 must memoize the
        # bucket reduced to its surviving extend W.
        engine.apply_factorized_update(
            rank_one_r(ring, {(7,): 1}, {(1,): 1})
        )
        sibling = engine.tree.leaves["S"].name
        sites = engine._probe_cache[sibling]
        rows_by_subkey = next(iter(sites.values()))
        assert rows_by_subkey[(1,)] == (((5,), 1), ((6,), 2))
        # A second term reuses the entry (same site dict, same subkey) and
        # adds only the new subkey.
        engine.apply_factorized_update(
            rank_one_r(ring, {(8,): 1}, {(1,): 1, (2,): 1})
        )
        rows_by_subkey = next(iter(engine._probe_cache[sibling].values()))
        assert set(rows_by_subkey) == {(1,), (2,)}
        # A write to S drops the memo; results stay correct afterwards.
        engine.apply_update(Relation(
            "S", ("V", "W"), ring, {(1, 5): ring.from_int(3)}
        ))
        assert sibling not in engine._probe_cache
        interp = self._make("interpreter")
        seed_s(interp)
        interp.apply_factorized_update(rank_one_r(ring, {(7,): 1}, {(1,): 1}))
        interp.apply_factorized_update(
            rank_one_r(ring, {(8,): 1}, {(1,): 1, (2,): 1})
        )
        interp.apply_update(Relation(
            "S", ("V", "W"), ring, {(1, 5): ring.from_int(3)}
        ))
        update = rank_one_r(ring, {(9,): 2}, {(1,): 1})
        root_c = engine.apply_factorized_update(update)
        root_i = interp.apply_factorized_update(update_copy(update, ring))
        assert root_c.same_as(root_i.rename({}, name=root_c.name))
        for name, contents in engine.views.items():
            assert contents.same_as(interp.views[name]), name

    def test_memo_preaggregates_duplicate_surviving_keys(self):
        # Two S rows with the same (V, W) cannot arise in one relation, but
        # rows differing only in dropped attributes can: give S an extra
        # dropped column via a wider schema.
        ring = INT_RING
        q = Query(
            "pm2", {"R": ("A", "V"), "S": ("U", "V", "W")},
            free=("A", "W"), ring=ring,
        )
        order = VariableOrder.from_spec(("A", [("W", [("V", ["U"])])]))
        engine = FIVMEngine(q, order)
        engine.apply_update(Relation(
            "S", ("U", "V", "W"), ring,
            {(0, 1, 5): 1, (9, 1, 5): 2, (0, 1, 6): 4},
        ))
        engine.apply_factorized_update(rank_one_r(ring, {(7,): 1}, {(1,): 1}))
        sibling = engine.tree.leaves["S"].name
        caches = [
            rows
            for sites in engine._probe_cache.values()
            for rows in sites.values()
        ]
        reduced = [rows for rows in caches if (1,) in rows]
        assert reduced, "expected a memo keyed by the V subkey"
        # U is dropped before W survives: the two (V=1, W=5) rows fold to 3.
        assert dict(reduced[0][(1,)]) == {(5,): 3, (6,): 4}


class TestArrayForm:
    """Over ℝ the memo merge and the flatten also run on packed factors
    (``repro.core.kernels.ArrayFactorProgram``), held to the interpreter
    like the generated source."""

    #: One node marginalizes (V, W) over [R(A, V), S(V, W, Z)]: merging S
    #: into R's V-factor sums V out of the factor, W out of the memoized
    #: bucket rows, and keeps Z for the flatten.
    S_SCHEMA = ("V", "W", "Z")

    def _make(self, backend=None, lifted=()):
        lifting = Lifting(
            REAL_RING, {var: (lambda x: 1.0 + 0.5 * x) for var in lifted}
        )
        q = Query(
            "pm", {"R": ("A", "V"), "S": self.S_SCHEMA}, free=("A", "Z"),
            ring=REAL_RING, lifting=lifting,
        )
        order = VariableOrder.from_spec(("A", [("Z", [("W", ["V"])])]))
        return FIVMEngine(q, order, backend=backend)

    @pytest.mark.parametrize("lifted", [(), ("W",)])
    def test_memo_merge_and_flatten_run_packed(self, form, lifted):
        """A lift on W is folded into the memo rows; the rest is the
        matrix–vector shape either way."""
        engine = drive_alternating(
            lambda backend=None: self._make(backend, lifted),
            s_schema=self.S_SCHEMA,
        )
        assert any(engine._array_factor_programs.values()) == (form == "array")
        assert bool(engine._factor_programs) == (form != "array")

    def test_row_lift_has_no_array_form_and_falls_back(self):
        engine = drive_alternating(
            lambda backend=None: self._make(backend, ("V",)),
            s_schema=self.S_SCHEMA,
        )
        assert not any(engine._array_factor_programs.values())
        assert engine._factor_programs

    def test_packed_memo_rows_live_in_the_probe_cache(self, form):
        engine = self._make(lifted=("W",))
        engine.apply_update(Relation(
            "S", self.S_SCHEMA, REAL_RING,
            {(1, 0, 5): 1.0, (1, 2, 5): 2.0, (1, 0, 6): 4.0, (2, 0, 6): 0.5},
        ))
        # V = 3 matches no S row: an empty memo row, not a miss every time.
        engine.apply_factorized_update(
            rank_one_r(REAL_RING, {(7,): 1}, {(1,): 2, (3,): 1})
        )
        assert dict(engine.result().items()) == {(7, 5): 10.0, (7, 6): 8.0}
        sibling = engine.tree.leaves["S"].name
        (site,) = engine._probe_cache[sibling].values()
        if form == "array":
            assert list(site[None][0]) == [(5,), (6,)]  # the slot numbering
            slots, column = site[(1,)]
            assert slots.tolist() == [0, 1] and column.tolist() == [5.0, 4.0]
            assert len(site[(3,)][0]) == 0
        engine.apply_update(Relation(
            "S", self.S_SCHEMA, REAL_RING, {(1, 0, 5): -1.0, (1, 2, 5): -2.0}
        ))
        assert sibling not in engine._probe_cache
        engine.apply_factorized_update(
            rank_one_r(REAL_RING, {(7,): -1}, {(1,): 2, (2,): 1})
        )
        assert dict(engine.result().items()) == {(7, 6): -0.5}


class TestPristineSiblingCollapse:
    def test_fabricated_disjoint_sibling_is_cached_whole(self):
        """A sibling sharing no attributes with the term is appended whole;
        when all its variables are marginalized at the node, the compiled
        program collapses it once and memoizes the result per view state."""
        ring = DegreeRing(1)
        lifting = Lifting(ring, {"B": ring.lift(0)})
        query = Query(
            "x", {"R": ("A",), "S": ("B",)}, free=("A",), ring=ring,
            lifting=lifting,
        )
        entering = ViewNode("R", ("A",), frozenset({"R"}), [], leaf_of="R")
        sibling_node = ViewNode("S", ("B",), frozenset({"S"}), [], leaf_of="S")
        node = ViewNode(
            "top", ("A",), frozenset({"R", "S"}),
            [entering, sibling_node], marginalized=("B",), at_vars=("top",),
        )
        sibling = Relation(
            "S", ("B",), ring,
            {(2,): ring.from_int(1), (3,): ring.from_int(2)},
        )
        ir = lower_factor_plan(
            node, ("child", 0), (("A",),), (sibling.name,),
            (sibling.schema,), True, query,
        )
        program = compile_factor_program(ir, [sibling], query)
        assert "_site(_cache" in program.source_text
        assert program.out_partition == ((), ("A",)) or \
            program.out_partition == (("A",), ())
        cache = {}
        fdatas = ({(9,): ring.from_int(1)},)
        outs, flat = program.run(fdatas, cache)
        # Expected: sum over S of payload * lift(B) = 1*l(2) + 2*l(3).
        expected = ring.add(
            ring.mul(ring.from_int(1), ring.lift(0)(2)),
            ring.mul(ring.from_int(2), ring.lift(0)(3)),
        )
        assert flat is not None
        assert ring.eq(flat[(9,)], expected)
        assert cache["S"], "collapse must be memoized under the view name"
        # Second term: cache hit (mutate the sibling WITHOUT invalidating —
        # the stale value proves the memo was used; the engine pops the
        # view's entries on every absorb, which restores freshness).
        sibling._data[(4,)] = ring.from_int(5)
        outs2, flat2 = program.run(({(9,): ring.from_int(1)},), cache)
        assert ring.eq(flat2[(9,)], expected)
        # After invalidation (what FIVMEngine._invalidate does) the program
        # re-reads the sibling.
        cache.pop("S")
        outs3, flat3 = program.run(({(9,): ring.from_int(1)},), cache)
        expected3 = ring.add(
            expected, ring.mul(ring.from_int(5), ring.lift(0)(4))
        )
        assert ring.eq(flat3[(9,)], expected3)


class TestCanonicalPartitions:
    def test_permuted_factor_orders_share_one_program(self):
        """Two rank-1 updates whose factor lists are permutations of each
        other must hit one compiled program per node, not two: the engine
        canonicalizes the partition (factor schemas sorted) before the
        cache lookup.  Results stay differentially equal either way."""
        def make(backend=None):
            q = Query(
                "perm", {"R": ("A", "V", "W"), "S": ("V", "W")},
                free=("A",), ring=INT_RING,
            )
            return FIVMEngine(
                q, VariableOrder.from_spec(("A", [("W", ["V"])])),
                backend=backend,
            )

        compiled = make()
        interp = make("interpreter")
        ring = INT_RING
        compiled.apply_update(Relation(
            "S", ("V", "W"), ring, {(1, 5): 1, (2, 6): 2}
        ))
        interp.apply_update(Relation(
            "S", ("V", "W"), ring, {(1, 5): 1, (2, 6): 2}
        ))

        def factors():
            return {
                "A": Relation("uA", ("A",), ring, {(1,): 2}),
                "V": Relation("uV", ("V",), ring, {(1,): 1, (2,): 1}),
                "W": Relation("uW", ("W",), ring, {(5,): 1, (6,): -1}),
            }

        for permutation in (("A", "V", "W"), ("W", "A", "V"), ("V", "W", "A")):
            fs = factors()
            update = FactorizedUpdate.rank_one(
                "R", [fs[name] for name in permutation]
            )
            root_c = compiled.apply_factorized_update(update)
            root_i = interp.apply_factorized_update(
                update_copy(update, ring)
            )
            assert root_c.same_as(root_i.rename({}, name=root_c.name))
            # One program per (node, source): permutations reuse the first
            # compile instead of growing the cache.
            per_site = {}
            for (node, source, partition) in compiled._factor_programs:
                per_site.setdefault((node, source), []).append(partition)
            for site, partitions in per_site.items():
                assert len(partitions) == 1, (
                    f"{site} compiled duplicate programs for permuted "
                    f"partitions: {partitions}"
                )
        for name, contents in compiled.views.items():
            assert contents.same_as(interp.views[name]), name
