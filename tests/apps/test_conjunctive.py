"""Tests for conjunctive query evaluation with three representations (§6.3)."""

import gc
import itertools
import sys
import time
import tracemalloc

import pytest

from repro.apps import MODES, ConjunctiveQuery
from repro.core import VariableOrder
from repro.data import Relation

from tests.conftest import chain_order, PAPER_SCHEMAS, paper_variable_order

FREE = ("A", "B", "C", "D")  # E stays bound, as in Example 6.5


def engines(order=None, updatable=None):
    order = order or paper_variable_order()
    return {
        mode: ConjunctiveQuery(
            "Q", PAPER_SCHEMAS, FREE, mode=mode, order=order, updatable=updatable
        )
        for mode in MODES
    }


def feed(engine, rel, rows, multiplicity=1):
    ring = engine.ring
    delta = Relation(rel, PAPER_SCHEMAS[rel], ring)
    for row in rows:
        delta.add(row, ring.from_int(multiplicity))
    engine.apply_update(delta)


STAR = {"R1": ("P", "X"), "R2": ("P", "Y"), "R3": ("P", "Z")}


def star(per_relation, mode="factorized", codes=(0,)):
    """The star join of three relations with ``per_relation`` values each
    under each P-value of ``codes``, one delta per relation."""
    order = VariableOrder.from_spec(("P", ["X", "Y", "Z"]))
    engine = ConjunctiveQuery(
        "star", STAR, ("P", "X", "Y", "Z"), mode=mode, order=order
    )
    for rel, schema in STAR.items():
        rows = itertools.product(codes, range(per_relation))
        engine.apply_update(
            Relation.from_tuples(rel, schema, engine.ring, rows)
        )
    return engine


FIGURE2_ROWS = {
    "R": [("a1", "b1"), ("a1", "b2"), ("a2", "b3"), ("a3", "b4")],
    "S": [("a1", "c1", "e1"), ("a1", "c1", "e2"), ("a1", "c2", "e3"), ("a2", "c2", "e4")],
    "T": [("c1", "d1"), ("c2", "d2"), ("c2", "d3"), ("c3", "d4")],
}


class TestExample65:
    """Q(A,B,C,D) = R(A,B), S(A,C,E), T(C,D) over the Figure 2 database."""

    def _loaded(self, mode):
        engine = ConjunctiveQuery(
            "Q", PAPER_SCHEMAS, FREE, mode=mode, order=paper_variable_order()
        )
        for rel, rows in FIGURE2_ROWS.items():
            feed(engine, rel, rows)
        return engine

    @pytest.mark.parametrize("mode", MODES)
    def test_figure2e_listing(self, mode):
        """The listing of Figure 2e (right column), with multiplicities."""
        expected = {
            ("a1", "b1", "c1", "d1"): 2,
            ("a1", "b1", "c2", "d2"): 1,
            ("a1", "b1", "c2", "d3"): 1,
            ("a1", "b2", "c1", "d1"): 2,
            ("a1", "b2", "c2", "d2"): 1,
            ("a1", "b2", "c2", "d3"): 1,
            ("a2", "b3", "c2", "d2"): 1,
            ("a2", "b3", "c2", "d3"): 1,
        }
        engine = self._loaded(mode)
        assert dict(engine.to_listing().items()) == expected

    def test_factorized_is_smaller(self):
        listing = self._loaded("listing_payloads")
        fact = self._loaded("factorized")
        assert fact.memory() < listing.memory()

    def test_result_size(self):
        assert self._loaded("factorized").result_size() == 8

    def test_result_relation_modes(self):
        listing = self._loaded("listing_keys").result_relation()
        payloads = self._loaded("listing_payloads").result_relation()
        assert listing.same_as(payloads.copy(name=listing.name))
        with pytest.raises(ValueError):
            self._loaded("factorized").result_relation()


class TestRandomAgreement:
    def test_modes_agree_under_churn(self, rng):
        all_engines = engines()
        for _ in range(100):
            rel = rng.choice(list(PAPER_SCHEMAS))
            rows = [
                tuple(rng.randint(0, 3) for _ in PAPER_SCHEMAS[rel])
                for _ in range(rng.randint(1, 3))
            ]
            multiplicity = rng.choice([1, 1, 2, -1])
            for engine in all_engines.values():
                feed(engine, rel, rows, multiplicity)
        reference = all_engines["listing_keys"].to_listing()
        for mode in ("listing_payloads", "factorized"):
            other = all_engines[mode].to_listing()
            assert reference.same_as(
                other.copy(name=reference.name)
            ), mode

    def test_enumeration_multiplicities(self, rng):
        """Enumerated multiplicities equal listing payload counts."""
        all_engines = engines()
        for _ in range(40):
            rel = rng.choice(list(PAPER_SCHEMAS))
            rows = [tuple(rng.randint(0, 2) for _ in PAPER_SCHEMAS[rel])]
            for engine in all_engines.values():
                feed(engine, rel, rows)
        expected = dict(all_engines["listing_keys"].result_relation().items())
        enumerated = dict(all_engines["factorized"].enumerate())
        assert enumerated == expected


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery("Q", PAPER_SCHEMAS, FREE, mode="columnar")

    def test_free_variable_below_bound_rejected_at_enumeration(self):
        """B and D free under a bound A: the one shape enumeration refuses,
        and only when first asked to enumerate."""
        engine = ConjunctiveQuery(
            "Q", PAPER_SCHEMAS, ("B", "D"), mode="factorized",
            order=paper_variable_order(),
        )
        feed(engine, "R", [("a1", "b1")])
        with pytest.raises(ValueError, match="free variables on top"):
            engine.enumerate()
        with pytest.raises(ValueError, match="free variables on top"):
            engine.result_size()

    def test_shared_bound_variable(self, rng):
        """Q(A) = R(A,B), S(B,C): the bound B is shared by both relations.
        The multiplicity is read at the view that sums B and C out, so
        the order A – B – C enumerates it under inserts and deletes."""
        schemas = {"R": ("A", "B"), "S": ("B", "C")}
        order = chain_order(("A", "B", "C"))
        pair = {
            mode: ConjunctiveQuery("Q", schemas, ("A",), mode=mode, order=order)
            for mode in ("listing_keys", "factorized")
        }
        live = []
        for _ in range(120):
            if live and rng.random() < 0.4:
                rel, row = live.pop(rng.randrange(len(live)))
                sign = -1
            else:
                rel = rng.choice(list(schemas))
                row = (rng.randint(0, 3), rng.randint(0, 3))
                live.append((rel, row))
                sign = 1
            for engine in pair.values():
                engine.apply_update(
                    Relation(rel, schemas[rel], engine.ring, {row: sign})
                )
            expected = dict(pair["listing_keys"].result_relation().items())
            assert dict(pair["factorized"].enumerate()) == expected
            assert pair["factorized"].result_size() == len(expected)
        assert any(count > 1 for count in expected.values())

    def test_all_variables_free_natural_join(self, rng):
        free = ("A", "B", "C", "D", "E")
        listing = ConjunctiveQuery(
            "Q", PAPER_SCHEMAS, free, mode="listing_keys",
            order=paper_variable_order(),
        )
        fact = ConjunctiveQuery(
            "Q", PAPER_SCHEMAS, free, mode="factorized",
            order=paper_variable_order(),
        )
        for _ in range(60):
            rel = rng.choice(list(PAPER_SCHEMAS))
            rows = [tuple(rng.randint(0, 2) for _ in PAPER_SCHEMAS[rel])]
            feed(listing, rel, rows)
            feed(fact, rel, rows)
        expected = listing.to_listing()
        got = fact.to_listing()
        assert expected.same_as(got.copy(name=expected.name))


class TestMemoryProfile:
    def test_factorized_grows_slower_on_star_join(self):
        """Per-postcode multiplicities multiply in listing mode but add in
        factorized mode — the Figure 8 (right) effect in miniature."""
        per_relation = 8
        listing, fact = star(per_relation, "listing_keys"), star(per_relation)
        # listing: 8³ result tuples; factorized: 3·8 values + views.
        assert listing.result_size() == per_relation ** 3
        assert fact.memory() < listing.memory() / 10
        assert fact.result_size() == per_relation ** 3


class TestResultSize:
    def test_counts_on_the_factorization(self):
        """8 · 10⁶ result tuples are counted from 600 stored values."""
        engine = star(200)
        start = time.perf_counter()
        assert engine.result_size() == 200 ** 3
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("free", [FREE, ("A", "C"), ("A",), ()])
    def test_equals_listing_length(self, free, rng):
        engine = ConjunctiveQuery(
            "Q", PAPER_SCHEMAS, free, mode="factorized",
            order=paper_variable_order(),
        )
        assert engine.result_size() == len(engine.to_listing()) == 0
        for _ in range(30):
            rel = rng.choice(list(PAPER_SCHEMAS))
            feed(engine, rel, [tuple(rng.randint(0, 2) for _ in PAPER_SCHEMAS[rel])])
            assert engine.result_size() == len(engine.to_listing())
        assert engine.result_size() > 0


class TestEnumeration:
    def test_disconnected_query_is_the_product_of_its_components(self):
        """Two components under a synthetic top view, one with a bound
        variable: tuples pair up, multiplicities multiply."""
        schemas = {"R": ("A", "B"), "S": ("C",)}
        order = VariableOrder.from_spec(("A", ["B"]), "C")
        engine = ConjunctiveQuery("Q", schemas, ("A", "C"), order=order)
        engine.apply_update(Relation.from_tuples(
            "R", schemas["R"], engine.ring, [(1, 1), (1, 2), (2, 1)]))
        assert dict(engine.enumerate()) == {}
        engine.apply_update(Relation.from_tuples(
            "S", schemas["S"], engine.ring, [(7,), (8,), (8,)]))
        assert dict(engine.enumerate()) == {
            (1, 7): 2, (1, 8): 4, (2, 7): 1, (2, 8): 2,
        }
        assert engine.result_size() == 4

    def test_star_join_reads_through_the_indexes_updates_maintain(self):
        """The first enumeration of a star registers nothing: sibling
        probes already index every child view on P, and the top view is
        read off its primary map — the update path stays as it was."""
        engine = star(3)

        def indexes():
            views = engine.engine.views
            return {name: set(view._indexes) for name, view in views.items()}

        before = indexes()
        assert len(list(engine.enumerate())) == 27
        assert indexes() == before

    def test_no_free_variable_is_the_count(self):
        engine = ConjunctiveQuery(
            "Q", PAPER_SCHEMAS, (), order=paper_variable_order()
        )
        assert list(engine.enumerate()) == []
        for rel, rows in FIGURE2_ROWS.items():
            feed(engine, rel, rows)
        assert list(engine.enumerate()) == [((), 10)]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("row", [(0, 99), (0, 0)], ids=["new key", "count only"])
    def test_write_invalidates_a_live_enumeration(self, mode, row):
        """Whether the write adds a key to a bucket being read or only
        changes a stored count, the open iterator refuses to go on."""
        engine = star(3, mode)
        rows = engine.enumerate()
        next(rows)
        engine.apply_update(Relation.from_tuples("R1", STAR["R1"], engine.ring, [row]))
        with pytest.raises(RuntimeError, match=r"call enumerate\(\) again"):
            next(rows)
        expected = 36 if row == (0, 99) else 27
        assert len(list(engine.enumerate())) == expected

    def test_first_page_fetches_the_buckets_on_one_path(self, monkeypatch):
        """Laziness, counted in bucket fetches: a page of the first k
        tuples costs one fetch per free view on the path — P, then Y
        beside X, then Z under the first Y — whatever the result size."""
        schemas = {"R1": ("P", "X"), "R2": ("P", "Y"), "R3": ("Y", "Z")}
        order = VariableOrder.from_spec(("P", ["X", ("Y", ["Z"])]))
        fetches = []
        lookup = Relation.lookup

        def counting(self, attrs, subkey):
            fetches.append(self.name)
            return lookup(self, attrs, subkey)

        def first_page(n, k=50):
            engine = ConjunctiveQuery(
                "Q", schemas, ("P", "X", "Y", "Z"), order=order)
            for rel, left in (("R1", 1), ("R2", 1), ("R3", n)):
                rows = itertools.product(range(left), range(n))
                engine.apply_update(Relation.from_tuples(
                    rel, schemas[rel], engine.ring, rows))
            assert engine.result_size() == n ** 3
            with monkeypatch.context() as patch:
                patch.setattr(Relation, "lookup", counting)
                del fetches[:]
                page = list(itertools.islice(engine.enumerate(), k))
            assert len(set(page)) == k
            return list(fetches)

        small, large = first_page(22), first_page(100)  # 10⁴ and 10⁶ tuples
        assert len(small) == len(large) == 4
        assert sorted(small) == sorted(large)

    def test_a_page_resumes_no_python_frame_per_tuple(self):
        """Counts, not clocks: the Python ``call`` events (function calls
        and generator resumptions) of a page read are the same for 50 and
        for 5 000 tuples of one run of 10⁴, the product of the X and Z
        buckets under the first (P, Y) binding."""
        schemas = {"R1": ("P", "X"), "R2": ("P", "Y"), "R3": ("Y", "Z")}
        order = VariableOrder.from_spec(("P", ["X", ("Y", ["Z"])]))
        engine = ConjunctiveQuery(
            "Q", schemas, ("P", "X", "Y", "Z"), order=order)
        for rel, left in (("R1", 1), ("R2", 1), ("R3", 100)):
            rows = itertools.product(range(left), range(100))
            engine.apply_update(Relation.from_tuples(
                rel, schemas[rel], engine.ring, rows))
        list(itertools.islice(engine.enumerate(), 1))  # plan, indexes

        def calls(k):
            counted = []

            def profile(frame, event, arg):
                if event == "call":
                    counted.append(frame.f_code.co_name)

            # A cyclic collection inside the page would add the frames of
            # whatever ``gc.callbacks`` holds (Hypothesis registers one).
            collecting = gc.isenabled()
            gc.disable()
            outer = sys.getprofile()
            sys.setprofile(profile)
            try:
                page = list(itertools.islice(engine.enumerate(), k))
            finally:
                sys.setprofile(outer)
                if collecting:
                    gc.enable()
            assert len(set(page)) == k
            return counted

        small, large = calls(50), calls(5000)
        assert small == large, (len(small), len(large))


def write(engine, rel, rows, multiplicity=1):
    engine.apply_update(Relation.from_tuples(
        rel, STAR[rel], engine.ring, rows, engine.ring.from_int(multiplicity)))


STALE = r"the result changed under this enumeration; call enumerate\(\) again"


class TestStaleness:
    """Every way a write can meet an open enumeration ends in the same
    ``RuntimeError``, raised before anything of the new state is read."""

    def test_write_in_the_middle_of_a_tail_product(self):
        engine = star(3)  # one run: X × Y × Z under P = 0
        rows = engine.enumerate()
        assert len(list(itertools.islice(rows, 13))) == 13
        write(engine, "R2", [(0, 7)])
        with pytest.raises(RuntimeError, match=STALE):
            next(rows)

    def test_write_exactly_at_a_run_boundary(self):
        engine = star(3, codes=(0, 1))  # two runs of 27
        rows = engine.enumerate()
        first = list(itertools.islice(rows, 27))
        assert {row[0] for row, _ in first} == {first[0][0][0]}
        write(engine, "R3", [(1, 7)])
        with pytest.raises(RuntimeError, match=STALE):
            next(rows)

    def test_two_writes_before_the_next_resumption(self):
        engine = star(3, codes=(0, 1))
        rows = engine.enumerate()
        next(rows)
        write(engine, "R1", [(0, 7)])
        write(engine, "R1", [(0, 7)], -1)  # back to the state read so far
        with pytest.raises(RuntimeError, match=STALE):
            next(rows)
        assert len(list(engine.enumerate())) == 54

    def test_write_that_empties_the_bucket_being_read(self):
        engine = star(3)
        rows = engine.enumerate()
        next(rows)
        write(engine, "R3", [(0, z) for z in range(3)], -1)
        with pytest.raises(RuntimeError, match=STALE):
            next(rows)
        assert list(engine.enumerate()) == []

    def test_write_before_the_first_tuple(self):
        engine = star(3)
        rows = engine.enumerate()
        write(engine, "R1", [(0, 7)])
        with pytest.raises(RuntimeError, match=STALE):
            next(rows)

    @pytest.mark.parametrize("mode", ["listing_keys", "listing_payloads"])
    def test_listing_write_that_adds_a_key(self, mode):
        """The listing result is read off a stored dict; the gate closes
        before that dict's iterator is advanced across the new key."""
        engine = star(3, mode)
        rows = engine.enumerate()
        assert len(list(itertools.islice(rows, 5))) == 5
        write(engine, "R1", [(0, 99)])
        with pytest.raises(RuntimeError) as raised:
            next(rows)
        assert "dictionary changed size" not in str(raised.value)
        assert raised.match(STALE)

    def test_abandoned_enumerations_leave_traced_memory_flat(self):
        """N, then 2N cycles of: open an enumeration, read part of a page,
        drop it, write (inserts and deletes in turn, so the views return
        to one state).  Traced bytes after 2N cycles are within 16 KiB of
        those after N: the gate registers nothing per enumeration."""
        engine = star(10, codes=(0, 1))
        cycles, slack = 200, 16 * 1024
        traced = []
        gc.collect()
        tracemalloc.start()
        try:
            for cycle in range(2 * cycles):
                rows = engine.enumerate()
                assert len(list(itertools.islice(rows, 50))) == 50
                del rows
                write(engine, "R2", [(1, 77)], 1 if cycle % 2 == 0 else -1)
                if cycle + 1 in (cycles, 2 * cycles):
                    gc.collect()
                    traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert traced[1] - traced[0] <= slack, traced

