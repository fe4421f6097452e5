"""Tests for conjunctive query evaluation with three representations (§6.3)."""

import itertools
import time

import pytest

from repro.apps import MODES, ConjunctiveQuery
from repro.core import VariableOrder
from repro.data import Relation

from tests.conftest import PAPER_SCHEMAS, paper_variable_order

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


def star(per_relation, mode="factorized"):
    """The star join of three relations with ``per_relation`` values each
    under one P-value, one delta per relation."""
    order = VariableOrder.from_spec(("P", ["X", "Y", "Z"]))
    engine = ConjunctiveQuery(
        "star", STAR, ("P", "X", "Y", "Z"), mode=mode, order=order
    )
    for rel, schema in STAR.items():
        rows = [(0, value) for value in range(per_relation)]
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
        assert listing.same_as(payloads.rename({}, name=listing.name))
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
                other.rename({}, name=reference.name)
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
        order = VariableOrder.chain(("A", "B", "C"))
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
        assert expected.same_as(got.rename({}, name=expected.name))


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
