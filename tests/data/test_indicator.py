"""Tests for incrementally maintained indicator projections (Example B.2)."""

import random

import pytest

from repro.data import IndicatorView, Relation
from repro.rings import INT_RING


class TestExampleB2:
    """The worked example: R over {A,B}, maintain Q[A] = ∃_A R."""

    def setup_method(self):
        self.base = Relation(
            "R", ("A", "B"), INT_RING,
            {("a1", "b1"): 1, ("a1", "b2"): 2, ("a2", "b3"): 3},
        )
        self.view = IndicatorView.over(self.base, ("A",))

    def test_initial_contents(self):
        assert dict(self.view.relation.items()) == {("a1",): 1, ("a2",): 1}

    def test_partial_delete_no_output_change(self):
        delta = Relation("R", ("A", "B"), INT_RING, {("a1", "b2"): -2})
        change = self.view.compute_delta(delta, self.base)
        assert change.is_empty
        self.view.commit(change)
        self.base.absorb(delta)
        assert ("a1",) in self.view.relation

    def test_last_tuple_delete_emits_minus_one(self):
        first = Relation("R", ("A", "B"), INT_RING, {("a1", "b2"): -2})
        self.view.commit(self.view.compute_delta(first, self.base))
        self.base.absorb(first)
        second = Relation("R", ("A", "B"), INT_RING, {("a1", "b1"): -1})
        change = self.view.compute_delta(second, self.base)
        assert dict(change.items()) == {("a1",): -1}
        self.view.commit(change)
        self.base.absorb(second)
        assert ("a1",) not in self.view.relation

    def test_new_value_emits_plus_one(self):
        delta = Relation("R", ("A", "B"), INT_RING, {("a9", "b9"): 1})
        change = self.view.compute_delta(delta, self.base)
        assert dict(change.items()) == {("a9",): 1}

    def test_existing_value_no_change(self):
        delta = Relation("R", ("A", "B"), INT_RING, {("a1", "b9"): 1})
        change = self.view.compute_delta(delta, self.base)
        assert change.is_empty

    def test_delta_bounded_by_update_size(self):
        delta = Relation(
            "R", ("A", "B"), INT_RING,
            {("x1", "y"): 1, ("x2", "y"): 1, ("x3", "y"): 1},
        )
        change = self.view.compute_delta(delta, self.base)
        assert len(change) <= len(delta)


class TestRandomChurn:
    def test_matches_static_indicator(self):
        """Under random insert/delete churn the maintained indicator always
        equals the static projection of the current base."""
        rng = random.Random(31)
        base = Relation("R", ("A", "B"), INT_RING)
        view = IndicatorView.over(base, ("A",))
        for _ in range(400):
            key = (rng.randint(0, 4), rng.randint(0, 4))
            if rng.random() < 0.4 and key in base:
                amount = -base.payload(key)
            else:
                amount = rng.choice([1, 2])
            delta = Relation("R", ("A", "B"), INT_RING, {key: amount})
            if delta.is_empty:
                continue
            view.commit(view.compute_delta(delta, base))
            base.absorb(delta)
            exists = {(key[0],): 1 for key in base.keys()}
            assert dict(view.relation.items()) == exists

    def test_negative_count_rejected(self):
        base = Relation("R", ("A",), INT_RING)
        view = IndicatorView.over(base, ("A",))
        with pytest.raises(ValueError):
            view._bump((1,), -1)


class TestResetFrom:
    def test_reset(self):
        base = Relation("R", ("A", "B"), INT_RING, {(1, 2): 1})
        view = IndicatorView("R", ("A", "B"), ("A",), INT_RING)
        assert len(view) == 0
        view.reset_from(base)
        assert dict(view.relation.items()) == {(1,): 1}
