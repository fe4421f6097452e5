"""Tests for matrix chain multiplication (Section 6.1 / LINVIEW)."""

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.apps import (
    DenseChainFIVM,
    DenseChainFirstOrder,
    DenseChainReeval,
    MatrixChainIVM,
    chain_query,
    chain_variable_order,
    matrix_chain_order,
)
import repro.apps.matrix_chain as matrix_chain_module
import repro.core.engine as engine_module
from repro.apps.matrix_chain import chain_database, rank_one_update
from repro.bench.memory import strategy_scalars
from repro.core import (
    FactorizedUpdate,
    FIVMEngine,
    JournaledFIVMEngine,
    ShardedFIVMEngine,
    ViewClient,
)
from repro.data import Database, Relation, relation
from repro.data.relation import _DATA_SLOT, DeferredRelation
from repro.datasets.matrices import (
    _full_keys,
    matrix_as_relation,
    random_matrix,
    rank_r_update,
    relation_as_matrix,
    row_update,
    vector_as_relation,
)
from repro.rings import INT_RING, RealRing

from tests.conftest import FORMS, bucket_sum, pinned


@pytest.fixture
def np_rng():
    return np.random.default_rng(17)


class TestChainOrderDP:
    def test_textbook_example(self):
        # CLRS-style: dims (10, 100, 5, 50) → optimal cost 7500, split at 2.
        m, s = matrix_chain_order([10, 100, 5, 50])
        assert m[1][3] == 7500
        assert s[1][3] == 2

    def test_single_matrix(self):
        m, _ = matrix_chain_order([3, 4])
        assert m[1][1] == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            matrix_chain_order([5])


class TestVariableOrder:
    def test_example61_shape(self):
        """ω = X1 - X5 - X3 - {X2, X4} for a balanced 4-chain."""
        vo = chain_variable_order(4)
        assert vo.roots[0].var == "X1"
        assert vo.ancestors("X3") == ("X1", "X5")
        assert {child.var for child in vo.node("X3").children} == {"X2", "X4"}

    def test_valid_for_query(self):
        for k in (1, 2, 3, 5):
            q = chain_query(k)
            chain_variable_order(k).validate(q)

    def test_optimal_split_used(self):
        # dims force the optimal parenthesization A1 · (A2 · A3), so the
        # top bound variable is X2 with X3 below it.
        vo = chain_variable_order(3, dims=[2, 2, 100, 2])
        root_bound = vo.node("X4").children[0].var
        assert root_bound == "X2"
        assert vo.parent("X3") == "X2"


@pytest.mark.usefixtures("form")
class TestRelationalChain:
    def test_initial_product(self, np_rng):
        mats = [random_matrix(4, 6, np_rng), random_matrix(6, 3, np_rng)]
        chain = MatrixChainIVM(mats)
        assert np.allclose(chain.result_matrix(), mats[0] @ mats[1])

    def test_dimension_mismatch_rejected(self, np_rng):
        with pytest.raises(ValueError):
            MatrixChainIVM([random_matrix(3, 4, np_rng), random_matrix(5, 2, np_rng)])

    def test_rank_one_updates_each_position(self, np_rng):
        mats = [
            random_matrix(3, 4, np_rng),
            random_matrix(4, 5, np_rng),
            random_matrix(5, 2, np_rng),
        ]
        for index in (1, 2, 3):
            chain = MatrixChainIVM(mats, updatable=[f"A{index}"])
            u = np_rng.uniform(-1, 1, mats[index - 1].shape[0])
            v = np_rng.uniform(-1, 1, mats[index - 1].shape[1])
            chain.apply_rank_one(index, u, v)
            updated = [m.copy() for m in mats]
            updated[index - 1] = updated[index - 1] + np.outer(u, v)
            expected = updated[0] @ updated[1] @ updated[2]
            assert np.allclose(chain.result_matrix(), expected), index

    def test_rank_r_update(self, np_rng):
        n = 5
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        chain = MatrixChainIVM(mats, updatable=["A2"])
        terms = rank_r_update(n, 3, np_rng)
        chain.apply_rank_r(2, terms)
        delta = sum(np.outer(u, v) for u, v in terms)
        expected = mats[0] @ (mats[1] + delta) @ mats[2]
        assert np.allclose(chain.result_matrix(), expected)

    def test_longer_chain(self, np_rng):
        mats = [random_matrix(3, 3, np_rng) for _ in range(5)]
        chain = MatrixChainIVM(mats, updatable=["A3"])
        u, v = np_rng.uniform(-1, 1, 3), np_rng.uniform(-1, 1, 3)
        chain.apply_rank_one(3, u, v)
        updated = [m.copy() for m in mats]
        updated[2] += np.outer(u, v)
        expected = updated[0]
        for m in updated[1:]:
            expected = expected @ m
        assert np.allclose(chain.result_matrix(), expected)

    def test_dense_delta_listing_path(self, np_rng):
        mats = [random_matrix(3, 3, np_rng) for _ in range(3)]
        chain = MatrixChainIVM(mats)
        delta = 0.1 * random_matrix(3, 3, np_rng)
        chain.apply_dense_delta(2, delta)
        expected = mats[0] @ (mats[1] + delta) @ mats[2]
        assert np.allclose(chain.result_matrix(), expected)

    def test_row_update_helper(self, np_rng):
        u, v = row_update(4, 2, np_rng)
        delta = np.outer(u, v)
        assert np.count_nonzero(delta[0]) == 0
        assert np.count_nonzero(delta[2]) == 4


def chains_per_form(mats, **kwargs):
    """One :class:`MatrixChainIVM` per form over the same matrices."""
    chains = {}
    for form in FORMS:
        with pinned(form):
            chains[form] = MatrixChainIVM(mats, **kwargs)
    return chains


def product(mats):
    out = mats[0]
    for m in mats[1:]:
        out = out @ m
    return out


def assert_held_to_interpreter(chains):
    """Every view of the generated forms equals the interpreter's, key
    for key."""
    oracle = chains["interpreter"].engine
    for form in ("scalar", "array"):
        for name, view in chains[form].engine.views.items():
            assert view.same_as(oracle.views[name]), (form, name)


def array_programs(chain):
    return [
        program
        for program in chain.engine._array_factor_programs.values()
        if program is not None
    ]


class TestFactorForms:
    """The array form of the factor programs (ℝ chains) against the scalar
    form and the interpreter."""

    def test_forms_are_the_ones_pinned(self, np_rng):
        mats = [random_matrix(5, 5, np_rng) for _ in range(3)]
        chains = chains_per_form(mats, updatable=["A2"])
        u, v = row_update(5, 3, np_rng)
        for chain in chains.values():
            chain.apply_rank_one(2, u, v)
        assert len(array_programs(chains["array"])) == 2
        assert not chains["scalar"].engine._array_factor_programs
        assert not chains["interpreter"].engine._array_factor_programs
        assert_held_to_interpreter(chains)

    def test_default_engine_selects_per_node_from_factor_rows(self, np_rng):
        """A one-cell change to a 12×12 chain enters with one-row factors
        (scalar at the first node) and reaches the root with a 12-row one
        (array there); a 4×4 chain never leaves the scalar form."""
        mats = [random_matrix(12, 12, np_rng) for _ in range(3)]
        chain = MatrixChainIVM(mats, updatable=["A2"])
        u, v = np.zeros(12), np.zeros(12)
        u[3], v[7] = 2.0, -1.5
        chain.apply_rank_one(2, u, v)
        assert [key[0] for key in chain.engine._array_factor_programs] == [
            chain.engine.tree.root.name
        ]
        assert len(chain.engine._factor_programs) == 1
        mats[1] = mats[1] + np.outer(u, v)
        assert np.allclose(chain.result_matrix(), product(mats))
        small = MatrixChainIVM(
            [random_matrix(4, 4, np_rng) for _ in range(3)], updatable=["A2"]
        )
        small.apply_rank_one(2, np_rng.uniform(-1, 1, 4), np_rng.uniform(-1, 1, 4))
        assert not small.engine._array_factor_programs

    def test_sparse_matrices_and_keys_missing_from_a_sibling(self, np_rng):
        n = 7
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        for m in mats:
            m[np_rng.uniform(size=(n, n)) < 0.5] = 0.0
        mats[0][:, 2] = 0.0  # A1 has no entry for X2 = 2
        mats[2][4, :] = 0.0  # A3 has no entry for X3 = 4
        mats[2][:, 1] = 0.0
        chains = chains_per_form(mats, updatable=["A2"])
        current = [m.copy() for m in mats]
        updates = [rank_r_update(n, 1, np_rng)[0] for _ in range(4)]
        for u, v in updates:
            u[np_rng.uniform(size=n) < 0.4] = 0.0
        # Terms that die inside a merge: v only meets A3's empty row, u
        # only A1's empty column.
        dead_v, dead_u = np.zeros(n), np.zeros(n)
        dead_v[4], dead_u[2] = 1.0, 1.0
        updates += [(updates[0][0], dead_v), (dead_u, updates[0][1])]
        for u, v in updates:
            for chain in chains.values():
                chain.apply_rank_one(2, u, v)
            current[1] = current[1] + np.outer(u, v)
            assert_held_to_interpreter(chains)
        assert array_programs(chains["array"])
        assert np.allclose(chains["array"].result_matrix(), product(current))

    def test_factor_missing_from_a_fresh_sibling_site_writes_nothing(
        self, np_rng, monkeypatch
    ):
        """A one-key u over an empty column of A1, merged on a site nothing
        has gathered on yet (no output key numbered): the merge is the ring
        zero, so the term writes no view past A2's own and returns the
        empty root."""
        n = 9
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        mats[0][:, 2] = 0.0
        chain = MatrixChainIVM(mats, updatable=["A2"])
        writes = []
        write = FIVMEngine._write_view
        monkeypatch.setattr(
            FIVMEngine, "_write_view",
            lambda engine, name, delta: writes.append(name)
            or write(engine, name, delta),
        )
        u, v = row_update(n, 2, np_rng)
        delta = chain.engine.apply_factorized_update(rank_one_update(2, u, v))
        assert array_programs(chain)
        assert type(delta) is Relation and delta.is_empty
        assert set(writes) <= {chain.engine.tree.leaves["A2"].name}
        assert np.allclose(chain.result_matrix(), product(mats))

    @pytest.mark.parametrize("k", [4, 5])
    def test_longer_chains_updated_at_both_ends_and_the_middle(self, np_rng, k):
        dims = [3, 4, 2, 5, 3, 4][: k + 1]
        mats = [random_matrix(dims[i], dims[i + 1], np_rng) for i in range(k)]
        chains = chains_per_form(mats)
        current = [m.copy() for m in mats]
        middle = (k + 1) // 2
        for index in (1, k, middle, middle, 1, k):
            u = np_rng.uniform(-1, 1, dims[index - 1])
            v = np_rng.uniform(-1, 1, dims[index])
            for chain in chains.values():
                chain.apply_rank_one(index, u, v)
            current[index - 1] = current[index - 1] + np.outer(u, v)
            assert_held_to_interpreter(chains)
        assert array_programs(chains["array"])
        assert np.allclose(chains["array"].result_matrix(), product(current))

    def test_sibling_write_between_updates_drops_packed_memo_rows(self, np_rng):
        n = 5
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        chains = chains_per_form(mats, updatable=["A1", "A2"])
        current = [m.copy() for m in mats]
        engine = chains["array"].engine
        a1 = engine.tree.leaves["A1"].name
        for index in (2, 1, 2):
            u, v = rank_r_update(n, 1, np_rng)[0]
            for chain in chains.values():
                chain.apply_rank_one(index, u, v)
            current[index - 1] = current[index - 1] + np.outer(u, v)
            # A2's update memoizes packed rows of A1; A1's own drops them.
            assert (a1 in engine._probe_cache) == (index == 2)
            assert_held_to_interpreter(chains)
        rows = [
            row
            for site in engine._probe_cache[a1].values()
            for subkey, row in site.items()
            if subkey is not None
        ]
        assert rows and all(isinstance(r[1], np.ndarray) for r in rows)
        assert np.allclose(chains["array"].result_matrix(), product(current))

    @pytest.mark.parametrize("target", ["partial", "indexed"])
    def test_flatten_target_that_cannot_absorb_packed(self, np_rng, target):
        """The packed flatten falls back to the dict delta when the view it
        lands in is partial or carries a secondary index."""
        n = 5
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        kwargs = {
            "partial": {"materialization": "partial"},
            "indexed": {},
        }[target]

        def engine_of(form):
            with pinned(form):
                engine = FIVMEngine(
                    chain_query(3), chain_variable_order(3, [n] * 4),
                    updatable=["A2"], db=chain_database(mats), **kwargs
                )
            if target == "indexed":
                engine.result().register_index(("X1",))
            return engine

        engines = {form: engine_of(form) for form in ("array", "interpreter")}
        served = [(1, 2), (4, 0)]
        root = engines["array"].tree.root.name
        for u, v in rank_r_update(n, 3, np_rng):
            deltas = {}
            for form, engine in engines.items():
                if target == "partial":
                    client = ViewClient(engine)
                    for key in served:
                        client.lookup(root, key)
                deltas[form] = engine.apply_factorized_update(
                    rank_one_update(2, u, v)
                )
            assert deltas["array"].same_as(deltas["interpreter"])
            mats[1] = mats[1] + np.outer(u, v)
        assert any(engines["array"]._array_factor_programs.values())
        result = engines["array"].result()
        assert result.same_as(engines["interpreter"].result())
        expected = product(mats)
        for key in served if target == "partial" else result.keys():
            assert np.isclose(result.payload(key), expected[key])
        if target == "indexed":
            for i in range(n):
                assert np.isclose(
                    bucket_sum(result, ("X1",), (i,)), expected[i].sum()
                )

    def test_steady_state_updates_never_touch_the_root_map(
        self, np_rng, monkeypatch
    ):
        """The count guard: once the root holds its column, 100 dense and
        100 one-row updates run no eager packed absorb and leave the
        root's dict — the same object throughout — as it was; the first
        map read folds the column into it, and what it then holds is what
        the interpreter maintained."""
        n = 12
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        chain = MatrixChainIVM(mats, updatable=["A2"])
        with pinned("interpreter"):
            oracle = MatrixChainIVM(mats, updatable=["A2"])
        updates = []
        for step in range(202):
            u, v = rank_r_update(n, 1, np_rng)[0]
            if step % 2:
                u = row_update(n, step % n, np_rng)[0]
            updates.append((u, v))
        root = chain.engine.result()
        assert type(root) is DeferredRelation and root._packed_form is None
        for u, v in updates[:2]:  # warm-up: programs built, the root armed
            chain.apply_rank_one(2, u, v)
        table, column = root._packed_form
        root_map = _DATA_SLOT.__get__(root)
        stale = dict(root_map)
        eager = []
        absorb_packed = Relation._absorb_packed
        monkeypatch.setattr(
            Relation, "_absorb_packed",
            lambda self, *args: eager.append(self) or absorb_packed(self, *args),
        )
        for u, v in updates[2:]:
            chain.apply_rank_one(2, u, v)
        assert not eager
        assert root._packed_form[0] is table and root._packed_form[1] is column
        assert _DATA_SLOT.__get__(root) is root_map and root_map == stale
        current = mats[1] + sum(np.outer(u, v) for u, v in updates)
        assert np.allclose(chain.result_matrix(), mats[0] @ current @ mats[2])
        assert root._packed_form is not None, "a packed read folds nothing"
        for u, v in updates:
            oracle.apply_rank_one(2, u, v)
        assert root.same_as(oracle.engine.result())  # the first map read
        assert root._packed_form is None and root.resolved
        assert _DATA_SLOT.__get__(root) is root_map and root_map != stale
        chain.apply_rank_one(2, *updates[0])
        assert eager == [root] and root._packed_form is not None

    def test_snapshot_of_a_packed_root_restores_and_continues(self, np_rng):
        n = 9
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        updates = rank_r_update(n, 6, np_rng)
        straight, stopped, restored = (
            MatrixChainIVM(mats, updatable=["A2"]) for _ in range(3)
        )
        for u, v in updates:
            straight.apply_rank_one(2, u, v)
        for u, v in updates[:3]:
            stopped.apply_rank_one(2, u, v)
        assert stopped.engine.result()._packed_form is not None
        snapshot = pickle.loads(pickle.dumps(stopped.engine.snapshot()))
        restored.engine.restore(snapshot)
        for chain in (stopped, restored):
            for u, v in updates[3:]:
                chain.apply_rank_one(2, u, v)
            assert chain.engine.result()._packed_form is not None
            assert np.array_equal(
                chain.result_matrix(), straight.result_matrix()
            )
            for name, view in straight.engine.views.items():
                assert chain.engine.views[name].same_as(view), name

    def test_journaled_chain_recovers_and_returns_the_propagated_delta(
        self, np_rng
    ):
        n = 9
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        direct = MatrixChainIVM(mats, updatable=["A2"])
        journaled = JournaledFIVMEngine(
            MatrixChainIVM(mats, updatable=["A2"]).engine, checkpoint_every=3
        )
        for u, v in rank_r_update(n, 5, np_rng):
            expected = direct.engine.apply_factorized_update(
                rank_one_update(2, u, v)
            )
            delta = journaled.apply_factorized_update(rank_one_update(2, u, v))
            # One path fired: apply_batch hands back what it propagated.
            assert delta._packed_form is not None
            assert delta.same_as(expected)
        assert journaled.engine.result()._packed_form is not None
        recovered = MatrixChainIVM(mats, updatable=["A2"]).engine
        assert journaled.recover_into(recovered) == 2
        for name, view in direct.engine.views.items():
            assert recovered.views[name].same_as(view), name
            assert journaled.engine.views[name].same_as(view), name

    def test_inline_shards_merge_their_packed_roots(self, np_rng):
        n = 10
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        single = MatrixChainIVM(mats, updatable=["A2"])
        sharded = ShardedFIVMEngine(
            chain_query(3), chain_variable_order(3, [n] * 4), shards=2,
            updatable=["A2"], db=chain_database(mats),
        )
        for u, v in rank_r_update(n, 4, np_rng):
            expected = single.engine.apply_factorized_update(
                rank_one_update(2, u, v)
            )
            delta = sharded.apply_factorized_update(rank_one_update(2, u, v))
            assert delta.same_as(expected)
        roots = [engine.result() for engine in sharded._exec.engines]
        assert all(root._packed_form is not None for root in roots)
        assert 0 < len(roots[0]._packed_form[0]) < n * n  # a shard's rows
        assert sharded.result().same_as(single.engine.result())
        sharded.close()

    def test_a_result_handle_held_across_updates_reads_current_values(
        self, np_rng
    ):
        n = 9
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        chain = MatrixChainIVM(mats, updatable=["A2"])
        handle = chain.engine.result()
        for u, v in rank_r_update(n, 4, np_rng):
            chain.apply_rank_one(2, u, v)
            mats[1] = mats[1] + np.outer(u, v)
            expected = product(mats)
            assert handle._packed_form is not None  # re-armed by the update
            assert np.allclose(relation_as_matrix(handle, (n, n)), expected)
            assert handle._packed_form is not None
            assert np.isclose(handle.payload((2, 5)), expected[2, 5])
            assert len(handle) == n * n and handle.resolved

    def test_outputs_a_key_table_cannot_cover_stay_on_the_map(self, np_rng):
        """Residency needs the delta's key table to be the whole view.
        With A1 = I a sparse ``u`` reaches a sub-table of the result's
        rows; and a delta that takes every stored key to zero leaves
        nothing to keep — both run the eager absorb every time."""
        n = 9
        mats = [np.eye(n), random_matrix(n, n, np_rng), random_matrix(n, n, np_rng)]
        chains = chains_per_form(mats, updatable=["A2"])
        root = chains["array"].engine.result()
        for _ in range(4):
            u, v = rank_r_update(n, 1, np_rng)[0]
            u[np_rng.permutation(n)[:3]] = 0.0
            for chain in chains.values():
                chain.apply_rank_one(2, u, v)
            assert root._packed_form is None
            assert_held_to_interpreter(chains)
        zeroed = [np.eye(n), np.zeros((n, n)), np.eye(n)]
        chains = chains_per_form(zeroed, updatable=["A2"])
        root = chains["array"].engine.result()
        u, v = rank_r_update(n, 1, np_rng)[0]
        for sign, size in ((1.0, n * n), (-1.0, 0), (1.0, n * n)):
            for chain in chains.values():
                chain.apply_rank_one(2, sign * u, v)
            # From an empty view every key is the table's: armed; the
            # retraction finds the map read (len) and kills every key.
            assert (root._packed_form is not None) == (sign > 0)
            assert len(root) == size
            assert_held_to_interpreter(chains)
        # A view that holds its column keeps it through a cancellation:
        # explicit zeros, which the fold deletes.
        for scale in (1.0, -2.0):
            for chain in chains.values():
                chain.apply_rank_one(2, scale * u, v)
        assert not root._packed_form[1].any()
        assert not chains["array"].result_matrix().any()
        assert_held_to_interpreter(chains)
        assert root.is_empty and not _DATA_SLOT.__get__(root)

    @pytest.mark.parametrize(
        "form, kwargs",
        [
            ("interpreter", {}),
            ("scalar", {}),
            ("array", {"materialization": "partial"}),
            ("scalar", {"materialization": "partial"}),
        ],
    )
    def test_engines_whose_root_never_holds_a_column(
        self, np_rng, form, kwargs
    ):
        n = 9
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        with pinned(form):
            engine = FIVMEngine(
                chain_query(3), chain_variable_order(3, [n] * 4),
                updatable=["A2"], db=chain_database(mats), **kwargs
            )
        root = engine.result()
        # Only the fully materialized scalar pin keeps the class (its
        # choice is made per update, from the factor rows); it never sees
        # a packed delta.  A partial root is never resident.
        assert (type(root) is DeferredRelation) == (
            form == "scalar" and not kwargs
        )
        for u, v in rank_r_update(n, 3, np_rng):
            engine.apply_factorized_update(rank_one_update(2, u, v))
            assert root._packed_form is None

    def test_integer_chain_stays_exact_and_scalar(self):
        big = 2 ** 40
        n = 3
        db = Database(
            Relation(
                f"A{i}", (f"X{i}", f"X{i + 1}"), INT_RING,
                {(r, c): big + r * n + c for r in range(n) for c in range(n)},
            )
            for i in (1, 2, 3)
        )
        with pinned("array"):
            engine = FIVMEngine(
                chain_query(3, INT_RING), chain_variable_order(3),
                updatable=["A2"], db=db,
            )
        factors = [
            Relation(name, (var,), INT_RING, {(i,): big + i for i in range(n)})
            for name, var in (("u", "X2"), ("v", "X3"))
        ]
        engine.apply_factorized_update(FactorizedUpdate.rank_one("A2", factors))
        assert engine._factor_programs and not engine._array_factor_programs
        a = [[big + r * n + c for c in range(n)] for r in range(n)]
        a2 = [
            [a[r][c] + (big + r) * (big + c) for c in range(n)] for r in range(n)
        ]
        for r in range(n):
            for c in range(n):
                exact = sum(
                    a[r][i] * a2[i][j] * a[j][c]
                    for i in range(n) for j in range(n)
                )
                assert exact > 2 ** 120
                assert engine.result().payload((r, c)) == exact

    def test_rank_r_as_one_update_equals_r_rank_one_calls(self, np_rng):
        n = 6
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        terms = rank_r_update(n, 3, np_rng)
        for form in FORMS:
            with pinned(form):
                one_by_one = MatrixChainIVM(mats, updatable=["A2"])
                at_once = MatrixChainIVM(mats, updatable=["A2"])
            one_by_one.apply_rank_r(2, terms)
            update = FactorizedUpdate(
                "A2", [rank_one_update(2, u, v).terms[0] for u, v in terms]
            )
            total = at_once.engine.apply_factorized_update(update)
            assert at_once.engine.result().same_as(one_by_one.engine.result())
            delta = sum(np.outer(u, v) for u, v in terms)
            assert np.allclose(
                relation_as_matrix(total, (n, n)), mats[0] @ delta @ mats[2]
            )

    def test_update_and_its_negation_restore_keys_and_scalars(self, np_rng):
        """``u vᵀ`` then ``(−u) vᵀ``: every entry returns to within the
        ring's zero tolerance, so keys only the delta introduced — here a
        whole row of a result whose A1 row was empty — are deleted again."""
        n = 6
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        # Result row 2 is 0.5 · A2[3, :] · A3: empty until u gives A2 a row 3.
        mats[0][2, :] = 0.0
        mats[0][2, 3] = 0.5
        mats[1][3, :] = 0.0
        chains = chains_per_form(mats, updatable=["A2"])
        u, v = rank_r_update(n, 1, np_rng)[0]
        for form, chain in chains.items():
            before = dict(chain.engine.result().items())
            scalars = strategy_scalars(chain.engine)
            assert not any(key[0] == 2 for key in before)
            chain.apply_rank_one(2, u, v)
            assert len(chain.engine.result()) == len(before) + n
            chain.apply_rank_one(2, -u, v)
            after = chain.engine.result()
            assert set(after.keys()) == set(before), form
            assert strategy_scalars(chain.engine) == scalars, form
            assert all(np.isclose(after.payload(k), x) for k, x in before.items())

    def test_drift_over_a_long_insert_delete_stream_is_bounded(self, np_rng):
        """1 000 rank-1 updates at n = 32, every insert later retracted.
        The bound: a result entry takes 1 000 additions of terms below
        ~10² in magnitude, each rounded to 2⁻⁵³ relative — 1e-10 worst
        case against ``A1 @ A2 @ A3`` (measured 4e-14, identical in both
        generated forms: the array merge regroups the additions into one
        grouped sum, which NumPy runs in the scalar form's order)."""
        n = 32
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        chains = {
            form: chain
            for form, chain in chains_per_form(mats, updatable=["A2"]).items()
            if form != "interpreter"
        }
        a2 = mats[1].copy()
        pending = []
        for step in range(1000):
            if pending and (step % 2 or len(pending) > 20):
                u, v = pending.pop(int(np_rng.integers(len(pending))))
                u = -u
            else:
                u, v = rank_r_update(n, 1, np_rng)[0]
                pending.append((u, v))
            for chain in chains.values():
                chain.apply_rank_one(2, u, v)
            a2 += np.outer(u, v)
        expected = mats[0] @ a2 @ mats[2]
        for form, chain in chains.items():
            drift = np.abs(chain.result_matrix() - expected).max()
            assert drift < 1e-10, (form, drift)


def gathered(engine):
    """Per sibling view, the block its array merge contracts: one line
    per factor key, one column per output key."""
    return {
        name: site[None][2]
        for name, sites in engine._probe_cache.items()
        for site in sites.values()
        if None in site
    }


class TestPlannedFactoredWalk:
    """Once a term's path is planned, the factored walk interprets nothing
    per term: counts, not clocks."""

    def test_steady_state_terms_plan_nothing_and_contract_blocks(
        self, np_rng, monkeypatch
    ):
        n = 48
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        chain = MatrixChainIVM(mats, updatable=["A2"])
        warm = rank_r_update(n, 1, np_rng)[0]
        chain.apply_rank_one(2, *warm)
        calls = Counter()

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(
            engine_module, "canonical_partition",
            spy("canonical_partition", engine_module.canonical_partition),
        )
        monkeypatch.setattr(
            FIVMEngine, "_factor_program",
            spy("_factor_program", FIVMEngine._factor_program),
        )
        tables = []

        def recording(*args, **kwargs):
            rel = vector_as_relation(*args, **kwargs)
            tables.append(rel._packed_form[0])
            return rel

        monkeypatch.setattr(matrix_chain_module, "vector_as_relation", recording)
        terms = rank_r_update(n, 20, np_rng)
        for u, v in terms:
            chain.apply_rank_one(2, u, v)
        assert not calls
        assert len(tables) == 40
        assert all(table is _full_keys(n) for table in tables)
        blocks = list(gathered(chain.engine).values())
        assert [b.shape for b in blocks] == [(n, n), (n, n)]
        delta = sum(np.outer(u, v) for u, v in [warm] + terms)
        expected = mats[0] @ (mats[1] + delta) @ mats[2]
        assert np.allclose(chain.result_matrix(), expected)
        # The spies are live: a fresh engine plans and builds.
        fresh = MatrixChainIVM(mats, updatable=["A2"])
        fresh.apply_rank_one(2, *terms[0])
        assert calls["canonical_partition"] == 2
        assert calls["_factor_program"] == 2

    def test_dense_sparse_transitions_are_held_to_the_interpreter(self, np_rng):
        n = 9
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        chains = chains_per_form(mats, updatable=["A1", "A2"])
        current = [m.copy() for m in mats]
        engine = chains["array"].engine
        a1 = engine.tree.leaves["A1"].name

        def term(u, v):
            for chain in chains.values():
                chain.apply_rank_one(2, u, v)
            current[1] = current[1] + np.outer(u, v)
            assert_held_to_interpreter(chains)
            return gathered(engine)[a1]

        def listing(delta):
            for chain in chains.values():
                chain.apply_dense_delta(1, delta)
            current[0] = current[0] + delta
            assert_held_to_interpreter(chains)

        # 1. Dense terms: A1's rows fill one block.
        for u, v in rank_r_update(n, 2, np_rng):
            block = term(u, v)
            assert block.shape == (n, n) and np.count_nonzero(block) == n * n
        # 2. Zero one entry of A1: the memo is rebuilt sparse, and the
        #    block holds a zero where the entry was.
        entry = np.zeros((n, n))
        entry[4, 6] = current[0][4, 6]
        listing(-entry)
        block = term(*rank_r_update(n, 1, np_rng)[0])
        assert block.shape == (n, n) and np.count_nonzero(block) == n * n - 1
        # 3. Restore it (last in its bucket now): a full block again.
        listing(entry)
        assert np.count_nonzero(term(*rank_r_update(n, 1, np_rng)[0])) == n * n
        # 4. A zero in u: a key table of its own, one row fewer.
        u, v = rank_r_update(n, 1, np_rng)[0]
        u[3] = 0.0
        assert term(u, v).shape == (n - 1, n)
        # 5. Dense again.
        assert term(*rank_r_update(n, 1, np_rng)[0]).shape == (n, n)
        assert np.allclose(chains["array"].result_matrix(), product(current))


class CountingReals(RealRing):
    """ℝ that counts the scalar operations asked of it."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def mul(self, a, b):
        self.calls["mul"] += 1
        return a * b

    def add(self, a, b):
        self.calls["add"] += 1
        return a + b

    def is_zero(self, a):
        self.calls["is_zero"] += 1
        return super().is_zero(a)


class TestBulkEvaluation:
    """Setting a chain up evaluates every view as one packed hash join +
    grouped sum (:func:`repro.data.relation._packed_join`): no listing
    join, no scalar ring operation per match."""

    N = 16

    def sparse(self, rows, cols, rng):
        return random_matrix(rows, cols, rng) * (rng.random((rows, cols)) < 0.4)

    @pytest.mark.parametrize("shape", ["dense", "sparse", "rectangular", "k4"])
    def test_no_scalar_ring_operation_per_match(self, np_rng, shape):
        n = self.N
        mats = {
            "dense": lambda: [random_matrix(n, n, np_rng) for _ in range(3)],
            "sparse": lambda: [self.sparse(n, n, np_rng) for _ in range(3)],
            "rectangular": lambda: [
                random_matrix(r, c, np_rng) for r, c in ((n, 8), (8, 20), (20, 12))
            ],
            "k4": lambda: [random_matrix(n, n, np_rng) for _ in range(4)],
        }[shape]()
        ring = CountingReals()
        chain = MatrixChainIVM(mats, updatable=["A2"], ring=ring)
        assert np.allclose(chain.result_matrix(), product(mats))
        # Evaluation itself asks the ring for nothing; what is left is
        # `_write_view` keeping one bucket sum per index of a stored
        # sibling (an add per entry) — O(n²), where the listing join
        # multiplied and added once per match, O(n³) per view.
        assert ring.calls["mul"] == 0 and ring.calls["is_zero"] == 0
        stored = sum(
            len(view) for view in chain.engine.views.values() if view._indexes
        )
        assert ring.calls["add"] <= stored < n ** 3
        ring.calls.clear()
        tree = chain.engine.tree
        results = tree.evaluate(chain_database(mats, ring))
        assert not ring.calls
        assert np.allclose(
            relation_as_matrix(results[tree.root.name], chain.result_matrix().shape),
            product(mats),
        )

    def test_integer_chain_stays_on_exact_python_ints(self):
        """Never float, never int64 (ROADMAP 5(b)): ℤ is not eligible
        whatever the size — 72 input rows per view here."""
        big, n = 2 ** 70, 6
        a = [[big + r * n + c for c in range(n)] for r in range(n)]
        db = Database(
            Relation(
                f"A{i}", (f"X{i}", f"X{i + 1}"), INT_RING,
                {(r, c): a[r][c] for r in range(n) for c in range(n)},
            )
            for i in (1, 2, 3)
        )
        engine = FIVMEngine(
            chain_query(3, INT_RING), chain_variable_order(3),
            updatable=["A2"], db=db,
        )
        result = engine.result()
        assert len(result) == n * n
        for (r, c), value in result.items():
            assert type(value) is int
            assert value == sum(
                a[r][i] * a[i][j] * a[j][c] for i in range(n) for j in range(n)
            ) > 2 ** 210

    def test_setup_holds_no_listing_sized_dict(self, np_rng, monkeypatch):
        """The largest map built while initializing is a view (n² keys)."""
        n = self.N
        sizes = []
        fold = relation._packed_sum
        monkeypatch.setattr(
            relation, "_packed_sum",
            lambda *args: sizes.append(fold(*args)) or sizes[-1],
        )
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        MatrixChainIVM(mats, updatable=["A2"])
        assert [len(data) for data in sizes] == [n * n, n * n]


class TestDenseEngines:
    def test_all_engines_agree(self, np_rng):
        n = 8
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        engines = [
            DenseChainFIVM(*mats),
            DenseChainFirstOrder(*mats),
            DenseChainReeval(*mats),
        ]
        for step in range(5):
            u, v = row_update(n, step % n, np_rng)
            for engine in engines:
                engine.apply_rank_one(u, v)
            for engine in engines[1:]:
                assert np.allclose(engine.result, engines[0].result)

    def test_dense_matches_relational(self, np_rng):
        n = 4
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        dense = DenseChainFIVM(*mats)
        relational = MatrixChainIVM(mats, updatable=["A2"])
        for _ in range(3):
            u = np_rng.uniform(-1, 1, n)
            v = np_rng.uniform(-1, 1, n)
            dense.apply_rank_one(u, v)
            relational.apply_rank_one(2, u, v)
        assert np.allclose(dense.result, relational.result_matrix())

    def test_rank_r_dense(self, np_rng):
        n = 6
        mats = [random_matrix(n, n, np_rng) for _ in range(3)]
        engine = DenseChainFIVM(*mats)
        terms = rank_r_update(n, 4, np_rng)
        engine.apply_rank_r(terms)
        delta = sum(np.outer(u, v) for u, v in terms)
        assert np.allclose(engine.result, mats[0] @ (mats[1] + delta) @ mats[2])


class TestMatrixRelationCodecs:
    def test_round_trip(self, np_rng):
        m = random_matrix(3, 5, np_rng)
        rel = matrix_as_relation("A", m, "X", "Y")
        assert np.allclose(relation_as_matrix(rel, (3, 5)), m)

    def test_zeros_skipped(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        rel = matrix_as_relation("A", m, "X", "Y")
        assert len(rel) == 1

    def test_vector_is_born_packed_and_reads_as_a_relation(self):
        vector = np.array([0.0, 2.5, 0.0, -1.0, 1e-12])
        rel = vector_as_relation("u", vector, "X")
        keys, column = rel._packed_form
        assert keys == ((1,), (3,)) and column.tolist() == [2.5, -1.0]
        assert dict(rel.items()) == {(1,): 2.5, (3,): -1.0}
        # Reading built the map; the packed form is not trusted after it.
        assert rel._packed_form is None
        # Factors cross process boundaries (sharded engines) as plain data.
        clone = pickle.loads(pickle.dumps(vector_as_relation("u", vector, "X")))
        assert type(clone) is Relation and clone.same_as(rel)
        assert vector_as_relation("u", np.zeros(3), "X").is_empty
