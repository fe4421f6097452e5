"""Cross-cutting property tests: numeric stability, enumeration, batching,
view-tree keys."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ConjunctiveQuery
from repro.apps.matrix_chain import chain_query, chain_variable_order
from repro.core import FIVMEngine, Query, VariableOrder, VONode, build_view_tree
from repro.data import Database, Relation
from repro.datasets import housing, retailer
from repro.rings import INT_RING, Lifting, RealRing

from tests.conftest import PAPER_SCHEMAS, paper_variable_order, recompute


class TestFloatChurnStability:
    def test_real_ring_views_stay_clean_under_heavy_churn(self, rng):
        """Insert/delete cycles with float payloads must not leave near-zero
        residue keys (the RealRing tolerance story)."""
        ring = RealRing()
        lifting = Lifting(ring, {"B": float, "D": float})
        q = Query("Q", PAPER_SCHEMAS, free=("A",), ring=ring, lifting=lifting)
        engine = FIVMEngine(q, paper_variable_order())
        live = []
        for step in range(300):
            if live and rng.random() < 0.45:
                rel, key, value = live.pop(rng.randrange(len(live)))
                delta = Relation(rel, PAPER_SCHEMAS[rel], ring, {key: -value})
            else:
                rel = rng.choice(list(PAPER_SCHEMAS))
                key = tuple(
                    float(rng.randint(0, 2)) for _ in PAPER_SCHEMAS[rel]
                )
                value = rng.choice([0.25, 1.0, 1.5])
                live.append((rel, key, value))
                delta = Relation(rel, PAPER_SCHEMAS[rel], ring, {key: value})
            engine.apply_update(delta)
        # Drain everything; all views must be empty (no float residue).
        for rel, key, value in live:
            engine.apply_update(
                Relation(rel, PAPER_SCHEMAS[rel], ring, {key: -value})
            )
        assert engine.total_keys() == 0


class TestBatchingEquivalence:
    def test_batch_size_never_changes_results(self, rng):
        """Applying one big delta or many small ones is indistinguishable."""
        q = Query("Q", PAPER_SCHEMAS, free=("A",), ring=INT_RING)
        order = paper_variable_order()
        big = FIVMEngine(q, order)
        small = FIVMEngine(q, order)
        for _ in range(15):
            rel = rng.choice(list(PAPER_SCHEMAS))
            rows = {}
            for _ in range(rng.randint(2, 6)):
                key = tuple(rng.randint(0, 2) for _ in PAPER_SCHEMAS[rel])
                rows[key] = rows.get(key, 0) + rng.choice([1, 1, -1, 2])
            rows = {k: v for k, v in rows.items() if v}
            big.apply_update(Relation(rel, PAPER_SCHEMAS[rel], INT_RING, rows))
            for key, value in rows.items():
                small.apply_update(
                    Relation(rel, PAPER_SCHEMAS[rel], INT_RING, {key: value})
                )
            assert big.result().same_as(small.result())


@st.composite
def small_instance(draw):
    def rel_rows(width):
        n = draw(st.integers(0, 5))
        return [
            tuple(draw(st.integers(0, 2)) for _ in range(width))
            for _ in range(n)
        ]

    return {
        "R": rel_rows(2),
        "S": rel_rows(3),
        "T": rel_rows(2),
    }


@given(small_instance())
@settings(max_examples=25, deadline=None)
def test_factorized_enumeration_matches_listing(rows):
    """Hypothesis: for arbitrary small instances, the factorized result
    enumerates exactly the listing result of Q(A,B,C,D)."""
    free = ("A", "B", "C", "D")
    order = paper_variable_order()
    fact = ConjunctiveQuery("Q", PAPER_SCHEMAS, free, mode="factorized", order=order)
    listing = ConjunctiveQuery("Q", PAPER_SCHEMAS, free, mode="listing_keys", order=order)
    for rel, rel_rows in rows.items():
        for engine in (fact, listing):
            ring = engine.ring
            delta = Relation(rel, PAPER_SCHEMAS[rel], ring)
            for row in rel_rows:
                delta.add(row, ring.one)
            if not delta.is_empty:
                engine.apply_update(delta)
    expected = dict(listing.result_relation().items())
    assert dict(fact.enumerate()) == expected


@st.composite
def query_shape(draw):
    """A random variable order over V0..Vn with relations along its paths
    and a free set closed under ancestors: nested free views, relations of
    one to four variables, and bound variables (shared or not) below."""
    n = draw(st.integers(2, 6))
    parent = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    children = {i: [j for j in range(n) if parent[j] == i] for i in range(n)}

    def path(i):
        return path(parent[i]) + [i] if parent[i] is not None else [i]

    def spec(i):
        return (f"V{i}", [spec(j) for j in children[i]])

    relations = []
    for i in range(n):
        if children[i] and draw(st.booleans()):
            continue  # inner variables are covered from below, see next loop
        above = [v for v in path(i)[:-1] if draw(st.booleans())]
        relations.append(above[-3:] + [i])
    covered = {v for schema in relations for v in schema}
    for i in range(n):
        if i not in covered:
            relations.append(([parent[i]] if parent[i] is not None else []) + [i])
    schemas = {
        f"R{k}": tuple(f"V{v}" for v in schema)
        for k, schema in enumerate(relations)
    }
    free = []
    for i in range(n):  # parents come first
        on_top = parent[i] is None or f"V{parent[i]}" in free
        if on_top and draw(st.integers(0, 3)) < 3:
            free.append(f"V{i}")
    return schemas, VariableOrder.from_spec(spec(0)), tuple(free)


def churn(data, schemas, engines, values):
    """A drawn stream of single-row inserts and deletes of live rows,
    over attribute values in ``range(values)``, applied to each engine."""
    names = sorted(schemas)
    live = []
    for _ in range(data.draw(st.integers(0, 25))):
        if live and data.draw(st.integers(0, 3)) == 0:
            rel, row = live.pop(data.draw(st.integers(0, len(live) - 1)))
            sign = -1
        else:
            rel = data.draw(st.sampled_from(names))
            row = tuple(
                data.draw(st.integers(0, values - 1)) for _ in schemas[rel]
            )
            live.append((rel, row))
            sign = 1
        for engine in engines:
            engine.apply_update(
                Relation(rel, schemas[rel], engine.ring, {row: sign})
            )


@given(query_shape(), st.data())
@settings(max_examples=60, deadline=None)
def test_factorized_enumeration_matches_listing_on_any_free_top(shape, data):
    """Hypothesis: whatever the shape of the free top of the variable
    order, after a stream of inserts and deletes the factorized result
    enumerates the listing result, and counts it without enumerating."""
    schemas, order, free = shape
    fact = ConjunctiveQuery("Q", schemas, free, mode="factorized", order=order)
    listing = ConjunctiveQuery("Q", schemas, free, mode="listing_keys", order=order)
    churn(data, schemas, (fact, listing), 2)
    expected = dict(listing.result_relation().items())
    enumerated = list(fact.enumerate())
    assert dict(enumerated) == expected
    assert len(enumerated) == len(expected) == fact.result_size()


@given(query_shape(), st.data())
@settings(max_examples=60, deadline=None)
def test_factorized_pages_match_listing_with_mixed_bucket_sizes(shape, data):
    """Hypothesis: with values drawn from {0, 1, 2}, buckets of one entry
    (folded into a neighbour when a run starts) and of several (nested)
    mix within one run.  The whole enumeration is the listing result, and
    a page of any length is that many distinct pairs of it."""
    schemas, order, free = shape
    fact = ConjunctiveQuery("Q", schemas, free, mode="factorized", order=order)
    listing = ConjunctiveQuery("Q", schemas, free, mode="listing_keys", order=order)
    churn(data, schemas, (fact, listing), 3)
    expected = set(listing.result_relation().items())
    enumerated = list(fact.enumerate())
    assert set(enumerated) == expected and len(enumerated) == len(expected)
    k = data.draw(st.integers(0, len(expected)))
    page = list(islice(fact.enumerate(), k))
    assert len(set(page)) == k and set(page) <= expected


@given(st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_engine_matches_recompute_seeded(seed):
    """Hypothesis-driven seeds for the end-to-end maintenance invariant."""
    rng = random.Random(seed)
    q = Query("Q", PAPER_SCHEMAS, free=("C",), ring=INT_RING)
    order = paper_variable_order()
    engine = FIVMEngine(q, order)
    db = Database(
        Relation(rel, schema, INT_RING)
        for rel, schema in PAPER_SCHEMAS.items()
    )
    for _ in range(8):
        rel = rng.choice(list(PAPER_SCHEMAS))
        delta = Relation(rel, PAPER_SCHEMAS[rel], INT_RING)
        for _ in range(rng.randint(1, 3)):
            key = tuple(rng.randint(0, 2) for _ in PAPER_SCHEMAS[rel])
            delta.add(key, rng.choice([1, -1, 2]))
        if delta.is_empty:
            continue
        engine.apply_update(delta.copy())
        db.apply_update(delta)
    assert engine.result().same_as(recompute(q, db, order))


# ----------------------------------------------------------------------
# View-tree keys against the paper's dep(X) (Figure 3)
# ----------------------------------------------------------------------


@st.composite
def acyclic_query(draw):
    """A random α-acyclic join of one to eight relations: each relation
    after the first takes some variables of one earlier relation (its
    join-tree parent; none starts a new component) plus fresh ones, and
    each variable is free with probability one half."""
    schemas = []
    fresh = 0
    for _ in range(draw(st.integers(1, 8))):
        shared = []
        if schemas:
            parent = draw(st.sampled_from(schemas))
            shared = draw(st.lists(st.sampled_from(parent), unique=True))
        width = draw(st.integers(0 if shared else 1, 2))
        schemas.append(tuple(shared) + tuple(f"V{fresh + i}" for i in range(width)))
        fresh += width
    variables = sorted({v for schema in schemas for v in schema})
    free = tuple(v for v in variables if draw(st.booleans()))
    return Query(
        "Q", {f"R{i}": s for i, s in enumerate(schemas)}, free=free,
        ring=INT_RING,
    )


def random_order(draw, query: Query) -> VariableOrder:
    """A random valid order: :meth:`VariableOrder.auto`'s recursion with
    each component's root, and the order of sibling components, drawn
    instead of chosen (any choice keeps every relation on one path)."""
    edges = [set(schema) for schema in query.relations.values()]

    def components(varset):
        remaining, groups = set(varset), []
        while remaining:
            group = {min(remaining)}
            grown = True
            while grown:
                touching = [e & remaining for e in edges if e & group]
                grown = set().union(*touching) - group
                group |= grown
            groups.append(group)
            remaining -= group
        return groups

    def build(varset):
        root = draw(st.sampled_from(sorted(varset)))
        children = draw(st.permutations(components(varset - {root})))
        return VONode(root, [build(group) for group in children])

    return VariableOrder([build(g) for g in components(query.variables)])


def assert_keys_follow_dep(query: Query, order: VariableOrder) -> None:
    """Every inner view of τ(ω, F) is keyed by dep(X) ∪ (F ∩ the keys of
    its children) for its top variable X, as :meth:`VariableOrder.dep`
    defines it — except the synthetic root of a disconnected query and
    a view kept by identical-view elision, which stands for its free
    parent variable over its own children."""
    tree = build_view_tree(query, order)
    free = set(query.free)
    for node in tree.inner_views():
        top = node.at_vars[-1]
        if node.at_vars == ("top",) or (len(node.at_vars) > 1 and top in free):
            continue
        below = set().union(*(child.keys for child in node.children))
        assert node.keys == order.canonical_sort(
            order.dep(query, top) | (free & below)
        ), (node, tree.pretty())


@given(acyclic_query(), st.data())
@settings(max_examples=60, deadline=None)
def test_view_keys_follow_dep_under_auto_and_random_orders(query, data):
    """Hypothesis: over random acyclic queries, the keys
    :func:`build_view_tree` derives bottom-up match the per-variable
    definition, under the heuristic order and under a random valid one."""
    assert_keys_follow_dep(query, VariableOrder.auto(query))
    order = random_order(data.draw, query)
    order.validate(query)
    assert_keys_follow_dep(query, order)


def test_view_keys_follow_dep_where_a_later_child_reaches_an_ancestor():
    """At X only the second child's relation reaches X's ancestor P, so
    dep(X) = {P} comes from that child's schemas; R3 keeps P's view from
    collapsing X's away."""
    query = Query(
        "Q", {"R1": ("X", "Y"), "R2": ("P", "X", "Z"), "R3": ("P", "W")},
        ring=INT_RING,
    )
    order = VariableOrder.from_spec(("P", [("X", ["Y", "Z"]), "W"]))
    assert_keys_follow_dep(query, order)
    (view,) = [n for n in build_view_tree(query, order).nodes
               if n.at_vars == ("X",)]
    assert view.keys == ("P",)


def chain(schema, start):
    """A collapsed chain's variables: ``schema[start:]``, innermost first."""
    return tuple(reversed(schema[start:]))


R, H = retailer.SCHEMAS, housing.SCHEMAS

#: τ(ω, F) of the trees the datasets and the end-to-end workloads build,
#: pre-order: (depth, name, keys, marginalized, at_vars) per node.
EXPECTED_TREES = {
    "retailer": [
        (0, "V@locn_CIILW", (), ("locn",), ("locn",)),
        (1, "V@dateid_IIW", ("locn",), ("dateid",), ("dateid",)),
        (2, "V@ksn_II", ("locn", "dateid"), ("ksn",), ("ksn",)),
        (3, "V@inventoryunits_I", ("locn", "dateid", "ksn"),
         ("inventoryunits",), ("inventoryunits",)),
        (4, "Inventory", R["Inventory"], (), ()),
        (3, "V@subcategory_I", ("ksn",), chain(R["Item"], 1),
         chain(R["Item"], 1)),
        (4, "Item", R["Item"], (), ()),
        (2, "V@rain_W", ("locn", "dateid"), chain(R["Weather"], 2),
         chain(R["Weather"], 2)),
        (3, "Weather", R["Weather"], (), ()),
        (1, "V@zip_CL", ("locn",), ("zip",), ("zip",)),
        (2, "V@rgn_cd_L", ("locn", "zip"), chain(R["Location"], 2),
         chain(R["Location"], 2)),
        (3, "Location", R["Location"], (), ()),
        (2, "V@population_C", ("zip",), chain(R["Census"], 1),
         chain(R["Census"], 1)),
        (3, "Census", R["Census"], (), ()),
    ],
    "housing": [
        (0, "V@postcode_DHIRST", (), ("postcode",), ("postcode",)),
        *[
            row
            for name, tag in [
                ("livingarea", "House"), ("openinghoursshop", "Shop"),
                ("typeeducation", "Institution"),
                ("openinghoursrest", "Restaurant"),
                ("averagesalary", "Demographics"),
                ("nbbuslines", "Transport"),
            ]
            for row in [
                (1, f"V@{name}_{tag[0]}", ("postcode",), chain(H[tag], 1),
                 chain(H[tag], 1)),
                (2, tag, H[tag], (), ()),
            ]
        ],
    ],
    "housing_free": [
        (0, "V@postcode_DHIRST", housing.ALL_VARIABLES, (), ("postcode",)),
        *[
            row
            for name, tag in [
                ("parking", "House"), ("ms", "Shop"),
                ("sizeinstitution", "Institution"),
                ("pricerangerest", "Restaurant"),
                ("nbhospitals", "Demographics"),
                ("distancecitycentre", "Transport"),
            ]
            for row in [
                (1, f"V@{name}_{tag[0]}", H[tag], (), chain(H[tag], 1)),
                (2, tag, H[tag], (), ()),
            ]
        ],
    ],
    "chain3": [
        (0, "V@X2_AAA", ("X1", "X4"), ("X2",), ("X2", "X4", "X1")),
        (1, "V@X3_AA", ("X4", "X2"), ("X3",), ("X3",)),
        (2, "A2", ("X2", "X3"), (), ()),
        (2, "A3", ("X3", "X4"), (), ()),
        (1, "A1", ("X1", "X2"), (), ()),
    ],
    "chain4": [
        (0, "V@X3_AAAA", ("X1", "X5"), ("X3",), ("X3", "X5", "X1")),
        (1, "V@X2_AA", ("X1", "X3"), ("X2",), ("X2",)),
        (2, "A1", ("X1", "X2"), (), ()),
        (2, "A2", ("X2", "X3"), (), ()),
        (1, "V@X4_AA", ("X5", "X3"), ("X4",), ("X4",)),
        (2, "A3", ("X3", "X4"), (), ()),
        (2, "A4", ("X4", "X5"), (), ()),
    ],
}


def tree_rows(node, depth=0):
    """``node``'s subtree as :data:`EXPECTED_TREES` rows."""
    yield depth, node.name, node.keys, node.marginalized, node.at_vars
    for child in node.children:
        yield from tree_rows(child, depth + 1)


@pytest.mark.parametrize("case", sorted(EXPECTED_TREES))
def test_dataset_and_workload_trees_node_by_node(case):
    """The Retailer, Housing (all bound, and all free as the factorized
    star join keeps it) and matrix-chain trees — the n = 48 chain of
    three the rank-1 workload maintains, and Example 6.1's chain of
    four — name, key, marginalize and order their views as listed, and
    their inner views' keys follow dep(X)."""
    query, order = {
        "retailer": (Query("r", R, ring=INT_RING), retailer.variable_order()),
        "housing": (Query("h", H, ring=INT_RING), housing.variable_order()),
        "housing_free": (
            Query("h", H, free=housing.ALL_VARIABLES, ring=INT_RING),
            housing.variable_order(),
        ),
        "chain3": (chain_query(3), chain_variable_order(3, (48,) * 4)),
        "chain4": (chain_query(4), chain_variable_order(4)),
    }[case]
    tree = build_view_tree(query, order)
    assert list(tree_rows(tree.root)) == EXPECTED_TREES[case]
    assert_keys_follow_dep(query, order)
