"""Seeded, vectorised input generators owned by the benchmark.

The engine under test receives only what these functions return: plain
Python tuples plus a multiplicity.  Nothing here calls
``repro.datasets.*.generate`` (per-row ``rng.choice`` there, and later PRs
may edit it); only the schemas and variable orders are shared.  Every
generator draws from one ``numpy`` ``Generator`` seeded by ``--seed`` and
feeds the arrays it draws into a digest, so two commits can be shown to
have seen identical inputs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: One update call: (relation, rows, multiplicity).
Op = Tuple[str, List[tuple], int]


class Digest:
    """SHA-256 over every array a generator drew, in drawing order."""

    def __init__(self, *labels) -> None:
        self._hash = hashlib.sha256(repr(labels).encode())

    def add(self, array) -> np.ndarray:
        array = np.ascontiguousarray(array)
        self._hash.update(str(array.dtype).encode())
        self._hash.update(repr(array.shape).encode())
        self._hash.update(array.tobytes())
        return array

    def hex(self) -> str:
        return self._hash.hexdigest()[:16]


def as_rows(array: np.ndarray) -> List[tuple]:
    """A 2-D integer array as a list of plain-int tuples."""
    return list(map(tuple, array.tolist()))


# ----------------------------------------------------------------------
# Retailer- and Housing-shaped tables
# ----------------------------------------------------------------------


def retailer_tables(
    rng: np.random.Generator,
    digest: Digest,
    n_inventory: int,
    locations: int = 40,
    dates: int = 60,
    products: int = 400,
    zips: int = 20,
) -> Dict[str, List[tuple]]:
    """The paper's Retailer snowflake (``repro.datasets.retailer.SCHEMAS``):
    one fact table with ``n_inventory`` distinct (locn, dateid, ksn) keys
    and four dimension tables with unique join keys, small-integer values.
    """
    def ints(low, high, shape):
        return rng.integers(low, high, size=shape)

    codes = rng.choice(locations * dates * products, n_inventory, replace=False)
    inventory = np.column_stack([
        codes // (dates * products) + 1,
        codes // products % dates + 1,
        codes % products + 1,
        ints(1, 20, n_inventory),
    ])
    item = np.column_stack([
        np.arange(1, products + 1),
        ints(1, 9, products), ints(1, 5, products), ints(1, 4, products),
        ints(1, 100, products),
    ])
    n_weather = locations * dates
    weather = np.column_stack([
        np.repeat(np.arange(1, locations + 1), dates),
        np.tile(np.arange(1, dates + 1), locations),
        ints(0, 2, n_weather), ints(0, 2, n_weather), ints(10, 40, n_weather),
        ints(-10, 15, n_weather), ints(0, 30, n_weather), ints(0, 2, n_weather),
    ])
    location = np.column_stack([
        np.arange(1, locations + 1),
        ints(1, zips + 1, locations),
        ints(1, 10, locations), ints(1, 6, locations),
        ints(10, 100, locations), ints(5, 80, locations),
        ints(20, 200, locations), ints(1, 50, (locations, 8)),
    ])
    census = np.column_stack([
        np.arange(1, zips + 1), ints(1, 1000, (zips, 15)),
    ])
    tables = {
        "Inventory": inventory, "Item": item, "Weather": weather,
        "Location": location, "Census": census,
    }
    return {rel: as_rows(digest.add(array)) for rel, array in tables.items()}


def housing_tables(
    rng: np.random.Generator,
    digest: Digest,
    schemas: Dict[str, Sequence[str]],
    postcodes: int,
    scaling: Sequence[str],
    rows_per_scaling_relation: int,
) -> Dict[str, List[tuple]]:
    """The paper's Housing star (``repro.datasets.housing.SCHEMAS``): one
    row per postcode in the small relations, ``rows_per_scaling_relation``
    rows with random postcodes in each of the ``scaling`` ones."""
    tables = {}
    for rel, schema in schemas.items():
        width = len(schema) - 1
        if rel in scaling:
            codes = rng.integers(1, postcodes + 1, rows_per_scaling_relation)
        else:
            codes = np.arange(1, postcodes + 1)
        array = np.column_stack(
            [codes, rng.integers(1, 50, size=(len(codes), width))]
        )
        tables[rel] = as_rows(digest.add(array))
    return tables


def update_stream(
    rng: np.random.Generator,
    digest: Digest,
    tables: Dict[str, List[tuple]],
    batch: int,
    delete_from: Sequence[str],
    delete_share: float,
) -> List[Op]:
    """Round-robin insert groups of ``batch`` rows over all relations (the
    paper's stream synthesis), followed by delete groups that make up
    ``delete_share`` of all calls and remove rows sampled without
    replacement from the ``delete_from`` relations."""
    ops: List[Op] = []
    offsets = {rel: 0 for rel in tables}
    live = True
    while live:
        live = False
        for rel, rows in tables.items():
            start = offsets[rel]
            if start < len(rows):
                ops.append((rel, rows[start:start + batch], 1))
                offsets[rel] = start + batch
                live = True
    n_delete_calls = int(len(ops) * delete_share / (1.0 - delete_share))
    pool = [(rel, i) for rel in delete_from for i in range(len(tables[rel]))]
    picks = digest.add(
        rng.choice(len(pool), min(len(pool), n_delete_calls * batch),
                   replace=False)
    ).tolist()
    for start in range(0, len(picks), batch):
        group: Dict[str, List[tuple]] = {}
        for pick in picks[start:start + batch]:
            rel, index = pool[pick]
            group.setdefault(rel, []).append(tables[rel][index])
        for rel, rows in group.items():
            ops.append((rel, rows, -1))
    return ops


# ----------------------------------------------------------------------
# Matrices, Zipf schedules, multi-view queries
# ----------------------------------------------------------------------


def chain_inputs(rng, digest: Digest, n: int, updates: int):
    """Three dense n×n matrices and ``updates`` dense rank-1 pairs."""
    mats = [digest.add(rng.uniform(-1.0, 1.0, (n, n))) for _ in range(3)]
    us = digest.add(rng.uniform(-1.0, 1.0, (updates, n)))
    vs = digest.add(rng.uniform(-1.0, 1.0, (updates, n)))
    return mats, list(zip(us, vs))


def serve_schedule(
    rng, digest: Digest, relations: Sequence[str], domain: int,
    zipf_s: float, reads: int, reads_per_write: int, rows_per_write: int,
):
    """Zipf-skewed read keys over ``domain`` ranks and uniform write
    groups (one per ``reads_per_write`` reads)."""
    weights = 1.0 / np.arange(1, domain + 1) ** zipf_s
    weights /= weights.sum()
    keys = digest.add(rng.choice(domain, size=reads, p=weights)).tolist()
    n_writes = reads // reads_per_write
    which = digest.add(rng.integers(0, len(relations), n_writes)).tolist()
    a = digest.add(rng.integers(0, domain, (n_writes, rows_per_write)))
    b = digest.add(rng.integers(0, 100, (n_writes, rows_per_write)))
    writes = [
        (relations[which[i]], list(zip(a[i].tolist(), b[i].tolist())), 1)
        for i in range(n_writes)
    ]
    return keys, writes


def multiview_inputs(
    rng, digest: Digest, core: Dict[str, Sequence[str]], views: int,
    domain: int, events: int, rows_per_event: int,
):
    """Base contents and the event stream of the multi-view workload:
    every view joins the shared ``core`` chain with a private dimension
    ``Tnnn(A, F)``; events update one core relation with ±multiplicities.
    Returns ``(seeds, events)`` as ``(relation, {key: multiplicity})``."""
    seeds = []
    for rel in core:
        pairs = digest.add(rng.integers(0, domain, (6 * domain, 2)))
        seeds.append((rel, {key: 1 for key in as_rows(pairs)}))
    private = digest.add(rng.integers(0, 8, (views, domain)))
    for i in range(views):
        column = private[i].tolist()
        seeds.append(
            (f"T{i:03d}", {(a, column[a]): 1 for a in range(domain)})
        )
    names = sorted(core)
    which = digest.add(rng.integers(0, len(names), events)).tolist()
    keys = digest.add(rng.integers(0, domain, (events, rows_per_event, 2)))
    signs = digest.add(
        rng.choice([-1, 1, 1, 2], size=(events, rows_per_event))
    )
    stream = []
    for e in range(events):
        counts: Dict[tuple, int] = {}
        for key, sign in zip(as_rows(keys[e]), signs[e].tolist()):
            counts[key] = counts.get(key, 0) + sign
        stream.append((names[which[e]], counts))
    return seeds, stream
