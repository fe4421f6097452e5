"""Tests for the surface census (``benchmarks/census.py``).

The recorder itself runs every example, workload, bench and the tier-1
suite under a profiler, which is far too slow here.  These tests pin what
sits around it: how a code object becomes a row key, how function spans
are counted, the verdict grammar, the ``--check`` rules (on stubbed runs
and a document in a temporary directory), the two single-workload lists,
and the committed ``docs/surface.md``.
"""

import pytest

from benchmarks import census

A, B, C = "repro.m:a", "repro.m:b", "repro.m:K.c"
EXAMPLE, E2E, BENCH, TESTS = 0, 1, 2, 3


def row(key, lines, examples="", e2e="", benches="", tests="", verdict=""):
    """One table line of ``docs/surface.md``."""
    return (f"| `{key}` | {lines} | {examples} | {e2e} | {benches} | {tests} "
            f"| {verdict} |")


@pytest.fixture
def census_run(monkeypatch, tmp_path, capsys):
    """Run ``census.main`` with ``rows`` (key → lines) as the functions in
    ``src``, ``reached`` ((column, label) → keys) as every recorded run and
    ``recorded`` (table lines) as the committed document.  Returns the exit
    code, the problems printed and the table lines on disk afterwards."""
    doc = tmp_path / "surface.md"
    monkeypatch.setattr(census, "DOC", doc)

    def run(rows, reached, recorded, check=False):
        doc.write_text(census.render(recorded))
        monkeypatch.setattr(census, "functions", lambda: dict(rows))
        monkeypatch.setattr(
            census, "callers", lambda: [(*caller, caller) for caller in reached])
        monkeypatch.setattr(
            census, "record", lambda caller, tmp: set(reached[caller]))
        code = census.main(["--check"] if check else [])
        problems = [p for p in capsys.readouterr().err.splitlines()
                    if p.startswith("repro.")]
        table = [line for line in doc.read_text().splitlines()
                 if line.startswith("| `")]
        return code, problems, table

    return run


# ----------------------------------------------------------------------
# Row keys and spans
# ----------------------------------------------------------------------


@pytest.mark.parametrize("filename, qualname, key", [
    ("/w/src/repro/core/engine.py", "FIVMEngine.apply_update",
     "repro.core.engine:FIVMEngine.apply_update"),
    ("/w/src/repro/core/engine.py", "FIVMEngine._plan.<locals>.step",
     "repro.core.engine:FIVMEngine._plan"),
    ("/w/src/repro/data/relation.py", "f.<locals>.g.<locals>.<lambda>",
     "repro.data.relation:f"),
    ("/w/src/repro/core/__init__.py", "helper", "repro.core:helper"),
])
def test_row_key_names_the_outermost_function(filename, qualname, key):
    assert census.row_key(filename, qualname) == key


def test_functions_counts_nested_code_in_its_outermost_row(
        monkeypatch, tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        "X = [i for i in range(3)]\n"          # 1: module code, no row
        "\n"
        "def outer():\n"                       # 3
        "    def inner():\n"
        "        return 1\n"
        "    return [inner() for _ in X]\n"    # 6
        "\n"
        "\n"
        "class K:\n"                           # 9: class body, no row
        "    def c(self):\n"                   # 10
        "        return lambda: 0\n"           # 11
        "\n"
        "    @property\n"                      # 13
        "    def p(self):\n"
        "        return 1\n"                   # 15
    )
    monkeypatch.setattr(census, "ROOT", tmp_path)
    assert census.functions() == {
        "repro.m:outer": 4, "repro.m:K.c": 2, "repro.m:K.p": 3}


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("verdict", [
    "deleted",
    *(f"kept: {reason}" for reason in census.REASONS),
    "kept: §5 a rank-r update as r rank-1 terms, "
    "tests/apps/test_matrix_chain.py",
])
def test_verdict_accepts_deletion_each_reason_and_a_paper_section(verdict):
    assert census.VERDICT.fullmatch(verdict)


@pytest.mark.parametrize("verdict", [
    "",
    "kept",
    "kept: used to be fast",
    "kept: §6 counted without listing",  # no test named
])
def test_verdict_rejects_anything_else(verdict):
    assert not census.VERDICT.fullmatch(verdict)


# ----------------------------------------------------------------------
# ``--check`` and the rewrite, on stubbed runs
# ----------------------------------------------------------------------


def test_check_fails_when_a_row_loses_its_last_caller_outside_tests(
        census_run):
    code, problems, table = census_run(
        {A: 3},
        {(TESTS, "✓"): {A}},
        [row(A, 3, examples="quickstart", tests="✓")],
        check=True,
    )
    assert code == 1
    assert len(problems) == 1
    assert problems[0].startswith(f"{A}: was reached by")
    assert table == [row(A, 3, examples="quickstart", tests="✓")]


def test_check_fails_on_a_tests_only_row_without_a_verdict(census_run):
    code, problems, _ = census_run(
        {A: 3, B: 5},
        {(EXAMPLE, "quickstart"): {A}, (TESTS, "✓"): {A, B}},
        [row(A, 3, examples="quickstart", tests="✓")],
        check=True,
    )
    assert code == 1
    assert len(problems) == 1 and problems[0].startswith(f"{B}: ")
    assert "no verdict" in problems[0]


def test_check_passes_on_an_unchanged_tree_and_writes_nothing(census_run):
    recorded = [row(A, 3, examples="quickstart", tests="✓"),
                row(B, 5, tests="✓", verdict="kept: observability")]
    code, problems, table = census_run(
        {A: 3, B: 5},
        {(EXAMPLE, "quickstart"): {A}, (TESTS, "✓"): {A, B}},
        recorded,
        check=True,
    )
    assert (code, problems, table) == (0, [], recorded)


def test_rows_are_keyed_by_name_not_by_span(census_run):
    """A function that grew keeps its callers and its verdict."""
    runs = {(E2E, "retailer_b1"): {A}, (TESTS, "✓"): {B}}
    recorded = [row(A, 3, e2e="retailer_b1"),
                row(B, 5, tests="✓", verdict="kept: ring contract")]
    assert census_run({A: 9, B: 7}, runs, recorded, check=True)[:2] == (0, [])
    _, _, table = census_run({A: 9, B: 7}, runs, recorded)
    assert table == [row(A, 9, e2e="retailer_b1"),
                     row(B, 7, tests="✓", verdict="kept: ring contract")]


def test_deleted_rows_stay_and_other_vanished_rows_go(census_run):
    recorded = [row(A, 3, examples="quickstart"),
                row(B, 5, tests="✓", verdict="deleted"),
                row(C, 2, tests="✓", verdict="kept: observability")]
    code, problems, table = census_run(
        {A: 3}, {(EXAMPLE, "quickstart"): {A}}, recorded)
    assert (code, problems) == (0, [])
    assert table == recorded[:2]


def test_a_row_reached_again_drops_its_verdict(census_run):
    _, _, table = census_run(
        {B: 5},
        {(BENCH, "view_counts"): {B}, (TESTS, "✓"): {B}},
        [row(B, 5, tests="✓", verdict="kept: observability")],
    )
    assert table == [row(B, 5, benches="view_counts", tests="✓")]


def test_callers_are_listed_sorted_per_column(census_run):
    _, _, table = census_run(
        {A: 3},
        {(EXAMPLE, "quickstart"): {A}, (EXAMPLE, "factorized_join"): {A},
         (E2E, "shard_s2"): {A}, (E2E, "chain_rank1"): {A}},
        [],
    )
    assert table == [row(A, 3, examples="factorized_join, quickstart",
                         e2e="chain_rank1, shard_s2")]


def test_render_lists_what_one_workload_alone_reaches():
    text = census.render([
        row("repro.m:p", 3, e2e="serve_zipf"),
        row("repro.m:q", 4, e2e="serve_zipf", benches="serving_latency"),
        row("repro.m:r", 6, e2e="serve_zipf, shard_s2"),
        row("repro.m:s", 2, e2e="shard_s2"),
        row("repro.m:t", 8, e2e="serve_zipf", verdict="deleted"),
    ])
    serve = text.split("## Reached by `serve_zipf`")[1].split("## ")[0]
    shard = text.split("## Reached by `shard_s2`")[1].split("## ")[0]
    assert "2 functions, 7 lines." in serve
    assert "- `repro.m:q` (4); benches: serving_latency" in serve
    assert "repro.m:r" not in serve and "repro.m:t" not in serve
    assert "1 functions, 2 lines." in shard and "- `repro.m:s` (2)" in shard


# ----------------------------------------------------------------------
# The committed document
# ----------------------------------------------------------------------


def committed_rows():
    return [census.cells(line) for line in census.DOC.read_text().splitlines()
            if line.startswith("| `")]


def test_every_committed_row_without_a_caller_has_a_verdict():
    unjudged = [r[0] for r in committed_rows()
                if not any(r[2:5]) and not census.VERDICT.fullmatch(r[6])]
    assert unjudged == []


def test_rows_marked_deleted_name_no_function_left_in_src():
    deleted = {r[0] for r in committed_rows() if r[6] == "deleted"}
    assert deleted
    assert deleted & census.functions().keys() == set()
