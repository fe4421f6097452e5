"""Record which callers reach each function in ``src/repro``.

    python benchmarks/census.py [--check]

Each example, e2e workload, bench file (``--benchmark-disable``, as
pytest-benchmark clears profilers) and the tier-1 suite runs under a
``sys.setprofile`` hook that dumps the code entered at exit and before
``os._exit`` (forked shard workers).  Verdicts carry over between runs.
``--check`` writes nothing and fails when a row once reached by an example,
e2e workload or bench is not, or a tests-only or unreached row lacks a verdict.
"""

import os
import re
import subprocess
import sys
import tempfile
from inspect import CO_OPTIMIZED
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "docs" / "surface.md"
sys.path.insert(0, str(ROOT))
from benchmarks.e2e.run import MANIFEST, WORKLOADS  # noqa: E402

REASONS = ("reference oracle", "fault/recovery path", "CLI that CI runs",
           "observability", "ring contract")
VERDICT = re.compile(r"deleted|kept: (%s|§\S+ .*tests/\S+)" % "|".join(REASONS))
HOOK = """import atexit, os, sys, threading
seen = set()
def dump():
    with open(os.path.join(%r, str(os.getpid())), "a") as fh:
        fh.write("".join(f"{c.co_filename}:{c.co_qualname}\\n" for c in tuple(seen)
                         if "src/repro/" in c.co_filename))
os._exit = lambda code, _real=os._exit: (dump(), _real(code))
hook = lambda frame, event, arg: event == "call" and seen.add(frame.f_code)
atexit.register(dump); sys.setprofile(hook); threading.setprofile(hook)
"""
HEAD = """# Surface census of `src/repro`

Written by `python benchmarks/census.py`; edit only the verdict column.  A
row names what reached the function (a nested one counts as its outermost):
the examples, the e2e workloads (all seven `--quick`, the manifest's four
also at default size), the benches and the tier-1 suite under `tests/`.  A
row reached by tests only, or by nothing, has a verdict: `deleted`, or
`kept: ` and one of {reasons}, or `§` with a paper section and its test.
"""


def callers():
    """Yield ``(column, label, argv)`` for every recorded run."""
    py = sys.executable
    pytest = [py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    for script in sorted((ROOT / "examples").glob("*.py")):
        yield 0, script.stem, [py, str(script)]
    e2e = [py, str(ROOT / "benchmarks" / "e2e" / "run.py"), "--workload"]
    for name in WORKLOADS:
        yield 1, name, [*e2e, name, "--quick"]
    for workload in MANIFEST["workloads"]:
        yield 1, workload["name"], [*e2e, workload["name"]]
    for bench in sorted((ROOT / "benchmarks").glob("test_*.py")):
        yield 2, bench.stem[5:], [*pytest, "-m", "bench or not bench",
                                  "--benchmark-disable", str(bench)]
    yield 3, "✓", [*pytest, "--hypothesis-seed=0", "tests"]


def row_key(filename, qualname):
    """``repro.pkg.module:Qualname`` of a code object's outermost function."""
    module = filename.rpartition("src/")[2].removesuffix(".py").replace("/", ".")
    return f"{module.removesuffix('.__init__')}:{qualname.split('.<locals>.')[0]}"


def record(argv, tmp):
    """Row keys of the ``src/repro`` code one run enters."""
    site = Path(tempfile.mkdtemp(dir=tmp))
    (site / "sitecustomize.py").write_text(HOOK % str(site))
    env = {k: v for k, v in os.environ.items() if not k.startswith("FIVM_")}
    env["PYTHONPATH"] = os.pathsep.join([str(site), str(ROOT / "src")])
    subprocess.run(argv, cwd=ROOT, env=env, capture_output=True)
    return {row_key(*line.rsplit(":", 1)) for dump in site.iterdir()
            if dump.name.isdigit() for line in dump.read_text().splitlines()}


def functions():
    """Line span per function and method in ``src/repro``, nested ones not."""
    rows = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if hasattr(c, "co_qualname")]
            if code.co_flags & CO_OPTIMIZED and "<" not in code.co_qualname:
                last = max(line for *_, line in code.co_lines() if line)
                key = row_key(str(path), code.co_qualname)
                rows[key] = rows.get(key, 0) + last - code.co_firstlineno + 1
    return rows


def cells(line):
    return [c.strip().strip("`") for c in line.strip().strip("|").split(" | ")]


def main(argv):
    old = {cells(line)[0]: line for line in DOC.read_text().splitlines()
           if line.startswith("| `")} if DOC.exists() else {}
    rows = functions()
    reach = {key: [set(), set(), set(), set()] for key in rows}
    with tempfile.TemporaryDirectory() as tmp:
        for column, label, cmd in callers():
            print(f"census: {label}", file=sys.stderr, flush=True)
            for key in record(cmd, tmp) & rows.keys():
                reach[key][column].add(label)
    table, problems = [], []
    for key in sorted(rows.keys() | old.keys()):
        was = cells(old[key]) if key in old else [key] + [""] * 6
        got = [", ".join(sorted(labels)) for labels in reach.get(key, [()] * 4)]
        verdict = "" if any(got[:3]) else was[6]
        if any(was[2:5]) and not any(got[:3]):
            problems.append(f"{key}: was reached by {was[2:5]}, now is not")
        elif key in rows and not (any(got[:3]) or VERDICT.fullmatch(verdict)):
            problems.append(f"{key}: reached by tests only or nothing, no verdict")
        if key in rows or was[6] == "deleted":
            table.append(old[key] if key not in rows else f"| `{key}` | {rows[key]} | "
                         + " | ".join([*got, verdict]) + " |")
    print("\n".join(problems), file=sys.stderr)
    if "--check" not in argv:
        DOC.write_text(render(table))
    return int(bool(problems) and "--check" in argv)


def render(table):
    """The whole of ``docs/surface.md`` around the table."""
    present = [r for r in map(cells, table) if r[6] != "deleted"]
    text = [HEAD.format(reasons=", ".join(f"`{r}`" for r in REASONS))]
    for name, why in (("serve_zipf", "partial materialization"),
                      ("shard_s2", "the process executor")):
        only = [r for r in present if r[3] == name]
        text.append(f"## Reached by `{name}` and no other e2e workload ({why})"
                    f"\n\n{len(only)} functions, {sum(int(r[1]) for r in only)} lines.\n\n"
                    + "".join(f"- `{r[0]}` ({r[1]})" + "".join(
                        f"; {c}: {r[i]}" for i, c in ((2, "examples"), (4, "benches"))
                        if r[i]) + "\n" for r in only))
    text.append("## Functions\n\n| function | lines | examples | e2e | benches "
                "| tests | verdict |\n|---|---|---|---|---|---|---|\n")
    return "\n".join(text) + "\n".join(table) + "\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
