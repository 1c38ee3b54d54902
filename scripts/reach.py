#!/usr/bin/env python
"""Reachability ledger: which ``src/repro`` functions a user reaches.

Usage::

    python scripts/reach.py

Runs a fixed list of drivers — every figure in quick mode, each CLI
subcommand, ``scripts/generate_experiments.py``, the examples and one
``benchmarks/perf/run.py --smoke`` pass per workload — each in a fresh
interpreter whose ``sitecustomize`` installs a stdlib ``sys.setprofile``
hook (and ``threading.setprofile`` for service threads).  The hook
notes every code object called; at exit each interpreter writes the
``src/repro`` ones to a file of the scratch directory.

The ledger is over the top-level functions and methods of ``src/repro``
(methods of nested classes included; nested functions and lambdas count
with their enclosing function).  A function is *reached* when some
driver called it; code only the tests call counts as unreached.  Lines
are ``end_lineno - lineno + 1`` of the ``def``, decorators excluded.
The script prints the unreached functions, the reached ones, one
per-file table and the two totals; it exits 1 when a driver fails, and
when a module of ``src/repro`` changed while the drivers ran (the
function table is read before they start).
Nothing is written inside the repository.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "repro"

#: The hook each driver interpreter loads.  It records code objects by
#: identity (hashing a code object is slower than keeping it alive) and
#: writes ``path:firstlineno`` lines for the package's files at exit.
SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_seen = {}
_pkg = os.environ["REACH_PKG"]
_out = os.environ["REACH_OUT"]


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen[id(code)] = code


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    codes = list(_seen.values())  # daemon threads may still be adding
    rows = {f"{c.co_filename}:{c.co_firstlineno}" for c in codes
            if c.co_filename.startswith(_pkg)}
    path = os.path.join(_out, f"reach-{os.getpid()}.txt")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\\n".join(sorted(rows)) + "\\n")


atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def drivers(work: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every driver; *work* is the scratch directory
    (every output, cache and the generated EXPERIMENTS.md land there)."""
    py = sys.executable
    cache = str(work / "sweep-cache")
    runs: list[tuple[str, list[str]]] = [
        ("repro-bench --all --mode quick",
         [py, "-m", "repro.bench", "--all", "--mode", "quick", "--quiet",
          "--out", str(work / "quick.txt"),
          "--report", str(work / "quick.md")]),
        ("repro-bench --list / --list-algos",
         [py, "-c", "from repro.bench.cli import main; "
          "main(['--list']); main(['--list-algos'])"]),
        ("repro-bench --trace-out",
         [py, "-m", "repro.bench", "--quiet",
          "--trace-out", str(work / "trace.json"),
          "--metrics-out", str(work / "metrics.json")]),
        ("repro-bench overlap",
         [py, "-m", "repro.bench", "overlap", "--quick", "--nodes", "2",
          "--ppn", "2", "--out-json", str(work / "overlap.json")]),
    ]
    for sub in ("report", "sweep", "transports"):
        runs.append((f"repro-model {sub}",
                     [py, "-m", "repro.bench.model", sub,
                      "--bench-dir", str(ROOT),
                      "--out", str(work / f"model-{sub}.json")]))
    sweep = [py, "-m", "repro.bench.sweep"]
    runs += [
        ("repro-sweep run",
         sweep + ["run", "--figure", "fig7", "--quick", "--cache", cache,
                  "--out", str(work / "sweep-fig7.json"), "--quiet"]),
        ("repro-sweep run --check-bench",
         sweep + ["run", "--figure", "fig7", "--check-bench", str(ROOT),
                  "--quiet"]),
        ("repro-sweep query",
         sweep + ["query", "--nodes", "2", "--ppn", "4", "--cache", cache]),
        ("repro-sweep stats", sweep + ["stats", "--cache", cache]),
        ("repro-sweep gc", sweep + ["gc", "--cache", cache, "--all"]),
        ("generate_experiments.py",
         [py, str(ROOT / "scripts" / "generate_experiments.py"),
          str(ROOT / "paper_results.txt")]),
    ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        runs.append((f"examples/{example.name}", [py, str(example)]))
    for workload in ("osu_replay", "osu_live", "apps_observe",
                     "model_service"):
        runs.append((f"run.py --smoke --workload {workload}",
                     [py, str(ROOT / "benchmarks" / "perf" / "run.py"),
                      "--smoke", "--workload", workload,
                      "--json", str(work / f"smoke-{workload}.json")]))
    return runs


def sources() -> dict[Path, str]:
    """The text of every module of the package."""
    return {path: path.read_text(encoding="utf-8")
            for path in sorted(PKG.rglob("*.py"))}


def ledger(texts: dict[Path, str]) -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (qualified name, lines)`` of every
    top-level function and method of the modules *texts* holds.  Both
    the ``def`` line and the first decorator's line key the entry: a
    code object's ``co_firstlineno`` is the latter."""
    out: dict[tuple[str, int], tuple[str, int]] = {}

    def visit(body, prefix: str, path: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", path)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                entry = (f"{prefix}{node.name}",
                         node.end_lineno - node.lineno + 1)
                out[(path, node.lineno)] = entry
                for deco in node.decorator_list:
                    out[(path, deco.lineno)] = entry

    for path, text in texts.items():
        visit(ast.parse(text).body, "", str(path))
    return out


def main() -> int:
    # The table is read from the tree the drivers import, before they
    # run; a tree edited meanwhile cannot be attributed and fails below.
    texts = sources()
    table = ledger(texts)
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        work = Path(tmp)
        hook = work / "hook"
        out = work / "out"
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(SITECUSTOMIZE,
                                               encoding="utf-8")
        env = dict(os.environ)
        env.pop("REPRO_SWEEP_CACHE", None)
        env["PYTHONPATH"] = os.pathsep.join([str(hook), str(SRC)])
        env["REACH_PKG"] = str(PKG) + os.sep
        env["REACH_OUT"] = str(out)
        failed = []
        for label, argv in drivers(work):
            t0 = time.perf_counter()
            done = subprocess.run(argv, cwd=work, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            status = "ok" if done.returncode == 0 else \
                f"FAILED ({done.returncode})"
            print(f"# {label}: {status} in "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
            if done.returncode != 0:
                failed.append(label)
                print(done.stderr[-2000:], file=sys.stderr)
        called: set[tuple[str, int]] = set()
        for path in out.glob("reach-*.txt"):
            for line in path.read_text(encoding="utf-8").split():
                name, _sep, lineno = line.rpartition(":")
                called.add((name, int(lineno)))

    if sources() != texts:
        print("src/repro changed while the drivers ran: the ledger cannot "
              "say which functions they reached", file=sys.stderr)
        return 1
    functions: dict[tuple[str, str], int] = {}
    reached: set[tuple[str, str]] = set()
    for (path, _line), (qualname, lines) in table.items():
        rel = str(Path(path).relative_to(SRC))
        functions[(rel, qualname)] = lines
    for (path, line) in called:
        entry = table.get((path, line))
        if entry is not None:
            reached.add((str(Path(path).relative_to(SRC)), entry[0]))
    unreached = sorted(set(functions) - reached)

    print("\n## unreached (file, function, lines)")
    for rel, qualname in unreached:
        print(f"UNREACHED {rel}::{qualname} {functions[(rel, qualname)]}")
    print("\n## reached (file, function, lines)")
    for rel, qualname in sorted(reached):
        print(f"REACHED {rel}::{qualname} {functions[(rel, qualname)]}")
    print("\n## unreached lines per file")
    per_file: dict[str, list[int]] = {}
    for rel, qualname in unreached:
        row = per_file.setdefault(rel, [0, 0])
        row[0] += 1
        row[1] += functions[(rel, qualname)]
    for rel, (count, lines) in sorted(per_file.items(),
                                      key=lambda kv: -kv[1][1]):
        print(f"{lines:6d} lines {count:4d} functions  {rel}")
    reached_lines = sum(functions[f] for f in reached)
    unreached_lines = sum(functions[f] for f in unreached)
    print(f"\nTOTAL reached {len(reached)} functions / {reached_lines} lines; "
          f"unreached {len(unreached)} functions / {unreached_lines} lines "
          f"of {len(functions)} functions")
    if failed:
        print(f"drivers failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
