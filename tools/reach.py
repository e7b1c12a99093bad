#!/usr/bin/env python3
"""Is every function in ``src`` entered by something the system runs?

Runs a fixed set of the repository's own entry points -- the scenario
CLIs, the ``bench`` workloads (with and without ``--trace 1``), the
examples, ``ncc`` with every flag it has, ``tools/verify_all.py`` on both
targets, ``tools/lint_all.py`` and ``pytest benchmarks`` -- each in a
subprocess under a ``sys.setprofile`` hook, on a scratch copy of the
checkout so no run writes into it.  Every code object entered is matched
to the ``def`` in ``src`` that made it (by file, first line and name; a
decorated function starts at its first decorator).

Prints each function that no run entered, with its line count, and exits
1 when one of them is not named in ``tools/reach_allow.txt``.  Each line
of that file is ``path::Qual.name  reason``; the reason is one of
``oracle``, ``error path <tier-1 test>``, ``public API <doc>`` or
``held for item 7`` (``tests/test_reach_allowlist.py`` keeps the file
well formed).  About a minute and a half on two cores.

Usage::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALLOW = REPO / "tools" / "reach_allow.txt"

#: copied into the scratch checkout; nothing else is needed to run the set
_COPIED = ("src", "bench", "benchmarks", "examples", "tools", "pyproject.toml",
           "BENCH_paper.json")

#: lines of each output stream reported for a command that failed
_TAIL = 10

#: two subprocesses at a time: the set is CPU-bound and each run is small
_WORKERS = 2

#: ``sitecustomize`` for every run: record each code object entered and,
#: at exit, write the ``src`` ones as ``file<TAB>first line<TAB>name``.
_HOOK = '''\
import atexit, os, sys, threading

_SCRATCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_SCRATCH, "repo", "src") + os.sep
_codes = set()


def _profile(frame, event, arg):
    if event == "call":
        _codes.add(frame.f_code)


@atexit.register
def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    hits = {(c.co_filename, c.co_firstlineno, c.co_name) for c in _codes
            if c.co_filename.startswith(_SRC)}
    path = os.path.join(_SCRATCH, "hits", f"{os.getpid()}.tsv")
    with open(path, "w") as fh:
        for f, line, name in hits:
            fh.write(f"{f[len(_SRC):]}\\t{line}\\t{name}\\n")


threading.setprofile(_profile)
sys.setprofile(_profile)
'''

_APPS = ("agg", "cache", "calc", "paxos", "collective", "rpc")


def _ncc(*args: str) -> list[str]:
    return ["-m", "repro.core.cli", *args]


def _app(name: str) -> str:
    return f"src/repro/apps/netcl/{name}.ncl"


def run_set() -> list[list[list[str]]]:
    """Jobs of ``python`` argv lists; the commands of a job run in order.

    ``{tmp}`` is the scratch directory; an argv ending in ``> path``
    writes its stdout there."""
    jobs: list[list[list[str]]] = []
    # scenario CLIs: each documented flag, a dumped plan replayed
    for app in ("agg", "cache"):
        plan = f"{{tmp}}/chaos_{app}.json"
        jobs.append([
            ["-m", "repro.chaos", "--app", app, "--seed", "7", "--check-determinism"],
            ["-m", "repro.chaos", "--app", app, "--dump-plan", ">", plan],
            ["-m", "repro.chaos", "--app", app, "--plan", plan, "--json"],
        ])
    jobs.append([
        ["-m", "repro.service", "--check-determinism"],
        ["-m", "repro.service", "--dump-plan", ">", "{tmp}/service.json"],
        ["-m", "repro.service", "--plan", "{tmp}/service.json", "--json"],
    ])
    jobs.append([
        ["-m", "repro.collective", "--seed", "7", "--check-determinism"],
        ["-m", "repro.collective", "--op", "reduce_scatter", "--no-crash", "--json"],
    ])
    jobs.append([
        ["-m", "repro.rpc", "--seed", "7", "--check-determinism"],
        ["-m", "repro.rpc", "--loss", "0", "--no-crash", "--json"],
    ])
    # the bench workloads, plain and traced, at the smoke scale
    for workload in ("allreduce_clean", "rpc_chaos", "forward_storm",
                     "service_churn", "agg_p4", "compile_all"):
        for trace in ("0", "1"):
            jobs.append([["-m", "bench", "one", "--workload", workload, "--scale", "0.02",
                          "--seconds", "0", "--trace", trace]])
    # the examples
    for example in sorted((REPO / "examples").glob("*.py")):
        jobs.append([[f"examples/{example.name}"]])
    # ncc: every subcommand and flag, on every shipped app
    for name in _APPS:
        jobs.append([
            _ncc(_app(name), "--device", "1", "--report", "--dump-ir", "--lint", "--profile",
                 "--profile-json", f"{{tmp}}/{name}.prof.json",
                 "-o", f"{{tmp}}/{name}.p4"),
            _ncc(_app(name), "--device", "1", "--target", "v1model", "--no-speculation",
                 "--no-duplication", "--no-partitioning", "--no-intrinsics",
                 "--hash-bitcasts", "--no-fit"),
            _ncc("lint", _app(name), "--json"),
            _ncc("lint", _app(name), "--Werror", "-Wno-NCL004"),
            _ncc("verify", _app(name), "--json"),
        ])
    jobs.append([
        _ncc(_app("agg"), "--device", "1", "--verify-passes", "-D", "NUM_WORKERS=4"),
        _ncc("verify", _app("cache"), "--target", "v1model"),
    ])
    # the repository's own tools and the evaluation benchmarks
    jobs.append([["tools/verify_all.py", "--target", "tna"]])
    jobs.append([["tools/verify_all.py", "--target", "v1model"]])
    jobs.append([["tools/lint_all.py"], ["tools/lint_all.py", "--json"]])
    jobs.append([["-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider"]])
    return jobs


def _run_job(job: list[list[str]], scratch: Path, env: dict) -> list[str]:
    """Run one job's commands in order; return a report per command that
    did not exit 0 (every run in the set is expected to pass), with the
    last lines of its stdout and stderr."""
    failures = []
    for argv in job:
        argv = [a.replace("{tmp}", str(scratch)) for a in argv]
        out = subprocess.PIPE
        if len(argv) > 2 and argv[-2] == ">":
            out = open(argv[-1], "w")
            argv = argv[:-2]
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=scratch / "repo", env=env,
                                  stdout=out, stderr=subprocess.PIPE, text=True)
        finally:
            if out is not subprocess.PIPE:
                out.close()
        if proc.returncode != 0:
            tails = [f"{name}| {line}"
                     for name, text in (("stdout", proc.stdout), ("stderr", proc.stderr))
                     for line in (text or "").strip().splitlines()[-_TAIL:]]
            failures.append(f"exit {proc.returncode}: {' '.join(argv)}\n    "
                            + "\n    ".join(tails))
    return failures


def collect_hits() -> set[tuple[str, int, str]]:
    """``(path under src, first line, name)`` of every code object entered."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        scratch = Path(tmp)
        for name in _COPIED:
            source, dest = REPO / name, scratch / "repo" / name
            if source.is_dir():
                shutil.copytree(source, dest, ignore=shutil.ignore_patterns(
                    "__pycache__", "out", "*.egg-info"))
            else:
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, dest)
        (scratch / "hook").mkdir()
        (scratch / "hook" / "sitecustomize.py").write_text(_HOOK)
        (scratch / "hits").mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(scratch / "hook"), str(scratch / "repo" / "src")])
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        with ThreadPoolExecutor(_WORKERS) as pool:
            results = list(pool.map(lambda job: _run_job(job, scratch, env), run_set()))
        failures = [line for result in results for line in result]
        if failures:
            raise SystemExit("reach: a run in the set failed:\n  " + "\n  ".join(failures))
        hits = set()
        for dump in (scratch / "hits").glob("*.tsv"):
            for line in dump.read_text().splitlines():
                path, first, name = line.split("\t")
                hits.add((path, int(first), name))
        return hits


def _walk(stmts, prefix: str, rel: str):
    for node in stmts:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield rel, node, prefix + node.name
            yield from _walk(node.body, prefix + node.name + ".", rel)
        else:  # only statement bodies can hold a def
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                yield from _walk(getattr(node, field, None) or (), prefix, rel)


def src_defs():
    """``(path under src, node, Qual.name)`` of every class and def in ``src``."""
    for path in sorted((REPO / "src").rglob("*.py")):
        rel = path.relative_to(REPO / "src").as_posix()
        yield from _walk(ast.parse(path.read_text(), filename=str(path)).body, "", rel)


def src_functions() -> dict[tuple[str, int, str], tuple[str, int]]:
    """Every ``def`` in ``src``: (path under src, first line, name) ->
    (``src/path::Qual.name``, line count)."""
    found = {}
    for rel, node, qual in src_defs():
        if not isinstance(node, ast.ClassDef):
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            found[(rel, first, node.name)] = (f"src/{rel}::{qual}", node.end_lineno - first + 1)
    return found


def allowed() -> dict[str, str]:
    """``src/path::Qual.name`` -> reason, from the allow-list file."""
    allow = {}
    for line in ALLOW.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            name, reason = line.split(None, 1)
            allow[name] = reason
    return allow


def main() -> int:
    started = time.perf_counter()
    functions = src_functions()
    hits = collect_hits()
    unreached = sorted(v for k, v in functions.items() if k not in hits)
    allow = allowed()
    missing = [(name, lines) for name, lines in unreached if name not in allow]
    for name, lines in unreached:
        print(f"{lines:5d}  {name}  [{allow.get(name, 'NOT ALLOWED')}]")
    total = sum(lines for _, lines in unreached)
    print(f"\n{len(unreached)} of {len(functions)} functions ({total} lines) are entered "
          f"by no run; {len(missing)} of them are not allow-listed "
          f"({time.perf_counter() - started:.0f} s)")
    stale = sorted(set(allow) - {name for name, _ in unreached})
    for name in stale:
        print(f"note: allow-listed but entered: {name}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
