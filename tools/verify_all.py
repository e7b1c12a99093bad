#!/usr/bin/env python3
"""Translation-validate every NetCL program in the repository (CI gate).

Runs the full middle-end under ``verify_passes`` for the paper
applications (``src/repro/apps/netcl/*.ncl``), the NetCL kernels embedded
as raw strings in ``examples/*.py``, and the lint fixtures under
``tests/lint`` — every pass of every pipeline is differentially executed
against the kernel's pre-pipeline behavior, so any miscompile fails CI
with the offending pass name and a counterexample input vector.  After
the pipeline, ``pyexec`` holds the compiled kernel engine that devices run
to the interpreter on the final IR, and ``p4exec`` holds the generated P4
program, run by ``P4Engine``, to the interpreter.  A kernel either engine
can only interpret, or that ``p4exec`` compared on no vector, would make
its step vacuous, so it fails CI too.

Usage::

    PYTHONPATH=src python tools/verify_all.py [--target tna|v1model]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# lint_all also puts src/ on sys.path.
from lint_all import REPO, collect_programs

from repro.analysis.tvalid import TranslationValidationError
from repro.core.driver import verify_source
from repro.lang.errors import CompileError


class EngineFallbackError(Exception):
    """The ``pyexec`` or ``p4exec`` step compared an interpreter with the
    oracle, or ``p4exec`` compared nothing."""


def verify_program(name: str, source: str, target: str) -> tuple[int, str]:
    """(pass checks run, status line) for one program, raising on miscompile."""
    try:
        entries, failure = verify_source(source, target=target, program_name=Path(name).stem)
    except CompileError as exc:
        return 0, f"{name}: skipped (does not compile standalone: {exc})"
    if failure is not None:
        raise failure
    for entry in entries:
        if entry["status"] == "compile-error":
            return 0, f"{name}: skipped on device {entry['device']} ({entry['error']})"
    for step in ("pyexec", "p4exec"):
        interpreted = [f"{k}@{e['device']}" for e in entries for k in e[f"{step}_interpreted"]]
        if interpreted:
            raise EngineFallbackError(
                f"{step} engine fell back to the interpreter for {', '.join(interpreted)}"
            )
    p4exec = [(e["device"], c) for e in entries for c in e["checks"] if c["pass"] == "p4exec"]
    vacuous = [f"{c['function']}@{dev}" for dev, c in p4exec if not c["vectors_compared"]]
    if vacuous or not p4exec:
        raise EngineFallbackError(f"p4exec compared no vector for {', '.join(vacuous) or name}")
    checks = sum(len(e["checks"]) for e in entries)
    vectors = sum(c["vectors_compared"] for _, c in p4exec)
    return checks, f"{name}: OK ({checks} pass checks, {len(p4exec)} p4exec checks of {vectors} vectors)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target", choices=("tna", "v1model"), default="tna")
    args = parser.parse_args(argv)

    failures = 0
    total_checks = 0
    fixtures = sorted((REPO / "tests" / "lint").glob("*.ncl"))
    programs = collect_programs() + [
        (str(path.relative_to(REPO)), path.read_text()) for path in fixtures
    ]
    for name, source in programs:
        try:
            checks, line = verify_program(name, source, args.target)
        except TranslationValidationError as exc:
            failures += 1
            print(f"{name}: MISCOMPILE: {exc}", file=sys.stderr)
            continue
        except EngineFallbackError as exc:
            failures += 1
            print(f"{name}: NOT COMPILED: {exc}", file=sys.stderr)
            continue
        total_checks += checks
        print(line)
    if failures:
        print(f"verify_all: {failures} program(s) failed", file=sys.stderr)
        return 1
    print(f"verify_all: all programs behavior-preserving ({total_checks} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
