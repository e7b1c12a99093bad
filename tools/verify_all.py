#!/usr/bin/env python3
"""Translation-validate every NetCL program in the repository (CI gate).

Runs the full middle-end under ``verify_passes`` for the paper
applications (``src/repro/apps/netcl/*.ncl``), the NetCL kernels embedded
as raw strings in ``examples/*.py``, and the lint fixtures under
``tests/lint`` — every pass of every pipeline is differentially executed
against the kernel's pre-pipeline behavior, so any miscompile fails CI
with the offending pass name and a counterexample input vector.  The last
step of every pipeline, ``pyexec``, holds the compiled kernel engine that
devices run to the interpreter on the final IR; a kernel the engine can
only interpret would make that step vacuous, so it fails CI too.

Usage::

    PYTHONPATH=src python tools/verify_all.py [--target tna|v1model]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO / "src"))

from repro.analysis.estimate import estimate_devices  # noqa: E402
from repro.analysis.tvalid import TranslationValidationError  # noqa: E402
from repro.lang import analyze, lower_to_ir, parse_source  # noqa: E402
from repro.lang.errors import CompileError  # noqa: E402
from repro.passes.manager import PassManager, PassOptions  # noqa: E402
from repro.passes.memcheck import MemoryCheckError  # noqa: E402

_RAW_STRING = re.compile(r'r"""(.*?)"""', re.S)


class EngineFallbackError(Exception):
    """The ``pyexec`` step compared the interpreter with itself."""


def collect_programs() -> list[tuple[str, str]]:
    """(display name, NetCL source) for every verifiable program."""
    programs: list[tuple[str, str]] = []
    for path in sorted((REPO / "src" / "repro" / "apps" / "netcl").glob("*.ncl")):
        programs.append((str(path.relative_to(REPO)), path.read_text()))
    for path in sorted((REPO / "tests" / "lint").glob("*.ncl")):
        programs.append((str(path.relative_to(REPO)), path.read_text()))
    for path in sorted((REPO / "examples").glob("*.py")):
        text = path.read_text()
        for i, match in enumerate(_RAW_STRING.finditer(text)):
            body = match.group(1)
            if "_kernel(" not in body:
                continue
            programs.append((f"{path.relative_to(REPO)}[{i}]", body))
    return programs


def verify_program(name: str, source: str, target: str) -> tuple[int, str]:
    """(pass checks run, status line) for one program, raising on miscompile."""
    try:
        module = lower_to_ir(analyze(parse_source(source)), name=Path(name).stem)
    except CompileError as exc:
        return 0, f"{name}: skipped (does not compile standalone: {exc})"
    checks = 0
    interpreted: list[str] = []
    for dev in estimate_devices(module):
        mod = lower_to_ir(analyze(parse_source(source)), name=Path(name).stem)
        pm = PassManager(PassOptions(target=target, verify_passes=True))
        try:
            pm.run_pipeline(mod, dev)
        except (CompileError, MemoryCheckError) as exc:
            return 0, f"{name}: skipped on device {dev} ({exc})"
        if pm.validator is not None:
            checks += len(pm.validator.checks)
            interpreted += [f"{k}@{dev}" for k in pm.validator.pyexec_interpreted]
    if interpreted:
        raise EngineFallbackError(
            f"kernel engine fell back to the interpreter for {', '.join(interpreted)}"
        )
    return checks, f"{name}: OK ({checks} pass checks)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target", choices=("tna", "v1model"), default="tna")
    args = parser.parse_args(argv)

    failures = 0
    total_checks = 0
    for name, source in collect_programs():
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
