"""``ncc`` — the NetCL compiler command-line interface.

Usage::

    ncc program.ncl --device 1 --target tna -o out.p4
    ncc program.ncl --no-speculation --report
    ncc program.ncl --lint                  # compile + warnings
    ncc program.ncl --verify-passes         # compile + translation validation
    ncc lint program.ncl                    # lints, then compile + fit each device
    ncc lint program.ncl --Werror --json
    ncc lint program.ncl -Wno-NCL004
    ncc verify program.ncl --json           # translation validation only

Warning control (both modes): ``--Werror`` turns warnings into a nonzero
exit, ``-Wno-<code>`` suppresses one diagnostic code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.tvalid import TranslationValidationError
from repro.core.driver import compile_netcl_file
from repro.lang.errors import CompileError
from repro.passes.manager import PassOptions
from repro.passes.memcheck import MemoryCheckError
from repro.telemetry import Profiler, render_profile_text, write_profile_json
from repro.tofino.allocator import FitError
from repro.tofino.phv import PhvError


def _extract_warning_flags(argv: list[str]) -> tuple[list[str], bool, list[str]]:
    """Pull ``--Werror`` / ``-Wno-<code>`` out of ``argv`` (argparse has no
    clean spelling for the ``-Wno-`` family)."""
    rest: list[str] = []
    werror = False
    suppressed: list[str] = []
    for a in argv:
        if a == "--Werror" or a == "-Werror":
            werror = True
        elif a.startswith("-Wno-"):
            suppressed.append(a[len("-Wno-") :])
        else:
            rest.append(a)
    return rest, werror, suppressed


def _parse_defines(pairs: list[str]) -> dict[str, int]:
    defines: dict[str, int] = {}
    for d in pairs:
        if "=" in d:
            name, value = d.split("=", 1)
            defines[name] = int(value, 0)
        else:
            defines[d] = 1
    return defines


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ncc", description="NetCL compiler: C/C++ kernels -> P4"
    )
    p.add_argument("source", help="NetCL source file (.ncl)")
    p.add_argument("--device", type=int, default=None, help="device id to compile for")
    p.add_argument("--target", choices=("tna", "v1model"), default="tna")
    p.add_argument("-o", "--output", help="write generated P4 here")
    p.add_argument("-D", "--define", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--no-speculation", action="store_true", help="disable speculation (§VI-B)")
    p.add_argument("--no-duplication", action="store_true", help="disable lookup duplication")
    p.add_argument("--no-partitioning", action="store_true", help="disable memory partitioning")
    p.add_argument("--no-intrinsics", action="store_true", help="disable intrinsic conversion")
    p.add_argument("--hash-bitcasts", action="store_true", help="place bitcasts on hash engines")
    p.add_argument("--no-fit", action="store_true", help="skip the Tofino fitter")
    p.add_argument("--report", action="store_true", help="print the resource report")
    p.add_argument("--dump-ir", action="store_true", help="print the optimized IR")
    p.add_argument(
        "--lint",
        action="store_true",
        help="also run the static-analysis phase and print warnings",
    )
    p.add_argument(
        "--verify-passes",
        action="store_true",
        help="translation validation: differentially execute each kernel "
        "after every middle-end pass against its pre-pipeline behavior",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="print a per-phase / per-pass compile-time breakdown",
    )
    p.add_argument(
        "--profile-json",
        metavar="PATH",
        help="write the compile profile as a JSON report (implies --profile timing)",
    )
    return p


def build_lint_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ncc lint",
        description="NetCL static analysis: dataflow lints and cross-kernel "
        "hazards, then a compile of every placed device (memory constraints, "
        "and whether the program fits the chip)",
    )
    p.add_argument("source", help="NetCL source file (.ncl)")
    p.add_argument("--device", type=int, default=None, help="device id to analyze for")
    p.add_argument("--target", choices=("tna", "v1model"), default="tna")
    p.add_argument("-D", "--define", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--json", action="store_true", help="emit diagnostics as JSON")
    return p


def build_verify_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ncc verify",
        description="Translation validation: run the full middle-end and "
        "prove every pass behavior-preserving by differential concrete "
        "execution on boundary-mined + random input vectors",
    )
    p.add_argument("source", help="NetCL source file (.ncl)")
    p.add_argument("--device", type=int, default=None, help="device id to verify for")
    p.add_argument("--target", choices=("tna", "v1model"), default="tna")
    p.add_argument("-D", "--define", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--json", action="store_true", help="emit the validation report as JSON")
    return p


def verify_main(argv: list[str]) -> int:
    import json

    from repro.core.driver import verify_source

    args = build_verify_arg_parser().parse_args(argv)
    try:
        source = Path(args.source).read_text()
    except OSError as exc:
        print(f"ncc: error: {exc}", file=sys.stderr)
        return 1
    defines = _parse_defines(args.define) or None
    name = Path(args.source).stem

    try:
        entries, failure = verify_source(
            source, args.device, target=args.target, defines=defines, program_name=name
        )
    except CompileError as exc:
        print(f"ncc: error: {exc}", file=sys.stderr)
        return 1
    report = {
        "source": args.source,
        "target": args.target,
        "devices": entries,
        "status": "miscompile" if failure is not None else "ok",
    }
    if args.json:
        print(json.dumps(report, indent=2))
    elif failure is not None:
        print(f"ncc verify: FAIL: {failure}", file=sys.stderr)
    else:
        checks = sum(
            len(d.get("checks", ())) for d in report["devices"] if isinstance(d, dict)
        )
        kernels = sorted(
            {k for d in report["devices"] for k in d.get("kernels", ())}
        )
        print(
            f"ncc verify: OK: {checks} pass checks across "
            f"{len(report['devices'])} device(s), kernels: {', '.join(kernels) or '-'}"
        )
    return 1 if failure is not None else 0


def lint_main(argv: list[str], *, werror: bool, suppressed: list[str]) -> int:
    from repro.analysis import DiagnosticEngine, lint_source

    args = build_lint_arg_parser().parse_args(argv)
    try:
        source = Path(args.source).read_text()
    except OSError as exc:
        print(f"ncc: error: {exc}", file=sys.stderr)
        return 1
    engine = DiagnosticEngine(
        werror=werror, suppressed=suppressed, source_name=args.source
    )
    lint_source(
        source,
        engine=engine,
        device_id=args.device,
        target=args.target,
        defines=_parse_defines(args.define) or None,
        program_name=Path(args.source).stem,
    )
    if args.json:
        print(engine.to_json())
    elif engine.diagnostics:
        print(engine.render_text(), file=sys.stderr)
    return engine.exit_code


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    raw, werror, suppressed = _extract_warning_flags(raw)
    if raw and raw[0] == "lint":
        return lint_main(raw[1:], werror=werror, suppressed=suppressed)
    if raw and raw[0] == "verify":
        return verify_main(raw[1:])

    args = build_arg_parser().parse_args(raw)
    defines = _parse_defines(args.define)
    options = PassOptions(
        target=args.target,
        speculation=not args.no_speculation,
        lookup_duplication=not args.no_duplication,
        memory_partitioning=not args.no_partitioning,
        intrinsic_conversion=not args.no_intrinsics,
        hash_bitcasts=args.hash_bitcasts,
        verify_passes=args.verify_passes,
    )
    profiling = args.profile or args.profile_json
    profiler = Profiler() if profiling else None
    diagnostics = None
    if args.lint:
        from repro.analysis import DiagnosticEngine

        diagnostics = DiagnosticEngine(
            werror=werror, suppressed=suppressed, source_name=args.source
        )
    try:
        compiled = compile_netcl_file(
            args.source,
            args.device,
            target=args.target,
            options=options,
            defines=defines or None,
            fit=not args.no_fit,
            profiler=profiler,
            diagnostics=diagnostics,
        )
    except (CompileError, MemoryCheckError, FitError, PhvError) as exc:
        print(f"ncc: error: {exc}", file=sys.stderr)
        return 1
    except TranslationValidationError as exc:
        print(f"ncc: error: translation validation failed: {exc}", file=sys.stderr)
        return 1

    if diagnostics is not None and diagnostics.diagnostics:
        print(diagnostics.render_text(), file=sys.stderr)

    if args.output:
        Path(args.output).write_text(compiled.p4_source)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(compiled.p4_source)

    if args.dump_ir:
        print(compiled.module.dump())

    if args.report and compiled.report is not None:
        row = compiled.report.row()
        print("\n-- resource report " + "-" * 40, file=sys.stderr)
        for k, v in row.items():
            print(f"  {k:>16}: {v}", file=sys.stderr)
        t = compiled.timings
        print(
            f"  ncc {t.ncc_seconds * 1000:.1f} ms + fitter "
            f"{t.fitter_seconds * 1000:.1f} ms",
            file=sys.stderr,
        )

    if profiling:
        print(render_profile_text(compiled.profile), file=sys.stderr)
        if args.profile_json:
            path = write_profile_json(args.profile_json, compiled.profile)
            print(f"wrote profile to {path}", file=sys.stderr)

    if diagnostics is not None and diagnostics.exit_code:
        return diagnostics.exit_code
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
