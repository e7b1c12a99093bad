"""``python -m bench one|run|trace|check`` (see bench/README.md)."""

from __future__ import annotations

import argparse
import sys

from bench import compare, harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench")
    sub = parser.add_subparsers(dest="cmd", required=True)

    one = sub.add_parser("one", help="measure one workload in this process")
    one.add_argument("--workload", required=True)
    one.add_argument("--seed", type=int, default=7)
    one.add_argument("--seconds", type=float, default=10.0)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--scale", type=float, default=1.0)
    one.add_argument("--out", help="also write the full detail record here")
    one.add_argument("--chrome-trace", action="store_true",
                     help="with --trace 1: export the last rep's spans to bench/out/")

    for name in ("run", "trace"):
        p = sub.add_parser(name, help=f"{name} every workload, one process each")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--seconds", type=float, default=10.0)
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--workloads", nargs="*")
        p.add_argument("--out")

    check = sub.add_parser("check", help="compare two result files")
    check.add_argument("a")
    check.add_argument("b")

    args = parser.parse_args(argv)
    if args.cmd == "one":
        return harness.run_one(args)
    if args.cmd == "check":
        return compare.main(args.a, args.b)
    return harness.run_all(args, trace=args.cmd == "trace")


if __name__ == "__main__":
    sys.exit(main())
