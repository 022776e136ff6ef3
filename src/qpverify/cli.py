"""Command-line driver.

Usage: ``qpverify <suite> --algebra <spec> [--degree N] [--format text|json]
[--seed N] [--timings]`` or ``qpverify --list``; a suite with no degree
bound refuses ``--degree``.  Exit codes: 0 every check passed, 1 a check
failed, 2 usage error, 3 resource cap exceeded.
"""

import argparse
import os
import sys

from . import suites, termops


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qpverify",
        description=(
            "exact verification suites for Yang-Baxter, Schouten and "
            "Poisson-pencil identities on semisimple Lie algebras"
        ),
    )
    parser.add_argument("suite", nargs="?", help="suite name; see --list")
    parser.add_argument(
        "--algebra",
        default="A1",
        help="algebra spec: letter+rank like A2, B2, D4, G2, or sl3/so5/sp4/so8",
    )
    degree_suites = ", ".join(sorted(suites.DEGREE_SUITES))
    parser.add_argument("--degree", type=int, help=f"degree bound of the scans of {degree_suites}")
    parser.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    parser.add_argument(
        "--timings",
        action="store_true",
        help="add wall-clock millis to each check (breaks byte stability)",
    )
    parser.add_argument("--list", action="store_true", help="list available suites")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for entry in suites.list_suites():
            print(f"{entry['name']:22s} {entry['description']}")
        return 0
    if not args.suite:
        parser.print_usage(sys.stderr)
        print("qpverify: error: a suite name (or --list) is required", file=sys.stderr)
        return 2
    config = suites.SuiteConfig(
        algebra=args.algebra,
        suite=args.suite,
        degree=args.degree,
        seed=args.seed,
    )
    try:
        report = suites.run_suite(config)
    except suites.UsageError as exc:
        print(f"qpverify: error: {exc}", file=sys.stderr)
        return 2
    except termops.ResourceLimitError as exc:
        print(f"qpverify: resource cap: {exc}", file=sys.stderr)
        return 3
    try:
        print(report.to_json(timings=args.timings) if args.fmt == "json" else report.to_text(args.timings))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send the interpreter's final flush to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if report.aggregate == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
