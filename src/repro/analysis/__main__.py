"""CLI for the PC analysis tools.

``python -m repro.analysis lint [PATH ...]`` lints the given paths
(default ``src``) with the PC rules and exits non-zero when any finding
survives suppression; ``--format json`` serves machines.  ``python -m
repro.analysis verify PLAN.tcap`` statically type-checks a textual TCAP
plan, and ``rules`` lists the rule catalog.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.lint import format_json, format_text, iter_rules, run_lint


def _lint(args):
    select = None
    if args.select:
        select = {c.strip() for c in args.select.split(",") if c.strip()}
    findings = run_lint(args.paths, select=select)
    if args.format == "json":
        print(format_json(findings))
    else:
        print(format_text(findings))
    return 1 if findings else 0


def _verify(args):
    from repro.errors import PlanTypeError, TcapError
    from repro.tcap.parser import parse_tcap
    from repro.tcap.verify import verify_program

    try:
        with open(args.plan) as handle:
            text = handle.read()
    except OSError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    try:
        program = parse_tcap(text)
        types = verify_program(program)
    except PlanTypeError as error:
        print("plan type error: %s" % error, file=sys.stderr)
        return 1
    except TcapError as error:
        print("tcap error: %s" % error, file=sys.stderr)
        return 1
    print("OK: %d statements, %d vector lists, %d columns typed" % (
        len(program), len(types.env), types.columns_typed(),
    ))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="PC-specific static analysis (PCSan lint, plan verify).",
    )
    sub = parser.add_subparsers(dest="command")

    lint_parser = sub.add_parser("lint", help="run the PC rules")
    lint_parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    lint_parser.add_argument(
        "--select", default=None,
        help="comma-separated rule codes to run (default: all)",
    )

    verify_parser = sub.add_parser(
        "verify", help="statically type-check a textual TCAP plan",
    )
    verify_parser.add_argument("plan", help="path to a .tcap plan file")

    sub.add_parser("rules", help="list the rule catalog")

    args = parser.parse_args(argv)
    if args.command == "rules":
        for code, name, summary in iter_rules():
            print("%s  %-24s %s" % (code, name, summary))
        return 0
    if args.command == "verify":
        return _verify(args)
    if args.command != "lint":
        parser.print_help()
        return 2
    return _lint(args)


if __name__ == "__main__":
    sys.exit(main())
