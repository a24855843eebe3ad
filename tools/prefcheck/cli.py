"""The prefcheck command line: ``python -m tools.prefcheck [paths...]``.

Exit codes: 0 = clean, 1 = unsuppressed findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from tools.prefcheck.engine import (
    analyze_paths,
    default_rules,
    dump_json,
    render_report,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.prefcheck",
        description=(
            "AST-based invariant analyzer: lock discipline, paired "
            "mutations, deadline polls, fault-point registry, error "
            "taxonomy."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write the findings as JSON to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--rules",
        metavar="ID[,ID...]",
        help="run only the named rules (comma-separated rule ids)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list rule ids with their invariants and exit",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print each finding's invariant provenance",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}: {rule.invariant}")
        return 0
    if args.rules:
        wanted = {part.strip() for part in args.rules.split(",") if part.strip()}
        known = {rule.rule_id for rule in rules}
        unknown = wanted - known
        if unknown:
            print(
                f"unknown rule id(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})",
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.rule_id in wanted]
    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    report = analyze_paths(paths, rules=rules)
    if args.json == "-":
        print(dump_json(report))
    else:
        if args.json:
            Path(args.json).write_text(dump_json(report) + "\n", encoding="utf-8")
        print(render_report(report, verbose=args.verbose))
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
