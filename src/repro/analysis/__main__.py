"""CLI entry point: ``python -m repro.analysis [paths...] [options]``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.core import all_checkers
from repro.analysis.runner import run_lint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "repro-lint: AST-based checks of the repo's determinism, "
            "picklability and tolerance invariants"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for name, cls in sorted(all_checkers().items()):
            print(f"{name}: {cls.description}")
        return 0

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    report = run_lint(paths, rules=rules)
    print(report.to_json() if args.format == "json" else report.format_text())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
