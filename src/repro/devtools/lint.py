"""CLI for the project-specific static analysis:
``python -m repro.devtools.lint``.

Runs every rule of the catalogue over one parse of the given files.
Exits 0 when no finding fires, 1 otherwise — this is the gate wired into
``make lint`` and ``scripts/check.sh``; unlike ruff it has no
dependencies, so it runs everywhere.

Examples::

    python -m repro.devtools.lint src
    python -m repro.devtools.lint src --format json
    python -m repro.devtools.lint src/repro/runtime --select lock-discipline
    python -m repro.devtools.lint src --select no-implicit-float64
    python -m repro.devtools.lint --list-rules
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .astlint import all_rules, lint_paths, render_json, render_text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.devtools.lint",
        description="project-specific static analysis for the "
        "synchronisation-free runtime",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", action="append", metavar="RULE",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, rule in sorted(all_rules().items()):
            print(f"{name:<26s} {rule.description}")
        return 0
    if not args.paths:
        parser.error("no paths given (or use --list-rules)")
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")

    try:
        findings = lint_paths(args.paths, select=args.select)
    except ValueError as exc:
        parser.error(str(exc))

    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
