"""CLI entry point: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean, 1 violations found, 2 usage error.

Output formats:

``text``
    ``path:line:col: RULE message`` lines (default; editor-friendly).
``json``
    One JSON object with ``diagnostics``, ``unused_ignores`` and
    ``counts`` keys — the shape CI archives as a workflow artifact.
``github``
    ``::error file=...,line=...`` workflow annotations, so violations
    surface inline on the PR diff.
"""

from __future__ import annotations

import argparse
import json
import sys

from .linter import LintReport, lint_paths_report
from .rules import RULES

__all__ = ["main"]


def _emit(report: LintReport, fmt: str) -> None:
    if fmt == "json":
        counts: dict[str, int] = {}
        for diag in report.all():
            counts[diag.rule] = counts.get(diag.rule, 0) + 1
        payload = {
            "diagnostics": [diag.to_dict() for diag in report.diagnostics],
            "unused_ignores": [diag.to_dict() for diag in report.unused_ignores],
            "counts": dict(sorted(counts.items())),
        }
        print(json.dumps(payload, indent=2))
        return
    for diag in report.all():
        print(diag.format_github() if fmt == "github" else diag.format())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Invariant lint suite: machine-check the engine's "
        "concurrency, determinism and telemetry contracts "
        "(--list-rules prints the rule table).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (also bypasses module "
        "scoping), e.g. --select R001,R003",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="diagnostic output format (default: text)",
    )
    parser.add_argument(
        "--report-unused-ignores",
        action="store_true",
        help="also report '# repro: ignore[...]' comments that no longer "
        "suppress anything",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            scope = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule.id}  {rule.title}  [{scope}]")
        return 0

    select = None
    if args.select is not None:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
    try:
        report = lint_paths_report(
            args.paths,
            select=select,
            report_unused_ignores=args.report_unused_ignores,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.format)
    findings = report.all()
    if findings:
        noun = "violation" if len(findings) == 1 else "violations"
        print(f"found {len(findings)} {noun}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
