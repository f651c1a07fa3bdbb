"""Command line front end: ``python -m repro.analyze [opts] paths...``

Exit codes: 0 clean, 1 findings, 2 bad invocation or
unparseable source.  ``--out FILE`` always writes the JSON report (the
CI lint job uploads it as an artifact on failure) regardless of the
console ``--format``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.analyze.core import Report, run_analysis
from repro.analyze.rules import ALL_RULES


def _render_text(report: Report) -> str:
    lines = [finding.format() for finding in report.findings]
    lines.extend(report.parse_errors)
    lines.append(
        f"{len(report.findings)} finding(s), "
        f"{report.files_scanned} file(s) scanned, "
        f"rules: {', '.join(report.rules)}"
    )
    return "\n".join(lines)


def _render_rules() -> str:
    lines: list[str] = []
    for rule in ALL_RULES:
        lines.append(f"{rule.code}  {rule.title}")
        lines.append(f"       {rule.rationale}")
        if rule.allow:
            lines.append(f"       allowlist: {', '.join(rule.allow)}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="AST-based determinism & protocol-safety linter",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files/directories (default: src)")
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="CODE",
        help="run only this rule (repeatable), e.g. --rule DET01",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="FILE", help="also write the JSON report here")
    parser.add_argument("--list-rules", action="store_true", help="describe the rules and exit")
    options = parser.parse_args(argv)

    if options.list_rules:
        print(_render_rules())
        return 0
    try:
        report = run_analysis(options.paths or ["src"], rule_codes=options.rules)
    except (FileNotFoundError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if options.out:
        with open(options.out, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2)
            handle.write("\n")

    if options.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(_render_text(report))

    if report.parse_errors:
        return 2
    return 0 if not report.findings else 1
