"""Command line front end: ``python -m repro.analyze [opts] paths...``

Exit codes: 0 clean, 1 unwaived findings, 2 bad invocation,
unparseable source or an unreadable budget file.  ``--out FILE`` always
writes the JSON report (the CI lint job uploads it as an artifact on
failure) regardless of the console ``--format``.

``--budget`` checks the HOT01 and CPX01 budget files instead of running
the rules.  The rules fail when code exceeds its budget; this fails in
the other direction too, on an entry above its measured count (slack a
regression could hide under) or for a function no longer measured
(dead weight), so a budget can only ratchet down.  ``--budget --write``
rewrites both files from the measurement; ``--out`` gets the drift.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.analyze.core import Report, iter_python_files, load_contexts, run_analysis
from repro.analyze.rules import ALL_RULES, BudgetError, BudgetRule


def _render_text(report: Report, show_waived: bool) -> str:
    lines: list[str] = []
    for finding in report.findings:
        if finding.waived and not show_waived:
            continue
        lines.append(finding.format())
    for error in report.parse_errors:
        lines.append(error)
    waived_count = len(report.findings) - len(report.unwaived)
    lines.append(
        f"{len(report.unwaived)} finding(s), {waived_count} waived, "
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


def budget_drift(committed: dict[str, int], measured: dict[str, int]) -> dict[str, dict]:
    """How a committed budget differs from a fresh measurement: ``slack``
    (budget above measured), ``dead`` (no longer measured) and ``over``
    (measured above budget), each ``{key: [committed, measured]}``.  All
    three empty means the ratchet is tight."""
    drift: dict[str, dict] = {"slack": {}, "dead": {}, "over": {}}
    for key in sorted(committed.keys() | measured.keys()):
        pair = [committed.get(key, 0), measured.get(key, 0)]
        if key not in measured:
            drift["dead"][key] = pair
        elif pair[0] > pair[1]:
            drift["slack"][key] = pair
        elif pair[0] < pair[1]:
            drift["over"][key] = pair
    return drift


def _check_budgets(paths: Sequence[str], write: bool, out: Optional[str]) -> int:
    from repro.analyze.callgraph import Project

    contexts, parse_errors = load_contexts(list(iter_python_files(paths)))
    if parse_errors:
        print("\n".join(parse_errors))
        return 2
    project = Project(contexts)
    report: dict[str, dict] = {}
    failures: list[str] = []
    for rule in ALL_RULES:
        if not isinstance(rule, BudgetRule):
            continue
        code, committed, measured = rule.code, rule.load_budget(), rule.measure(project)
        print(
            f"{code} budget: {len(measured)} functions / {sum(measured.values())} "
            f"sites measured, {len(committed)} / {sum(committed.values())} committed"
        )
        if write:
            rule.budget_path.write_text(
                json.dumps(dict(sorted(measured.items())), indent=2) + "\n", encoding="utf-8"
            )
            print(f"wrote {rule.budget_path}")
            continue
        drift = report[code] = budget_drift(committed, measured)
        for key, (was, now) in drift["slack"].items():
            failures.append(
                f"{code} slack: {key} budgeted {was} but measures {now} — tighten with --write"
            )
        for key in drift["dead"]:
            failures.append(f"{code} dead entry: {key} is no longer measured")
        for key, (was, now) in drift["over"].items():
            failures.append(
                f"{code} over budget: {key} measures {now} against {was} ({code} flags the sites)"
            )
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("budget ratchet: ok")
    return 0


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
    parser.add_argument(
        "--show-waived", action="store_true", help="print waived findings too (text mode)"
    )
    parser.add_argument("--list-rules", action="store_true", help="describe the rules and exit")
    parser.add_argument(
        "--budget",
        action="store_true",
        help="check the HOT01/CPX01 budget files: fail on slack, dead or over-budget entries",
    )
    parser.add_argument(
        "--write", action="store_true", help="with --budget: rewrite both budget files"
    )
    options = parser.parse_args(argv)

    if options.list_rules:
        print(_render_rules())
        return 0
    try:
        if options.budget:
            return _check_budgets(options.paths or ["src"], options.write, options.out)
        report = run_analysis(options.paths or ["src"], rule_codes=options.rules)
    except (FileNotFoundError, KeyError, BudgetError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if options.out:
        with open(options.out, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2)
            handle.write("\n")

    if options.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(_render_text(report, options.show_waived))

    if report.parse_errors:
        return 2
    return 0 if not report.unwaived else 1
