"""Rule engine: file walking, waiver parsing, finding collection.

A :class:`Finding` is one rule violation at one source location.  The
engine parses every file once and reads its comments in one
:mod:`tokenize` pass (so a ``#`` inside a string literal is not a
comment): waivers and the ``# domain:`` annotations both come from
that pass.  It builds the cross-file
:class:`~repro.analyze.dataflow.Project` function index only when a
selected rule (DOM01) needs it, and returns a :class:`Report` whose finding order is fully
deterministic (sorted by path, line, column, rule) — the linter obeys
its own contract.
"""

from __future__ import annotations

import ast
import io
import os
import re
import time
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

WAIVER_RE = re.compile(r"analyze:\s*(ok|file-ok)\(\s*([A-Z0-9_]+(?:\s*,\s*[A-Z0-9_]+)*)\s*\)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    waived: bool = False

    def format(self) -> str:
        mark = "  [waived]" if self.waived else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{mark}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "waived": self.waived,
        }


@dataclass
class FileContext:
    """One parsed source file, its comments and its waivers."""

    path: Path  # resolved absolute path
    display: str  # the path findings print (relative when possible)
    tree: ast.Module
    comments: dict[int, str] = field(default_factory=dict)  # line -> comment text
    line_waivers: dict[int, set[str]] = field(default_factory=dict)
    file_waivers: set[str] = field(default_factory=set)
    file_waiver_lines: dict[str, int] = field(default_factory=dict)

    @property
    def posix(self) -> str:
        return self.path.as_posix()

    def is_waived(self, rule: str, line: int) -> bool:
        if rule in self.file_waivers:
            return True
        return rule in self.line_waivers.get(line, set())

    def tag_specs(self, tag: str, values: Mapping[str, str]) -> dict[int, dict[str, str]]:
        """Line -> parsed ``# <tag>: spec`` comment.  A spec is a comma
        list of ``value`` (keyed ``""``) or ``name=value`` parts, each
        value looked up case-insensitively in ``values``: ``# domain:
        dsn`` -> ``{"": "DSN"}``, ``# domain: a=ssn, return=dsn`` ->
        ``{"a": "SSN", "return": "DSN"}``.  Unknown values are dropped:
        the grammar is advisory, and a typo must not crash the lint."""
        pattern = re.compile(rf"#\s*{tag}:\s*([A-Za-z0-9_=,\s]+)")
        specs: dict[int, dict[str, str]] = {}
        for lineno, text in self.comments.items():
            match = pattern.search(text)
            if match is None:
                continue
            spec: dict[str, str] = {}
            for part in match.group(1).split(","):
                name, _, value = part.rpartition("=")
                if value.strip().lower() in values:
                    spec[name.strip()] = values[value.strip().lower()]
            if spec:
                specs[lineno] = spec
        return specs


@dataclass
class Report:
    """Everything one analysis run produced."""

    findings: list[Finding]
    parse_errors: list[str]
    files_scanned: int
    rules: list[str]
    elapsed_seconds: float = 0.0
    # Wall time spent inside each rule's check and post-pass.  The
    # shared parse and function-index build are in elapsed_seconds only.
    rule_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def unwaived(self) -> list[Finding]:
        return [f for f in self.findings if not f.waived]

    @property
    def clean(self) -> bool:
        return not self.unwaived and not self.parse_errors

    def budget(self) -> dict[str, dict[str, int]]:
        """Per-rule finding counts, live vs waived."""
        counts: dict[str, dict[str, int]] = {
            rule: {"live": 0, "waived": 0} for rule in self.rules
        }
        for finding in self.findings:
            entry = counts.setdefault(finding.rule, {"live": 0, "waived": 0})
            entry["waived" if finding.waived else "live"] += 1
        return counts

    def as_dict(self) -> dict:
        return {
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "rule_seconds": {code: round(t, 4) for code, t in self.rule_seconds.items()},
            "rules": self.rules,
            "parse_errors": list(self.parse_errors),
            "budget": self.budget(),
            "findings": [f.as_dict() for f in self.findings if not f.waived],
            "waived": [f.as_dict() for f in self.findings if f.waived],
        }


def read_comments(source: str) -> dict[int, str]:
    """Line -> comment text, from one :mod:`tokenize` pass (a ``#``
    inside a string literal is not a comment)."""
    try:
        return {
            tok.start[0]: tok.string
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        }
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unterminated constructs etc.: fall back to a plain line scan.
        return {
            number: line
            for number, line in enumerate(source.splitlines(), start=1)
            if "#" in line
        }


def parse_waivers(
    comments: Mapping[int, str],
) -> tuple[dict[int, set[str]], set[str], dict[str, int]]:
    """Map line -> waived rule codes, the file-wide waiver set, and the
    line each file-wide waiver first appears on (for staleness reports)."""
    line_waivers: dict[int, set[str]] = {}
    file_waivers: set[str] = set()
    file_waiver_lines: dict[str, int] = {}
    for lineno, text in comments.items():
        for kind, codes in WAIVER_RE.findall(text):
            rules = {code.strip() for code in codes.split(",") if code.strip()}
            if kind == "file-ok":
                file_waivers |= rules
                for rule in rules:
                    file_waiver_lines.setdefault(rule, lineno)
            else:
                line_waivers.setdefault(lineno, set()).update(rules)
    return line_waivers, file_waivers, file_waiver_lines


def _display_path(path: Path) -> str:
    try:
        rel = os.path.relpath(path)
    except ValueError:  # different drive (Windows)
        return path.as_posix()
    return path.as_posix() if rel.startswith("..") else Path(rel).as_posix()


def load_context(path: Path) -> FileContext:
    """Parse one file; raises SyntaxError for unparseable source."""
    resolved = path.resolve()
    source = resolved.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(resolved))
    comments = read_comments(source)
    line_waivers, file_waivers, file_waiver_lines = parse_waivers(comments)
    return FileContext(
        path=resolved,
        display=_display_path(resolved),
        tree=tree,
        comments=comments,
        line_waivers=line_waivers,
        file_waivers=file_waivers,
        file_waiver_lines=file_waiver_lines,
    )


def load_contexts(files: Sequence[Path]) -> tuple[list[FileContext], list[str]]:
    """Parse every file; unparseable ones become error lines."""
    contexts: list[FileContext] = []
    parse_errors: list[str] = []
    for path in files:
        try:
            contexts.append(load_context(path))
        except SyntaxError as error:
            parse_errors.append(
                f"{_display_path(path)}:{error.lineno or 0}: syntax error: {error.msg}"
            )
    return contexts, parse_errors


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, sorted,
    skipping hidden directories and ``__pycache__``."""
    seen: set[Path] = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            if root.suffix == ".py" and root.resolve() not in seen:
                seen.add(root.resolve())
                yield root
        elif root.is_dir():
            for found in sorted(root.rglob("*.py")):
                parts = found.relative_to(root).parts
                if any(p.startswith(".") or p == "__pycache__" for p in parts[:-1]):
                    continue
                if found.resolve() in seen:
                    continue
                seen.add(found.resolve())
                yield found
        else:
            raise FileNotFoundError(f"no such file or directory: {root}")


def run_analysis(
    paths: Sequence[str | Path],
    rule_codes: Optional[Sequence[str]] = None,
    rules: Optional[Sequence] = None,
) -> Report:
    """Run the selected rules (default: all) over the given paths."""
    from repro.analyze.dataflow import Project
    from repro.analyze.rules import select_rules

    # Wall-clock, not simulated: this measures the linter itself, and the
    # durations land in the JSON report for CI trend-watching.
    started = time.perf_counter()

    active = list(rules) if rules is not None else select_rules(rule_codes)

    contexts, parse_errors = load_contexts(list(iter_python_files(paths)))

    project = None
    if any(rule.needs_project for rule in active):
        project = Project(contexts)

    active_codes = {rule.code for rule in active}
    findings: list[Finding] = []
    by_ctx: dict[str, list[Finding]] = {}
    rule_seconds = {rule.code: 0.0 for rule in active}
    for ctx in contexts:
        ctx_findings = by_ctx.setdefault(ctx.posix, [])
        for rule in active:
            if rule.allows(ctx):
                continue
            begin = time.perf_counter()
            for finding in rule.check(ctx, project):
                finding = replace(
                    finding, waived=ctx.is_waived(finding.rule, finding.line)
                )
                findings.append(finding)
                ctx_findings.append(finding)
            rule_seconds[rule.code] += time.perf_counter() - begin
    # Post-pass (stale-waiver detection needs the full finding set).
    for ctx in contexts:
        for rule in active:
            post = getattr(rule, "post_check", None)
            if post is None or rule.allows(ctx):
                continue
            begin = time.perf_counter()
            for finding in post(ctx, by_ctx.get(ctx.posix, []), active_codes):
                findings.append(
                    replace(finding, waived=ctx.is_waived(finding.rule, finding.line))
                )
            rule_seconds[rule.code] += time.perf_counter() - begin
    findings.sort()
    return Report(
        findings=findings,
        parse_errors=parse_errors,
        files_scanned=len(contexts),
        rules=[rule.code for rule in active],
        elapsed_seconds=time.perf_counter() - started,
        rule_seconds=rule_seconds,
    )
