"""Rule engine: file walking, waiver parsing, finding collection.

A :class:`Finding` is one rule violation at one source location.  The
engine parses every file once, extracts waiver comments with
:mod:`tokenize` (so a ``#`` inside a string literal cannot waive
anything), builds the cross-file :class:`~repro.analyze.callgraph.Project`
index only when a selected rule needs it, and returns a :class:`Report`
whose finding order is fully deterministic (sorted by path, line,
column, rule) — the linter obeys its own contract.
"""

from __future__ import annotations

import ast
import io
import os
import re
import subprocess
import time
import tokenize
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

# The parse pool follows the sweep runner's ``REPRO_WORKERS`` rules.
from repro.experiments.runner import default_workers

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
    """One parsed source file plus its waiver comments."""

    path: Path  # resolved absolute path
    display: str  # the path findings print (relative when possible)
    source: str
    tree: ast.Module
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


@dataclass
class Report:
    """Everything one analysis run produced."""

    findings: list[Finding]
    parse_errors: list[str]
    files_scanned: int
    rules: list[str]
    elapsed_seconds: float = 0.0
    # Wall time spent inside each rule's check and post-pass.  The
    # shared parse and call-graph build are in elapsed_seconds only.
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

    def budget_line(self) -> str:
        """One-line ``# analyze: budget`` summary (live/waived per rule)."""
        parts = [
            f"{rule}={entry['live']}/{entry['waived']}"
            for rule, entry in sorted(self.budget().items())
        ]
        return "# analyze: budget " + " ".join(parts)

    def as_dict(self) -> dict:
        return {
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "rule_seconds": {code: round(t, 4) for code, t in self.rule_seconds.items()},
            "rules": self.rules,
            "parse_errors": list(self.parse_errors),
            "budget": self.budget(),
            "budget_line": self.budget_line(),
            "findings": [f.as_dict() for f in self.findings if not f.waived],
            "waived": [f.as_dict() for f in self.findings if f.waived],
        }


def parse_waivers(
    source: str,
) -> tuple[dict[int, set[str]], set[str], dict[str, int]]:
    """Map line -> waived rule codes, the file-wide waiver set, and the
    line each file-wide waiver first appears on (for staleness reports)."""
    comments: list[tuple[int, str]]
    try:
        comments = [
            (tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unterminated constructs etc.: fall back to a plain line scan.
        comments = [
            (number, line)
            for number, line in enumerate(source.splitlines(), start=1)
            if "#" in line
        ]
    line_waivers: dict[int, set[str]] = {}
    file_waivers: set[str] = set()
    file_waiver_lines: dict[str, int] = {}
    for lineno, text in comments:
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
    line_waivers, file_waivers, file_waiver_lines = parse_waivers(source)
    return FileContext(
        path=resolved,
        display=_display_path(resolved),
        source=source,
        tree=tree,
        line_waivers=line_waivers,
        file_waivers=file_waivers,
        file_waiver_lines=file_waiver_lines,
    )


def _load_for_pool(path_str: str):
    """Worker-side loader: returns (context, error_line) with exactly one
    of the two set.  Module-level so ProcessPoolExecutor can pickle it."""
    path = Path(path_str)
    try:
        return load_context(path), None
    except SyntaxError as error:
        return None, (
            f"{_display_path(path)}:{error.lineno or 0}: syntax error: {error.msg}"
        )


# Forking a pool costs more than parsing a handful of files.
_PARALLEL_THRESHOLD = 16


def _load_contexts(
    files: list[Path], workers: Optional[int] = None
) -> tuple[list[FileContext], list[str]]:
    count = default_workers() if workers is None else max(1, workers)
    contexts: list[FileContext] = []
    parse_errors: list[str] = []
    if count > 1 and len(files) >= _PARALLEL_THRESHOLD:
        try:
            with ProcessPoolExecutor(max_workers=count) as pool:
                chunk = max(1, len(files) // (count * 4))
                results = list(
                    pool.map(_load_for_pool, [str(p) for p in files], chunksize=chunk)
                )
            for ctx, error in results:
                if ctx is not None:
                    contexts.append(ctx)
                else:
                    parse_errors.append(error)
            return contexts, parse_errors
        except (OSError, PermissionError):
            contexts, parse_errors = [], []  # no fork on this platform: serial
    for path in files:
        ctx, error = _load_for_pool(str(path))
        if ctx is not None:
            contexts.append(ctx)
        else:
            parse_errors.append(error)
    return contexts, parse_errors


def git_changed_files(cwd: Optional[str] = None) -> Optional[set[Path]]:
    """Python files with uncommitted changes (staged, unstaged, or
    untracked) per ``git status``; None when git is unavailable."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            check=True,
            cwd=cwd,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    root_proc = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    root = Path(root_proc.stdout.strip() or ".")
    changed: set[Path] = set()
    for line in proc.stdout.splitlines():
        if len(line) < 4:
            continue
        entry = line[3:]
        if " -> " in entry:  # rename: the new name is what exists now
            entry = entry.split(" -> ", 1)[1]
        entry = entry.strip().strip('"')
        path = root / entry
        if path.suffix == ".py" and path.exists():
            changed.add(path.resolve())
    return changed


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
    changed_only: bool = False,
    workers: Optional[int] = None,
) -> Report:
    """Run the selected rules (default: all) over the given paths.

    ``changed_only`` keeps only files git reports as modified or
    untracked (full scan when git is unavailable).  ``workers`` caps the
    parse pool (default: the REPRO_WORKERS convention).
    """
    from repro.analyze.callgraph import Project
    from repro.analyze.rules import select_rules

    # Wall-clock, not simulated: this measures the linter itself, and the
    # durations land in the JSON report for CI trend-watching.
    started = time.perf_counter()

    active = list(rules) if rules is not None else select_rules(rule_codes)

    files = list(iter_python_files(paths))
    partial_scan = False
    if changed_only:
        changed = git_changed_files()
        if changed is not None:
            files = [path for path in files if path.resolve() in changed]
            partial_scan = True
    contexts, parse_errors = _load_contexts(files, workers=workers)

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
            if partial_scan and getattr(rule, "full_scan_only", False):
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
