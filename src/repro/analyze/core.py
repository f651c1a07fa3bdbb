"""Rule engine: file walking, parsing, finding collection.

A :class:`Finding` is one rule violation at one source location.  The
engine parses every file once, runs each selected rule over each file
its ``allow`` tuple does not exempt, and returns a :class:`Report`
whose finding order is fully deterministic (sorted by path, line,
column, rule) — the linter obeys its own contract.  There is no inline
waiver: a comment excuses nothing, and a rule's allow list is the only
exemption.
"""

from __future__ import annotations

import ast
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class FileContext:
    """One parsed source file."""

    path: Path  # resolved absolute path
    display: str  # the path findings print (relative when possible)
    tree: ast.Module

    @property
    def posix(self) -> str:
        return self.path.as_posix()


@dataclass
class Report:
    """Everything one analysis run produced."""

    findings: list[Finding]
    parse_errors: list[str]
    files_scanned: int
    rules: list[str]
    elapsed_seconds: float = 0.0
    # Wall time spent inside each rule's check.  The shared parse is in
    # elapsed_seconds only.
    rule_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def as_dict(self) -> dict:
        return {
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "rule_seconds": {code: round(t, 4) for code, t in self.rule_seconds.items()},
            "rules": self.rules,
            "parse_errors": list(self.parse_errors),
            "findings": [f.as_dict() for f in self.findings],
        }


def _display_path(path: Path) -> str:
    try:
        rel = os.path.relpath(path)
    except ValueError:  # different drive (Windows)
        return path.as_posix()
    return path.as_posix() if rel.startswith("..") else Path(rel).as_posix()


def load_context(path: Path) -> FileContext:
    """Parse one file; raises SyntaxError for unparseable source."""
    resolved = path.resolve()
    tree = ast.parse(resolved.read_text(encoding="utf-8"), filename=str(resolved))
    return FileContext(path=resolved, display=_display_path(resolved), tree=tree)


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
    from repro.analyze.rules import select_rules

    # Wall-clock, not simulated: this measures the linter itself, and the
    # durations land in the JSON report for CI trend-watching.
    started = time.perf_counter()

    active = list(rules) if rules is not None else select_rules(rule_codes)

    contexts, parse_errors = load_contexts(list(iter_python_files(paths)))

    findings: list[Finding] = []
    rule_seconds = {rule.code: 0.0 for rule in active}
    for ctx in contexts:
        for rule in active:
            if rule.allows(ctx):
                continue
            begin = time.perf_counter()
            findings.extend(rule.check(ctx))
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
