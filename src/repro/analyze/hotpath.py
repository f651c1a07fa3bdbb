"""HOT01 — ratcheted allocation lint for the ``Simulator.run`` closure.

The flyweight work (timer wheel, preparsed options) bought a 2.06x
hot-loop win by eliminating per-event object churn; nothing stops a
later patch from quietly reintroducing it.  This
pass computes the call-graph closure of the simulator's inner loop and
counts *allocation sites* per function inside it:

* comprehensions (list/set/dict/generator) — allocate a scope object
  and a result container per evaluation;
* ``lambda`` expressions — allocate a function object per evaluation;
* f-strings (``JoinedStr``) — build strings;
* ``dict``/``list``/``set`` display literals and ``dict()``/``list()``/
  ``set()`` calls — container churn;
* ``len(x.payload)`` — enters the ``Segment.payload`` property frame
  per hop where the cached ``payload_len`` attribute is free.

The hot closure is seeded from ``Simulator.run`` itself plus every
*callback reference* handed to the scheduling API (``schedule``,
``schedule_at``, ``post``, ``post_at``, ``call_soon``, and ``Timer``
constructions, direct or through ``sim.timer``): whatever the event
loop will invoke is hot, and the forward closure over the PR-4 call
graph extends that to everything it calls.

Counts are compared against a committed per-function budget
(``src/repro/analyze/hot_budget.json``, keyed by the repo-relative
function id).  A function over budget yields one finding per allocation
site, so fixes can be line-targeted.  The budget is a ratchet:
``python -m repro.analyze --budget`` fails CI when the committed file
has slack (budget above measured) or dead entries, so the budget can only
track the hot path downward — the analyzer fails when code allocates
*more*, the ratchet fails when the budget pretends it allocates more
than it does.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Iterator, Optional

from repro.analyze.core import FileContext, Finding

BUDGET_FILENAME = "hot_budget.json"
DEFAULT_BUDGET_PATH = Path(__file__).resolve().parent / BUDGET_FILENAME

SCHEDULE_CALLBACK_ARG = {
    "schedule": 1,
    "schedule_at": 1,
    "post": 1,
    "post_at": 1,
    "call_soon": 0,
    "Timer": 1,
    "timer": 0,
}

_CONTAINER_CALLS = frozenset({"list", "dict", "set"})

# The closure is confined to the runtime datapath: the call graph's
# attribute fan-out (obj.run() resolves to every method named run)
# would otherwise drag the offline harness — the analyzer itself, the
# experiment runners, the fuzzer — into the "hot" set, none of which
# executes per simulated event.
HOT_PACKAGE_TOKENS = (
    "/repro/sim/",
    "/repro/net/",
    "/repro/tcp/",
    "/repro/mptcp/",
    "/repro/middlebox/",
    "/repro/stats/",
    "/repro/apps/",
)


def _in_hot_scope(posix: str) -> bool:
    if "/repro/" not in posix:
        return True  # fixtures and out-of-tree files keep full coverage
    return any(token in posix for token in HOT_PACKAGE_TOKENS)


def budget_key(fid: str) -> str:
    """Stable, machine-independent budget key for a function id."""
    path, _, qual = fid.partition("::")
    marker = path.find("/repro/")
    rel = path[marker + 1 :] if marker != -1 else path.rsplit("/", 1)[-1]
    return f"{rel}::{qual}"


def load_budget(path: Optional[Path] = None) -> dict[str, int]:
    budget_path = DEFAULT_BUDGET_PATH if path is None else path
    try:
        raw = json.loads(budget_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return {str(key): int(value) for key, value in raw.items()}


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Body without nested defs/lambdas: a named lambda is measured under
    its own registered function id, not double-counted in its definer."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _allocation_sites(fn: ast.AST) -> list[tuple[ast.AST, str]]:
    sites: list[tuple[ast.AST, str]] = []
    for node in _own_nodes(fn):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            sites.append((node, "comprehension"))
        elif isinstance(node, ast.Lambda):
            sites.append((node, "lambda"))
        elif isinstance(node, ast.JoinedStr):
            sites.append((node, "f-string"))
        elif isinstance(node, ast.Dict):
            sites.append((node, "dict literal"))
        elif isinstance(node, ast.List):
            sites.append((node, "list literal"))
        elif isinstance(node, ast.Set):
            sites.append((node, "set literal"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _CONTAINER_CALLS:
                sites.append((node, f"{node.func.id}() call"))
            elif (
                node.func.id == "len"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Attribute)
                and node.args[0].attr == "payload"
            ):
                sites.append((node, "len(payload) — read payload_len"))
    sites.sort(key=lambda pair: (getattr(pair[0], "lineno", 0), pair[1]))
    return sites


def _callback_ref(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        return f"{expr.value.id}.{expr.attr}"
    return None


def _seed_fids(project) -> set[str]:
    seeds: set[str] = set()
    for fid, info in project.functions.items():
        if info.name == "run" and info.class_name == "Simulator":
            seeds.add(fid)
    for ctx in project.contexts:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            index = SCHEDULE_CALLBACK_ARG.get(name or "")
            if index is None or index >= len(node.args):
                continue
            ref = _callback_ref(node.args[index])
            if ref is None:
                continue
            seeds.update(project._resolve_ref(ctx.posix, ref))
    return seeds


def closure(project) -> set[str]:
    cached = getattr(project, "_hot01_closure", None)
    if cached is None:
        cached = {
            fid
            for fid in project._forward_closure(_seed_fids(project))
            if _in_hot_scope(project.functions[fid].posix)
        }
        project._hot01_closure = cached
    return cached


def measure(project) -> dict[str, int]:
    """Allocation-site counts per hot function (budget-file shape)."""
    counts: dict[str, int] = {}
    for fid in closure(project):
        info = project.functions[fid]
        sites = _allocation_sites(info.node)
        if sites:
            key = budget_key(fid)
            counts[key] = max(counts.get(key, 0), len(sites))
    return counts


def check_file(rule, ctx: FileContext, project) -> Iterator[Finding]:
    if project is None:
        return
    hot = closure(project)
    budget = rule.budget
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        fid = project.fid_of(node)
        if fid is None or fid not in hot:
            continue
        sites = _allocation_sites(node)
        if not sites:
            continue
        key = budget_key(fid)
        allowed = budget.get(key, 0)
        if len(sites) <= allowed:
            continue
        label = getattr(node, "name", "<lambda>")
        for site, kind in sites:
            yield rule.finding(
                ctx,
                site,
                f"{kind} in hot-path function '{label}' — "
                f"{len(sites)} allocation site(s) against a budget of "
                f"{allowed} ({key}); eliminate the allocation or raise the "
                "committed budget with the ratchet rationale",
            )
