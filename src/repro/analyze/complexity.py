"""CPX01 — growth-class complexity lint for the event-loop closure.

HOT01 counts *allocations* per event; this pass counts *asymptotics*.
ROADMAP item 5 pushes the server side toward 10^6 connections and the
federation drives 10^6-path studies, and at those scales one O(n) scan
per segment is the difference between the paper's figures and a hung
run — the ns-3 MPTCP models hit exactly that wall, capping simulated
scale on per-packet linear bookkeeping long before memory ran out.

Every stateful collection is tagged with a **growth class** describing
what its size is proportional to:

* ``CONNECTIONS`` — one entry per connection (``Host._connections``,
  the token table): 10^3 today, 10^6 by the roadmap;
* ``SUBFLOWS``    — per-subflow/address state (``_announcements``);
* ``MAPPINGS``    — DSS-mapping bookkeeping (``_rx_mappings``,
  ``reinject_queue``, the scheduler's ``inflight``);
* ``SEGMENTS``    — per-outstanding-segment state (``_rtx_queue``,
  the federation's boundary-message capture);
* ``BOUNDED``     — size is a small constant by construction; never
  flagged.

Tags come from three sources, in priority order: a ``# grows: <class>``
comment on the assignment line (the grammar mirrors PR 5's
``# domain:``; on a ``def`` line, ``# grows: return=<class>`` — or a
bare class — declares the return value), the seed table below, and
propagation — through simple assignments (``sims = self.sims``) and
through call-graph return summaries iterated to a bounded fixpoint.

Inside the scan scope — the HOT01 ``Simulator.run`` closure plus the
federation worker closure, confined to the runtime datapath packages —
the pass flags the classic O(n) idioms:

* ``for``/comprehension sweeps over a collection tagged with an
  unbounded class (sweeps over *untagged* state are allowed: iterating
  a segment's option list is how parsing works);
* ``in``-membership on list-typed state (dict/set membership is O(1)
  and exempt);
* ``pop(0)`` / ``insert(0, ...)`` — O(n) element shifting;
* ``sort()`` / ``sorted(...)`` over state;
* ``min()`` / ``max()`` / ``sum()`` whole-collection reductions;
* ``remove()`` / ``index()`` / ``count()`` linear searches.

List-typed state with *no* tag is treated conservatively: the
aggregation/mutation idioms above still flag it as "undeclared growth"
(declare ``# grows: bounded`` or a real class — the safe direction for
a scale linter is a false demand for a declaration, not a false clean
bill).

Counts are compared against a committed per-function budget
(``src/repro/analyze/complexity_budget.json``, same key shape as the
HOT01 budget).  A function over budget yields one finding per scan
site.  Sites on waived lines always yield (so WVR01 sees the waiver
live) but are excluded from the budget count and from ``measure()`` —
``python -m repro.analyze --budget`` ratchets the committed file
against the measured counts, so the budget can only track the scan
count downward.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Iterator, Optional

from repro.analyze.core import FileContext, Finding
from repro.analyze.hotpath import _in_hot_scope, _own_nodes, budget_key
from repro.analyze.hotpath import closure as hot_closure

BUDGET_FILENAME = "complexity_budget.json"
DEFAULT_BUDGET_PATH = Path(__file__).resolve().parent / BUDGET_FILENAME

GROWTH_CLASSES = ("CONNECTIONS", "SUBFLOWS", "MAPPINGS", "SEGMENTS", "BOUNDED")
BOUNDED = "BOUNDED"

# ``# grows: segments`` / ``# grows: return=mappings, peers=connections``
GROWS_COMMENT_RE = re.compile(r"#\s*grows:\s*(?P<spec>[A-Za-z0-9_=,\s]+)")

# Attribute-name seed table: (growth class, container kind).  Kind
# decides which idioms apply — dict membership is O(1), list membership
# is a scan.
SEED_ATTRS: dict[str, tuple[str, str]] = {
    "_connections": ("CONNECTIONS", "dict"),  # net/node.py demux table
    "_rtx_queue": ("SEGMENTS", "list"),  # tcp/socket.py retransmit queue
    "reinject_queue": ("MAPPINGS", "list"),  # mptcp/scheduler.py
    "_rx_mappings": ("MAPPINGS", "list"),  # mptcp/subflow.py DSS table
    "_announcements": ("SUBFLOWS", "list"),  # mptcp/connection.py
    "_capture": ("SEGMENTS", "list"),  # sim/shard.py boundary messages
}

_LIST_CALLS = frozenset({"list", "deque"})
_DICT_CALLS = frozenset({"dict", "defaultdict", "OrderedDict", "Counter"})
_SET_CALLS = frozenset({"set", "frozenset"})
_REDUCERS = frozenset({"min", "max", "sum", "sorted"})
_SEARCHERS = frozenset({"remove", "index", "count"})
_ITER_WRAPPERS = frozenset({"list", "tuple", "enumerate", "reversed", "sorted"})
_SUMMARY_ROUNDS = 3


def load_budget(path: Optional[Path] = None) -> dict[str, int]:
    budget_path = DEFAULT_BUDGET_PATH if path is None else path
    try:
        raw = json.loads(budget_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return {str(key): int(value) for key, value in raw.items()}


def _parse_spec(spec: str) -> dict[str, str]:
    """``"segments"`` -> {"": "SEGMENTS"}; ``"return=mappings, q=bounded"``
    -> {"return": "MAPPINGS", "q": "BOUNDED"}.  Unknown classes are
    dropped (the grammar is advisory; a typo must not crash the lint)."""
    result: dict[str, str] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            name, _, cls = part.partition("=")
            name = name.strip()
        else:
            name, cls = "", part
        cls = cls.strip().upper()
        if cls in GROWTH_CLASSES:
            result[name] = cls
    return result


def grows_comments(source: str) -> dict[int, dict[str, str]]:
    """Line number -> parsed ``# grows:`` spec for one file."""
    specs: dict[int, dict[str, str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = GROWS_COMMENT_RE.search(line)
        if match:
            parsed = _parse_spec(match.group("spec"))
            if parsed:
                specs[lineno] = parsed
    return specs


def _kind_of_value(value: Optional[ast.expr]) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        name = value.func.id
        if name in _LIST_CALLS:
            return "list"
        if name in _DICT_CALLS:
            return "dict"
        if name in _SET_CALLS:
            return "set"
    return None


def _kind_of_annotation(annotation: Optional[ast.expr]) -> Optional[str]:
    if annotation is None:
        return None
    text = ast.unparse(annotation)
    if re.match(r"(typing\.)?(List|list|deque|Deque)\b", text):
        return "list"
    if re.match(r"(typing\.)?(Dict|dict|DefaultDict|defaultdict|Counter|OrderedDict)\b", text):
        return "dict"
    if re.match(r"(typing\.)?(Set|set|FrozenSet|frozenset)\b", text):
        return "set"
    return None


class _Facts:
    """Project-wide growth facts: attribute tags/kinds, per-function
    local environments, and call-return summaries at fixpoint."""

    def __init__(self, project):
        self.project = project
        self.grows_by_file: dict[str, dict[int, dict[str, str]]] = {
            ctx.posix: grows_comments(ctx.source) for ctx in project.contexts
        }
        self.attr_class: dict[str, str] = {
            name: cls for name, (cls, _kind) in SEED_ATTRS.items()
        }
        self.attr_kind: dict[str, str] = {
            name: kind for name, (_cls, kind) in SEED_ATTRS.items()
        }
        self._collect_attrs()
        # fid -> declared/inferred return class; fid -> local name maps.
        self.summaries: dict[str, str] = {}
        self.local_class: dict[str, dict[str, str]] = {}
        self.local_kind: dict[str, dict[str, str]] = {}
        self._collect_declared_summaries()
        for _ in range(_SUMMARY_ROUNDS):
            if not self._propagate_round():
                break

    # -- attribute tags -------------------------------------------------
    def _collect_attrs(self) -> None:
        for ctx in self.project.contexts:
            specs = self.grows_by_file.get(ctx.posix, {})
            for node in ast.walk(ctx.tree):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = node.value
                kind = _kind_of_value(value)
                if kind is None and isinstance(node, ast.AnnAssign):
                    kind = _kind_of_annotation(node.annotation)
                spec = specs.get(node.lineno, {})
                declared = spec.get("")
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in ("self", "cls")
                    ):
                        continue
                    named = spec.get(target.attr, declared)
                    if named is not None:
                        self.attr_class.setdefault(target.attr, named)
                    if kind is not None:
                        self.attr_kind.setdefault(target.attr, kind)

    # -- call-return summaries ------------------------------------------
    def _collect_declared_summaries(self) -> None:
        for fid, info in self.project.functions.items():
            node = info.node
            if isinstance(node, ast.Lambda):
                continue
            spec = self.grows_by_file.get(info.posix, {}).get(node.lineno, {})
            declared = spec.get("return", spec.get(""))
            if declared is not None:
                self.summaries[fid] = declared
            # ``def f(self, peers):  # grows: peers=connections``
            params = {
                name: cls for name, cls in spec.items() if name not in ("", "return")
            }
            if params:
                self.local_class.setdefault(fid, {}).update(params)

    def _propagate_round(self) -> bool:
        changed = False
        for fid, info in self.project.functions.items():
            env_class = dict(self.local_class.get(fid, {}))
            env_kind = dict(self.local_kind.get(fid, {}))
            specs = self.grows_by_file.get(info.posix, {})
            # Two passes so chained local assignments settle in order-
            # independent fashion (a = self._rtx_queue; b = a).
            for _ in range(2):
                for node in _own_nodes(info.node):
                    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                        continue
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    value = node.value
                    spec = specs.get(node.lineno, {})
                    cls = spec.get("") or self._class_of(value, info.posix, env_class)
                    kind = _kind_of_value(value) or self._kind_of(value, env_kind)
                    if kind is None and isinstance(node, ast.AnnAssign):
                        kind = _kind_of_annotation(node.annotation)
                    for target in targets:
                        if not isinstance(target, ast.Name):
                            continue
                        named = spec.get(target.id, cls)
                        if named is not None and env_class.get(target.id) != named:
                            env_class[target.id] = named
                        if kind is not None and env_kind.get(target.id) != kind:
                            env_kind[target.id] = kind
            if env_class != self.local_class.get(fid, {}):
                self.local_class[fid] = env_class
                changed = True
            if env_kind != self.local_kind.get(fid, {}):
                self.local_kind[fid] = env_kind
                changed = True
            if fid not in self.summaries:
                inferred = self._infer_return(info, env_class)
                if inferred is not None:
                    self.summaries[fid] = inferred
                    changed = True
        return changed

    def _infer_return(self, info, env_class: dict[str, str]) -> Optional[str]:
        for node in _own_nodes(info.node):
            if isinstance(node, ast.Return) and node.value is not None:
                cls = self._class_of(node.value, info.posix, env_class)
                if cls is not None:
                    return cls
        return None

    # -- expression queries ---------------------------------------------
    def _class_of(
        self, expr: Optional[ast.expr], posix: str, env_class: dict[str, str]
    ) -> Optional[str]:
        if expr is None:
            return None
        if isinstance(expr, ast.Name):
            return env_class.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return self.attr_class.get(expr.attr)
        if isinstance(expr, ast.Call):
            ref = None
            if isinstance(expr.func, ast.Name):
                ref = expr.func.id
            elif isinstance(expr.func, ast.Attribute):
                if isinstance(expr.func.value, ast.Name):
                    ref = f"{expr.func.value.id}.{expr.func.attr}"
                else:
                    ref = expr.func.attr
            if ref is not None:
                for fid in self.project._resolve_ref(posix, ref):
                    cls = self.summaries.get(fid)
                    if cls is not None:
                        return cls
        return None

    def _kind_of(
        self, expr: Optional[ast.expr], env_kind: dict[str, str]
    ) -> Optional[str]:
        if expr is None:
            return None
        if isinstance(expr, ast.Name):
            return env_kind.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return self.attr_kind.get(expr.attr)
        return _kind_of_value(expr)

    def class_for(self, expr: ast.expr, fid: str, posix: str) -> Optional[str]:
        return self._class_of(expr, posix, self.local_class.get(fid, {}))

    def kind_for(self, expr: ast.expr, fid: str) -> Optional[str]:
        return self._kind_of(expr, self.local_kind.get(fid, {}))

    def _describe(self, expr: ast.expr) -> str:
        if isinstance(expr, ast.Name):
            return f"'{expr.id}'"
        if isinstance(expr, ast.Attribute):
            return f"'.{expr.attr}'"
        return "collection"


def _facts(project) -> _Facts:
    cached = getattr(project, "_cpx01_facts", None)
    if cached is None:
        cached = _Facts(project)
        project._cpx01_facts = cached
    return cached


def scope(project) -> set[str]:
    """The scan scope: the HOT01 event-loop closure plus the federation
    worker closure, confined to the runtime datapath packages."""
    cached = getattr(project, "_cpx01_scope", None)
    if cached is None:
        cached = set(hot_closure(project)) | {
            fid
            for fid in project.worker_reachable
            if _in_hot_scope(project.functions[fid].posix)
        }
        project._cpx01_scope = cached
    return cached


def _iter_sources(node: ast.AST) -> list[ast.expr]:
    """Expressions a ``for``/comprehension sweep actually walks,
    unwrapping list()/enumerate()/sorted()-style shims."""
    sources: list[ast.expr] = []
    if isinstance(node, ast.For):
        sources.append(node.iter)
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        sources.extend(gen.iter for gen in node.generators)
    unwrapped: list[ast.expr] = []
    for source in sources:
        while True:
            if (
                isinstance(source, ast.Call)
                and isinstance(source.func, ast.Name)
                and source.func.id in _ITER_WRAPPERS
                and source.args
            ):
                source = source.args[0]
                continue
            if (
                isinstance(source, ast.Call)
                and isinstance(source.func, ast.Attribute)
                and source.func.attr in ("values", "items", "keys")
                and not source.args
            ):
                source = source.func.value
                continue
            break
        unwrapped.append(source)
    return unwrapped


def _scan_sites(facts: _Facts, fid: str) -> list[tuple[ast.AST, str]]:
    """(node, message core) per O(n) idiom in one function."""
    info = facts.project.functions[fid]
    posix = info.posix
    sites: list[tuple[ast.AST, str]] = []

    def tagged(expr: ast.expr) -> Optional[str]:
        cls = facts.class_for(expr, fid, posix)
        return None if cls in (None, BOUNDED) else cls

    def unknown_list(expr: ast.expr) -> bool:
        if facts.class_for(expr, fid, posix) is not None:
            return False  # tagged (incl. BOUNDED): handled by class rules
        return facts.kind_for(expr, fid) == "list"

    def flag(node: ast.AST, idiom: str, expr: ast.expr, cls: Optional[str]) -> None:
        what = facts._describe(expr)
        if cls is not None:
            sites.append((node, f"{idiom} over {cls}-class state {what}"))
        else:
            sites.append(
                (
                    node,
                    f"{idiom} over list-typed state {what} of undeclared "
                    "growth — declare '# grows: bounded' (or a real class)",
                )
            )

    for node in _own_nodes(info.node):
        if isinstance(node, (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for source in _iter_sources(node):
                cls = tagged(source)
                if cls is not None:
                    flag(node, "O(n) sweep", source, cls)
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            for operand in node.comparators:
                cls = tagged(operand)
                if cls is not None and facts.kind_for(operand, fid) not in ("dict", "set"):
                    flag(node, "linear membership test", operand, cls)
                elif unknown_list(operand):
                    flag(node, "linear membership test", operand, None)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            attr = node.func.attr
            idiom = None
            if attr == "pop" and node.args and _is_zero(node.args[0]):
                idiom = "pop(0) — O(n) shift; use collections.deque.popleft()"
            elif attr == "insert" and node.args and _is_zero(node.args[0]):
                idiom = "insert(0, ...) — O(n) shift; use deque.appendleft()"
            elif attr == "sort":
                idiom = "sort()"
            elif attr in _SEARCHERS:
                idiom = f"linear .{attr}()"
            if idiom is None:
                continue
            cls = tagged(receiver)
            if cls is not None:
                flag(node, idiom, receiver, cls)
            elif unknown_list(receiver):
                flag(node, idiom, receiver, None)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name not in _REDUCERS or not node.args:
                continue
            arg = node.args[0]
            if isinstance(arg, ast.GeneratorExp):
                # A genexp over *tagged* state is already a sweep site.
                for source in _iter_sources(arg):
                    if tagged(source) is None and unknown_list(source):
                        flag(node, f"{name}() reduction", source, None)
                continue
            cls = tagged(arg)
            if cls is not None:
                flag(node, f"{name}() reduction", arg, cls)
            elif unknown_list(arg):
                flag(node, f"{name}() reduction", arg, None)
    sites.sort(key=lambda pair: (getattr(pair[0], "lineno", 0), pair[1]))
    return sites


def _is_zero(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Constant) and expr.value == 0


def _context_by_posix(project) -> dict[str, FileContext]:
    cached = getattr(project, "_cpx01_ctx_index", None)
    if cached is None:
        cached = {ctx.posix: ctx for ctx in project.contexts}
        project._cpx01_ctx_index = cached
    return cached


def measure(project, rule_code: str = "CPX01") -> dict[str, int]:
    """Unwaived scan-site counts per in-scope function (budget shape)."""
    facts = _facts(project)
    contexts = _context_by_posix(project)
    counts: dict[str, int] = {}
    for fid in scope(project):
        info = project.functions[fid]
        ctx = contexts.get(info.posix)
        sites = _scan_sites(facts, fid)
        if ctx is not None:
            sites = [
                pair
                for pair in sites
                if not ctx.is_waived(rule_code, getattr(pair[0], "lineno", 0))
            ]
        if sites:
            key = budget_key(fid)
            counts[key] = max(counts.get(key, 0), len(sites))
    return counts


def check_file(rule, ctx: FileContext, project) -> Iterator[Finding]:
    if project is None:
        return
    facts = _facts(project)
    in_scope = scope(project)
    budget = rule.budget
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        fid = project.fid_of(node)
        if fid is None or fid not in in_scope:
            continue
        sites = _scan_sites(facts, fid)
        if not sites:
            continue
        waived = [
            pair
            for pair in sites
            if ctx.is_waived(rule.code, getattr(pair[0], "lineno", 0))
        ]
        countable = [pair for pair in sites if pair not in waived]
        key = budget_key(fid)
        allowed = budget.get(key, 0)
        label = getattr(node, "name", "<lambda>")
        # Waived sites always yield (the engine marks them waived), so
        # WVR01 sees each waiver suppress a real finding.
        emit = list(waived)
        if len(countable) > allowed:
            emit.extend(countable)
        emit.sort(key=lambda pair: (getattr(pair[0], "lineno", 0), pair[1]))
        for site, message in emit:
            yield rule.finding(
                ctx,
                site,
                f"{message} in hot-path function '{label}' — "
                f"{len(countable)} scan site(s) against a budget of "
                f"{allowed} ({key}); index the access, declare the growth "
                "class, or raise the committed budget with the ratchet "
                "rationale",
            )
