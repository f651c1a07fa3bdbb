"""CPX01 — growth-class complexity lint for the event-loop closure.

HOT01 counts *allocations* per event; this pass counts *asymptotics*.
The scale study drives 10^6-path studies, and at that scale one O(n)
scan per segment is the difference between the paper's figures and a
hung run — the ns-3 MPTCP models hit exactly that wall, capping
simulated scale on per-packet linear bookkeeping long before memory ran
out.

Every stateful collection is tagged with a **growth class** describing
what its size is proportional to:

* ``CONNECTIONS`` — one entry per connection (``Host._connections``,
  the token table);
* ``SUBFLOWS``    — per-subflow/address state (``_announcements``);
* ``MAPPINGS``    — DSS-mapping bookkeeping (``_rx_mappings``,
  ``reinject_queue``, the scheduler's ``inflight``);
* ``SEGMENTS``    — per-outstanding-segment state (``_rtx_queue``);
* ``BOUNDED``     — size is a small constant by construction; never
  flagged.

Tags come from three sources, in priority order: a ``# grows: <class>``
comment on the assignment line (the grammar of DOM01's ``# domain:``;
on a ``def`` line, ``# grows: return=<class>`` — or a bare class —
declares the return value), the seed table below, and propagation —
through simple assignments (``sims = self.sims``) and through
call-graph return summaries iterated to the project's bounded
fixpoint.

Inside the scan scope — the HOT01 ``Simulator.run`` closure plus the
sweep-worker closure, confined to the runtime datapath packages —
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
(``src/repro/analyze/complexity_budget.json``) by
:class:`~repro.analyze.rules.BudgetRule`, the engine HOT01 shares.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analyze.callgraph import callable_ref, container_kind, own_nodes
from repro.analyze.hotpath import in_hot_scope
from repro.analyze.hotpath import closure as hot_closure

GROWTH_CLASSES = ("CONNECTIONS", "SUBFLOWS", "MAPPINGS", "SEGMENTS", "BOUNDED")
BOUNDED = "BOUNDED"
_CLASS_NAMES = {cls.lower(): cls for cls in GROWTH_CLASSES}

# Attribute-name seed table: (growth class, container kind).  Kind
# decides which idioms apply — dict membership is O(1), list membership
# is a scan.
SEED_ATTRS: dict[str, tuple[str, str]] = {
    "_connections": ("CONNECTIONS", "dict"),  # net/node.py demux table
    "_rtx_queue": ("SEGMENTS", "list"),  # tcp/socket.py retransmit queue
    "reinject_queue": ("MAPPINGS", "list"),  # mptcp/scheduler.py
    "_rx_mappings": ("MAPPINGS", "list"),  # mptcp/subflow.py DSS table
    "_announcements": ("SUBFLOWS", "list"),  # mptcp/connection.py
}

_REDUCERS = frozenset({"min", "max", "sum", "sorted"})
_SEARCHERS = frozenset({"remove", "index", "count"})
_ITER_WRAPPERS = frozenset({"list", "tuple", "enumerate", "reversed", "sorted"})


class _Facts:
    """Project-wide growth facts: attribute tags/kinds, call-return
    summaries at the project fixpoint, and per-function local
    environments."""

    def __init__(self, project):
        self.project = project
        self.grows_by_file: dict[str, dict[int, dict[str, str]]] = {
            ctx.posix: ctx.tag_specs("grows", _CLASS_NAMES) for ctx in project.contexts
        }
        self.attr_class: dict[str, str] = {
            name: cls for name, (cls, _kind) in SEED_ATTRS.items()
        }
        self.attr_kind: dict[str, str] = {
            name: kind for name, (_cls, kind) in SEED_ATTRS.items()
        }
        self._collect_attrs()
        # ``def f(self, peers):  # grows: peers=connections`` seeds the
        # parameter; ``# grows: return=mappings`` declares the summary.
        self.params: dict[str, dict[str, str]] = {}
        declared: dict[str, str] = {}
        for fid, info in project.functions.items():
            if isinstance(info.node, ast.Lambda):
                continue
            spec = self.grows_by_file.get(info.posix, {}).get(info.node.lineno, {})
            returns = spec.get("return", spec.get(""))
            if returns is not None:
                declared[fid] = returns
            params = {name: cls for name, cls in spec.items() if name not in ("", "return")}
            if params:
                self.params[fid] = params
        self.summaries = declared  # the fixpoint completes it in place
        project.fixpoint(self.summaries, self._infer_return)
        # Query-time environments read the final summaries.
        self._envs: dict[str, tuple[dict[str, str], dict[str, str]]] = {}

    # -- attribute tags -------------------------------------------------
    def _collect_attrs(self) -> None:
        for ctx in self.project.contexts:
            specs = self.grows_by_file.get(ctx.posix, {})
            for node in ast.walk(ctx.tree):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                kind = container_kind(node.value, getattr(node, "annotation", None))
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

    # -- local environments and return summaries ------------------------
    def _local_env(self, fid: str) -> tuple[dict[str, str], dict[str, str]]:
        """Local name -> growth class and -> container kind for one
        function, from its declared parameters and its assignments
        (walked twice so chained assignments settle in order-independent
        fashion: ``a = self._rtx_queue; b = a``)."""
        info = self.project.functions[fid]
        env_class = dict(self.params.get(fid, {}))
        env_kind: dict[str, str] = {}
        specs = self.grows_by_file.get(info.posix, {})
        for _ in range(2):
            for node in own_nodes(info.node, lambdas=False):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = node.value
                spec = specs.get(node.lineno, {})
                cls = spec.get("") or self._class_of(value, info.posix, env_class)
                kind = self._kind_of(value, env_kind) or container_kind(
                    None, getattr(node, "annotation", None)
                )
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    named = spec.get(target.id, cls)
                    if named is not None:
                        env_class[target.id] = named
                    if kind is not None:
                        env_kind[target.id] = kind
        return env_class, env_kind

    def _env(self, fid: str) -> tuple[dict[str, str], dict[str, str]]:
        if fid not in self._envs:
            self._envs[fid] = self._local_env(fid)
        return self._envs[fid]

    def _infer_return(self, fid: str) -> Optional[str]:
        """The class of the first ``return`` expression that has one."""
        env_class = self._local_env(fid)[0]
        info = self.project.functions[fid]
        for node in own_nodes(info.node, lambdas=False):
            if isinstance(node, ast.Return) and node.value is not None:
                cls = self._class_of(node.value, info.posix, env_class)
                if cls is not None:
                    return cls
        return None

    # -- expression queries ---------------------------------------------
    def _class_of(
        self, expr: Optional[ast.expr], posix: str, env_class: dict[str, str]
    ) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return env_class.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return self.attr_class.get(expr.attr)
        if isinstance(expr, ast.Call):
            ref = callable_ref(expr.func)
            if ref is None and isinstance(expr.func, ast.Attribute):
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
        if isinstance(expr, ast.Name):
            return env_kind.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return self.attr_kind.get(expr.attr)
        return container_kind(expr)

    def class_for(self, expr: ast.expr, fid: str, posix: str) -> Optional[str]:
        return self._class_of(expr, posix, self._env(fid)[0])

    def kind_for(self, expr: ast.expr, fid: str) -> Optional[str]:
        return self._kind_of(expr, self._env(fid)[1])

    def _describe(self, expr: ast.expr) -> str:
        if isinstance(expr, ast.Name):
            return f"'{expr.id}'"
        if isinstance(expr, ast.Attribute):
            return f"'.{expr.attr}'"
        return "collection"


def _facts(project) -> _Facts:
    return project.cached("cpx-facts", lambda: _Facts(project))


def scope(project) -> set[str]:
    """The scan scope: the HOT01 event-loop closure plus the sweep-
    worker closure, confined to the runtime datapath packages."""

    def build() -> set[str]:
        workers = {
            fid for fid in project.worker_reachable if in_hot_scope(project.functions[fid].posix)
        }
        return hot_closure(project) | workers

    return project.cached("cpx-scope", build)


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


def scan_sites(project, fid: str) -> list[tuple[ast.AST, str]]:
    """(node, message core) per O(n) idiom in one function."""
    facts = _facts(project)
    info = project.functions[fid]
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

    for node in own_nodes(info.node, lambdas=False):
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
