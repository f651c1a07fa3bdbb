"""Approximate project call graph for the reachability-based rules.

DET03 ("iteration order feeds the event path") and MUT01 ("module state
mutated from sweep workers") are properties of *call-site reachability*,
not of single statements, so they need a whole-project view.  This
module builds a deliberately over-approximate call graph:

* ``name()`` calls resolve to same-module functions, then to
  ``from x import name`` targets;
* ``self.m()`` / ``cls.m()`` resolve within the enclosing class — plus
  every override of ``m`` in a (transitive, name-matched) subclass,
  because the receiver may be the subclass (virtual dispatch: the
  TCPSocket event path invoking Subflow hooks is the MPTCP datapath) —
  falling back to any project method named ``m``;
* ``obj.m()`` resolves to an imported module's function when ``obj`` is
  a module alias, otherwise to **every** project method named ``m``;
* a nested function (callback/closure) is treated as called by the
  function that defines it — callbacks installed on sockets and timers
  run from the event loop, so this keeps them inside the taint;
* a lambda assigned to a name is registered as a function under that
  name, so calls to it (and worker fan-out through it) resolve;
* ``name = functools.partial(fn, ...)`` records an alias: calling or
  fanning out ``name`` reaches ``fn``;
* a decorator that is itself a project function gets a call edge to the
  function it decorates (the decorator receives it and may invoke it).

Over-approximation errs toward *more* taint, which is the safe
direction for a determinism linter: a false taint at worst demands a
waiver comment; a false clean bill would let nondeterminism ship.

Two derived sets feed the rules:

* :attr:`Project.schedule_tainted` — functions from which a call into
  the :mod:`repro.sim.engine` scheduling API (a call named in
  :data:`SCHEDULE_CALLBACK_ARG`, or anything defined in
  ``sim/engine.py``) is reachable.  Iteration order inside these
  functions can reorder events or packets.
* :attr:`Project.worker_reachable` — the forward closure from the
  ``ProcessPoolExecutor`` fan-out entry points: ``_execute_point`` and
  every function handed to a ``sweep.add(fn, ...)`` call or a
  ``Point(fn=...)`` construction.  Module-level state mutated here is
  silently lost (or worse, divergent) across worker processes.

The module is also the rules' shared analysis kernel: the one bounded
summary fixpoint (:meth:`Project.fixpoint`, behind DOM01's domain
summaries and CPX01's growth-class summaries), the per-project memo for
derived facts (:meth:`Project.cached`), and the small AST helpers every
rule walks with (:func:`own_nodes`, :func:`callable_ref`,
:func:`container_kind`, the :data:`SCHEDULE_CALLBACK_ARG` table).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.analyze.core import FileContext

# The engine's scheduling API: call name -> index of the callback
# argument.  A call to any of these seeds DET03's schedule taint, and
# the callback it hands over seeds HOT01's event-loop closure.
SCHEDULE_CALLBACK_ARG = {
    "schedule": 1,
    "schedule_at": 1,
    "post": 1,
    "post_at": 1,
    "call_soon": 0,
    "Timer": 1,
    "timer": 0,
}
ENGINE_PATH_SUFFIX = "repro/sim/engine.py"
# Process entry points for worker-reachability analysis: the sweep
# runner's point executor and the shard federation's per-shard worker.
WORKER_ENTRY_NAMES = frozenset({"_execute_point", "_federation_worker_main"})

_KIND_PATTERNS = (
    ("list", re.compile(r"(typing\.)?(List|list|deque|Deque)\b")),
    ("dict", re.compile(r"(typing\.)?(Dict|dict|DefaultDict|defaultdict|Counter|OrderedDict)\b")),
    ("set", re.compile(r"(typing\.)?(Set|set|FrozenSet|frozenset)\b")),
)


def own_nodes(fn: ast.AST, *, lambdas: bool = True) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs or
    classes (those are analysed as functions in their own right), nor
    into lambdas when ``lambdas`` is false (HOT01 and CPX01 measure a
    named lambda under its own function id, not in its definer)."""
    stop: tuple[type, ...] = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    if not lambdas:
        stop += (ast.Lambda,)
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, stop):
            stack.extend(ast.iter_child_nodes(node))


def callable_ref(expr: Optional[ast.expr]) -> Optional[str]:
    """``name`` or ``receiver.name`` for a reference the call graph can
    resolve (:meth:`Project._resolve_ref`); None for anything else."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        return f"{expr.value.id}.{expr.attr}"
    return None


def container_kind(
    value: Optional[ast.expr], annotation: Optional[ast.expr] = None
) -> Optional[str]:
    """``"list"``, ``"dict"`` or ``"set"`` when ``value`` builds that kind
    of container (a display, a comprehension, a constructor call such as
    ``deque()``), else when ``annotation`` names one (``list[int]``,
    ``typing.Set``); None when neither says."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    texts: list[str] = []
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        texts.append(value.func.id)
    if annotation is not None:
        texts.append(ast.unparse(annotation))
    for text in texts:
        for kind, pattern in _KIND_PATTERNS:
            if pattern.match(text):
                return kind
    return None


@dataclass
class FunctionInfo:
    """One function or method, with its outgoing call references."""

    fid: str  # "<posix path>::Qual.Name"
    name: str
    qualname: str
    class_name: Optional[str]
    posix: str
    node: ast.AST
    # (kind, receiver, name): kind in {"name", "self", "attr", "child"}
    calls: list[tuple[str, str, str]] = field(default_factory=list)


class _ModuleIndexer(ast.NodeVisitor):
    def __init__(self, ctx: FileContext, project: "Project"):
        self.ctx = ctx
        self.project = project
        self.class_stack: list[str] = []
        self.func_stack: list[FunctionInfo] = []
        # local alias -> ("module", dotted) | ("object", module, name)
        self.imports: dict[str, tuple] = {}

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.imports[local] = ("module", alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                self.imports[local] = ("object", node.module, alias.name)

    # -- definitions ----------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for base in node.bases:
            name = None
            if isinstance(base, ast.Name):
                name = base.id
            elif isinstance(base, ast.Attribute):
                name = base.attr
            if name is not None:
                self.project.class_bases.setdefault(node.name, set()).add(name)
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _register_function(self, node, name: str, fid_suffix: str = "") -> FunctionInfo:
        """Register ``node`` under ``name`` and visit its body as the
        current function."""
        qual_parts = [info.name for info in self.func_stack]
        if self.class_stack:
            qual_parts = [".".join(self.class_stack)] + qual_parts
        qualname = ".".join(qual_parts + [name]) if qual_parts else name
        info = FunctionInfo(
            fid=f"{self.ctx.posix}::{qualname}{fid_suffix}",
            name=name,
            qualname=qualname,
            class_name=self.class_stack[-1] if self.class_stack else None,
            posix=self.ctx.posix,
            node=node,
        )
        self.project.register(info)
        if self.func_stack:  # closures and callbacks run on behalf of their definer
            self.func_stack[-1].calls.append(("child", "", info.fid))
        self.func_stack.append(info)
        self.generic_visit(node)
        self.func_stack.pop()
        return info

    def _visit_function(self, node) -> None:
        info = self._register_function(node, node.name)
        for decorator in node.decorator_list:
            ref = callable_ref(decorator.func if isinstance(decorator, ast.Call) else decorator)
            if ref is not None:
                # The decorator receives the function and may call it.
                self.project.decorator_refs.append((self.ctx.posix, ref, info.fid))

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- named lambdas and partials -------------------------------------
    def _is_partial(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            target = self.imports.get(func.id)
            return func.id == "partial" or (
                target is not None
                and target[0] == "object"
                and target[1] == "functools"
                and target[2] == "partial"
            )
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "partial"
            and isinstance(func.value, ast.Name)
            and func.value.id == "functools"
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        target = node.targets[0] if len(node.targets) == 1 else None
        if isinstance(node.value, ast.Lambda) and isinstance(target, ast.Name):
            self._register_function(node.value, target.id, f":{node.value.lineno}")
            return
        if self._is_partial(node.value) and isinstance(target, ast.Name):
            value = node.value
            assert isinstance(value, ast.Call)
            if value.args:
                ref = callable_ref(value.args[0])
                if ref is not None:
                    self.project.partial_aliases[(self.ctx.posix, target.id)] = ref
        self.generic_visit(node)

    # -- call collection ------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self.func_stack:
            info = self.func_stack[-1]
            func = node.func
            if isinstance(func, ast.Name):
                info.calls.append(("name", "", func.id))
            elif isinstance(func, ast.Attribute):
                receiver = ""
                if isinstance(func.value, ast.Name):
                    receiver = func.value.id
                elif isinstance(func.value, ast.Attribute):
                    receiver = func.value.attr
                kind = "self" if receiver in ("self", "cls") else "attr"
                info.calls.append((kind, receiver, func.attr))
        self._collect_worker_entry(node)
        self.generic_visit(node)

    def _collect_worker_entry(self, node: ast.Call) -> None:
        """``sweep.add(fn, ...)`` and ``Point(fn=...)`` register worker
        fan-out targets (the functions a pool will execute)."""
        func = node.func
        target: Optional[ast.expr] = None
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("add", "submit")
            and isinstance(func.value, ast.Name)
            and ("sweep" in func.value.id.lower() or "pool" in func.value.id.lower())
            and node.args
        ):
            target = node.args[0]
        elif isinstance(func, ast.Name) and func.id == "Point":
            if node.args:
                target = node.args[0]
            for keyword in node.keywords:
                if keyword.arg == "fn":
                    target = keyword.value
        if target is not None and self._is_partial(target):
            # ``sweep.add(partial(fn, ...))`` fans out to fn.
            assert isinstance(target, ast.Call)
            target = target.args[0] if target.args else None
        ref = callable_ref(target)
        if ref is not None:
            self.project.worker_entry_refs.append((self.ctx.posix, dict(self.imports), ref))


class Project:
    """Cross-file index: functions, call edges, and the two taint sets."""

    def __init__(self, contexts: list[FileContext]):
        self.contexts: list[FileContext] = list(contexts)
        self.functions: dict[str, FunctionInfo] = {}
        self.by_node: dict[int, str] = {}  # id(ast node) -> fid
        self.methods_by_name: dict[str, list[str]] = {}
        self.module_functions: dict[tuple[str, str], str] = {}  # (posix, name) -> fid
        self.module_imports: dict[str, dict[str, tuple]] = {}
        self.module_by_dotted: dict[str, str] = {}  # "repro.sim.engine" -> posix
        self.worker_entry_refs: list[tuple[str, dict, str]] = []
        self.partial_aliases: dict[tuple[str, str], str] = {}  # (posix, name) -> ref
        self.decorator_refs: list[tuple[str, str, str]] = []  # (posix, ref, decorated fid)
        self.class_bases: dict[str, set[str]] = {}  # class name -> base names
        self.by_posix: dict[str, FileContext] = {ctx.posix: ctx for ctx in contexts}
        self._memo: dict = {}

        for ctx in contexts:
            self._register_module_name(ctx)
        for ctx in contexts:
            indexer = _ModuleIndexer(ctx, self)
            indexer.visit(ctx.tree)
            self.module_imports[ctx.posix] = indexer.imports

        self.callees: dict[str, set[str]] = {fid: set() for fid in self.functions}
        self._descendants = self._class_descendants()
        self._resolve_edges()
        self.schedule_tainted = self._backward_closure(self._schedule_seeds())
        self.worker_reachable = self._forward_closure(self._worker_seeds())

    # -- registration ---------------------------------------------------
    def _register_module_name(self, ctx: FileContext) -> None:
        parts = list(ctx.path.parts)
        if "repro" in parts:
            dotted = ".".join(parts[parts.index("repro") : ]).removesuffix(".py")
            dotted = dotted.removesuffix(".__init__")
            self.module_by_dotted[dotted] = ctx.posix

    def register(self, info: FunctionInfo) -> None:
        self.functions[info.fid] = info
        self.by_node[id(info.node)] = info.fid
        if info.class_name is not None:
            self.methods_by_name.setdefault(info.name, []).append(info.fid)
        else:
            self.module_functions.setdefault((info.posix, info.name), info.fid)

    def _class_descendants(self) -> dict[str, set[str]]:
        """Base class name -> every (transitively) derived class name.
        Name-matched across files: over-approximate, which errs toward
        more reachability — the safe direction for every rule here."""
        ancestors: dict[str, set[str]] = {}
        for name in self.class_bases:
            seen: set[str] = set()
            frontier = [name]
            while frontier:
                current = frontier.pop()
                for base in self.class_bases.get(current, ()):
                    if base not in seen:
                        seen.add(base)
                        frontier.append(base)
            ancestors[name] = seen
        descendants: dict[str, set[str]] = {}
        for derived, bases in ancestors.items():
            for base in bases:
                descendants.setdefault(base, set()).add(derived)
        return descendants

    # -- edge resolution ------------------------------------------------
    def _resolve_name(self, posix: str, name: str, _depth: int = 0) -> list[str]:
        local = self.module_functions.get((posix, name))
        if local is not None:
            return [local]
        target = self.module_imports.get(posix, {}).get(name)
        if target is not None and target[0] == "object":
            module_posix = self.module_by_dotted.get(target[1])
            if module_posix is not None:
                imported = self.module_functions.get((module_posix, target[2]))
                if imported is not None:
                    return [imported]
        # ``name = functools.partial(fn, ...)``: follow to fn.
        alias = self.partial_aliases.get((posix, name))
        if alias is not None and _depth < 4:
            return self._resolve_ref(posix, alias, _depth + 1)
        # A class being constructed: treat as calling its __init__.
        if name and name[0].isupper():
            return [
                fid
                for fid in self.methods_by_name.get("__init__", [])
                if self.functions[fid].class_name == name
            ]
        return []

    def _resolve_ref(self, posix: str, ref: str, _depth: int = 0) -> list[str]:
        """Resolve a ``name`` or ``receiver.name`` reference string."""
        if "." not in ref:
            return self._resolve_name(posix, ref, _depth)
        receiver, name = ref.split(".", 1)
        if receiver in ("self", "cls"):
            return list(self.methods_by_name.get(name, []))
        target = self.module_imports.get(posix, {}).get(receiver)
        if target is not None and target[0] == "module":
            module_posix = self.module_by_dotted.get(target[1])
            if module_posix is not None:
                fid = self.module_functions.get((module_posix, name))
                if fid is not None:
                    return [fid]
        return list(self.methods_by_name.get(name, []))

    def _resolve_edges(self) -> None:
        for fid, info in self.functions.items():
            for kind, receiver, name in info.calls:
                if kind == "child":
                    self.callees[fid].add(name)
                elif kind == "name":
                    self.callees[fid].update(self._resolve_name(info.posix, name))
                elif kind == "self":
                    same_class = [
                        mid
                        for mid in self.methods_by_name.get(name, [])
                        if self.functions[mid].class_name == info.class_name
                        and self.functions[mid].posix == info.posix
                    ]
                    if same_class:
                        # Virtual dispatch: the receiver may be any
                        # subclass, so overrides of a self-called method
                        # are reachable too.
                        below = self._descendants.get(info.class_name or "", set())
                        overrides = [
                            mid
                            for mid in self.methods_by_name.get(name, [])
                            if self.functions[mid].class_name in below
                        ]
                        self.callees[fid].update(same_class + overrides)
                    else:
                        self.callees[fid].update(self.methods_by_name.get(name, []))
                else:  # generic attribute call
                    self.callees[fid].update(self._resolve_ref(info.posix, f"{receiver}.{name}"))
        # A project-function decorator receives — and may call — the
        # function it decorates.
        for posix, ref, decorated_fid in self.decorator_refs:
            for deco_fid in self._resolve_ref(posix, ref):
                self.callees.setdefault(deco_fid, set()).add(decorated_fid)

    # -- taint seeds ----------------------------------------------------
    def _schedule_seeds(self) -> set[str]:
        seeds: set[str] = set()
        for fid, info in self.functions.items():
            if info.posix.endswith(ENGINE_PATH_SUFFIX):
                seeds.add(fid)
                continue
            for kind, _receiver, name in info.calls:
                if kind in ("attr", "self", "name") and name in SCHEDULE_CALLBACK_ARG:
                    seeds.add(fid)
                    break
        return seeds

    def _worker_seeds(self) -> set[str]:
        seeds = {
            fid
            for fid, info in self.functions.items()
            if info.name in WORKER_ENTRY_NAMES
        }
        for posix, imports, ref in self.worker_entry_refs:
            if "." in ref:
                receiver, name = ref.split(".", 1)
                target = imports.get(receiver)
                if target is not None and target[0] == "module":
                    module_posix = self.module_by_dotted.get(target[1])
                    if module_posix is not None:
                        fid = self.module_functions.get((module_posix, name))
                        if fid is not None:
                            seeds.add(fid)
            else:
                seeds.update(self._resolve_name(posix, ref))
        return seeds

    # -- closures -------------------------------------------------------
    def _forward_closure(
        self, seeds: set[str], keep: Optional[Callable[[str], bool]] = None
    ) -> set[str]:
        """Everything reachable from ``seeds``.  A callee whose file path
        ``keep`` rejects is neither added nor expanded, so the walk stops
        at the boundary instead of filtering afterwards."""
        reached = set(seeds)
        frontier = list(seeds)
        while frontier:
            fid = frontier.pop()
            for callee in self.callees.get(fid, ()):
                if callee not in reached and (keep is None or keep(self.functions[callee].posix)):
                    reached.add(callee)
                    frontier.append(callee)
        return reached

    def _backward_closure(self, seeds: set[str]) -> set[str]:
        callers: dict[str, set[str]] = {fid: set() for fid in self.functions}
        for fid, callees in self.callees.items():
            for callee in callees:
                callers.setdefault(callee, set()).add(fid)
        reached = set(seeds)
        frontier = list(seeds)
        while frontier:
            fid = frontier.pop()
            for caller in callers.get(fid, ()):
                if caller not in reached:
                    reached.add(caller)
                    frontier.append(caller)
        return reached

    # -- derived facts --------------------------------------------------
    def cached(self, key, build: Callable[[], object]):
        """``build()``, computed once per project under ``key``: the
        rules' closures and summary tables are derived from the whole
        project, then queried once per checked file."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def fixpoint(self, facts: dict, infer: Callable[[str], object], rounds: int = 3) -> dict:
        """Complete a per-function summary table in place and return it.

        ``facts`` holds the declared summaries (fid -> fact), which stay
        fixed.  Every other function, in sorted fid order, gets
        ``infer(fid)`` — typically read off its ``return`` expressions —
        which may consult ``facts``, so a summary inferred earlier in a
        round already feeds its callers.  None means "not known yet".
        Rounds repeat until one adds nothing, at most ``rounds`` times:
        call chains up to that depth resolve, recursion cannot loop."""
        for _ in range(rounds):
            changed = False
            for fid in sorted(self.functions):
                if fid not in facts:
                    fact = infer(fid)
                    if fact is not None:
                        facts[fid] = fact
                        changed = True
            if not changed:
                break
        return facts

    # -- rule-facing queries --------------------------------------------
    def fid_of(self, node: ast.AST) -> Optional[str]:
        return self.by_node.get(id(node))
