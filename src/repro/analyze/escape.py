"""POOL01 — pooled-Segment escape/lifetime analysis.

PR 6 made ``Segment`` a flyweight: ``Segment.acquire()`` reuses a
released shell, and ``Host.deliver`` returns delivered pure-ACK shells
to the pool under a refcount-equality guard (``network.recycle_segments``
mode).  The pool contract (net/packet.py) is *owner-asserted*: a release
is only sound when no other reference to the shell can exist, because a
recycled shell is rewritten in place by the next ``acquire``.  That
contract lives in comments and a CPython-specific ``getrefcount`` check;
this pass enforces it statically, so a retention bug cannot hide behind
a runtime that happens not to recycle (``_getrefcount is None``) or a
configuration that happens not to opt in.

The analysis is an interprocedural value-flow fixpoint over the PR-4
call graph:

* **Sources.**  The result of ``Segment.acquire(...)``, the result of
  any function that *returns* a pooled value (propagated to fixpoint,
  so ``segment_from_wire`` — which acquires internally — is a source),
  and the segment parameters of the delivery/pipeline entry points
  (``segment_arrives``, ``deliver``, ``process``): every segment those
  receive is in flight and pool-eligible.
* **Propagation.**  Plain aliases (``s2 = segment``) stay pooled.
  Passing a pooled value as a call argument marks the corresponding
  parameter of every resolvable callee pooled (positional mapping,
  ``self`` skipped), so an escape two calls away from the acquire site
  is still found in the function that commits it.
* **Blessed boundaries.**  ``segment.copy()`` and ``segment.to_wire()``
  produce independent values — a call's result is pooled only when the
  callee is pooled-returning, and an attribute *read* off a pooled
  segment (``segment.payload``, ``segment.options``) extracts a
  component that survives release, so neither taints.

Flagged escape shapes — each one parks a pooled reference somewhere
that outlives the delivery call, which is exactly what the recycle
point cannot see:

* attribute stores: ``self.last = segment`` (including pooled values
  inside tuple/list/dict displays);
* subscript stores into object state: ``self._held[key] = (segment, ...)``;
* mutator calls on object state: ``self.log.append(segment)``;
* closure captures: a nested ``def``/``lambda`` that reads a pooled
  name of its definer.

Passing a pooled segment to ``sim.schedule``/``post`` is *not* flagged:
the in-flight handoff through the event heap is sanctioned (the heap
tuple's argument slot is part of the refcount baseline the recycle
guard measures against).

Two ownership checks ride along, independent of value flow:
``.release()`` calls outside the pool owners (net/packet.py and the
automated site in net/node.py), and direct ``Segment._pool`` pokes
outside net/packet.py.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analyze.core import FileContext, Finding

# Methods whose segment-named parameter receives in-flight, pool-eligible
# segments even before any interprocedural propagation: the delivery
# sink, the host entry, and the path-element pipeline hook.
POOLED_ENTRY_METHODS = frozenset({"segment_arrives", "deliver", "process"})
POOLED_PARAM_NAMES = frozenset({"segment"})

# Calls producing values that are independent of the pooled shell.
BLESSED_PRODUCERS = frozenset({"copy", "to_wire"})

# Files allowed to call .release() (packet.py defines it, node.py holds
# the one automated release site).
RELEASE_OWNER_SUFFIXES = ("repro/net/packet.py", "repro/net/node.py")
POOL_OWNER_SUFFIXES = ("repro/net/packet.py",)

# Container mutators (mirrors MUT01): pooled arguments entering one of
# these on object state escape the call.
MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "push",
        "appendleft",
        "extendleft",
    }
)

_PROPAGATION_ROUNDS = 12


def _is_acquire(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "acquire"
        and isinstance(func.value, ast.Name)
        and func.value.id in ("Segment", "cls")
    )


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Function body without nested defs (analysed in their own right)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _value_parts(expr: ast.expr) -> Iterator[ast.AST]:
    """Sub-expressions whose pooledness taints ``expr``.

    Does not descend into calls (a call's result is pooled only if the
    call itself is pooled-producing; its arguments are the callee's
    problem) or attribute reads (``segment.payload`` extracts a
    component that survives release, not the shell).
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.Call, ast.Attribute, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class _Summary:
    """Project-wide pooled value-flow facts, built once per Project."""

    project: object
    pooled_params: dict[str, set[int]] = field(default_factory=dict)
    returns_pooled: set[str] = field(default_factory=set)
    # fid -> names bound to pooled values inside that function
    pooled_names: dict[str, set[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._seed()
        for _ in range(_PROPAGATION_ROUNDS):
            if not self._propagate_once():
                break
        # Final per-function name sets for the flag pass.
        for fid, info in self.project.functions.items():
            self.pooled_names[fid] = self._local_pooled(fid, info)

    # -- seeding --------------------------------------------------------
    def _seed(self) -> None:
        for fid, info in self.project.functions.items():
            node = info.node
            if isinstance(node, ast.Lambda):
                continue
            if info.name in POOLED_ENTRY_METHODS:
                for index, arg in enumerate(node.args.args):
                    if arg.arg in POOLED_PARAM_NAMES:
                        self.pooled_params.setdefault(fid, set()).add(index)

    # -- per-function inference -----------------------------------------
    def _call_is_pooled(self, posix: str, call: ast.Call) -> bool:
        if _is_acquire(call):
            return True
        for callee in self._callees_with_offset(posix, call):
            if callee[0] in self.returns_pooled:
                return True
        return False

    def _expr_is_pooled(self, posix: str, expr: ast.expr, pooled: set[str]) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in pooled
        if isinstance(expr, ast.Call):
            return self._call_is_pooled(posix, expr)
        return False

    def expr_taints(
        self, posix: str, expr: ast.expr, pooled: set[str]
    ) -> Optional[ast.AST]:
        """The first pooled sub-expression of ``expr``, if any."""
        for part in _value_parts(expr):
            if isinstance(part, ast.Name) and part.id in pooled:
                return part
            if isinstance(part, ast.Call) and self._call_is_pooled(posix, part):
                return part
        return None

    def _local_pooled(self, fid: str, info) -> set[str]:
        node = info.node
        pooled: set[str] = set()
        if not isinstance(node, ast.Lambda):
            params = node.args.args
            for index in self.pooled_params.get(fid, ()):
                if index < len(params):
                    pooled.add(params[index].arg)
        assigns = [
            sub
            for sub in _own_nodes(node)
            if isinstance(sub, ast.Assign)
            and len(sub.targets) == 1
            and isinstance(sub.targets[0], ast.Name)
        ]
        # Source order; once pooled a name stays pooled (over-approximate,
        # which errs toward flagging — the safe direction for a lifetime
        # check).  Two passes resolve forward references between locals.
        for _ in range(2):
            before = len(pooled)
            for sub in sorted(assigns, key=lambda a: a.lineno):
                if self._expr_is_pooled(info.posix, sub.value, pooled):
                    pooled.add(sub.targets[0].id)  # type: ignore[union-attr]
            if len(pooled) == before:
                break
        return pooled

    # -- interprocedural propagation ------------------------------------
    def _callees_with_offset(
        self, posix: str, call: ast.Call
    ) -> list[tuple[str, int]]:
        """(callee fid, positional offset of the first call argument)."""
        project = self.project
        func = call.func
        out: list[tuple[str, int]] = []
        if isinstance(func, ast.Name):
            fids = project._resolve_name(posix, func.id)
            if not fids:
                # Private-class construction (_Held(...)): the callgraph's
                # constructor heuristic requires an uppercase first char.
                stripped = func.id.lstrip("_")
                if stripped[:1].isupper():
                    fids = [
                        fid
                        for fid in project.methods_by_name.get("__init__", [])
                        if project.functions[fid].class_name == func.id
                    ]
            for fid in fids:
                info = project.functions[fid]
                # Constructors resolve to __init__: args land after self.
                offset = 1 if info.name == "__init__" else 0
                out.append((fid, offset))
        elif isinstance(func, ast.Attribute):
            name = func.attr
            if isinstance(func.value, ast.Name) and func.value.id not in ("self", "cls"):
                target = project.module_imports.get(posix, {}).get(func.value.id)
                if target is not None and target[0] == "module":
                    module_posix = project.module_by_dotted.get(target[1])
                    if module_posix is not None:
                        fid = project.module_functions.get((module_posix, name))
                        if fid is not None:
                            return [(fid, 0)]
            # Bound-method call on anything else: every project method of
            # that name (the callgraph's own over-approximation).
            for fid in project.methods_by_name.get(name, []):
                out.append((fid, 1))
        return out

    def _propagate_once(self) -> bool:
        changed = False
        for fid, info in self.project.functions.items():
            node = info.node
            pooled = self._local_pooled(fid, info)
            if isinstance(node, ast.Lambda):
                continue
            for sub in _own_nodes(node):
                if isinstance(sub, ast.Return) and sub.value is not None:
                    if self._expr_is_pooled(info.posix, sub.value, pooled):
                        if fid not in self.returns_pooled:
                            self.returns_pooled.add(fid)
                            changed = True
                if not isinstance(sub, ast.Call):
                    continue
                pooled_positions = [
                    index
                    for index, arg in enumerate(sub.args)
                    if self._expr_is_pooled(info.posix, arg, pooled)
                ]
                if not pooled_positions:
                    continue
                for callee_fid, offset in self._callees_with_offset(info.posix, sub):
                    callee_node = self.project.functions[callee_fid].node
                    if isinstance(callee_node, ast.Lambda):
                        continue
                    params = callee_node.args.args
                    marks = self.pooled_params.setdefault(callee_fid, set())
                    for position in pooled_positions:
                        target = position + offset
                        if target < len(params) and target not in marks:
                            marks.add(target)
                            changed = True
        return changed


def summary(project) -> Optional[_Summary]:
    if project is None:
        return None
    cached = getattr(project, "_pool01_summary", None)
    if cached is None or cached.project is not project:
        cached = _Summary(project)
        project._pool01_summary = cached
    return cached


def _root_is_state(expr: ast.expr) -> bool:
    """True when the expression chain is rooted in object state (contains
    an attribute access) rather than a plain local name."""
    return any(isinstance(sub, ast.Attribute) for sub in ast.walk(expr))


def check_file(rule, ctx: FileContext, project) -> Iterator[Finding]:
    facts = summary(project)
    if facts is None:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        fid = project.fid_of(node)
        if fid is None:
            continue
        pooled = facts.pooled_names.get(fid, set())
        yield from _check_function(rule, ctx, facts, node, pooled)
    yield from _check_pool_access(rule, ctx)


def _check_function(rule, ctx, facts, fn, pooled) -> Iterator[Finding]:
    posix = ctx.posix
    for node in _own_nodes(fn):
        # Attribute stores: self.x = segment / entry.segment = segment,
        # including pooled values inside displays.
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if value is None:
                continue
            taint = facts.expr_taints(posix, value, pooled)
            if taint is None:
                continue
            for target in targets:
                if isinstance(target, ast.Attribute):
                    yield rule.finding(
                        ctx,
                        node,
                        f"pooled Segment stored on attribute "
                        f"'{ast.unparse(target)}' — the reference can outlive "
                        "the recycle point; store segment.copy() or to_wire() "
                        "bytes, or waive with the lifetime rationale",
                    )
                elif isinstance(target, ast.Subscript) and _root_is_state(
                    target.value
                ):
                    yield rule.finding(
                        ctx,
                        node,
                        f"pooled Segment stored into container "
                        f"'{ast.unparse(target.value)}' — the reference can "
                        "outlive the recycle point; store segment.copy() or "
                        "to_wire() bytes, or waive with the lifetime rationale",
                    )
        # Mutator calls parking a pooled value on object state, and
        # release() calls outside the pool owners.
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATORS
                and _root_is_state(func.value)
            ):
                for arg in node.args:
                    if facts.expr_taints(posix, arg, pooled) is not None:
                        yield rule.finding(
                            ctx,
                            node,
                            f"pooled Segment passed to "
                            f"'{ast.unparse(func.value)}.{func.attr}(...)' — "
                            "retention on object state can outlive the "
                            "recycle point; store a copy or waive with the "
                            "lifetime rationale",
                        )
                        break
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "release"
                and isinstance(func.value, ast.Name)
                and func.value.id in pooled
                and not any(
                    posix.endswith(s) for s in RELEASE_OWNER_SUFFIXES
                )
            ):
                yield rule.finding(
                    ctx,
                    node,
                    f"'{func.value.id}.release()' outside the pool owners — "
                    "release is owner-asserted (net/packet.py contract); "
                    "only the automated delivery site may recycle",
                )
        # Closure capture: a nested def/lambda reading a pooled name runs
        # later (timer/callback) against a possibly-recycled shell.
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner_params = {a.arg for a in node.args.args}
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and sub.id in pooled
                    and sub.id not in inner_params
                ):
                    label = getattr(node, "name", "<lambda>")
                    yield rule.finding(
                        ctx,
                        node,
                        f"closure '{label}' captures pooled Segment "
                        f"'{sub.id}' — deferred execution can observe a "
                        "recycled shell; capture a copy or waive with the "
                        "lifetime rationale",
                    )
                    break


def _check_pool_access(rule, ctx: FileContext) -> Iterator[Finding]:
    if any(ctx.posix.endswith(s) for s in POOL_OWNER_SUFFIXES):
        return
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "_pool"
            and isinstance(node.value, ast.Name)
            and node.value.id == "Segment"
        ):
            yield rule.finding(
                ctx,
                node,
                "direct Segment._pool access outside the pool "
                "owners — the free list is private to the flyweight",
            )
