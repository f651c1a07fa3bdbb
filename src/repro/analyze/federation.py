"""FED01 — static lookahead-safety for the conservative-parallel cuts.

PR 7's process-per-shard federation is conservative-parallel in the
Chandy–Misra–Bryant sense: a barrier window of width W is only safe to
execute without inter-shard synchronisation because every cross-shard
message is guaranteed to arrive at least the cut's propagation delay
(the *lookahead*) in the future.  ``ShardGroup.add_cut`` enforces
``delay > 0`` at runtime — but only on the runs that actually take that
path, and only after the sharded run has been built.  This pass proves
the contract statically, before a run exists:

* **Cut lookahead.**  An ``add_cut(...)`` call whose delay argument is
  a non-positive constant is a finding: zero lookahead collapses the
  barrier window to nothing and deadlocks (or, worse, silently
  reorders) the windowed driver.
* **Zero-delay delivery paths.**  Within the forward call-graph closure
  of boundary delivery — methods of ``*Boundary*`` classes plus the
  window entry points (``inject``, ``run_worker_window``,
  ``_federation_worker_main``) — a relative ``schedule``/``post`` call
  with a constant non-positive delay, or any ``call_soon``, schedules
  work at the *current* instant from a cut message: events that the
  merged reference execution would interleave with the other shard's
  same-timestamp events, and that the windowed execution cannot.
  Confined to the sharding layer (``repro/sim/`` minus the core engine,
  whose internal ``call_soon`` plumbing predates and underpins the
  contract).
* **Wire-codec enforcement.**  Barrier-window messages must flow
  through the sanctioned codec (``Segment.to_wire`` /
  ``segment_from_wire``): appending a segment-ish object to a
  capture/outbox/inbox container, or passing one to a channel
  ``send``/``put``, ships live object graphs (callbacks, socket
  references) across the process boundary where they detach from the
  parent's state.  The check is name-based: any segment-named value
  stored or sent there from the boundary closure is a finding.
* **Cross-window mutable state.**  A ``shard_safe = True`` path element
  whose ``__init__`` installs a mutable container (list/dict/set/deque)
  is carrying state across barrier windows; under the merged driver the
  two shards' traffic interleaves through it, under the forked driver
  each worker gets a divergent copy.  Declared ``shard_stats`` counters
  are the sanctioned exception (reporting merges them).  Complements
  SHD01, which flags *writes* outside ``__init__`` but not the
  container installed inside it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.analyze.core import FileContext, Finding
from repro.analyze.shardsafety import (
    BOUNDARY_SENDERS,
    _class_flag,
    _constant_bool,
    _is_channel,
    _shard_stats,
)

# Window entry points: functions that deliver cut messages into a shard.
WINDOW_ENTRY_NAMES = frozenset(
    {"inject", "run_worker_window", "_federation_worker_main"}
)
# Relative scheduling API (delay is args[0]); *_at variants take absolute
# timestamps a static pass cannot judge.
RELATIVE_SCHEDULERS = frozenset({"schedule", "post"})
# Containers that carry barrier-window messages, by name convention
# (sim/shard.py: _capture/outbound; sim/federation.py: inboxes/outbound).
MESSAGE_CONTAINER_TOKENS = ("capture", "outbox", "outbound", "inbox", "messages")
_APPENDERS = frozenset({"append", "appendleft", "extend"})

SEGMENT_NAME_RE = re.compile(r"(?:^|_)seg(?:ment)?s?(?:$|_)")

MUTABLE_CONTAINER_CALLS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter"}
)


def _in_fed_scope(posix: str) -> bool:
    if "/repro/" not in posix:
        return True  # fixtures keep full coverage
    if posix.endswith("repro/sim/engine.py"):
        return False
    return "/repro/sim/" in posix


def _constant_number(expr: ast.expr) -> Optional[float]:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, (int, float)):
        if not isinstance(expr.value, bool):
            return float(expr.value)
    if (
        isinstance(expr, ast.UnaryOp)
        and isinstance(expr.op, ast.USub)
        and isinstance(expr.operand, ast.Constant)
        and isinstance(expr.operand.value, (int, float))
    ):
        return -float(expr.operand.value)
    return None


def _delivery_closure(project) -> set[str]:
    """Forward closure from boundary delivery and window entry points."""
    cached = getattr(project, "_fed01_closure", None)
    if cached is None:
        seeds = {
            fid
            for fid, info in project.functions.items()
            if (info.class_name is not None and "Boundary" in info.class_name)
            or info.name in WINDOW_ENTRY_NAMES
        }
        cached = project._forward_closure(seeds)
        project._fed01_closure = cached
    return cached


def _segment_ish(name: str) -> bool:
    return bool(SEGMENT_NAME_RE.search(name.lower()))


def _unwired_segment(expr: ast.expr) -> Optional[str]:
    """A segment-ish identifier inside ``expr`` that is *not* consumed by
    a ``.to_wire()`` call; None when every segment reference is coded."""
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute) and func.attr == "to_wire":
            return None  # sanctioned codec: don't descend
        for child in ast.iter_child_nodes(expr):
            found = _unwired_segment(child)
            if found is not None:
                return found
        return None
    if isinstance(expr, ast.Name):
        return expr.id if _segment_ish(expr.id) else None
    if isinstance(expr, ast.Attribute):
        if _segment_ish(expr.attr):
            return expr.attr
        return _unwired_segment(expr.value)
    for child in ast.iter_child_nodes(expr):
        found = _unwired_segment(child)
        if found is not None:
            return found
    return None


def _container_name(expr: ast.expr) -> Optional[str]:
    name = None
    if isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Attribute):
        name = expr.attr
    if name is None:
        return None
    lowered = name.lower()
    if any(token in lowered for token in MESSAGE_CONTAINER_TOKENS):
        return name
    return None


def check_file(rule, ctx: FileContext, project) -> Iterator[Finding]:
    yield from _check_cut_delays(rule, ctx)
    yield from _check_mutable_shard_state(rule, ctx)
    if project is None:
        return
    closure = _delivery_closure(project)
    for fn in ast.walk(ctx.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        fid = project.fid_of(fn)
        if fid is None or fid not in closure:
            continue
        if _in_fed_scope(ctx.posix):
            yield from _check_zero_delay(rule, ctx, fn)
        yield from _check_wire_codec(rule, ctx, fn)


def _check_cut_delays(rule, ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_cut"
        ):
            continue
        delay: Optional[ast.expr] = None
        if len(node.args) >= 4:
            delay = node.args[3]
        for keyword in node.keywords:
            if keyword.arg == "delay":
                delay = keyword.value
        if delay is None:
            continue
        value = _constant_number(delay)
        if value is not None and value <= 0:
            yield rule.finding(
                ctx,
                node,
                f"add_cut with non-positive delay {value:g} — the cut delay "
                "is the conservative-parallel lookahead; a zero-lookahead "
                "cut collapses the barrier window (ShardingError at run "
                "time, proven here statically)",
            )


def _check_zero_delay(rule, ctx: FileContext, fn: ast.AST) -> Iterator[Finding]:
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        if name == "call_soon":
            yield rule.finding(
                ctx,
                node,
                "call_soon reachable from cut-message delivery — schedules "
                "at the current instant, below the cut lookahead; carry the "
                "cut delay on the event instead",
            )
        elif name in RELATIVE_SCHEDULERS and node.args:
            value = _constant_number(node.args[0])
            if value is not None and value <= 0:
                yield rule.finding(
                    ctx,
                    node,
                    f"{name}() with non-positive delay {value:g} reachable "
                    "from cut-message delivery — every schedule on a "
                    "cross-shard path must carry delay >= the cut lookahead",
                )


def _check_wire_codec(rule, ctx: FileContext, fn: ast.AST) -> Iterator[Finding]:
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        receiver = node.func.value
        if attr in _APPENDERS:
            container = _container_name(receiver)
            if container is None:
                continue
            for arg in node.args:
                offender = _unwired_segment(arg)
                if offender is not None:
                    yield rule.finding(
                        ctx,
                        node,
                        f"segment object '{offender}' appended to barrier-"
                        f"window container '{container}' — cross-shard "
                        "messages must carry wire bytes (segment.to_wire() "
                        "/ segment_from_wire), not live objects",
                    )
                    break
        elif attr in BOUNDARY_SENDERS and _is_channel(receiver):
            for arg in node.args:
                offender = _unwired_segment(arg)
                if offender is not None:
                    yield rule.finding(
                        ctx,
                        node,
                        f"segment object '{offender}' sent over a shard "
                        "channel — forked workers must exchange wire bytes "
                        "(segment.to_wire() / segment_from_wire)",
                    )
                    break


def _check_mutable_shard_state(rule, ctx: FileContext) -> Iterator[Finding]:
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        declared = _class_flag(cls, "shard_safe")
        if declared is None or _constant_bool(declared) is not True:
            continue
        stats = _shard_stats(cls)
        init = next(
            (
                node
                for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__"
            ),
            None,
        )
        if init is None:
            continue
        for node in ast.walk(init):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if value is None or not _is_mutable_container(value):
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if target.attr in stats or target.attr == "shard_stats":
                    continue
                yield rule.finding(
                    ctx,
                    node,
                    f"shard_safe class {cls.name} installs mutable container "
                    f"'self.{target.attr}' in __init__ — state carried "
                    "across barrier windows diverges between the merged and "
                    "forked drivers; make the element stateless or declare "
                    "a merged counter in shard_stats",
                )


def _is_mutable_container(value: ast.expr) -> bool:
    if isinstance(
        value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in MUTABLE_CONTAINER_CALLS
    )
