"""The rule set: DET01/DET02/DET03 (determinism), SEQ01 (wrap safety),
EXC01 (silent failure), MUT01 (worker-process state), DOM01 (SSN/DSN
sequence-domain dataflow), FSM01 (one writer per state machine),
SHD01 (shard purity), HOT01 (hot-path allocation budget), CPX01
(growth-class complexity budget), FED01 (federation lookahead safety),
WVR01 (stale waivers).

Each rule is a small class with a ``code``, a human ``title``, a
``rationale`` shown by ``--list-rules``, an ``allow`` tuple of path
suffixes that are exempt by design (the module whose *job* is to own
the exception; an entry ending in ``/`` exempts a whole package), and
a ``check`` generator yielding
:class:`~repro.analyze.core.Finding` objects.  Waivers are applied by
the engine, not here.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Sequence

from repro.analyze.core import FileContext, Finding

# ---------------------------------------------------------------------------
# Base class
# ---------------------------------------------------------------------------
class Rule:
    code: str = ""
    title: str = ""
    rationale: str = ""
    allow: tuple[str, ...] = ()
    needs_project: bool = False

    def allows(self, ctx: FileContext) -> bool:
        # An entry ending in "/" exempts a whole package directory.
        path = ctx.posix
        return any(
            f"/{entry}" in path if entry.endswith("/") else path.endswith(entry)
            for entry in self.allow
        )

    def check(self, ctx: FileContext, project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.display,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=self.code,
            message=message,
        )


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs (those
    are analysed as functions in their own right)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _functions(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ---------------------------------------------------------------------------
# DET01 — entropy sources
# ---------------------------------------------------------------------------
class Det01Entropy(Rule):
    code = "DET01"
    title = "no ambient entropy outside sim/rng.py"
    rationale = (
        "random/uuid/secrets/os.urandom make a run a function of more than "
        "its seed; every stochastic draw must come through "
        "repro.sim.rng.SeededRNG so replay stays byte-identical."
    )
    allow = ("repro/sim/rng.py",)

    BANNED_MODULES = ("random", "uuid", "secrets")

    def check(self, ctx: FileContext, project) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self.BANNED_MODULES:
                        yield self.finding(
                            ctx,
                            node,
                            f"import of '{alias.name}' — draw entropy through "
                            "repro.sim.rng.SeededRNG instead",
                        )
                    elif alias.name == "numpy.random":
                        yield self.finding(
                            ctx, node, "import of 'numpy.random' — use SeededRNG"
                        )
            elif isinstance(node, ast.ImportFrom):
                module_root = (node.module or "").split(".")[0]
                if module_root in self.BANNED_MODULES:
                    yield self.finding(
                        ctx,
                        node,
                        f"import from '{node.module}' — draw entropy through "
                        "repro.sim.rng.SeededRNG instead",
                    )
                elif node.module == "os":
                    for alias in node.names:
                        if alias.name == "urandom":
                            yield self.finding(
                                ctx, node, "import of 'os.urandom' — use SeededRNG"
                            )
            elif isinstance(node, ast.Attribute):
                if node.attr == "urandom" and isinstance(node.value, ast.Name):
                    if node.value.id == "os":
                        yield self.finding(
                            ctx, node, "'os.urandom' — use SeededRNG.getrandbits"
                        )


# ---------------------------------------------------------------------------
# DET02 — wall-clock reads
# ---------------------------------------------------------------------------
class Det02WallClock(Rule):
    code = "DET02"
    title = "no wall-clock reads inside the simulation"
    rationale = (
        "Simulated time is Simulator.now; time.time()/perf_counter()/"
        "datetime.now() readings differ between runs and hosts, so any that "
        "leak into results break replay.  Wall-clock *display* lives in "
        "experiments/run_all.py; the CPU cost model in stats/cpu.py is "
        "simulated time by construction; analyze/ is the linter, not "
        "simulation code, and times its own rules."
    )
    allow = ("repro/experiments/run_all.py", "repro/stats/cpu.py", "repro/analyze/")

    TIME_ATTRS = frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
            "process_time_ns",
            "localtime",
            "gmtime",
        }
    )
    DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
    DATETIME_BASES = frozenset({"datetime", "date"})

    def check(self, ctx: FileContext, project) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in self.TIME_ATTRS:
                            yield self.finding(
                                ctx,
                                node,
                                f"import of 'time.{alias.name}' — simulated code "
                                "must read Simulator.now",
                            )
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                base = node.value.id
                if base == "time" and node.attr in self.TIME_ATTRS:
                    yield self.finding(
                        ctx,
                        node,
                        f"wall-clock read 'time.{node.attr}' — simulated code "
                        "must read Simulator.now",
                    )
                elif base in self.DATETIME_BASES and node.attr in self.DATETIME_ATTRS:
                    yield self.finding(
                        ctx,
                        node,
                        f"wall-clock read '{base}.{node.attr}' — simulated code "
                        "must read Simulator.now",
                    )


# ---------------------------------------------------------------------------
# DET03 — unordered iteration feeding the event path
# ---------------------------------------------------------------------------
class Det03UnorderedIteration(Rule):
    code = "DET03"
    title = "no unordered iteration reaching the scheduler"
    rationale = (
        "set iteration order depends on PYTHONHASHSEED for str/object "
        "elements; when such an order decides what gets scheduled or "
        "emitted first, two runs of the same seed diverge.  Applies to "
        "functions from which sim.engine scheduling calls are reachable; "
        "iterate sorted(...) or an insertion-ordered structure instead."
    )
    needs_project = True

    SAFE_WRAPPERS = frozenset({"sorted", "min", "max", "sum", "len", "any", "all"})
    DICT_VIEWS = frozenset({"values", "keys", "items"})

    def check(self, ctx: FileContext, project) -> Iterator[Finding]:
        class_sets = _class_set_attrs(ctx)
        module_sets = _set_names_in(ctx.tree.body)
        for fn in _functions(ctx.tree):
            if project is None or not project.is_schedule_tainted(fn):
                continue
            local_sets = _set_names_in(list(_own_nodes(fn))) | module_sets
            owner = _enclosing_class(ctx, fn)
            attr_sets = class_sets.get(owner, set())

            def set_like(expr: ast.expr) -> Optional[str]:
                if isinstance(expr, (ast.Set, ast.SetComp)):
                    return "set literal"
                if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
                    if expr.func.id in ("set", "frozenset"):
                        return f"{expr.func.id}()"
                if isinstance(expr, ast.Name) and expr.id in local_sets:
                    return f"set '{expr.id}'"
                if (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id in ("self", "cls")
                    and expr.attr in attr_sets
                ):
                    return f"set 'self.{expr.attr}'"
                return None

            for node in _own_nodes(fn):
                sources: list[ast.expr] = []
                if isinstance(node, ast.For):
                    sources.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                    sources.extend(gen.iter for gen in node.generators)
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    if node.func.id in ("list", "tuple", "enumerate") and node.args:
                        sources.append(node.args[0])
                for source in sources:
                    described = set_like(source)
                    if described is not None:
                        yield self.finding(
                            ctx,
                            source,
                            f"iteration over {described} in a function that "
                            "reaches Simulator.schedule — order feeds the "
                            "event path; iterate a sorted or insertion-"
                            "ordered collection",
                        )
                    elif (
                        isinstance(source, ast.Call)
                        and isinstance(source.func, ast.Attribute)
                        and source.func.attr in self.DICT_VIEWS
                        and not source.args
                        and isinstance(node, (ast.For, ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp))
                    ):
                        yield self.finding(
                            ctx,
                            source,
                            f"iteration over dict .{source.func.attr}() in a "
                            "function that reaches Simulator.schedule — make "
                            "the ordering contract explicit (sorted(...)) or "
                            "waive with the insertion-order rationale",
                        )


def _set_names_in(nodes: Sequence[ast.AST]) -> set[str]:
    """Names assigned/annotated as sets among the given statements."""
    names: set[str] = set()
    for node in nodes:
        value = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.target is not None:
            targets = [node.target]
            value = node.value
            if _annotation_is_set(node.annotation):
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
        if value is not None and _value_is_set(value):
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _value_is_set(value: ast.expr) -> bool:
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("set", "frozenset")
    )


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    text = ast.unparse(annotation) if hasattr(ast, "unparse") else ""
    return bool(re.match(r"(typing\.)?(Set|FrozenSet|set|frozenset)\b", text))


def _class_set_attrs(ctx: FileContext) -> dict[str, set[str]]:
    """Per class: attribute names assigned ``self.X = set(...)`` (or
    annotated as sets) anywhere in its methods."""
    result: dict[str, set[str]] = {}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        attrs: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and _value_is_set(sub.value):
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
            elif isinstance(sub, ast.AnnAssign) and _annotation_is_set(sub.annotation):
                target = sub.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
        if attrs:
            result[node.name] = attrs
    return result


def _enclosing_class(ctx: FileContext, fn: ast.AST) -> str:
    """Name of the class whose body (transitively) contains ``fn``."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                if sub is fn:
                    return node.name
    return ""


# ---------------------------------------------------------------------------
# SEQ01 — raw arithmetic on wrapping sequence numbers
# ---------------------------------------------------------------------------
class Seq01RawSeqArithmetic(Rule):
    code = "SEQ01"
    title = "no raw +/-/< on 32-bit sequence identifiers"
    rationale = (
        "TCP sequence numbers and 32-bit DSNs wrap; raw '+', '-' and "
        "ordering comparisons are wrong near 2^32.  Use seq_add/seq_diff/"
        "seq_lt/seq_le/seq_gt/seq_ge from repro.tcp.seq.  Modules that "
        "keep *unwrapped* absolute units internally (and confine wrapping "
        "to a conversion layer) carry a file-ok(SEQ01) waiver instead."
    )
    allow = ("repro/tcp/seq.py",)

    SEQ_NAME = re.compile(
        r"(?:^|_)(?:seq|dsn|idsn|isn)(?:$|_)"  # any *_seq / dsn* / *isn* component
        r"|^(?:snd|rcv)_(?:nxt|una|max|adv)$"
        r"|^data_(?:nxt|una|seq|ack)"
        r"|^rcv_data_nxt$"
        r"|^ack$"
    )
    # seq-ish spellings that are *lengths or labels*, not sequence numbers
    EXCLUDED = frozenset(
        {"seq_space", "seq_len", "seq_mod", "seqs", "seq_unit", "ack_unit"}
    )
    ORDERING_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)

    def _seq_ident(self, expr: ast.expr) -> Optional[str]:
        name = None
        if isinstance(expr, ast.Name):
            name = expr.id
        elif isinstance(expr, ast.Attribute):
            name = expr.attr
        if name is None:
            return None
        lowered = name.lower()
        if lowered in self.EXCLUDED:
            return None
        return name if self.SEQ_NAME.search(lowered) else None

    def check(self, ctx: FileContext, project) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                ident = self._seq_ident(node.left) or self._seq_ident(node.right)
                if ident is not None:
                    op = "+" if isinstance(node.op, ast.Add) else "-"
                    yield self.finding(
                        ctx,
                        node,
                        f"raw '{op}' on sequence identifier '{ident}' — use "
                        "seq_add/seq_diff from repro.tcp.seq (32-bit wrap)",
                    )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                ident = self._seq_ident(node.target)
                if ident is not None:
                    op = "+=" if isinstance(node.op, ast.Add) else "-="
                    yield self.finding(
                        ctx,
                        node,
                        f"raw '{op}' on sequence identifier '{ident}' — use "
                        "seq_add from repro.tcp.seq (32-bit wrap)",
                    )
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, self.ORDERING_OPS) for op in node.ops
            ):
                for operand in [node.left, *node.comparators]:
                    ident = self._seq_ident(operand)
                    if ident is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"raw ordering comparison on sequence identifier "
                            f"'{ident}' — use seq_lt/seq_le/seq_gt/seq_ge "
                            "from repro.tcp.seq (32-bit wrap)",
                        )
                        break


# ---------------------------------------------------------------------------
# EXC01 — silently swallowed broad exceptions
# ---------------------------------------------------------------------------
class Exc01SilentExcept(Rule):
    code = "EXC01"
    title = "no silent bare/broad except"
    rationale = (
        "'except Exception: pass' hides invariant violations and corrupt "
        "state (a silently dropped cache error cost us a debugging day in "
        "PR 1).  A broad handler must re-raise or actually use the bound "
        "exception (log it, record it on a result)."
    )

    BROAD = frozenset({"Exception", "BaseException"})

    def _is_broad(self, handler: ast.ExceptHandler) -> Optional[str]:
        if handler.type is None:
            return "bare 'except:'"
        types = (
            handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        )
        for node in types:
            name = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            if name in self.BROAD:
                return f"'except {name}'"
        return None

    def check(self, ctx: FileContext, project) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            label = self._is_broad(node)
            if label is None:
                continue
            reraises = any(isinstance(sub, ast.Raise) for body in node.body for sub in ast.walk(body))
            uses_binding = bool(node.name) and any(
                isinstance(sub, ast.Name) and sub.id == node.name
                for body in node.body
                for sub in ast.walk(body)
            )
            if not reraises and not uses_binding:
                yield self.finding(
                    ctx,
                    node,
                    f"{label} swallows the error — re-raise, narrow the "
                    "type, or bind and record it (log/result note)",
                )


# ---------------------------------------------------------------------------
# MUT01 — module-level mutation from pool workers
# ---------------------------------------------------------------------------
class Mut01WorkerModuleState(Rule):
    code = "MUT01"
    title = "no module-state mutation in ProcessPoolExecutor workers"
    rationale = (
        "experiments/runner.py forks points into worker processes; module-"
        "level state mutated there dies with the worker (or diverges from "
        "the serial path).  Anything a worker writes must travel through "
        "its return value."
    )
    needs_project = True

    MUTATORS = frozenset(
        {
            "append",
            "extend",
            "insert",
            "add",
            "update",
            "setdefault",
            "pop",
            "popitem",
            "clear",
            "remove",
            "discard",
            "sort",
            "reverse",
            "appendleft",
            "extendleft",
        }
    )
    MUTABLE_CALLS = frozenset(
        {"dict", "list", "set", "bytearray", "defaultdict", "deque", "OrderedDict", "Counter"}
    )

    def _module_mutables(self, ctx: FileContext) -> set[str]:
        names: set[str] = set()
        for node in ctx.tree.body:
            value = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign):
                value, targets = node.value, [node.target]
            if value is None:
                continue
            mutable = isinstance(
                value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
            ) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in self.MUTABLE_CALLS
            )
            if not mutable:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    names.add(target.id)
        return names

    def check(self, ctx: FileContext, project) -> Iterator[Finding]:
        mutables = self._module_mutables(ctx)
        for fn in _functions(ctx.tree):
            if project is None or not project.is_worker_reachable(fn):
                continue
            declared_global: set[str] = set()
            for node in _own_nodes(fn):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
            for node in _own_nodes(fn):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if target is None:
                            continue
                        if (
                            isinstance(target, ast.Name)
                            and target.id in declared_global
                        ):
                            yield self.finding(
                                ctx,
                                node,
                                f"assignment to module-level '{target.id}' in "
                                "worker-reachable code — worker writes are "
                                "lost; return the value instead",
                            )
                        elif (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in mutables
                        ):
                            yield self.finding(
                                ctx,
                                node,
                                f"mutation of module-level '{target.value.id}"
                                "[...]' in worker-reachable code — worker "
                                "writes are lost; return the value instead",
                            )
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in mutables
                        ):
                            yield self.finding(
                                ctx,
                                node,
                                f"del on module-level '{target.value.id}[...]' "
                                "in worker-reachable code",
                            )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.MUTATORS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in mutables
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"'{node.func.value.id}.{node.func.attr}(...)' mutates "
                        "module-level state in worker-reachable code — worker "
                        "writes are lost; return the value instead",
                    )


# ---------------------------------------------------------------------------
# DOM01 — SSN/DSN sequence-domain dataflow
# ---------------------------------------------------------------------------
class Dom01SequenceDomains(Rule):
    code = "DOM01"
    title = "no mixing of SSN and DSN sequence spaces"
    rationale = (
        "Subflow sequence numbers (SSN) and data sequence numbers (DSN in "
        "DSS mappings) are unrelated spaces; the paper's hardest bugs are "
        "values silently crossing between them.  An abstract interpreter "
        "tags every expression {SSN, DSN, LENGTH, OPAQUE} from '# domain:' "
        "annotations, a seed table, and call-graph summaries, and flags "
        "cross-domain arithmetic/comparison/assignment/argument-passing.  "
        "The mptcp.connection tx/rx wire-DSN mappers are the only blessed "
        "casts."
    )
    allow = ("repro/tcp/seq.py",)
    needs_project = True

    def check(self, ctx: FileContext, project) -> Iterator[Finding]:
        from repro.analyze import dataflow

        yield from dataflow.check_file(self, ctx, project)


# ---------------------------------------------------------------------------
# FSM01 — one writer per protocol state machine
# ---------------------------------------------------------------------------
class Fsm01SingleWriter(Rule):
    code = "FSM01"
    title = "state-machine attributes are written only by the owner's _set_state"
    rationale = (
        "The TCP (RFC 793) and MPTCP connection (RFC 6824) machines are "
        "transition tables in repro/tcp/state.py and repro/mptcp/state.py; "
        "the owner's _set_state raises IllegalTransition on any edge not in "
        "its table.  That run-time check holds only if nothing bypasses the "
        "setter: outside the owner's _set_state and __init__, a write of the "
        "machine attribute in the owner file, or a store of a state-enum "
        "member into any attribute anywhere, is a finding."
    )

    def __init__(self, machines=None):
        from repro.analyze import statemachine

        self.machines = statemachine.MACHINES if machines is None else tuple(machines)

    def check(self, ctx: FileContext, project) -> Iterator[Finding]:
        from repro.analyze import statemachine

        yield from statemachine.check_file(self, ctx)


# ---------------------------------------------------------------------------
# SHD01 — shard-purity of shard_safe path elements
# ---------------------------------------------------------------------------
class Shd01ShardPurity(Rule):
    code = "SHD01"
    title = "shard_safe elements must be stateless and statically declared"
    rationale = (
        "network.py keeps elements on a cut link only when they declare "
        "shard_safe = True; the declaration promises a pure synchronous "
        "transform (path.py).  Instance/class writes outside __init__ "
        "(except declared shard_stats counters) and non-constant "
        "shard_safe assignments both break sharded runs in ways the "
        "merged conformance driver cannot always catch."
    )

    def check(self, ctx: FileContext, project) -> Iterator[Finding]:
        from repro.analyze import shardsafety

        yield from shardsafety.check_file(self, ctx)


# ---------------------------------------------------------------------------
# HOT01 — ratcheted hot-path allocation budget
# ---------------------------------------------------------------------------
class Hot01HotPathAllocations(Rule):
    code = "HOT01"
    title = "hot-path allocation sites stay within the committed budget"
    rationale = (
        "The Simulator.run closure (everything the event loop can invoke) "
        "is the throughput-critical path; comprehensions, lambdas, "
        "f-strings and container literals/calls inside it are per-event "
        "churn the flyweight work eliminated, and len(x.payload) pays the "
        "Segment.payload property frame the cached payload_len does not.  "
        "Counts are checked against src/repro/analyze/hot_budget.json; "
        "'python -m repro.analyze --budget' ratchets the budget so it can "
        "only move down."
    )
    needs_project = True

    def __init__(self, budget_path=None):
        from repro.analyze import hotpath

        self.budget = hotpath.load_budget(budget_path)

    def check(self, ctx: FileContext, project) -> Iterator[Finding]:
        from repro.analyze import hotpath

        yield from hotpath.check_file(self, ctx, project)


# ---------------------------------------------------------------------------
# CPX01 — growth-class complexity budget
# ---------------------------------------------------------------------------
class Cpx01GrowthComplexity(Rule):
    code = "CPX01"
    title = "no per-event scans over unbounded-growth state"
    rationale = (
        "Collections carry growth classes (CONNECTIONS, SUBFLOWS, MAPPINGS, "
        "SEGMENTS, BOUNDED) from a seed table plus '# grows:' annotations, "
        "propagated through assignments and call summaries.  Inside the "
        "event-loop and federation-worker closures, O(n) idioms over an "
        "unbounded class — sweeps, list membership, pop(0)/insert(0), "
        "sort/sorted, min/max/sum reductions, remove/index/count — are "
        "checked against src/repro/analyze/complexity_budget.json; "
        "'python -m repro.analyze --budget' ratchets the budget so the "
        "scan count can only move down as accesses get indexed."
    )
    # The indexed retransmit structure owns its internal scans: its whole
    # job is to confine them behind an O(log n)/O(1) interface.
    allow = ("repro/tcp/rtx.py",)
    needs_project = True

    def __init__(self, budget_path=None):
        from repro.analyze import complexity

        self.budget = complexity.load_budget(budget_path)

    def check(self, ctx: FileContext, project) -> Iterator[Finding]:
        from repro.analyze import complexity

        yield from complexity.check_file(self, ctx, project)


# ---------------------------------------------------------------------------
# FED01 — conservative-parallel lookahead safety
# ---------------------------------------------------------------------------
class Fed01LookaheadSafety(Rule):
    code = "FED01"
    title = "cut messages must respect lookahead and the wire codec"
    rationale = (
        "The sharded federation is conservative-parallel: a barrier window "
        "is only safe because every cross-shard message arrives at least "
        "one cut delay in the future.  PR 7 enforces that at runtime "
        "(add_cut raises on delay <= 0); this pass proves it statically — "
        "non-positive cut delays, zero-delay scheduling reachable from "
        "boundary delivery, cross-shard payloads bypassing Segment.to_wire/"
        "segment_from_wire, and shard_safe elements holding cross-window "
        "mutable state are all findings."
    )
    needs_project = True

    def check(self, ctx: FileContext, project) -> Iterator[Finding]:
        from repro.analyze import federation

        yield from federation.check_file(self, ctx, project)


# ---------------------------------------------------------------------------
# WVR01 — stale waivers (evaluated by the engine after the other rules)
# ---------------------------------------------------------------------------
class Wvr01StaleWaiver(Rule):
    code = "WVR01"
    title = "every waiver must still suppress at least one finding"
    rationale = (
        "An 'ok(RULE)'/'file-ok(RULE)' comment that no longer matches any "
        "finding is dead weight: the code it excused has moved or been "
        "fixed, and the stale waiver would silently excuse the *next* "
        "violation on that line.  Only waivers for rules active in the "
        "current run are judged, so partial --rule runs never cry stale."
    )
    # Reachability rules (DET03/MUT01) need the whole project to taint
    # anything, so staleness is only meaningful on a full scan: the
    # engine skips this pass under --changed-only.
    full_scan_only = True

    def check(self, ctx: FileContext, project) -> Iterator[Finding]:
        return iter(())  # the engine's post-pass does the work

    def post_check(
        self, ctx: FileContext, findings: list, active_codes: set
    ) -> Iterator[Finding]:
        used_line: set[tuple[int, str]] = set()
        used_file: set[str] = set()
        for f in findings:
            if f.waived:
                if f.rule in ctx.line_waivers.get(f.line, set()):
                    used_line.add((f.line, f.rule))
                if f.rule in ctx.file_waivers:
                    used_file.add(f.rule)
        for line in sorted(ctx.line_waivers):
            for rule_code in sorted(ctx.line_waivers[line]):
                if rule_code not in active_codes or rule_code == self.code:
                    continue
                if (line, rule_code) not in used_line:
                    yield Finding(
                        path=ctx.display,
                        line=line,
                        col=0,
                        rule=self.code,
                        message=(
                            f"stale waiver: ok({rule_code}) on this line "
                            "suppresses no finding — remove it"
                        ),
                    )
        for rule_code in sorted(ctx.file_waivers):
            if rule_code not in active_codes or rule_code == self.code:
                continue
            if rule_code not in used_file:
                line = ctx.file_waiver_lines.get(rule_code, 1)
                yield Finding(
                    path=ctx.display,
                    line=line,
                    col=0,
                    rule=self.code,
                    message=(
                        f"stale waiver: file-ok({rule_code}) suppresses no "
                        "finding in this file — remove it"
                    ),
                )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
ALL_RULES: tuple[Rule, ...] = (
    Det01Entropy(),
    Det02WallClock(),
    Det03UnorderedIteration(),
    Seq01RawSeqArithmetic(),
    Exc01SilentExcept(),
    Mut01WorkerModuleState(),
    Dom01SequenceDomains(),
    Fsm01SingleWriter(),
    Shd01ShardPurity(),
    Hot01HotPathAllocations(),
    Cpx01GrowthComplexity(),
    Fed01LookaheadSafety(),
    Wvr01StaleWaiver(),
)


def rule_by_code(code: str) -> Rule:
    for rule in ALL_RULES:
        if rule.code == code.upper():
            return rule
    raise KeyError(f"unknown rule {code!r}; known: {', '.join(r.code for r in ALL_RULES)}")


def select_rules(codes: Optional[Sequence[str]]) -> list[Rule]:
    if not codes:
        return list(ALL_RULES)
    return [rule_by_code(code) for code in codes]
