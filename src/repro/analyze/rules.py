"""The rule set: DET01/DET02/DET03 (determinism), EXC01 (silent
failure), FSM01 (one writer per state machine).

Each rule is a small class with a ``code``, a human ``title``, a
``rationale`` shown by ``--list-rules``, an ``allow`` tuple of path
suffixes that are exempt by design (the module whose *job* is to own
the exception; an entry ending in ``/`` exempts a whole package), and
a ``check`` generator yielding
:class:`~repro.analyze.core.Finding` objects.  The ``allow`` tuple is
the only exemption: there are no inline waivers.
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

    def allows(self, ctx: FileContext) -> bool:
        # An entry ending in "/" exempts a whole package directory.
        path = ctx.posix
        return any(
            f"/{entry}" in path if entry.endswith("/") else path.endswith(entry)
            for entry in self.allow
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.display,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=self.code,
            message=message,
        )


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

    def check(self, ctx: FileContext) -> Iterator[Finding]:
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
        "leak into results break replay.  Wall-clock metering (sweep and "
        "study timings, run_all's total, Fig. 10's measured latency) goes "
        "through stats/wallclock.py's wall_clock(), a module holding "
        "nothing else; analyze/ is the linter, not simulation code, and "
        "times its own rules."
    )
    allow = ("repro/stats/wallclock.py", "repro/analyze/")

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

    def check(self, ctx: FileContext) -> Iterator[Finding]:
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
# DET03 — unordered iteration
# ---------------------------------------------------------------------------
class Det03UnorderedIteration(Rule):
    code = "DET03"
    title = "no iteration over sets"
    rationale = (
        "set iteration order depends on PYTHONHASHSEED for str/object "
        "elements; when such an order decides what gets scheduled, emitted "
        "or reported first, two runs of the same seed diverge.  Applies to "
        "every function; iterate sorted(...) or an insertion-ordered "
        "structure (a dict, whose order Python guarantees) instead.  "
        "analyze/ is the linter, not simulation code."
    )
    allow = ("repro/analyze/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        class_sets = _class_set_attrs(ctx)
        module_sets = _set_names_in(ctx.tree.body)
        for fn, class_name in _functions(ctx.tree):
            local_sets = _set_names_in(list(own_nodes(fn))) | module_sets
            attr_sets = class_sets.get(class_name, set())

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

            for node in own_nodes(fn):
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
                            f"iteration over {described} — its order depends "
                            "on PYTHONHASHSEED; iterate a sorted or insertion-"
                            "ordered collection",
                        )


def _functions(node: ast.AST, class_name: Optional[str] = None) -> Iterator[tuple]:
    """Every function under ``node``, with its innermost enclosing class
    name (None at module level)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, class_name
        yield from _functions(child, child.name if isinstance(child, ast.ClassDef) else class_name)


def own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs or
    classes (those are checked as functions in their own right)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


_SET_TYPE = re.compile(r"(typing\.)?(Set|set|FrozenSet|frozenset)\b")
_OTHER_CONTAINER = re.compile(
    r"(typing\.)?(List|list|deque|Deque|Dict|dict|DefaultDict|defaultdict|Counter|OrderedDict)\b"
)


def builds_set(value: Optional[ast.expr], annotation: Optional[ast.expr] = None) -> bool:
    """Whether ``value`` builds a set (a display, a comprehension,
    ``set()``/``frozenset()``), or, when ``value`` says nothing,
    ``annotation`` names one (``set[int]``, ``typing.Set``).  The value
    wins: ``x: set = []`` and ``x: set = list()`` are not sets."""
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    if isinstance(value, (ast.List, ast.ListComp, ast.Dict, ast.DictComp)):
        return False
    texts: list[str] = []
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        texts.append(value.func.id)
    if annotation is not None:
        texts.append(ast.unparse(annotation))
    for text in texts:
        if _SET_TYPE.match(text):
            return True
        if _OTHER_CONTAINER.match(text):
            return False
    return False


def _set_names_in(nodes: Sequence[ast.AST]) -> set[str]:
    """Names assigned/annotated as sets among the given statements."""
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if builds_set(node.value, getattr(node, "annotation", None)):
                names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


def _class_set_attrs(ctx: FileContext) -> dict[str, set[str]]:
    """Per class: attribute names assigned ``self.X = set(...)`` (or
    annotated as sets) anywhere in its methods."""
    result: dict[str, set[str]] = {}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        attrs: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                if builds_set(sub.value, getattr(sub, "annotation", None)):
                    attrs.update(
                        target.attr
                        for target in targets
                        if isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    )
        if attrs:
            result[node.name] = attrs
    return result


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

    def check(self, ctx: FileContext) -> Iterator[Finding]:
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

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        from repro.analyze import statemachine

        yield from statemachine.check_file(self, ctx)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
ALL_RULES: tuple[Rule, ...] = (
    Det01Entropy(),
    Det02WallClock(),
    Det03UnorderedIteration(),
    Exc01SilentExcept(),
    Fsm01SingleWriter(),
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
