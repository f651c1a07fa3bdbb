"""DOM01 — sequence-domain dataflow analysis.

MPTCP juggles two sequence spaces: the subflow sequence number space
(SSN — what :class:`~repro.net.packet.Segment` carries in ``seq``/``ack``
and what ``TCPSocket`` counts in) and the data sequence space (DSN — the
connection-level stream offsets carried in DSS mappings).  The paper's
hardest bugs (§3) are values silently crossing between the two, so this
pass gives every expression an abstract *domain* and flags any
arithmetic, comparison, argument-passing or assignment that mixes SSN
with DSN without going through a blessed conversion helper.

Domains form a tiny lattice::

    SSN      subflow sequence space (wire 32-bit or absolute units)
    DSN      data sequence space (wire 32-bit or absolute offsets)
    LENGTH   byte counts, window sizes, deltas — attachable to either
    OPAQUE   unknown / not sequence-like (absorbs nothing, flags nothing)

Sources of domain facts, in priority order:

1. ``# domain:`` annotations.  On an assignment line, ``# domain: ssn``
   forces the target's domain.  On a ``def`` line,
   ``# domain: a=ssn, n=length, return=dsn`` declares parameter and
   return domains (undeclared names fall back to the seed table).
2. The seed table below: well-known field and variable names from the
   stack (``Segment.seq``, DSS mapping fields, ``snd_nxt``...), plus
   the polymorphic signatures of the :mod:`repro.tcp.seq` helpers.
3. Function summaries over the project's function index
   (:class:`Project`): a function whose ``return`` expressions all
   evaluate to one non-OPAQUE domain exports it to its callers (iterated
   to the project's bounded fixpoint, so chains resolve).

The only blessed SSN<->wire / DSN<->wire casts are the
``mptcp.connection`` tx/rx wire-DSN mappers and the ``tcp.socket``
wire-seq helpers; their calls adopt the declared result domain without
argument complaints.  Everything else that crosses SSN/DSN must carry
an ``# analyze: ok(DOM01)`` waiver with a rationale (grep the tree for
the fallback sites — the subflow stream *is* the data stream there).

Call sites resolve through :class:`Project`, the cross-file index of
functions, methods by name, imports, named lambdas and
``functools.partial`` aliases, which also runs the bounded summary
fixpoint: the analyzer's one dataflow kernel.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.analyze.core import FileContext, Finding

SSN = "SSN"
DSN = "DSN"
LENGTH = "LENGTH"
OPAQUE = "OPAQUE"

_DOMAINS = {"ssn": SSN, "dsn": DSN, "length": LENGTH, "opaque": OPAQUE}

# ---------------------------------------------------------------------------
# Seed table: well-known names -> domain.  Applies to attribute reads
# (any receiver), bare variable reads, and un-annotated parameters.
# ---------------------------------------------------------------------------
SEED_NAMES: dict[str, str] = {
    # --- subflow sequence space (SSN) ---------------------------------
    "seq": SSN,  # Segment.seq
    "ack": SSN,  # Segment.ack
    "end_seq": SSN,
    "seq32": SSN,
    "ack32": SSN,
    "seq_unit": SSN,
    "ack_unit": SSN,
    "snd_nxt": SSN,
    "snd_una": SSN,
    "rcv_nxt": SSN,
    "iss": SSN,
    "irs": SSN,
    "rcv_adv_edge": SSN,
    "_rcv_adv_edge": SSN,
    "ssn": SSN,
    "ssn_start": SSN,
    "ssn_end": SSN,
    "ssn_rel_wire": SSN,
    "subflow_seq": SSN,  # DSS option field: mapping start in SSN space
    # --- data sequence space (DSN) ------------------------------------
    "dsn": DSN,
    "dsn_wire": DSN,
    "idsn": DSN,
    "local_idsn": DSN,
    "remote_idsn": DSN,
    "data_ack": DSN,
    "data_nxt": DSN,
    "data_una": DSN,
    "rcv_data_nxt": DSN,
    "rcv_data_adv_edge": DSN,
    "data_start": DSN,
    "data_end": DSN,
    "data_seq": DSN,
    "data_fin_offset": DSN,
    # --- lengths / windows --------------------------------------------
    "length": LENGTH,
    "seq_space": LENGTH,
    "mss": LENGTH,
    "rcv_wnd": LENGTH,
    "window": LENGTH,
}

# Polymorphic tcp.seq helpers: ("same", n_args) -> both operands must share
# a domain; the entry's second element is the result rule.
#   "first"  -> result is the first argument's domain
#   "length" -> result is LENGTH
#   "opaque" -> result is OPAQUE (booleans)
#   "join"   -> join of the argument domains
SEQ_HELPERS: dict[str, str] = {
    "seq_add": "first",
    "seq_diff": "length",
    "seq_lt": "opaque",
    "seq_le": "opaque",
    "seq_gt": "opaque",
    "seq_ge": "opaque",
    "seq_between": "opaque",
    "seq_max": "join",
    "seq_min": "join",
}

# Blessed casts: the only helpers allowed to change a value's domain.
# Calls adopt the declared result without argument-domain complaints.
BLESSED_CASTS: dict[str, str] = {
    # mptcp.connection wire-DSN mappers
    "tx_wire_dsn": DSN,
    "tx_abs_offset": DSN,
    "rx_wire_dsn": DSN,
    "rx_abs_offset": DSN,
    # tcp.socket wire<->unit helpers (SSN stays SSN, wrap changes)
    "_wire_seq": SSN,
    "_wire_rcv_seq": SSN,
    "_unit_from_seq": SSN,
    "_unit_from_ack": SSN,
}


def join(a: str, b: str) -> str:
    """Optimistic join: OPAQUE yields to a known domain, conflicts go
    OPAQUE (never invent a domain that might be wrong)."""
    if a == b:
        return a
    if a == OPAQUE:
        return b
    if b == OPAQUE:
        return a
    return OPAQUE


@dataclass(frozen=True)
class FunctionSummary:
    """Declared or inferred domains of one function."""

    params: dict[str, str] = field(default_factory=dict)
    returns: str = OPAQUE
    declared: bool = False  # came from a ``# domain:`` def annotation


_UNKNOWN = FunctionSummary()  # no declaration, nothing inferred


# ---------------------------------------------------------------------------
# The abstract interpreter
# ---------------------------------------------------------------------------
class _DomainEval:
    """Evaluates expressions to domains inside one function, optionally
    collecting findings (summary inference runs with ``findings=None``)."""

    def __init__(
        self,
        rule,
        ctx: FileContext,
        fn: ast.AST,
        annos: dict[int, dict[str, str]],
        summaries: "_SummaryTable",
        findings: Optional[list] = None,
    ):
        self.rule = rule
        self.ctx = ctx
        self.fn = fn
        self.annos = annos
        self.summaries = summaries
        self.findings = findings
        self.env: dict[str, str] = {}
        self.returns: list[str] = []
        self._seed_params()

    # -- setup ----------------------------------------------------------
    def _seed_params(self) -> None:
        declared = self.annos.get(getattr(self.fn, "lineno", -1), {})
        args = getattr(self.fn, "args", None)
        if args is None:
            return
        every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in every:
            if arg.arg in ("self", "cls"):
                continue
            domain = declared.get(arg.arg) or SEED_NAMES.get(arg.arg, OPAQUE)
            self.env[arg.arg] = domain

    # -- findings -------------------------------------------------------
    def _flag(self, node: ast.AST, message: str) -> None:
        if self.findings is not None:
            self.findings.append(self.rule.finding(self.ctx, node, message))

    # -- expression evaluation ------------------------------------------
    def eval(self, node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            return self.env.get(node.id) or SEED_NAMES.get(node.id, OPAQUE)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                key = f"self.{node.attr}"
                if key in self.env:
                    return self.env[key]
            return SEED_NAMES.get(node.attr, OPAQUE)
        if isinstance(node, ast.Constant):
            return LENGTH if isinstance(node.value, int) and not isinstance(node.value, bool) else OPAQUE
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.Compare):
            return self._eval_compare(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.eval(value)
            return OPAQUE
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self.eval(elt)
            return OPAQUE
        if isinstance(node, ast.NamedExpr):
            domain = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = domain
            return domain
        return OPAQUE

    def _eval_binop(self, node: ast.BinOp) -> str:
        left = self.eval(node.left)
        right = self.eval(node.right)
        if {left, right} == {SSN, DSN}:
            op = {ast.Add: "+", ast.Sub: "-"}.get(type(node.op), type(node.op).__name__)
            self._flag(
                node,
                f"cross-domain arithmetic: {left} {op} {right} — convert "
                "through the blessed wire-DSN mappers (tx_/rx_) first",
            )
            return OPAQUE
        if isinstance(node.op, ast.Sub):
            if left == right and left in (SSN, DSN):
                return LENGTH  # distance within one space
            if left in (SSN, DSN):
                return left  # SSN - LENGTH/OPAQUE stays SSN
            return LENGTH if LENGTH in (left, right) else OPAQUE
        if isinstance(node.op, ast.Add):
            if left in (SSN, DSN):
                return left
            if right in (SSN, DSN):
                return right
            return LENGTH if left == right == LENGTH else OPAQUE
        if isinstance(node.op, (ast.Mod, ast.BitAnd)):
            return left  # x % SEQ_MOD, x & MASK32 keep x's space
        return OPAQUE

    def _eval_compare(self, node: ast.Compare) -> str:
        domains = [self.eval(node.left)] + [self.eval(c) for c in node.comparators]
        for a, b in zip(domains, domains[1:]):
            if {a, b} == {SSN, DSN}:
                self._flag(
                    node,
                    "cross-domain comparison: SSN compared with DSN — these "
                    "spaces are unrelated; map through the DSS mapping first",
                )
                break
        return OPAQUE

    def _callee_name(self, node: ast.Call) -> Optional[str]:
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return None

    def _eval_call(self, node: ast.Call) -> str:
        name = self._callee_name(node)
        arg_domains = [self.eval(arg) for arg in node.args]
        for keyword in node.keywords:
            self.eval(keyword.value)
        if name is None:
            return OPAQUE
        if name in SEQ_HELPERS:
            return self._eval_seq_helper(node, name, arg_domains)
        if name in BLESSED_CASTS:
            return BLESSED_CASTS[name]
        summary = self.summaries.lookup(self.ctx.posix, node.func)
        if summary is None:
            return OPAQUE
        if summary.declared:
            names = list(summary.params)
            for index, got in enumerate(arg_domains):
                if index >= len(names):
                    break
                expected = summary.params[names[index]]
                if {expected, got} == {SSN, DSN}:
                    self._flag(
                        node,
                        f"cross-domain argument: {name}() expects {expected} "
                        f"for '{names[index]}', got {got}",
                    )
            for keyword in node.keywords:
                if keyword.arg and keyword.arg in summary.params:
                    expected = summary.params[keyword.arg]
                    got = self.eval(keyword.value)
                    if {expected, got} == {SSN, DSN}:
                        self._flag(
                            node,
                            f"cross-domain argument: {name}() expects "
                            f"{expected} for '{keyword.arg}', got {got}",
                        )
        return summary.returns

    def _eval_seq_helper(self, node: ast.Call, name: str, arg_domains: list) -> str:
        spacey = [d for d in arg_domains if d in (SSN, DSN)]
        if SSN in spacey and DSN in spacey:
            self._flag(
                node,
                f"cross-domain arithmetic: {name}() mixes SSN and DSN "
                "operands — these live in unrelated sequence spaces",
            )
            return OPAQUE
        result = SEQ_HELPERS[name]
        if result == "first":
            return arg_domains[0] if arg_domains else OPAQUE
        if result == "length":
            return LENGTH
        if result == "join":
            out = OPAQUE
            for domain in arg_domains:
                out = join(out, domain)
            return out
        return OPAQUE

    # -- statement walking ----------------------------------------------
    def run(self) -> Iterator:
        self._walk(getattr(self.fn, "body", []))
        if self.findings:
            yield from self.findings

    def _walk(self, stmts: list) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are analysed on their own
        if isinstance(stmt, ast.Assign):
            domain = self.eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, domain, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self.eval(stmt.value), stmt)
        elif isinstance(stmt, ast.AugAssign):
            target_domain = self.eval(stmt.target)
            value_domain = self.eval(stmt.value)
            if {target_domain, value_domain} == {SSN, DSN}:
                self._flag(
                    stmt,
                    f"cross-domain arithmetic: {target_domain} "
                    f"augmented with {value_domain}",
                )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns.append(self.eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self.eval(stmt.iter)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval(item.context_expr)
            self._walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body)
            for handler in stmt.handlers:
                self._walk(handler.body)
            self._walk(stmt.orelse)
            self._walk(stmt.finalbody)
        elif isinstance(stmt, (ast.Assert, ast.Raise)):
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self.eval(value)

    def _assign(self, target: ast.expr, value_domain: str, stmt: ast.stmt) -> None:
        forced = self.annos.get(stmt.lineno, {}).get("")
        key: Optional[str] = None
        declared: Optional[str] = None
        if isinstance(target, ast.Name):
            key = target.id
            declared = SEED_NAMES.get(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            key = f"self.{target.attr}"
            declared = SEED_NAMES.get(target.attr)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, OPAQUE, stmt)
            return
        if key is None:
            return
        if forced is not None:
            self.env[key] = forced
            return
        if declared in (SSN, DSN) and {declared, value_domain} == {SSN, DSN}:
            self._flag(
                stmt,
                f"cross-domain assignment: {value_domain} value assigned to "
                f"{declared} target '{key}' without a blessed conversion",
            )
            self.env[key] = OPAQUE
            return
        self.env[key] = value_domain if declared is None else join(declared, value_domain)


# ---------------------------------------------------------------------------
# Project-wide function index: what a called name can resolve to
# ---------------------------------------------------------------------------
def callable_ref(expr: Optional[ast.expr]) -> Optional[str]:
    """``name`` or ``receiver.name`` for a reference
    :meth:`Project._resolve_ref` can resolve; None for anything else."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        return f"{expr.value.id}.{expr.attr}"
    return None


@dataclass
class FunctionInfo:
    """One function, method or named lambda."""

    fid: str  # "<posix path>::Qual.Name"
    name: str
    class_name: Optional[str]
    posix: str
    node: ast.AST


class _ModuleIndexer(ast.NodeVisitor):
    def __init__(self, ctx: FileContext, project: "Project"):
        self.ctx = ctx
        self.project = project
        self.class_stack: list[str] = []
        self.func_stack: list[str] = []
        # local alias -> ("module", dotted) | ("object", module, name)
        self.imports: dict[str, tuple] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.imports[local] = ("module", alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                self.imports[local] = ("object", node.module, alias.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _register_function(self, node, name: str, fid_suffix: str = "") -> None:
        """Register ``node`` under ``name`` and visit its body as the
        current function."""
        outer = [".".join(self.class_stack)] if self.class_stack else []
        qualname = ".".join(outer + self.func_stack + [name])
        self.project.register(
            FunctionInfo(
                fid=f"{self.ctx.posix}::{qualname}{fid_suffix}",
                name=name,
                class_name=self.class_stack[-1] if self.class_stack else None,
                posix=self.ctx.posix,
                node=node,
            )
        )
        self.func_stack.append(name)
        self.generic_visit(node)
        self.func_stack.pop()

    def _visit_function(self, node) -> None:
        self._register_function(node, node.name)

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


class Project:
    """Cross-file index of functions and imports, the bounded summary
    fixpoint over it, and a per-project memo for derived tables."""

    def __init__(self, contexts: list[FileContext]):
        self.contexts: list[FileContext] = list(contexts)
        self.functions: dict[str, FunctionInfo] = {}
        self.methods_by_name: dict[str, list[str]] = {}
        self.module_functions: dict[tuple[str, str], str] = {}  # (posix, name) -> fid
        self.module_imports: dict[str, dict[str, tuple]] = {}
        self.module_by_dotted: dict[str, str] = {}  # "repro.sim.engine" -> posix
        self.partial_aliases: dict[tuple[str, str], str] = {}  # (posix, name) -> ref
        self.by_posix: dict[str, FileContext] = {ctx.posix: ctx for ctx in contexts}
        self._memo: dict = {}

        for ctx in contexts:
            self._register_module_name(ctx)
        for ctx in contexts:
            indexer = _ModuleIndexer(ctx, self)
            indexer.visit(ctx.tree)
            self.module_imports[ctx.posix] = indexer.imports

    def _register_module_name(self, ctx: FileContext) -> None:
        parts = list(ctx.path.parts)
        if "repro" in parts:
            dotted = ".".join(parts[parts.index("repro") : ]).removesuffix(".py")
            dotted = dotted.removesuffix(".__init__")
            self.module_by_dotted[dotted] = ctx.posix

    def register(self, info: FunctionInfo) -> None:
        self.functions[info.fid] = info
        if info.class_name is not None:
            self.methods_by_name.setdefault(info.name, []).append(info.fid)
        else:
            self.module_functions.setdefault((info.posix, info.name), info.fid)

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

    def cached(self, key, build: Callable[[], object]):
        """``build()``, computed once per project under ``key``: the
        summary table is derived from the whole project, then queried
        once per checked file."""
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


# ---------------------------------------------------------------------------
# Project-wide summary table
# ---------------------------------------------------------------------------
class _SummaryTable:
    """Declared + inferred function summaries, resolvable from call sites."""

    def __init__(self, project: Project):
        self.project = project
        self._annos = {
            ctx.posix: ctx.tag_specs("domain", _DOMAINS) for ctx in project.contexts
        }
        # Declared summaries from def-line annotations; the project
        # fixpoint infers the rest from return expressions.
        self.by_fid: dict[str, FunctionSummary] = {}
        for fid, info in sorted(project.functions.items()):
            spec = self._annos.get(info.posix, {}).get(getattr(info.node, "lineno", -1))
            args = getattr(info.node, "args", None)
            if spec:
                every = [] if args is None else args.posonlyargs + args.args + args.kwonlyargs
                self.by_fid[fid] = FunctionSummary(
                    params={
                        arg.arg: spec[arg.arg]
                        for arg in every
                        if arg.arg not in ("self", "cls") and arg.arg in spec
                    },
                    returns=spec.get("return", OPAQUE),
                    declared=True,
                )

        def infer(fid: str) -> Optional[FunctionSummary]:
            info = project.functions[fid]
            if not isinstance(info.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return None
            evaluator = _DomainEval(
                None, project.by_posix[info.posix], info.node, self._annos[info.posix], self
            )
            list(evaluator.run())
            returns = set(evaluator.returns)
            if len(returns) == 1 and OPAQUE not in returns:
                return FunctionSummary(returns=returns.pop())
            return None

        project.fixpoint(self.by_fid, infer)

    def annotations_for(self, posix: str) -> dict[int, dict[str, str]]:
        return self._annos.get(posix, {})

    def lookup(self, posix: str, func: ast.expr) -> Optional[FunctionSummary]:
        if isinstance(func, ast.Name):
            fids = self.project._resolve_name(posix, func.id)
        elif isinstance(func, ast.Attribute):
            fids = self.project.methods_by_name.get(func.attr, [])
        else:
            return None
        summaries = [self.by_fid.get(fid, _UNKNOWN) for fid in fids]
        if not summaries:
            return None
        first = summaries[0]
        for other in summaries[1:]:
            if other.returns != first.returns or other.params != first.params:
                return None  # ambiguous across classes: stay silent
        return first


def check_file(rule, ctx: FileContext, project: Project) -> Iterator[Finding]:
    """Run the domain interpreter over every function in ``ctx``."""
    table = project.cached("dom-summaries", lambda: _SummaryTable(project))
    annos = table.annotations_for(ctx.posix)
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings: list = []
            evaluator = _DomainEval(rule, ctx, node, annos, table, findings=findings)
            yield from evaluator.run()
