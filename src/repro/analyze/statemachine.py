"""FSM01 — each protocol state machine has one writer.

The TCP machine (RFC 793) and the MPTCP connection machine (RFC 6824:
MP_CAPABLE, fallback, close) are tables in ``repro/tcp/state.py`` and
``repro/mptcp/state.py``.  The owner's ``_set_state`` checks every
write against its table at run time and raises ``IllegalTransition``
on a missing edge.  That check only holds if nothing bypasses the
setter, which is what this pass proves statically: outside the owner's
``_set_state`` and ``__init__`` (the initial state),

* no code in the owner file writes the machine attribute, whatever the
  value, and
* no code anywhere stores a member of the machine's enum into an
  attribute — which catches a foreign layer poking ``conn.state``.  A
  member is ``TCPState.CLOSED`` or a constant imported from the enum's
  module (``from repro.tcp.state import CLOSED``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analyze.core import FileContext, Finding

# (owner file suffix, [module.]state enum, machine attribute)
MACHINES: tuple[tuple[str, str, str], ...] = (
    ("repro/tcp/socket.py", "repro.tcp.state.TCPState", "state"),
    ("repro/mptcp/connection.py", "repro.mptcp.state.MPTCPConnState", "conn_state"),
)

# The functions allowed to write the attribute, inside the owner file.
WRITERS = frozenset({"_set_state", "__init__"})


def _attribute_stores(tree: ast.AST, exempt: frozenset) -> Iterator[tuple[ast.stmt, ast.Attribute]]:
    """Every ``<expr>.<name> = ...`` store (plain, annotated, augmented,
    or inside a tuple target), skipping the bodies of functions named in
    ``exempt``."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in exempt:
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Attribute) and isinstance(leaf.ctx, ast.Store):
                    yield node, leaf
        stack.extend(ast.iter_child_nodes(node))


def _enum_member(value: ast.AST, enum: str, constants: dict[str, str]) -> str | None:
    """``Enum.MEMBER`` or an imported member constant -> ``"MEMBER"``; else None."""
    if isinstance(value, ast.Name):
        return constants.get(value.id)
    if (
        isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id == enum
    ):
        return value.attr
    return None


def check_file(rule, ctx: FileContext) -> Iterator[Finding]:
    for owner, path, attr in rule.machines:
        module, _, enum = path.rpartition(".")
        constants = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ImportFrom) and module and node.module == module
            for alias in node.names
            if alias.name.isupper() and alias.name != "TRANSITIONS"
        }
        is_owner = ctx.posix.endswith(owner)
        exempt = WRITERS if is_owner else frozenset()
        for stmt, target in _attribute_stores(ctx.tree, exempt):
            value = getattr(stmt, "value", None)
            member = _enum_member(value, enum, constants) if value is not None else None
            if is_owner and target.attr == attr:
                yield rule.finding(
                    ctx,
                    stmt,
                    f"'.{attr}' written outside _set_state — every transition "
                    f"must go through the checked setter",
                )
            elif member is not None:
                yield rule.finding(
                    ctx,
                    stmt,
                    f"{enum}.{member} stored outside {owner}'s _set_state — "
                    "route the change through the owner's API",
                )
