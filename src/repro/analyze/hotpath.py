"""HOT01 — ratcheted allocation lint for the ``Simulator.run`` closure.

The flyweight work (preparsed options, allocation-free timer restarts)
bought a 2.06x hot-loop win by eliminating per-event object churn;
nothing stops a later patch from quietly reintroducing it.  This
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
*callback reference* handed to the scheduling API
(:data:`~repro.analyze.callgraph.SCHEDULE_CALLBACK_ARG`: ``schedule``,
``post``, ``call_soon``, ``Timer`` constructions...): whatever the event loop will invoke is hot, and the
forward closure over the project call graph extends that to everything
it calls inside the runtime packages (:data:`HOT_PACKAGE_TOKENS`).  The
walk neither adds nor expands a callee outside them, so a datapath call
that fans out by name into the offline harness cannot re-enter the
datapath through it.

Counts are compared against a committed per-function budget
(``src/repro/analyze/hot_budget.json``, keyed by the repo-relative
function id) by :class:`~repro.analyze.rules.BudgetRule`, which HOT01
shares with CPX01: a function over budget yields one finding per
allocation site, so fixes can be line-targeted.  The budget is a
ratchet: ``python -m repro.analyze --budget`` fails CI when the
committed file has slack (budget above measured) or dead entries, so
the budget can only track the hot path downward — the analyzer fails
when code allocates *more*, the ratchet fails when the budget pretends
it allocates more than it does.
"""

from __future__ import annotations

import ast

from repro.analyze.callgraph import SCHEDULE_CALLBACK_ARG, callable_ref, own_nodes

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


def in_hot_scope(posix: str) -> bool:
    if "/repro/" not in posix:
        return True  # fixtures and out-of-tree files keep full coverage
    return any(token in posix for token in HOT_PACKAGE_TOKENS)


def allocation_sites(fn: ast.AST) -> list[tuple[ast.AST, str]]:
    sites: list[tuple[ast.AST, str]] = []
    nodes = list(own_nodes(fn, lambdas=False))
    # Annotations are never evaluated (``from __future__ import annotations``).
    notes = [getattr(node, "annotation", None) for node in nodes] + [getattr(fn, "returns", None)]
    skip = {id(sub) for note in notes if note for sub in ast.walk(note)}
    for node in nodes:
        if id(node) in skip:
            continue
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
            ref = callable_ref(node.args[index])
            if ref is None:
                continue
            seeds.update(project._resolve_ref(ctx.posix, ref))
    return seeds


def closure(project) -> set[str]:
    """The event-loop closure, confined to the runtime datapath."""

    def build() -> set[str]:
        return {
            fid
            for fid in project._forward_closure(_seed_fids(project), keep=in_hot_scope)
            if in_hot_scope(project.functions[fid].posix)
        }

    return project.cached("hot-closure", build)
