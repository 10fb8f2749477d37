"""Payload-escape analysis: transport payloads must not alias live
scheduler or arena state.

``send-then-mutate`` stops a function from mutating what it just sent;
it cannot see the dual bug — sending a *reference to state that someone
else mutates*: a payload built from ``core.counters``, the ready heap,
or a live :class:`~repro.core.blocking.FactorArena` slab.  The loopback
transport delivers payloads by reference and the multiprocessing
transport may pickle them on a feeder thread, so such a payload is torn
the moment the scheduler or a refactorize touches the shared object.

For every ``send(dst, payload)`` / ``post_result(msg)`` site in the
project, the pass expands the payload into root expressions (tuple
literals and one level of assignment dataflow, plus one hop through a
local function's return expression) and flags a root when its dotted
path:

* names an entry of the module's ``__guarded_by__`` spec — state the
  module itself declares lock-protected has writers by definition;
* reaches scheduler protocol state (an attribute access ending in
  ``counters``, ``ready``, ``remaining`` or ``owned_mask``);
* traverses an ``arena`` segment (``f.arena.data`` …) — arena slabs are
  overwritten in place by ``refactorize``.

A value produced by a copying call (``np.array``, ``.copy()``,
``bytes``, ``int`` …) is safe; ``np.asarray`` is *not* a copy and keeps
its argument's roots.  Block views sent by the distributed engine
(``target.indptr`` …) are deliberately not flagged: sent blocks are
final under the counter protocol, which is exactly the invariant
``send-then-mutate`` checks from the sender's side.
"""

from __future__ import annotations

import ast

from ..astlint import Finding, ProjectRule, register
from ..rules._util import send_payload
from .project import FunctionInfo, Project

__all__ = ["PayloadEscapeRule", "analyze_payload_escape"]

RULE = "payload-escape"
_SCHEDULER_ATTRS = frozenset(
    {"counters", "_counts", "ready", "remaining", "owned_mask"}
)
#: calls that return a fresh object (aliasing broken)
_COPYING_CALLS = frozenset(
    {"array", "copy", "deepcopy", "int", "float", "bytes", "list", "dict",
     "tuple", "str"}
)
#: calls that pass their argument through by reference
_ALIASING_CALLS = frozenset({"asarray", "ascontiguousarray"})


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain (subscripts transparent)."""
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        else:
            return None


def _expand(
    node: ast.AST,
    assigns: dict[str, ast.AST],
    project: Project,
    fi: FunctionInfo,
    depth: int = 0,
) -> list[ast.AST]:
    """Root expressions reachable from a payload expression."""
    if depth > 4:
        return []
    roots: list[ast.AST] = []
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            roots.extend(_expand(elt, assigns, project, fi, depth + 1))
        return roots
    if isinstance(node, ast.Call):
        fname = (
            node.func.attr
            if isinstance(node.func, ast.Attribute)
            else node.func.id if isinstance(node.func, ast.Name) else None
        )
        if fname in _COPYING_CALLS:
            return []  # fresh object: aliasing broken
        if fname in _ALIASING_CALLS and node.args:
            return _expand(node.args[0], assigns, project, fi, depth + 1)
        callee = project.resolve_call(node, fi)
        if callee is not None and callee.module is fi.module:
            # one hop through a local helper's return expression
            for sub in ast.walk(callee.node):
                if isinstance(sub, ast.Return) and sub.value is not None:
                    roots.extend(
                        _expand(sub.value, assigns, project, callee,
                                depth + 1)
                    )
            return roots
        return []  # unresolved call: assume it returns fresh data
    if isinstance(node, ast.Name) and node.id in assigns:
        return _expand(assigns[node.id], assigns, project, fi, depth + 1)
    return [node]


def _flag_reason(path: str, guarded: dict[str, str]) -> str | None:
    segments = path.split(".")
    for entry, lock in guarded.items():
        if path == entry or path.startswith(entry + "."):
            return (
                f"aliases {entry!r}, which this module declares guarded "
                f"by {lock!r}"
            )
    if len(segments) >= 2 and segments[-1] in _SCHEDULER_ATTRS:
        return (
            f"aliases scheduler protocol state ({segments[-1]!r} is "
            "mutated by SchedulerCore on every pop/complete)"
        )
    if "arena" in segments[:-1] or (len(segments) > 1 and segments[-1] == "arena"):
        return (
            "aliases a factor-arena slab, which refactorize overwrites "
            "in place"
        )
    return None


def analyze_payload_escape(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for fi in project.all_functions():
        # one level of assignment dataflow inside the function
        assigns: dict[str, ast.AST] = {}
        for node in ast.walk(fi.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                assigns[node.targets[0].id] = node.value

        for node in ast.walk(fi.node):
            payload_args = send_payload(node)
            if payload_args is None:
                continue
            for arg in payload_args:
                for root in _expand(arg, assigns, project, fi):
                    path = _dotted(root)
                    if path is None:
                        continue
                    reason = _flag_reason(path, fi.module.guarded)
                    if reason is None:
                        continue
                    findings.append(
                        Finding(
                            RULE,
                            fi.module.path,
                            getattr(node, "lineno", 0),
                            getattr(node, "col_offset", 0),
                            f"{fi.name}() sends a payload containing "
                            f"{path!r}, which {reason} — send a copy, "
                            "the transports deliver by reference",
                        )
                    )
    # dedupe identical findings (a root can be reached twice through
    # tuple expansion) and sort
    uniq = sorted(set(findings), key=lambda f: (f.path, f.line, f.message))
    return uniq


@register
class PayloadEscapeRule(ProjectRule):
    name = RULE
    description = "transport payloads do not alias mutable scheduler/arena state"

    def check_project(self, project: Project) -> list[Finding]:
        return analyze_payload_escape(project)
