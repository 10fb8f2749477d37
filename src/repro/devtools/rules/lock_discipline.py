"""``lock-discipline`` — guarded state is only touched under its lock.

The threaded engine and the plan cache keep shared mutable state behind
a lock; which attribute belongs to which lock is *registered in the
module itself* via a module-level declaration::

    __guarded_by__ = {
        "cond": ("core.pop", "core.complete", "errors", "total.merge"),
        "self._lock": ("self._plans",),
    }

Keys are the lock expressions as they appear at use sites (``with
cond:``, ``with self._lock:``); values are the guarded operations —
either a call (``core.pop``) or an object whose in-place mutation must
be serialised (``errors``, ``self._plans``).  The rule flags any such
call or mutation outside a ``with <lock>:`` block.  Reads stay
lock-free (the repo's low-contention pattern); ``__init__``/``__new__``
are exempt because the object is not yet shared there.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..astlint import FileContext, Finding, Rule, register
from ._util import MUTATING_METHODS, dotted, guarded_spec


def _mutated_paths(stmt: ast.stmt) -> Iterator[tuple[str, ast.AST]]:
    """Dotted receiver paths this statement writes or mutates in place
    (``errors`` for ``errors.append(x)``, ``self._plans`` for
    ``self._plans[k] = v``)."""
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        targets = (
            stmt.targets
            if isinstance(stmt, (ast.Assign, ast.Delete))
            else [stmt.target]
        )
        for target in targets:
            if (
                isinstance(stmt, (ast.Assign, ast.AnnAssign))
                and isinstance(target, ast.Name)
            ):
                continue  # rebinding a local creates a new object
            while isinstance(target, ast.Subscript):
                target = target.value
            path = dotted(target)
            if path is not None:
                yield path, target
    for call in (n for n in ast.walk(stmt) if isinstance(n, ast.Call)):
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in MUTATING_METHODS
        ):
            path = dotted(call.func.value)
            if path is not None:
                yield path, call


def _covers(entry: str, path: str) -> bool:
    return path == entry or path.startswith(entry + ".")


@register
class LockDisciplineRule(Rule):
    name = "lock-discipline"
    description = (
        "state declared in __guarded_by__ is only called/mutated inside "
        "`with <lock>:`"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        spec = guarded_spec(tree)
        if not spec:
            return
        locks = frozenset(spec.values())
        findings: list[Finding] = []

        def check_stmt(stmt: ast.stmt, held: frozenset[str]) -> None:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted(node.func)
                if name in spec and spec[name] not in held:
                    findings.append(ctx.finding(
                        self.name, node,
                        f"call to guarded {name}() outside "
                        f"`with {spec[name]}:`",
                    ))
            for path, node in _mutated_paths(stmt):
                for entry, lock in spec.items():
                    if _covers(entry, path) and lock not in held:
                        findings.append(ctx.finding(
                            self.name, node,
                            f"mutation of {path} (guarded by {lock}) "
                            f"outside `with {lock}:`",
                        ))

        def scan(body: list[ast.stmt], held: frozenset[str], init: bool) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scan(stmt.body, frozenset(),
                         stmt.name in ("__init__", "__new__"))
                elif isinstance(stmt, ast.ClassDef):
                    scan(stmt.body, held, init)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    acquired = {
                        d for item in stmt.items
                        if (d := dotted(item.context_expr)) in locks
                    }
                    scan(stmt.body, held | acquired, init)
                elif isinstance(stmt, (ast.If, ast.While)):
                    if not init:
                        check_stmt(ast.Expr(value=stmt.test), held)
                    scan(stmt.body, held, init)
                    scan(stmt.orelse, held, init)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    if not init:
                        check_stmt(ast.Expr(value=stmt.iter), held)
                    scan(stmt.body, held, init)
                    scan(stmt.orelse, held, init)
                elif isinstance(stmt, ast.Try):
                    scan(stmt.body, held, init)
                    for handler in stmt.handlers:
                        scan(handler.body, held, init)
                    scan(stmt.orelse, held, init)
                    scan(stmt.finalbody, held, init)
                elif not init:
                    check_stmt(stmt, held)

        scan(tree.body, frozenset(), False)
        yield from findings
