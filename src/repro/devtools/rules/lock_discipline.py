"""``lock-discipline`` — guarded state is only touched under its lock,
and a guarding lock is a leaf of the lock order.

The lane driver and the panel cache keep shared mutable state behind a
lock; which attribute belongs to which lock is *registered in the
module itself* via a module-level declaration::

    __guarded_by__ = {
        "gate": ("core.pop", "core.complete", "errors", "total.merge"),
        "self._lock": ("self._images", "self._uses"),
    }

Keys are the lock expressions as they appear at use sites (``with
gate:``, ``with self._lock:``); values are the guarded operations —
either a call (``core.pop``) or an object whose in-place mutation must
be serialised (``errors``, ``self._images``).  The rule flags any such
call or mutation outside a ``with <lock>:`` block.  Reads stay
lock-free (the repo's low-contention pattern); ``__init__``/``__new__``
are exempt because the object is not yet shared there.

The lock order is the other half of the invariant.  A lock declared
here is a leaf: nothing is taken while it is held (a task takes no
lock of its own — the DAG gives each block one writer — so the
package's locks never nest).  So inside ``with <lock>:`` the rule also
flags

* a nested ``with`` (or a later item of the same ``with``), an
  ``acquire()`` or an ``enter_context()``;
* a call to a function of the module that takes a lock, directly or
  through another such function;
* a call to a callable the enclosing function was handed (a
  parameter, like a cache's ``build``) — it could take any lock.

That is the whole lock order of the package, checked module by module:
the declared ``gate`` and the cache locks stay leaves.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..astlint import FileContext, Finding, Rule, register
from ._util import MUTATING_METHODS, dotted, functions, guarded_spec

_ACQUIRERS = frozenset({"acquire", "enter_context"})


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


def _callee(call: ast.Call) -> str | None:
    """``f`` for ``f(...)`` and ``self.f(...)`` — the module's own
    functions and methods."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and dotted(func.value) == "self":
        return func.attr
    return None


def _acquires(node: ast.AST) -> bool:
    return isinstance(node, (ast.With, ast.AsyncWith)) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _ACQUIRERS
    )


def _lock_takers(tree: ast.Module) -> set[str]:
    """Names of the module's functions that take a lock, directly or by
    calling another one."""
    defs = {fn.name: fn for fn in functions(tree)}
    takers = {
        name for name, fn in defs.items() if any(map(_acquires, ast.walk(fn)))
    }
    grew = True
    while grew:
        grew = False
        for name, fn in defs.items():
            if name not in takers and any(
                isinstance(n, ast.Call) and _callee(n) in takers
                for n in ast.walk(fn)
            ):
                takers.add(name)
                grew = True
    return takers


@register
class LockDisciplineRule(Rule):
    name = "lock-discipline"
    description = (
        "state declared in __guarded_by__ is only called/mutated inside "
        "`with <lock>:`, and nothing takes a lock under that lock"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        spec = guarded_spec(tree)
        if not spec:
            return
        locks = frozenset(spec.values())
        takers = _lock_takers(tree)
        findings: list[Finding] = []

        def nested(node: ast.AST, what: str, held: frozenset[str]) -> None:
            lock = sorted(held)[0]
            findings.append(ctx.finding(
                self.name, node,
                f"{what} while holding {lock} — a guarding lock is a leaf "
                "of the lock order: take nothing under it",
            ))

        def check_stmt(
            stmt: ast.stmt, held: frozenset[str], params: frozenset[str]
        ) -> None:
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
                if not held:
                    continue
                call = f"{ast.unparse(node.func)}()"
                if _acquires(node):
                    nested(node, call, held)
                elif _callee(node) in takers:
                    nested(node, f"{call}, which takes a lock,", held)
                elif name in params:
                    nested(node, f"{call}, a callable handed in,", held)
            for path, node in _mutated_paths(stmt):
                for entry, lock in spec.items():
                    if _covers(entry, path) and lock not in held:
                        findings.append(ctx.finding(
                            self.name, node,
                            f"mutation of {path} (guarded by {lock}) "
                            f"outside `with {lock}:`",
                        ))

        def scan(
            body: list[ast.stmt], held: frozenset[str], init: bool,
            params: frozenset[str] = frozenset(),
        ) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    a = stmt.args
                    scan(stmt.body, frozenset(),
                         stmt.name in ("__init__", "__new__"),
                         frozenset(p.arg for p in (*a.posonlyargs, *a.args,
                                                   *a.kwonlyargs)))
                elif isinstance(stmt, ast.ClassDef):
                    scan(stmt.body, held, init)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    inner = held
                    for item in stmt.items:
                        if inner:
                            nested(item.context_expr,
                                   f"`with {ast.unparse(item.context_expr)}`",
                                   inner)
                        if (expr := dotted(item.context_expr)) in locks:
                            inner = inner | {expr}
                    scan(stmt.body, inner, init, params)
                elif isinstance(stmt, (ast.If, ast.While)):
                    if not init:
                        check_stmt(ast.Expr(value=stmt.test), held, params)
                    scan(stmt.body, held, init, params)
                    scan(stmt.orelse, held, init, params)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    if not init:
                        check_stmt(ast.Expr(value=stmt.iter), held, params)
                    scan(stmt.body, held, init, params)
                    scan(stmt.orelse, held, init, params)
                elif isinstance(stmt, ast.Try):
                    scan(stmt.body, held, init, params)
                    for handler in stmt.handlers:
                        scan(handler.body, held, init, params)
                    scan(stmt.orelse, held, init, params)
                    scan(stmt.finalbody, held, init, params)
                elif not init:
                    check_stmt(stmt, held, params)

        scan(tree.body, frozenset(), False)
        yield from findings
