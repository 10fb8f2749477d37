"""Shared AST helpers for the lint rules.

The rules reason about a few recurring questions — *what dotted name is
this expression*, *what object does this statement mutate*, *which
state does the module declare lock-guarded*, *is this a NumPy
allocator* — so the answers live in one place.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

__all__ = [
    "dotted",
    "root_name",
    "MUTATING_METHODS",
    "mutation_roots",
    "functions",
    "guarded_spec",
    "NUMPY_ALLOCATORS",
    "NUMPY_NAMES",
]

#: methods that mutate their receiver in place (the ones this codebase
#: actually calls on shared containers and arrays)
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
    "fill", "put", "resize", "sort_indices", "merge",
})

#: NumPy allocator → position of its ``dtype`` parameter (0-based)
NUMPY_ALLOCATORS = {"zeros": 1, "empty": 1, "ones": 1, "full": 2}

#: module aliases NumPy is conventionally imported under
NUMPY_NAMES = frozenset({"np", "numpy"})


def dotted(node: ast.AST) -> str | None:
    """``"a.b.c"`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def root_name(node: ast.AST) -> str | None:
    """Leftmost ``Name`` of an attribute/subscript/call chain — the
    object a write through that chain ultimately lands on."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _target_roots(target: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """Root names written by an assignment target (tuple-aware).

    Plain ``Name`` targets are *rebindings*, not mutations, and are
    skipped — only writes through an attribute or subscript mutate an
    existing object.
    """
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_roots(elt)
        return
    if isinstance(target, (ast.Attribute, ast.Subscript)):
        root = root_name(target)
        if root is not None:
            yield root, target


def mutation_roots(stmt: ast.stmt) -> Iterator[tuple[str, ast.AST]]:
    """``(root name, node)`` pairs for every object this statement
    mutates in place.

    Covers attribute/subscript stores (``x.data[i] = v``, ``x.attr -=
    v``), ``del x[...]``, in-place method calls (``x.append(v)``,
    ``x.data.fill(0)``), ``np.add.at``/``np.subtract.at`` scatter stores,
    and ``gather_dense(x, …)`` (which writes ``x.data``).  Rebinding a
    bare name is not a mutation.
    """
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            if isinstance(stmt, ast.AugAssign) and isinstance(target, ast.Name):
                # `x += v` rebinding also mutates when x aliases an array;
                # conservative: report it
                yield target.id, target
            yield from _target_roots(target)
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            yield from _target_roots(target)
    for call in (
        n for n in ast.walk(stmt) if isinstance(n, ast.Call)
    ):
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            root = root_name(func.value)
            if root is not None:
                yield root, call
        name = dotted(func)
        if name in ("np.add.at", "np.subtract.at", "numpy.add.at",
                    "numpy.subtract.at") and call.args:
            root = root_name(call.args[0])
            if root is not None:
                yield root, call
        if name in ("gather_dense",) and call.args:
            root = root_name(call.args[0])
            if root is not None:
                yield root, call


def functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function definition in the tree, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def guarded_spec(tree: ast.Module) -> dict[str, str]:
    """``{guarded entry: lock name}`` from the module's ``__guarded_by__``
    declaration (empty when it declares nothing)."""
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "__guarded_by__"
            and isinstance(stmt.value, ast.Dict)
        ):
            spec: dict[str, str] = {}
            for key, value in zip(stmt.value.keys, stmt.value.values):
                if not isinstance(key, ast.Constant) or not isinstance(
                    value, (ast.Tuple, ast.List)
                ):
                    continue
                for elt in value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        spec[elt.value] = str(key.value)
            return spec
    return {}
