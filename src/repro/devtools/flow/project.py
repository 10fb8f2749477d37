"""Project-wide symbol table and call graph for the flow analyses.

The per-module AST rules in :mod:`repro.devtools.rules` see one file at
a time; a dtype chosen in one function and consumed three calls later
crosses function and module boundaries.  This module indexes the
trees the lint driver parsed (one parse per file, shared with the
per-file rules) and answers the two questions the flow passes keep
asking:

* *what functions exist* — :class:`FunctionInfo` records every module
  function, class method and nested closure, qualified as
  ``package.module:outer.inner`` / ``package.module:Class.method``;
* *what does this call resolve to* — :meth:`Project.resolve_call`
  follows plain names to module functions, ``from x import f`` aliases
  to their defining module, ``mod.f(...)`` through ``import`` aliases,
  and ``self.m(...)`` to the enclosing class's method.

Resolution is deliberately best-effort: calls through arbitrary objects
(``plans.get(...)`` where ``plans`` is a parameter) stay unresolved
rather than guessed, so the analyses built on top under-approximate the
call graph instead of inventing edges: a pass may miss a bug through
a dynamic call, but what it reports is real structure.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["FunctionInfo", "ModuleInfo", "Project"]


@dataclass
class FunctionInfo:
    """One function definition anywhere in the analysis set."""

    qualname: str                 # "repro.runtime.lanes:run_lanes.lane"
    module: "ModuleInfo"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None        # enclosing class name, if a method

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def params(self) -> list[str]:
        a = self.node.args
        names = [p.arg for p in a.posonlyargs] + [p.arg for p in a.args]
        return names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qualname})"


@dataclass
class ModuleInfo:
    """One parsed module: tree, import table, symbol tables."""

    name: str                     # dotted module name ("repro.core.dag")
    path: str
    tree: ast.Module
    #: local alias → dotted target: ``"np" -> "numpy"`` for module
    #: imports, ``"execute_task" -> "repro.core.numeric:execute_task"``
    #: for from-imports.
    imports: dict[str, str] = field(default_factory=dict)
    #: top-level functions and ``Class.method`` entries, by local key.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: every function in the module (nested closures included).
    all_functions: list[FunctionInfo] = field(default_factory=list)


def _module_name(path: Path) -> str:
    """Dotted module name from a file path: everything below the last
    ``src`` (or from the package root ``repro``) when anchored there,
    otherwise the chain of ``__init__.py``-bearing parent packages —
    fixture files analysed on their own become single-name modules."""
    parts = list(path.with_suffix("").parts)
    for anchor in ("src", "repro"):
        if anchor in parts:
            i = parts.index(anchor)
            parts = parts[i + 1 :] if anchor == "src" else parts[i:]
            break
    else:
        keep = [path.stem]
        parent = path.parent
        while (parent / "__init__.py").exists():
            keep.insert(0, parent.name)
            parent = parent.parent
        parts = keep
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def _resolve_relative(module: str, level: int, target: str | None) -> str:
    """Absolute dotted name of a ``from ..x import y`` base."""
    if level == 0:
        return target or ""
    base = module.split(".")
    # level 1 = current package (the module's parent), each extra level
    # climbs one more package
    base = base[: len(base) - level]
    if target:
        base.append(target)
    return ".".join(base)


class Project:
    """The whole analysis set: ``(path, parsed module)`` pairs indexed
    into modules, functions and imports."""

    def __init__(self, trees: Iterable[tuple[str, ast.Module]]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        for path, tree in trees:
            self._add_module(path, tree)

    def _add_module(self, path: str, tree: ast.Module) -> None:
        mi = ModuleInfo(name=_module_name(Path(path)), path=path, tree=tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    mi.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(mi.name, node.level, node.module)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    mi.imports[alias.asname or alias.name] = (
                        f"{base}:{alias.name}" if base else alias.name
                    )

        def add_fn(node, prefix: str, cls_name: str | None) -> None:
            key = f"{prefix}{node.name}" if prefix else node.name
            fi = FunctionInfo(
                qualname=f"{mi.name}:{key}", module=mi, node=node, cls=cls_name
            )
            mi.all_functions.append(fi)
            if prefix == "" or (cls_name and prefix == f"{cls_name}."):
                mi.functions[key] = fi
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add_fn(stmt, f"{key}.", cls_name)

        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add_fn(stmt, "", None)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        add_fn(sub, f"{stmt.name}.", stmt.name)

        self.modules[mi.name] = mi

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def all_functions(self) -> list[FunctionInfo]:
        return [
            fi for mi in self.modules.values() for fi in mi.all_functions
        ]

    def _lookup(self, module: str, symbol: str) -> FunctionInfo | None:
        mi = self.modules.get(module)
        if mi is None:
            return None
        fi = mi.functions.get(symbol)
        if fi is not None:
            return fi
        # one re-export hop: ``from .x import f`` in the named module
        target = mi.imports.get(symbol)
        if target and ":" in target:
            mod, sym = target.split(":", 1)
            other = self.modules.get(mod)
            if other is not None:
                return other.functions.get(sym)
        return None

    def resolve_call(
        self, call: ast.Call, caller: FunctionInfo
    ) -> FunctionInfo | None:
        """The project function this call targets, or ``None`` when the
        receiver cannot be resolved statically (see module docstring)."""
        mi = caller.module
        func = call.func
        if isinstance(func, ast.Name):
            fi = mi.functions.get(func.id)
            if fi is not None:
                return fi
            target = mi.imports.get(func.id)
            if target and ":" in target:
                mod, sym = target.split(":", 1)
                return self._lookup(mod, sym)
            return None
        if isinstance(func, ast.Attribute):
            recv = func.value
            if isinstance(recv, ast.Name):
                if recv.id == "self" and caller.cls is not None:
                    return mi.functions.get(f"{caller.cls}.{func.attr}")
                target = mi.imports.get(recv.id)
                if target:
                    if ":" not in target:
                        return self._lookup(target, func.attr)
                    # ``from . import util`` records "pkg:util": the
                    # imported symbol may itself be the module pkg.util
                    mod = target.replace(":", ".")
                    if mod in self.modules:
                        return self._lookup(mod, func.attr)
        return None
