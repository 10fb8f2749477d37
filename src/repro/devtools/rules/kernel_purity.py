"""``kernel-purity`` — numeric kernels mutate only their output block.

The GETRF/GESSM/TSTRF/SSSSM kernels run concurrently under the threaded
and distributed engines; the protocol serialises writes to each task's
*designated* target block and nothing else.  A kernel that writes an
operand block races with every other reader of that block, and hidden
nondeterminism (``np.random``, wall-clock reads, module-level mutable
state) breaks the engines-agree cross-checks.  The rule enforces, per
kernel module:

* a ``<role>_*`` kernel writes only through its output parameter (by
  calling convention: ``getrf_*``/``ssssm_*`` → first parameter,
  ``gessm_*``/``tstrf_*``/``diag_*`` → second, ``prod_*`` → none: it
  returns its products), and so the
  shared ``panel_*`` solves the GESSM/TSTRF names call: the triangle of
  the factored diagonal block comes first and is read-only, the block or
  dense panel solved in place second), its ``ws`` workspace and its
  ``image`` — the dense image of that same output block, which the
  factorisation keeps open across the block's writers, one at a time by
  the DAG — one level of local aliasing (``c_data = c.data``) is
  resolved.  The writable
  parameters are named, not keyword-only by kind: every other
  keyword-only parameter is a read-only operand like the rest — they
  carry the cached dense images of the factorisation's panel cache
  (``inv=``, ``a_dense=``, ``b_dense=``), which other lanes read at the
  same time;
* no ``import time`` / ``import random`` / ``np.random`` usage;
* no module-level mutable state except ALL_CAPS registry constants, and
  no ``global`` statements inside kernels.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..astlint import FileContext, Finding, Rule, register
from ._util import dotted, functions, mutation_roots, root_name

#: kernel-role prefix → index of the writable (output) parameter, None
#: for none (the tsolve roles are the phase-5 segment kernels:
#: ``diag_seg`` writes its RHS segment — second parameter; a
#: block-product kernel writes no parameter — ``prod_stack`` takes its
#: blocks first and returns its stack; either direction, ``A`` or ``Aᵀ``)
_WRITABLE_PARAM = {
    "getrf": 0, "gessm": 1, "tstrf": 1, "ssssm": 0,
    "panel": 1, "diag": 1, "prod": None,
}

#: parameters any kernel may write, by name: the lane's scratch workspace
#: and the dense image of the kernel's own output block
_WRITABLE_BY_NAME = {"ws", "image"}

_BANNED_MODULES = {"time", "random"}


def _value_roots(value: ast.AST) -> set[str]:
    """Root names of the storage an assigned value may be (either arm
    of a conditional)."""
    if isinstance(value, ast.IfExp):
        return _value_roots(value.body) | _value_roots(value.orelse)
    root = root_name(value)
    return {root} if root else set()


def _alias_map(fn: ast.FunctionDef, params: set[str]) -> dict[str, set[str]]:
    """Locals that may alias a parameter's storage: ``c_data = c.data``
    maps ``c_data → {c}``.  A tuple target takes the roots of its own
    element of a tuple value, else of the whole value, so ``pa, a_img =
    box_image(a, 0) if a_dense is None else a_dense[:2]`` maps ``a_img →
    {a_dense}``."""
    aliases: dict[str, set[str]] = {}
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            pairs = list(zip(target.elts, value.elts))
        else:
            names = target.elts if isinstance(target, ast.Tuple) else [target]
            pairs = [(t, value) for t in names]
        for t, v in pairs:
            roots = _value_roots(v) & params
            if isinstance(t, ast.Name) and roots:
                aliases[t.id] = roots
    return aliases


@register
class KernelPurityRule(Rule):
    name = "kernel-purity"
    description = (
        "kernels write only their designated output block; no randomness, "
        "clocks, or module-level mutable state"
    )
    files = (
        "*/repro/kernels/getrf.py",
        "*/repro/kernels/gessm.py",
        "*/repro/kernels/tstrf.py",
        "*/repro/kernels/ssssm.py",
        "*/repro/kernels/tsolve_kernels.py",
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_module_state(tree, ctx)
        for fn in functions(tree):
            role = fn.name.split("_", 1)[0]
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    yield ctx.finding(
                        self.name, node,
                        f"`global` inside kernel module function {fn.name}() "
                        "— kernels must not touch module state",
                    )
                path = dotted(node) if isinstance(node, ast.Attribute) else None
                if path in ("np.random", "numpy.random"):
                    yield ctx.finding(
                        self.name, node,
                        "np.random in a kernel module — kernels must be "
                        "deterministic",
                    )
            if role not in _WRITABLE_PARAM:
                continue
            yield from self._check_writes(fn, ctx)

    def _check_module_state(
        self, tree: ast.Module, ctx: FileContext
    ) -> Iterator[Finding]:
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                names = (
                    [stmt.module or ""]
                    if isinstance(stmt, ast.ImportFrom)
                    else [a.name for a in stmt.names]
                )
                for name in names:
                    if name.split(".")[0] in _BANNED_MODULES:
                        yield ctx.finding(
                            self.name, stmt,
                            f"import of {name!r} in a kernel module — no "
                            "clocks or randomness inside kernels",
                        )
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Name)
                        and not target.id.isupper()
                        and not (
                            target.id.startswith("__")
                            and target.id.endswith("__")
                        )
                        and isinstance(
                            stmt.value,
                            (ast.Dict, ast.List, ast.Set, ast.DictComp,
                             ast.ListComp, ast.SetComp),
                        )
                    ):
                        yield ctx.finding(
                            self.name, stmt,
                            f"module-level mutable state {target.id!r} in a "
                            "kernel module — use an ALL_CAPS immutable "
                            "registry or move it into the function",
                        )

    def _check_writes(self, fn: ast.FunctionDef, ctx: FileContext) -> Iterator[Finding]:
        params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        widx = _WRITABLE_PARAM[fn.name.split("_", 1)[0]]
        if widx is not None and widx >= len(params):
            return
        output = None if widx is None else params[widx]
        writable = {output, *_WRITABLE_BY_NAME}
        operands = set(params) | {a.arg for a in fn.args.kwonlyargs}
        readonly = operands - writable
        aliases = _alias_map(fn, operands)
        for stmt in ast.walk(fn):
            if not isinstance(stmt, ast.stmt):
                continue
            for root, node in mutation_roots(stmt):
                for owner in sorted(aliases.get(root, {root}) & readonly):
                    yield ctx.finding(
                        self.name, node,
                        f"kernel {fn.name}() mutates read-only operand "
                        f"{owner!r} (designated output is {output!r}) — "
                        "another task may be reading that block concurrently",
                    )
