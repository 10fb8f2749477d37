"""Cross-call dtype-flow analysis for the mixed-precision factor path.

The syntactic ``no-implicit-float64`` rule flags allocators that omit
``dtype=`` in the kernel modules; what it cannot see is the *flow*: an
array allocated without a dtype in one function (silently ``float64``)
handed into a function that combines it with ``float32`` factor data —
the exact leak that makes a mixed-precision run quietly promote its
working set.  This pass tracks an abstract dtype per local value:

* ``f32`` / ``f64`` — explicitly requested 32/64-bit float;
* ``imp64`` — float64 *by omission* (``np.zeros(n)`` with no dtype);
* ``unknown`` — anything the analysis cannot pin down (parameters,
  attribute loads, dtype variables).  ``unknown`` never flags.

Propagation follows assignments, ``astype``/``copy``/``asarray``/
``*_like`` calls, returns, and calls into project functions (return
summaries, including pass-through of parameter dtypes, computed to a
fixpoint).  A finding fires where ``f32`` meets ``imp64``:

* intra-function, at a ``BinOp``/``AugAssign`` mixing the two;
* cross-call, at a call site passing an ``imp64`` value into a
  parameter the callee mixes with ``f32`` (the mixing-parameter set is
  part of each function's summary, so the leak is reported where the
  implicit array *enters* the float32 path).

Explicit ``f64`` mixing with ``f32`` is deliberate (iterative
refinement does it by design) and is not flagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..astlint import Finding, ProjectRule, register
from ..rules._util import NUMPY_ALLOCATORS, NUMPY_NAMES
from .project import FunctionInfo, Project

__all__ = ["DtypeFlowRule", "analyze_dtype_flow"]

RULE = "dtype-flow"

F32 = "f32"
F64 = "f64"
IMP64 = "imp64"
UNKNOWN = "unknown"

_LIKE_ALLOCATORS = {"zeros_like", "empty_like", "ones_like", "full_like"}

_F32_NAMES = {"float32", "f4", "single"}
_F64_NAMES = {"float64", "f8", "double", "float"}


def _dtype_of_expr(node: ast.AST) -> str:
    """Abstract dtype denoted by a ``dtype=`` argument expression."""
    name = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    if name in _F32_NAMES:
        return F32
    if name in _F64_NAMES:
        return F64
    return UNKNOWN  # a dtype variable: explicit, just not statically known


def _dtype_argument(call: ast.Call, pos: int) -> ast.AST | None:
    for kw in call.keywords:
        if kw.arg == "dtype":
            return kw.value
    if len(call.args) > pos:
        return call.args[pos]
    return None


@dataclass
class _Summary:
    """What a function does with dtypes, as seen from its callers."""

    #: abstract dtype of the return value; ("param", i) = pass-through
    returns: object = UNKNOWN
    #: parameter indices the function mixes with f32 values
    f32_mix_params: set[int] = field(default_factory=set)


class _FunctionAnalysis(ast.NodeVisitor):
    def __init__(
        self,
        project: Project,
        fi: FunctionInfo,
        summaries: dict[str, _Summary],
        report: bool,
    ) -> None:
        self.project = project
        self.fi = fi
        self.summaries = summaries
        self.report = report
        self.findings: list[Finding] = []
        self.summary = _Summary()
        self.env: dict[str, object] = {}
        self.param_index = {p: i for i, p in enumerate(fi.params)}
        #: line where each imp64 local was allocated, for the message
        self.origin: dict[str, int] = {}

    # -- abstract evaluation -------------------------------------------
    def eval(self, node: ast.AST) -> object:
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in self.param_index:
                return ("param", self.param_index[node.id])
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            left, right = self.eval(node.left), self.eval(node.right)
            self._check_mix(left, right, node)
            return self._join(left, right)
        if isinstance(node, ast.Subscript):
            return self.eval(node.value)  # a slice keeps its array's dtype
        if isinstance(node, ast.IfExp):
            return self._join(self.eval(node.body), self.eval(node.orelse))
        return UNKNOWN

    def _eval_call(self, call: ast.Call) -> object:
        func = call.func
        # numpy allocators
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            base, attr = func.value.id, func.attr
            is_np = (
                base in NUMPY_NAMES
                or self.fi.module.imports.get(base) == "numpy"
            )
            if is_np and attr in NUMPY_ALLOCATORS:
                darg = _dtype_argument(call, NUMPY_ALLOCATORS[attr])
                return IMP64 if darg is None else _dtype_of_expr(darg)
            if is_np and attr in _LIKE_ALLOCATORS:
                darg = _dtype_argument(call, 99)  # keyword-only here
                if darg is not None:
                    return _dtype_of_expr(darg)
                return self.eval(call.args[0]) if call.args else UNKNOWN
            if is_np and attr in ("asarray", "ascontiguousarray", "array"):
                darg = _dtype_argument(call, 99)
                if darg is not None:
                    return _dtype_of_expr(darg)
                return self.eval(call.args[0]) if call.args else UNKNOWN
        # methods preserving / converting dtype
        if isinstance(func, ast.Attribute):
            if func.attr == "astype" and call.args:
                return _dtype_of_expr(call.args[0])
            if func.attr == "copy":
                return self.eval(func.value)
        # project calls: apply the callee summary
        callee = self.project.resolve_call(call, self.fi)
        if callee is not None:
            self._check_call_args(call, callee)
            summ = self.summaries.get(callee.qualname)
            if summ is not None:
                ret = summ.returns
                if isinstance(ret, tuple) and ret[0] == "param":
                    if len(call.args) > ret[1]:
                        return self.eval(call.args[ret[1]])
                    return UNKNOWN
                return ret
        return UNKNOWN

    @staticmethod
    def _join(a: object, b: object) -> object:
        vals = {a, b}
        if F64 in vals or IMP64 in vals:
            return F64 if F64 in vals else IMP64
        if vals == {F32}:
            return F32
        if F32 in vals:
            return F32
        return UNKNOWN

    # -- flagging ------------------------------------------------------
    def _check_mix(self, a: object, b: object, node: ast.AST) -> None:
        if F32 in (a, b):
            # a parameter combined with f32 data marks a mix position in
            # this function's summary, whatever the parameter's dtype is
            self.summary_mark_params(a)
            self.summary_mark_params(b)
        if {a, b} >= {F32, IMP64}:
            if self.report:
                self.findings.append(
                    Finding(
                        RULE,
                        self.fi.module.path,
                        getattr(node, "lineno", 0),
                        getattr(node, "col_offset", 0),
                        f"{self.fi.name}() mixes float32 data with an "
                        "array that is float64 only by omission — pass "
                        "an explicit dtype at the allocation site",
                    )
                )

    def summary_mark_params(self, val: object) -> None:
        if isinstance(val, tuple) and val[0] == "param":
            self.summary.f32_mix_params.add(val[1])

    def _check_call_args(self, call: ast.Call, callee: FunctionInfo) -> None:
        summ = self.summaries.get(callee.qualname)
        if summ is None or not summ.f32_mix_params:
            return
        offset = 1 if callee.cls is not None else 0  # skip `self`
        for i, arg in enumerate(call.args):
            target = i + offset
            if target not in summ.f32_mix_params:
                continue
            val = self.eval(arg)
            if val == IMP64 and self.report:
                self.findings.append(
                    Finding(
                        RULE,
                        self.fi.module.path,
                        getattr(call, "lineno", 0),
                        getattr(call, "col_offset", 0),
                        f"{self.fi.name}() passes an implicitly-float64 "
                        f"array into {callee.name}(), which mixes that "
                        "argument with float32 data — allocate with an "
                        "explicit dtype",
                    )
                )
            elif isinstance(val, tuple) and val[0] == "param":
                # propagate: our own parameter flows into a mix position
                self.summary.f32_mix_params.add(val[1])

    # -- statement handling --------------------------------------------
    def run(self) -> None:
        for stmt in self.fi.node.body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            val = self.eval(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env[target.id] = val
                    if val == IMP64:
                        self.origin[target.id] = stmt.lineno
                elif isinstance(target, ast.Subscript):
                    # store into an array element/slice
                    dst = self.eval(target.value)
                    self._check_mix(dst, val, stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = self.eval(stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            dst = self.eval(stmt.target)
            val = self.eval(stmt.value)
            self._check_mix(dst, val, stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                ret = self.eval(stmt.value)
                if self.summary.returns == UNKNOWN:
                    self.summary.returns = ret
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter)
            for s in stmt.body:
                self._statement(s)
            for s in stmt.orelse:
                self._statement(s)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            for s in stmt.body:
                self._statement(s)
            for s in stmt.orelse:
                self._statement(s)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            for s in stmt.body:
                self._statement(s)
            for s in stmt.orelse:
                self._statement(s)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr)
            for s in stmt.body:
                self._statement(s)
        elif isinstance(stmt, ast.Try):
            for block in (
                stmt.body,
                *[h.body for h in stmt.handlers],
                stmt.orelse,
                stmt.finalbody,
            ):
                for s in block:
                    self._statement(s)


def analyze_dtype_flow(project: Project) -> list[Finding]:
    functions = project.all_functions()
    summaries: dict[str, _Summary] = {
        fi.qualname: _Summary() for fi in functions
    }
    # bounded fixpoint for the summaries (silent passes), then one
    # reporting pass with the converged summaries
    for _ in range(3):
        changed = False
        for fi in functions:
            analysis = _FunctionAnalysis(project, fi, summaries, report=False)
            analysis.run()
            old = summaries[fi.qualname]
            new = analysis.summary
            if (
                new.returns != old.returns
                or new.f32_mix_params != old.f32_mix_params
            ):
                summaries[fi.qualname] = new
                changed = True
        if not changed:
            break

    findings: list[Finding] = []
    for fi in functions:
        analysis = _FunctionAnalysis(project, fi, summaries, report=True)
        analysis.run()
        findings.extend(analysis.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


@register
class DtypeFlowRule(ProjectRule):
    name = RULE
    description = "no implicitly-float64 arrays flowing into float32 kernel paths"

    def check_project(self, project: Project) -> list[Finding]:
        return analyze_dtype_flow(project)
