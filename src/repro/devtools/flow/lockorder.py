"""Whole-program lock-order analysis.

The per-module ``lock-discipline`` rule checks that operations named in
``__guarded_by__`` happen under their declared lock; it cannot see the
*order* in which locks nest, which is what actually deadlocks a
sync-free engine.  This pass builds the project-wide lock-acquisition
graph — node = lock, edge ``A → B`` = "B was acquired while A was held",
including acquisitions reached *through calls* — and reports every cycle
as a potential deadlock.

Lock discovery is structural:

* ``x = threading.Lock() / RLock() / Condition(...)`` at module,
  function, or ``self.x = ...`` scope;
* lists of locks (``[threading.Lock() for ...]``), directly or through a
  factory function whose return statement builds one — the whole list is
  one *family* node (``slot_locks``), since members are interchangeable
  for ordering purposes;
* names declared as lock keys in a module's ``__guarded_by__`` spec.

Holds are tracked linearly through each function: ``with lock:`` scopes,
and persistent ``lock.acquire()`` / ``lock.release()`` pairs (a
``finally`` release is seen before the statements that follow the
``try``, matching runtime order).  While any lock is held, acquiring
another records an edge; calling a project function records an edge to
every lock that callee (transitively) acquires.

Two deliberate exclusions, both under-approximations:

* *family self-edges* (``slot_locks[i]`` acquired while ``slot_locks[j]``
  is held) are skipped — members of a family are acquired in slot order
  by convention, which a static pass cannot check, and flagging every
  multi-member hold would bury real cross-lock cycles;
* calls whose receiver cannot be resolved (see
  :mod:`repro.devtools.flow.project`) contribute no edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..astlint import Finding, ProjectRule, register
from .project import FunctionInfo, Project

__all__ = ["LockOrderRule", "analyze_lock_order"]

RULE = "lock-order"

_LOCK_CTORS = {"Lock", "RLock", "Condition"}


def _is_lock_ctor(node: ast.AST) -> bool:
    """``threading.Lock()`` / ``Lock()`` / ``RLock()`` / ``Condition(..)``."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Name):
        return f.id in _LOCK_CTORS
    if isinstance(f, ast.Attribute):
        return f.attr in _LOCK_CTORS
    return False


def _is_lock_list(node: ast.AST) -> bool:
    """A list literal / comprehension of lock constructors."""
    if isinstance(node, ast.List):
        return bool(node.elts) and all(_is_lock_ctor(e) for e in node.elts)
    if isinstance(node, ast.ListComp):
        return _is_lock_ctor(node.elt)
    return False


def _returns_lock_list(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            if _is_lock_list(node.value) or _is_lock_ctor(node.value):
                return True
    return False


@dataclass
class _Site:
    path: str
    line: int


@dataclass
class _FnFacts:
    """Per-function acquisition facts gathered by the linear walk."""

    #: lock ids acquired anywhere in the function body
    direct: set[str] = field(default_factory=set)
    #: (held ids, acquired id, site) for every nested acquisition
    nested: list[tuple[frozenset[str], str, _Site]] = field(
        default_factory=list
    )
    #: (held ids, resolved callee, site) for every call made under a lock
    calls: list[tuple[frozenset[str], FunctionInfo, _Site]] = field(
        default_factory=list
    )


class _FunctionWalker:
    """Linear walk of one function tracking the held-lock set."""

    def __init__(
        self,
        project: Project,
        fi: FunctionInfo,
        env: dict[str, str],
        lock_factories: set[str],
    ) -> None:
        self.project = project
        self.fi = fi
        self.env = dict(env)         # local name / "self.attr" → lock id
        self.lock_factories = lock_factories
        self.facts = _FnFacts()
        self.held: set[str] = set()

    # -- lock identity -------------------------------------------------
    def lock_id(self, expr: ast.AST) -> str | None:
        if isinstance(expr, ast.Subscript):        # family member
            return self.lock_id(expr.value)
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            return self.env.get(f"{expr.value.id}.{expr.attr}")
        return None

    # -- events --------------------------------------------------------
    def _site(self, node: ast.AST) -> _Site:
        return _Site(self.fi.module.path, getattr(node, "lineno", 0))

    def _acquire(self, lid: str, node: ast.AST) -> None:
        self.facts.direct.add(lid)
        if self.held - {lid}:
            self.facts.nested.append(
                (frozenset(self.held - {lid}), lid, self._site(node))
            )

    def _scan_expr(self, node: ast.AST) -> None:
        """Process one expression (or simple statement): persistent
        ``acquire()``/``release()`` effects, and call edges while any
        lock is held."""
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            if isinstance(sub.func, ast.Attribute) and sub.func.attr in (
                "acquire",
                "release",
            ):
                lid = self.lock_id(sub.func.value)
                if lid is not None:
                    if sub.func.attr == "acquire":
                        self._acquire(lid, sub)
                        self.held.add(lid)
                    else:
                        self.held.discard(lid)
                    continue
            if self.held:
                callee = self.project.resolve_call(sub, self.fi)
                if callee is not None and callee.node is not self.fi.node:
                    self.facts.calls.append(
                        (frozenset(self.held), callee, self._site(sub))
                    )

    def _define_from_assign(self, stmt: ast.Assign) -> None:
        value = stmt.value
        lid: str | None = None
        if _is_lock_ctor(value) or _is_lock_list(value):
            lid = ""
        elif isinstance(value, ast.Call):
            callee = self.project.resolve_call(value, self.fi)
            if callee is not None and callee.qualname in self.lock_factories:
                lid = ""
        if lid is None:
            return
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                key = target.id
            elif isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                key = f"{target.value.id}.{target.attr}"
            else:
                continue
            scope = (
                f"{self.fi.cls}" if key.startswith("self.") and self.fi.cls
                else self.fi.name
            )
            self.env[key] = f"{self.fi.module.name}:{scope}.{key}"

    # -- statement walk ------------------------------------------------
    def walk(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            scoped: list[str] = []
            for item in stmt.items:
                lid = self.lock_id(item.context_expr)
                if lid is not None:
                    self._acquire(lid, item.context_expr)
                    if lid not in self.held:
                        self.held.add(lid)
                        scoped.append(lid)
                else:
                    self._scan_expr(item.context_expr)
            self.walk(stmt.body)
            for lid in scoped:
                self.held.discard(lid)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._scan_expr(stmt.test)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._scan_expr(stmt.test)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self.walk(stmt.body)
            for handler in stmt.handlers:
                self.walk(handler.body)
            self.walk(stmt.orelse)
            self.walk(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            # nested definitions are analysed as functions of their own
            # (Project lists them separately); their bodies do not run
            # at definition time, so they contribute nothing here
            return
        else:
            if isinstance(stmt, ast.Assign):
                self._define_from_assign(stmt)
            self._scan_expr(stmt)


def _module_env(project: Project) -> dict[str, dict[str, str]]:
    """Per-module name → lock id for module-level and ``self.`` locks,
    seeded from both structural discovery and ``__guarded_by__`` keys."""
    envs: dict[str, dict[str, str]] = {}
    for mi in project.modules.values():
        env: dict[str, str] = {}
        for stmt in mi.tree.body:
            if isinstance(stmt, ast.Assign) and (
                _is_lock_ctor(stmt.value) or _is_lock_list(stmt.value)
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = f"{mi.name}:{target.id}"
        for lock_name in set(mi.guarded.values()):
            env.setdefault(lock_name, f"{mi.name}:{lock_name}")
        # self.x = Lock() inside any method of a class
        for fi in mi.all_functions:
            if fi.cls is None:
                continue
            for node in ast.walk(fi.node):
                if isinstance(node, ast.Assign) and (
                    _is_lock_ctor(node.value) or _is_lock_list(node.value)
                ):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            env[f"self.{target.attr}"] = (
                                f"{mi.name}:{fi.cls}.{target.attr}"
                            )
        envs[mi.name] = env
    return envs


def analyze_lock_order(project: Project) -> list[Finding]:
    lock_factories = {
        fi.qualname
        for fi in project.all_functions()
        if _returns_lock_list(fi.node)
    }
    envs = _module_env(project)

    facts: dict[str, _FnFacts] = {}
    by_node: dict[int, str] = {}
    for fi in project.all_functions():
        walker = _FunctionWalker(
            project, fi, envs[fi.module.name], lock_factories
        )
        walker.walk(list(fi.node.body))
        facts[fi.qualname] = walker.facts
        by_node[id(fi.node)] = fi.qualname

    # transitive acquire summaries (fixpoint over the call graph)
    acquires = {q: set(f.direct) for q, f in facts.items()}
    changed = True
    while changed:
        changed = False
        for q, f in facts.items():
            for _, callee, _ in f.calls:
                extra = acquires.get(callee.qualname, set()) - acquires[q]
                if extra:
                    acquires[q] |= extra
                    changed = True

    # edges: held → acquired (direct nesting and through calls)
    edges: dict[tuple[str, str], _Site] = {}

    def add_edge(held: frozenset[str], acq: str, site: _Site) -> None:
        for h in held:
            if h == acq:
                continue  # family self-edge: slot-ordered by convention
            edges.setdefault((h, acq), site)

    for f in facts.values():
        for held, acq, site in f.nested:
            add_edge(held, acq, site)
        for held, callee, site in f.calls:
            for acq in acquires.get(callee.qualname, ()):
                add_edge(held, acq, site)

    return _cycles_to_findings(edges)


def _cycles_to_findings(
    edges: dict[tuple[str, str], _Site]
) -> list[Finding]:
    graph: dict[str, set[str]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())

    findings: list[Finding] = []
    reported: set[frozenset[str]] = set()

    # DFS cycle extraction: one finding per distinct lock set on a cycle
    def dfs(node: str, stack: list[str], on_stack: set[str]) -> None:
        stack.append(node)
        on_stack.add(node)
        for nxt in sorted(graph.get(node, ())):
            if nxt in on_stack:
                cycle = stack[stack.index(nxt):] + [nxt]
                key = frozenset(cycle)
                if key in reported:
                    continue
                reported.add(key)
                hops = " -> ".join(cycle)
                sites = []
                for a, b in zip(cycle, cycle[1:]):
                    site = edges.get((a, b))
                    if site is not None:
                        sites.append(f"{site.path}:{site.line}")
                anchor = edges[(cycle[0], cycle[1])]
                findings.append(
                    Finding(
                        RULE,
                        anchor.path,
                        anchor.line,
                        0,
                        f"potential deadlock: lock acquisition cycle "
                        f"{hops} (acquisitions at {', '.join(sites)})",
                    )
                )
            elif nxt not in visited:
                dfs(nxt, stack, on_stack)
        stack.pop()
        on_stack.discard(node)
        visited.add(node)

    visited: set[str] = set()
    for start in sorted(graph):
        if start not in visited:
            dfs(start, [], set())
    findings.sort(key=lambda f: (f.path, f.line))
    return findings


@register
class LockOrderRule(ProjectRule):
    name = RULE
    description = (
        "no cycles in the project-wide lock-acquisition graph "
        "(call-graph aware)"
    )

    def check_project(self, project: Project) -> list[Finding]:
        return analyze_lock_order(project)
