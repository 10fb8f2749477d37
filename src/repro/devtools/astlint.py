"""Project-specific AST static analysis.

A deliberately small rule framework: each rule is an object with a
``name``, a set of file patterns it applies to, and a ``check`` method
that walks one parsed module and yields :class:`Finding`\\ s.  The
rules live in :mod:`repro.devtools.rules`; they encode invariants of
*this* codebase — the lock discipline and lock order of the lane
driver, its one task loop, kernel purity, explicit dtypes — none of
which a generic linter can know about.

There is no suppression comment: a finding is fixed in the code, or
the rule is fixed.

Run every rule with ``python -m repro.devtools.lint <paths>`` (text or
JSON output) — it needs nothing outside the standard library, so it is
the lint gate that runs even where ruff is not installed.
"""

from __future__ import annotations

import ast
import fnmatch
import json
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "register",
    "all_rules",
    "lint_source",
    "lint_file",
    "lint_paths",
    "render_text",
    "render_json",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source position."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


class FileContext:
    """The file under analysis, as a rule sees it: its path (posix, as
    given), which anchors every finding."""

    def __init__(self, path: str) -> None:
        self.path = path

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` at ``node``'s position."""
        return Finding(
            rule,
            self.path,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
            message,
        )


class Rule:
    """Base class of a lint rule.

    Subclasses set ``name`` (the kebab-case id used in reports and
    ``--select``), ``description`` (one line, shown by ``--list-rules``),
    ``files``/``exclude`` (fnmatch patterns against the posix path; an
    empty ``files`` means every Python file), and implement
    :meth:`check`.
    """

    name: str = ""
    description: str = ""
    files: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        p = path.replace("\\", "/")
        if any(fnmatch.fnmatch(p, pat) for pat in self.exclude):
            return False
        if not self.files:
            return True
        return any(fnmatch.fnmatch(p, pat) for pat in self.files)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError


_RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule (instantiated once) to the registry."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    _RULES[cls.name] = cls()
    return cls


def all_rules() -> dict[str, Rule]:
    """Name → rule instance for every registered rule (loads the rule
    modules on first use)."""
    from . import rules  # noqa: F401  (importing registers the rules)

    return dict(_RULES)


def _resolve(select: Sequence[str] | None) -> list[Rule]:
    registry = all_rules()
    if select is None:
        return list(registry.values())
    missing = [name for name in select if name not in registry]
    if missing:
        raise ValueError(
            f"unknown rule(s) {missing}; known: {sorted(registry)}"
        )
    return [registry[name] for name in select]


def _analyze(
    sources: Iterable[tuple[str, str]],
    rules: Sequence[Rule],
    path_filters: bool,
) -> list[Finding]:
    """The one driver: parse each ``(path, source)`` once, then run each
    of ``rules`` that applies to it (every rule when ``path_filters`` is
    off)."""
    findings: list[Finding] = []
    for path, source in sources:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(Finding(
                "syntax-error", path, exc.lineno or 0, exc.offset or 0,
                f"cannot parse: {exc.msg}",
            ))
            continue
        ctx = FileContext(path)
        for rule in rules:
            if not path_filters or rule.applies_to(path):
                findings.extend(rule.check(tree, ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Run ``rules`` (default: all registered, path filters applied)
    over one source string.  Passing ``rules`` explicitly bypasses the
    per-rule path filters — that is how the fixture tests drive a single
    rule against a snippet living anywhere."""
    if rules is None:
        return _analyze([(path, source)], _resolve(None), path_filters=True)
    return _analyze([(path, source)], rules, path_filters=False)


def lint_file(path: str | Path, rules: Sequence[Rule] | None = None) -> list[Finding]:
    p = Path(path)
    return lint_source(p.read_text(), str(p), rules=rules)


def lint_paths(
    paths: Iterable[str | Path],
    select: Sequence[str] | None = None,
) -> list[Finding]:
    """Lint files and directory trees (``**/*.py`` under a directory;
    deliberate-violation fixtures under ``devtools_fixtures`` are skipped
    when walking a tree, analysed when named)."""
    rules = _resolve(select)
    files: list[Path] = []
    for entry in map(Path, paths):
        if entry.is_dir():
            files.extend(
                f for f in sorted(entry.rglob("*.py"))
                if "devtools_fixtures" not in f.parts
            )
        else:
            files.append(entry)
    return _analyze(
        ((str(f), f.read_text()) for f in files), rules, path_filters=True
    )


def render_text(findings: Sequence[Finding]) -> str:
    lines = [f.format() for f in findings]
    lines.append(
        f"{len(findings)} finding{'s' if len(findings) != 1 else ''}"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    return json.dumps([asdict(f) for f in findings], indent=2)
