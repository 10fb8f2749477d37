"""``unused-noqa`` — suppression comments must still suppress something.

A ``# repro: noqa[rule]`` that no longer matches any finding is not
harmless: it sits there waiting for the rule to regress at that site and
silently mask it.  This rule compares the raw (pre-suppression)
findings of every other check on the file — the per-file rules that
apply to it and the whole-program ones alike, as the driver collected
them in ``ctx.raw_findings`` — against the declared suppression sites:

* a line-level ``noqa[rule]`` with no finding of that rule on its line
  is stale;
* a file-level (standalone-comment) ``noqa[rule]`` with no finding of
  that rule anywhere in the file is stale;
* a ``noqa[rule]`` naming a rule that does not exist is flagged too —
  usually a typo that never suppressed anything.

Blanket ``# repro: noqa`` comments are held to the same standard: stale
unless *some* rule fires at their scope.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..astlint import _ALL, FileContext, Finding, Rule, all_rules, register


class _Anchor:
    """A fake node carrying just the position of the comment."""

    def __init__(self, line: int) -> None:
        self.lineno = line
        self.col_offset = 0


@register
class UnusedNoqaRule(Rule):
    name = "unused-noqa"
    description = (
        "`# repro: noqa[rule]` comments still suppress at least one "
        "finding (stale suppressions can mask regressions)"
    )
    suppressible = False  # a blanket noqa must not hide its own staleness

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        registry = all_rules()
        by_line: dict[int, set[str]] = {}
        all_fired: set[str] = set()
        for f in ctx.raw_findings:
            by_line.setdefault(f.line, set()).add(f.rule)
            all_fired.add(f.rule)

        for line, name, file_level in ctx.suppression_sites:
            if name != _ALL and name not in registry:
                yield ctx.finding(
                    self.name,
                    _Anchor(line),
                    f"noqa names unknown rule {name!r} — it suppresses "
                    "nothing (typo?)",
                )
                continue
            if file_level:
                used = bool(all_fired) if name == _ALL else name in all_fired
                scope = "anywhere in this file"
            else:
                fired = by_line.get(line, set())
                used = bool(fired) if name == _ALL else name in fired
                scope = "on this line"
            if not used:
                label = "any rule" if name == _ALL else name
                yield ctx.finding(
                    self.name,
                    _Anchor(line),
                    f"stale suppression: {label} no longer fires {scope} "
                    "— remove the noqa so future findings are not masked",
                )
