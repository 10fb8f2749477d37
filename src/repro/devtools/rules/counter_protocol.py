"""``counter-protocol`` — one task loop drives the scheduler cores.

:class:`~repro.runtime.scheduler.SchedulerCore` is driven by the *loop
around* ``pop()``/``complete()`` — timing, tallies, notify, publish,
the error path, the deadlock check.  That loop used to be written out once
per engine and phase, and the copies drifted.  It now lives in
``runtime/lanes.py`` alone, so a ``.pop()`` / ``.complete()`` call on a
scheduler core (a receiver named ``core`` / ``*_core`` / ``*.core``)
anywhere else in the package — outside the protocol module itself — is
a re-forked task loop and is flagged: configure
:func:`~repro.runtime.lanes.run_lanes` (lanes × endpoint) and supply a
job instead.

Raw stores to the counters are not this rule's business: ``complete()``
refuses a second completion and a counter driven below zero on every
run, which is what catches a hand-rolled decrement.
"""

from __future__ import annotations

import ast
import fnmatch
from collections.abc import Iterator

from ..astlint import FileContext, Finding, Rule, register
from ._util import dotted

#: the one module (besides the excluded protocol module) whose code may
#: drive a core's pop()/complete(): the lane driver
_LOOP_MODULE = "*/repro/runtime/lanes.py"
_LOOP_METHODS = frozenset({"pop", "complete"})


def _is_core(node: ast.AST) -> bool:
    """Receiver is named like a scheduler core (``core``, ``job.core``,
    ``rank_core``) — ``stack.pop()`` and ``done.pop(k)`` are not."""
    name = dotted(node)
    return name is not None and name.rsplit(".", 1)[-1].endswith("core")


@register
class CounterProtocolRule(Rule):
    name = "counter-protocol"
    description = (
        "only the lane driver calls a scheduler core's pop()/complete() "
        "(no re-forked task loops)"
    )
    exclude = ("*/repro/runtime/scheduler.py",)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        if fnmatch.fnmatch(ctx.path.replace("\\", "/"), _LOOP_MODULE):
            return
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _LOOP_METHODS
                and _is_core(node.func.value)
            ):
                yield ctx.finding(
                    self.name, node,
                    f"{dotted(node.func)}() outside the lane driver — a "
                    "hand-written task loop; configure "
                    "repro.runtime.lanes.run_lanes (lanes × endpoint) "
                    "and supply a job instead",
                )
