"""``counter-protocol`` — dependency counters flow through SchedulerCore.

The synchronisation-free protocol is sound only because every counter
decrement happens inside :meth:`SchedulerCore.complete` (paired with a
ready-heap push, checked for underflow).  A raw store to
``core.counters``, ``core.remaining`` or a direct push/pop on
``core.ready`` from engine code bypasses the exactly-once and underflow
guards, so any such write outside ``runtime/scheduler.py`` (the one
module allowed to implement the protocol) is flagged.

The rule covers every scheduler consumer — the factorisation engines
*and* the phase-5 triangular-solve path (``core/tsolve.py``'s
``tsolve_lanes``, the ``tsolve_distributed`` engine), which drive the
same :class:`SchedulerCore` over the solve DAG.

The sanctioned methods have one sanctioned caller, too: the *loop
around* ``pop()``/``complete()`` — write locks, timing, tallies,
notify, publish, the error path — used to be written out once per
engine and phase, and the copies drifted.  It now lives in
``runtime/lanes.py`` alone, so a ``.pop()`` / ``.complete()`` call on a
scheduler core (a receiver named ``core`` / ``*_core`` / ``*.core``)
anywhere else in the package — outside the protocol module — is a
re-forked task loop and is flagged: configure :func:`~repro.runtime.lanes.run_lanes`
(lanes × endpoint) and supply a job instead.
"""

from __future__ import annotations

import ast
import fnmatch
from collections.abc import Iterator

from ..astlint import FileContext, Finding, Rule, register
from ._util import MUTATING_METHODS, dotted

#: SchedulerCore attributes engines must never write directly
_PROTOCOL_ATTRS = frozenset({"counters", "_counts", "remaining", "ready"})


#: the one module (besides the excluded protocol module) whose code may
#: drive a core's pop()/complete(): the lane driver
_LOOP_MODULE = "*/repro/runtime/lanes.py"
_LOOP_METHODS = frozenset({"pop", "complete"})


def _is_core(node: ast.AST) -> bool:
    """Receiver is named like a scheduler core (``core``, ``job.core``,
    ``rank_core``) — ``stack.pop()`` and ``done.pop(k)`` are not."""
    name = dotted(node)
    return name is not None and name.rsplit(".", 1)[-1].endswith("core")


def _protocol_attr(node: ast.AST) -> str | None:
    """The protocol attribute an expression reaches into, if any:
    ``core.counters[i]`` → ``counters``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in _PROTOCOL_ATTRS:
        # any attribute access counts; bare `counters = ...` locals are fine
        return node.attr
    return None


@register
class CounterProtocolRule(Rule):
    name = "counter-protocol"
    description = (
        "scheduler counters/ready-heap are only mutated via SchedulerCore "
        "methods, never raw stores, and only the lane driver calls those"
    )
    exclude = ("*/repro/runtime/scheduler.py",)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        is_driver = fnmatch.fnmatch(ctx.path.replace("\\", "/"), _LOOP_MODULE)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    attr = _protocol_attr(target)
                    if attr is not None:
                        yield ctx.finding(
                            self.name, target,
                            f"raw store to scheduler .{attr} — go through "
                            "SchedulerCore.complete()/pop() so the "
                            "exactly-once and underflow guards see it",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                # core.ready.append(...) / heapq.heappush(core.ready, ...)
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                    and _protocol_attr(func.value) is not None
                ):
                    yield ctx.finding(
                        self.name, node,
                        "in-place mutation of scheduler protocol state — "
                        "use SchedulerCore methods",
                    )
                elif (
                    not is_driver
                    and isinstance(func, ast.Attribute)
                    and func.attr in _LOOP_METHODS
                    and _is_core(func.value)
                ):
                    yield ctx.finding(
                        self.name, node,
                        f"{dotted(func)}() outside the lane driver — a "
                        "hand-written task loop; configure "
                        "repro.runtime.lanes.run_lanes (lanes × endpoint) "
                        "and supply a job instead",
                    )
                elif dotted(func) in ("heapq.heappush", "heapq.heappop"):
                    if node.args and _protocol_attr(node.args[0]) is not None:
                        yield ctx.finding(
                            self.name, node,
                            "direct heap operation on the scheduler ready-"
                            "heap — use SchedulerCore.pop()/complete()",
                        )
