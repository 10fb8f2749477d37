"""``send-then-mutate`` — sent payloads are frozen from the send onward.

The transports enqueue payloads **by reference**: the loopback transport
hands the very same arrays to the receiving rank, and the
multiprocessing transport may still be pickling them on a feeder thread
when ``send`` returns.  Mutating an object after passing it to
``send``/``post_result`` therefore corrupts the message another rank is
about to read — the classic synchronisation-free-protocol bug (the
receiver has no way to detect a torn block).

Within each function, the rule tracks the names that flow into a
transport ``send(dst, payload)`` / ``post_result(msg)`` call — the
arguments themselves, names inside tuple/list literals, and one level of
dataflow through ``payload = (a, b.data, …)`` assignments — and flags
any in-place mutation of those objects on a later line of the same
function.  Rebinding a tracked name (``target = …``) releases it: the
name no longer refers to the sent object.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..astlint import FileContext, Finding, Rule, register
from ._util import functions, mutation_roots, root_name, send_payload


def _payload_roots(node: ast.AST, tuples: dict[str, set[str]]) -> set[str]:
    """Root names reachable from a payload expression, expanding names
    through one level of recorded tuple-literal assignments."""
    roots: set[str] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.Tuple, ast.List)):
            stack.extend(n.elts)
            continue
        root = root_name(n)
        if root is None:
            continue
        roots.add(root)
        roots.update(tuples.get(root, ()))
    return roots


@register
class SendThenMutateRule(Rule):
    name = "send-then-mutate"
    description = (
        "objects passed to a transport send()/post_result() are not "
        "mutated afterwards in the same function"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for fn in functions(tree):
            yield from self._check_function(fn, ctx)

    def _check_function(
        self, fn: ast.FunctionDef, ctx: FileContext
    ) -> Iterator[Finding]:
        # one level of dataflow: name → roots of the tuple assigned to it
        tuples: dict[str, set[str]] = {}
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, (ast.Tuple, ast.List))
            ):
                tuples[node.targets[0].id] = _payload_roots(node.value, {})

        # gather (line, priority, event) triples, replay them in source
        # order: rebinds release a name, mutations of a tracked name are
        # findings, sends start tracking their payload roots
        events: list[tuple[int, int, str, object]] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        events.append((node.lineno, 0, "rebind", target.id))
            if isinstance(node, ast.stmt):
                for root, mnode in mutation_roots(node):
                    events.append((mnode.lineno, 1, "mutate", (root, mnode)))
            payload_args = send_payload(node)
            if payload_args is not None:
                roots: set[str] = set()
                for arg in payload_args:
                    roots |= _payload_roots(arg, tuples)
                events.append((node.lineno, 2, "send", roots))

        sent: dict[str, int] = {}  # root name → line of the send
        seen_mutations: set[int] = set()  # dedupe nodes reached twice
        for line, _, kind, data in sorted(events, key=lambda e: (e[0], e[1])):
            if kind == "rebind":
                sent.pop(data, None)
            elif kind == "mutate":
                root, mnode = data
                at = sent.get(root)
                if at is not None and line > at and id(mnode) not in seen_mutations:
                    seen_mutations.add(id(mnode))
                    yield ctx.finding(
                        self.name, mnode,
                        f"{root!r} was passed to a transport send on line "
                        f"{at} and is mutated here — the receiver may "
                        "still be reading it (copy before mutating, or "
                        "send a copy)",
                    )
            else:
                for root in data:
                    sent.setdefault(root, line)
