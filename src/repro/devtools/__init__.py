"""Correctness tooling for the synchronisation-free runtime.

PanguLU's protocol (Section 5 of the paper) has no global barrier: every
kernel completion decrements dependency counters, and a single unguarded
mutation — or an in-place write to a block another rank still reads —
silently corrupts the factors.  Generic linters cannot check those
invariants, so this package encodes them directly:
:mod:`repro.devtools.astlint` is an AST static-analysis pass with one
catalogue of project-specific rules — per-module ones (lock discipline,
counter protocol, kernel purity, send-then-mutate, exception hygiene,
message picklability, …) and the whole-program ones of
:mod:`repro.devtools.flow` (lock order, dtype flow, payload escape).
Run every rule with ``python -m repro.devtools.lint src``.

The run-time half needs no tooling: every engine run checks the counter
protocol itself (:meth:`repro.runtime.scheduler.SchedulerCore.complete`
refuses a second completion, :meth:`~repro.runtime.scheduler.
SchedulerCore.check` names any task that never completed).  See
``docs/devtools.md`` for the rule catalogue and the always-on guards.
"""

from .astlint import (
    Finding,
    Rule,
    all_rules,
    lint_file,
    lint_paths,
    lint_source,
    register,
    render_json,
    render_text,
)

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
    "render_json",
    "render_text",
]
