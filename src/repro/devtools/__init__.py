"""Correctness tooling for the synchronisation-free runtime.

PanguLU's protocol (Section 5 of the paper) has no global barrier: every
kernel completion decrements dependency counters, and a single unguarded
mutation — or an in-place write to a block another rank still reads —
silently corrupts the factors.  Generic linters cannot check those
invariants, so this package encodes the ones no run-time check catches:
:mod:`repro.devtools.astlint` is an AST static-analysis pass with one
catalogue of 6 project-specific rules — per-module ones (lock
discipline and lock order, no re-forked task loop, kernel purity,
exception hygiene, explicit dtypes) and the whole-program dtype flow of
:mod:`repro.devtools.flow`.  Run every rule with
``python -m repro.devtools.lint src``.

The run-time half needs no tooling: every engine run checks the counter
protocol itself (:meth:`repro.runtime.scheduler.SchedulerCore.complete`
refuses a second completion, :meth:`~repro.runtime.scheduler.
SchedulerCore.check` names any task that never completed).  See
``docs/devtools.md`` for the rule catalogue, each rule's keep test and
the always-on guards.
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
