"""The whole-program rules of the lint catalogue.

Where the :mod:`repro.devtools.rules` check one module at a time, the
rules in this package share a project-wide symbol table and call graph
(:mod:`~repro.devtools.flow.project`) and check invariants that cross
function and module boundaries:

* :mod:`~repro.devtools.flow.lockorder` — lock-acquisition cycles,
  including acquisitions reached through calls (rule ``lock-order``);
* :mod:`~repro.devtools.flow.dtypeflow` — implicit float64 arrays
  flowing into float32 kernel paths (rule ``dtype-flow``);
* :mod:`~repro.devtools.flow.escape` — transport payloads aliasing
  mutable scheduler or arena state (rule ``payload-escape``).

Each is a :class:`~repro.devtools.astlint.ProjectRule` registered in the
one catalogue: ``python -m repro.devtools.lint <paths>`` runs them with
the per-file rules over the same parse, selects them with ``--select``,
and honours ``# repro: noqa[rule]`` for them like for any rule.
"""

from __future__ import annotations

from . import (  # noqa: F401  (imported for their registration side effect)
    dtypeflow,
    escape,
    lockorder,
)
from .project import Project

__all__ = ["Project"]
