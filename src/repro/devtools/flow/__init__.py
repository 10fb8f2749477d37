"""The whole-program rule of the lint catalogue.

Where the :mod:`repro.devtools.rules` check one module at a time, the
rule in this package shares a project-wide symbol table and call graph
(:mod:`~repro.devtools.flow.project`) and checks an invariant that
crosses function and module boundaries:
:mod:`~repro.devtools.flow.dtypeflow` — implicit float64 arrays flowing
into float32 kernel paths (rule ``dtype-flow``).

It is a :class:`~repro.devtools.astlint.ProjectRule` registered in the
one catalogue: ``python -m repro.devtools.lint <paths>`` runs it with
the per-file rules over the same parse and selects it with
``--select``.
"""

from __future__ import annotations

from . import (  # noqa: F401  (imported for their registration side effect)
    dtypeflow,
)
from .project import Project

__all__ = ["Project"]
