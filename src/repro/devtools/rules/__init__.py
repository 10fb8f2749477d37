"""The project-specific rule catalogue.

Importing this package registers every rule with
:mod:`repro.devtools.astlint`; each module documents the invariant it
encodes (see also ``docs/devtools.md``).
"""

from . import (  # noqa: F401  (imported for their registration side effect)
    bare_except,
    counter_protocol,
    kernel_purity,
    lock_discipline,
    no_implicit_float64,
)

__all__ = [
    "bare_except",
    "counter_protocol",
    "kernel_purity",
    "lock_discipline",
    "no_implicit_float64",
]
