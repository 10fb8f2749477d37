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
    no_block_rebind,
    no_direct_owner,
    no_global_blocksize,
    no_implicit_float64,
    picklable_messages,
    send_then_mutate,
    unused_noqa,
)

__all__ = [
    "bare_except",
    "counter_protocol",
    "kernel_purity",
    "lock_discipline",
    "no_block_rebind",
    "no_direct_owner",
    "no_global_blocksize",
    "no_implicit_float64",
    "picklable_messages",
    "send_then_mutate",
    "unused_noqa",
]
