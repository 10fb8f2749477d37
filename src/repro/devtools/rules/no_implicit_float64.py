"""``no-implicit-float64`` — value-array allocations name their dtype.

The mixed-precision factor path (``SolverOptions(factor_dtype="float32")``)
threads the working dtype through every layer that touches factor values:
block partitioning, the arena slabs, kernel scratch, the plan runners.
That chain only holds if no allocation along the way silently falls back
to NumPy's ``float64`` default — ``np.zeros(n)`` inside a kernel quietly
promotes a float32 pipeline back to double the moment its result mixes
into a block, and the resulting factors diverge *bitwise* between the
planned and unplanned execution paths (which the plan-cache tests require
to be identical).

So in the kernel, core and CSC-container modules every ``np.zeros`` /
``np.empty`` / ``np.ones`` / ``np.full`` call must say which dtype it
means — via the ``dtype=`` keyword or the positional dtype argument.
Explicit ``dtype=np.float64`` is fine (plenty of arrays — permutations
priced in flops, refinement residuals, scale vectors — are *deliberately*
double); what is banned is not saying.  The ``*_like`` and ``asarray``
constructors inherit their dtype from an operand and are untouched.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..astlint import FileContext, Finding, Rule, register
from ._util import NUMPY_ALLOCATORS, NUMPY_NAMES


def _implicit_allocation(node: ast.Call) -> str | None:
    """The allocator name if ``node`` allocates without naming a dtype."""
    func = node.func
    if not (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in NUMPY_NAMES
        and func.attr in NUMPY_ALLOCATORS
    ):
        return None
    if any(kw.arg == "dtype" for kw in node.keywords):
        return None
    # a positional dtype (``np.zeros(n, np.float32)``) also counts, but a
    # *-splat makes the arity unknowable statically — give it the benefit
    # of the doubt rather than flag spuriously
    if any(isinstance(a, ast.Starred) for a in node.args):
        return None
    if len(node.args) > NUMPY_ALLOCATORS[func.attr]:
        return None
    return func.attr


@register
class NoImplicitFloat64Rule(Rule):
    name = "no-implicit-float64"
    description = (
        "value-array allocations in kernel/core/CSC modules state their "
        "dtype explicitly (np.zeros(n) defaults to float64 and silently "
        "breaks the float32 factor path)"
    )
    files = (
        "*/repro/kernels/*.py",
        "*/repro/core/*.py",
        "*/repro/sparse/csc.py",
    )
    exclude = (
        "*/repro/devtools/*",
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            attr = _implicit_allocation(node)
            if attr is not None:
                yield ctx.finding(
                    self.name, node,
                    f"np.{attr}(...) without an explicit dtype defaults to "
                    "float64 — pass dtype= (the operand's dtype on the "
                    "factor path, np.float64 where double is intended)",
                )
