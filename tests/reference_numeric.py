"""Test-only reference run of the numeric phase: every task through the
selected variant's *own* loop.

:func:`replay_unplanned` walks the DAG in task-id order (a topological
order, and the order in which the sequential engine applies the updates
of any one block) and calls ``execute_task(..., plans=None,
panels=None)`` — no execution plan, no cached image, nothing kept
between tasks.  Planned and image-fed runs must reproduce its factors
bit for bit (``tests/test_plans.py``, ``tests/test_panel_cache.py``);
``benchmarks/bench_ablation_plans.py`` times it as the unplanned side.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro.core.numeric import NumericOptions, execute_task, task_features
from repro.kernels import KernelType, Workspace


def replay_unplanned(bm, dag, options: NumericOptions | None = None, *, tids=None):
    """Factorise ``bm`` in place without plan or panel cache.

    ``tids`` restricts the run to a predecessor-closed subset of task
    ids (what ``partial_factorize`` runs).  Returns ``{tid:
    "TYPE/VERSION"}`` as ``RunReport.kernel_choices`` would.
    """
    options = options or NumericOptions()
    ws = Workspace()
    keep = None if tids is None else set(tids)
    choices = {}
    for task in dag.tasks:
        if keep is not None and task.tid not in keep:
            continue
        ktype = KernelType[task.ttype.name]
        version = options.selector.select(ktype, task_features(bm, task))
        _, planned = execute_task(
            bm, task, version, ws, pivot_floor=options.pivot_floor,
            plans=None, panels=None,
        )
        assert not planned
        choices[task.tid] = f"{ktype.value}/{version}"
    return choices
