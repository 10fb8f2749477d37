"""ASCII Gantt rendering of recorded schedules.

Turns an :class:`~repro.runtime.scheduler.EventRecorder` — of a
simulated run or a real one — into a per-lane timeline (one row per
process/worker/rank, one glyph per time bucket) so schedule differences
— barrier gaps under level-set vs dense packing under sync-free — are
visible in a terminal, without any plotting dependency.
"""

from __future__ import annotations

import numpy as np

from ..runtime.scheduler import EventRecorder

__all__ = ["render_gantt"]

#: glyph per task category, in order of first appearance (cycles if
#: there are more categories)
_GLYPHS = "FLUS*+#@"


def render_gantt(
    recorder: EventRecorder, *, width: int = 72, max_procs: int = 16
) -> str:
    """Render the recorded task spans as text.

    Parameters
    ----------
    recorder:
        The run's events; its task spans are drawn on their lanes, time
        rebased to the earliest span.
    width:
        Characters per timeline.
    max_procs:
        Rows to render (lanes beyond this are summarised).

    Busy buckets show the glyph of the task category covering the
    bucket's midpoint (ties: the task that started last); idle buckets
    show ``·``.  The legend maps glyphs to categories.
    """
    spans = recorder.task_events
    base = min((e.t0 for e in spans), default=0.0)
    makespan = max((e.t1 for e in spans), default=base) - base or 1.0
    cats = list(dict.fromkeys(e.cat for e in spans))
    glyph = {c: _GLYPHS[i % len(_GLYPHS)] for i, c in enumerate(cats)}
    edges = np.linspace(0.0, makespan, width + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    nprocs = max((e.worker for e in spans), default=-1) + 1
    shown = min(nprocs, max_procs)
    rows = [["·"] * width for _ in range(shown)]
    busy = np.zeros(shown)
    for e in sorted(spans, key=lambda e: e.t0):
        if e.worker >= shown:
            continue
        s, t = e.t0 - base, e.t1 - base
        busy[e.worker] += t - s
        for b in np.flatnonzero((mids >= s) & (mids < t)):
            rows[e.worker][b] = glyph[e.cat]
    lines = [
        f"p{p:<3d} |{''.join(row)}| {100.0 * busy[p] / makespan:5.1f}% busy"
        for p, row in enumerate(rows)
    ]
    if nprocs > shown:
        lines.append(f"… {nprocs - shown} more processes not shown")
    legend = " ".join(f"{glyph[c]}={c}" for c in cats)
    lines.append(
        f"time 0 … {makespan * 1e3:.3f} ms   (glyphs: {legend}; '·' idle)"
    )
    return "\n".join(lines)
