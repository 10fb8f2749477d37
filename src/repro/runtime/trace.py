"""Chrome-tracing export of recorded runs, real and simulated.

Serialises the structured events of an
:class:`~repro.runtime.scheduler.EventRecorder` into the Trace Event
Format consumed by ``chrome://tracing`` / Perfetto — one lane per
process/worker/rank, one complete event per task, message arrows as flow
events (``ph: "s"`` at the sender, ``ph: "f"`` at the receiver), and
ready-queue depth as counter tracks.  The engines fill the recorder at
wall-clock time, the simulator (:func:`repro.runtime.simulator.simulate`)
at virtual time, so a simulated 128-process schedule and an executed run
are inspected with the same tooling.  Triangular-solve engines feed the
same recorder: with ``SolverOptions(trace_events=True)`` each solve
appends its DIAG_F/UPD_F/DIAG_B/UPD_B task lanes (and, distributed, its
segment send/recv flows) after the factorisation's.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from .scheduler import EventRecorder

__all__ = ["recorder_to_chrome_trace", "write_recorder_trace"]


def recorder_to_chrome_trace(recorder: EventRecorder) -> list[dict]:
    """Trace Event list from a run's recorded events.

    Task events become complete (``X``) slices on per-worker/per-rank
    lanes, matched message send/recv pairs become flow arrows, unmatched
    sends (dropped or still in flight at teardown) become instants, and
    ready-queue depth becomes a counter track per scheduling lane.  All
    timestamps are rebased to the earliest recorded event.

    A producing task sends to a rank at most once per run, but one
    recorder may hold several runs (a factorisation, then solves), so
    the i-th send of a ``(task, sender, receiver)`` key pairs with the
    i-th receive of that key.
    """
    times = (
        [e.t0 for e in recorder.task_events]
        + [e.t for e in recorder.message_events]
        + [e.t for e in recorder.depth_events]
    )
    base = min(times) if times else 0.0
    us = lambda t: (t - base) * 1e6  # noqa: E731
    events: list[dict] = []
    for e in recorder.task_events:
        events.append(
            {
                "name": e.name,
                "cat": e.cat,
                "ph": "X",
                "ts": us(e.t0),
                "dur": max((e.t1 - e.t0) * 1e6, 0.001),
                "pid": 0,
                "tid": e.worker,
                "args": {"tid": e.tid},
            }
        )
    recvs: defaultdict[tuple[int, int, int], list] = defaultdict(list)
    for e in recorder.message_events:
        if e.kind == "recv":
            recvs[e.tid, e.peer, e.rank].append(e)
    paired: defaultdict[tuple[int, int, int], int] = defaultdict(int)
    flow_id = 0
    for e in recorder.message_events:
        if e.kind != "send":
            continue
        key = (e.tid, e.rank, e.peer)
        i = paired[key]
        paired[key] += 1
        if i < len(recvs[key]):
            common = {
                "name": f"msg:task{e.tid}", "cat": "message", "id": flow_id,
                "pid": 0,
            }
            events += [
                {**common, "ph": "s", "ts": us(e.t), "tid": e.rank},
                {**common, "ph": "f", "bp": "e", "ts": us(recvs[key][i].t),
                 "tid": e.peer},
            ]
            flow_id += 1
        else:  # dropped / in-flight at teardown: still show the attempt
            events.append(
                {
                    "name": f"msg:task{e.tid} (unreceived)",
                    "cat": "message",
                    "ph": "I",
                    "ts": us(e.t),
                    "pid": 0,
                    "tid": e.rank,
                    "s": "t",
                }
            )
    for e in recorder.depth_events:
        events.append(
            {
                "name": f"ready[{e.lane}]",
                "ph": "C",
                "ts": us(e.t),
                "pid": 0,
                "tid": e.lane,
                "args": {"depth": e.depth},
            }
        )
    return events


def write_recorder_trace(path: str | Path, recorder: EventRecorder) -> None:
    """Write a run's recorded events as Chrome-trace JSON."""
    events = recorder_to_chrome_trace(recorder)
    Path(path).write_text(json.dumps({"traceEvents": events}))
