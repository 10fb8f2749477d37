#!/usr/bin/env python
"""Trace the synchronisation-free array through a factorisation (Figs. 9/10).

The paper's scheduling state is one counter per stored block: the number
of GESSM/TSTRF/SSSSM operations the block still has to receive.  A
diagonal block at 0 may run GETRF (and drops to −1, releasing its block
row and column); an off-diagonal block at 0 may run its panel solve once
the diagonal is done.  This example factorises a small matrix while
printing the array after every elimination step, then shows the simulated
event timeline of the first tasks on a 4-process grid — the mechanics of
the paper's Fig. 10 walkthrough.

Run:  python examples/syncfree_trace.py
"""

from __future__ import annotations

from repro import PanguLU, SolverOptions
from repro.core import TaskType, sync_free_array
from repro.runtime import A100_PLATFORM, EventRecorder, simulate_pangulu
from repro.sparse import random_sparse


def render_array(nb: int, counts: dict[tuple[int, int], int]) -> str:
    rows = []
    for bi in range(nb):
        cells = []
        for bj in range(nb):
            v = counts.get((bi, bj))
            cells.append(" . " if v is None else f"{v:3d}")
        rows.append(" ".join(cells))
    return "\n".join(rows)


def main() -> None:
    a = random_sparse(48, 0.08, seed=5)
    solver = PanguLU(a, SolverOptions(block_size=8))
    solver.preprocess()
    f, dag = solver.blocks, solver.dag

    counts = sync_free_array(dag, f.nb)
    print(f"block grid {f.nb}×{f.nb}; initial synchronisation-free array")
    print("(value = SSSSM updates the block still needs; '.' = block absent):\n")
    print(render_array(f.nb, counts))

    # replay the DAG in elimination-step order, updating the array the way
    # Fig. 10's processes do on completion of each Schur update
    print("\narray after each elimination step:")
    by_step: dict[int, list] = {}
    for t in dag.tasks:
        by_step.setdefault(t.k, []).append(t)
    for k in sorted(by_step):
        for t in by_step[k]:
            if t.ttype == TaskType.SSSSM:
                counts[(t.bi, t.bj)] -= 1
        ready = sorted(
            (b for b, v in counts.items() if v == 0 and b[0] >= k and b[1] >= k)
        )
        print(f"\nafter step {k}: {len(ready)} blocks at 0 "
              f"(runnable panels next): {ready[:8]}{'…' if len(ready) > 8 else ''}")
        print(render_array(f.nb, counts))

    # the same DAG through the event simulator, recorded as the engines
    # record a real run: the first 12 task firings
    rec = EventRecorder()
    sim = simulate_pangulu(f, dag, A100_PLATFORM, 4, recorder=rec)
    print("\nsimulated timeline on 4 processes (first 12 task starts):")
    print(f"{'t (µs)':>8s}  {'proc':>4s}  task")
    for e in sorted(rec.task_events, key=lambda e: e.t0)[:12]:
        print(f"{e.t0 * 1e6:8.2f}  {e.worker:4d}  {e.name}")
    print(f"\nmakespan {sim.result.makespan * 1e6:.1f} µs, "
          f"mean sync {sim.result.mean_sync * 1e6:.1f} µs, "
          f"{sim.result.messages} messages")

    # Gantt comparison: sync-free vs level-set barriers
    from repro.analysis import render_gantt

    for schedule in ("syncfree", "levelset"):
        rec = EventRecorder()
        run = simulate_pangulu(
            f, dag, A100_PLATFORM, 4, schedule=schedule, recorder=rec
        )
        print(f"\n{schedule} schedule "
              f"(makespan {run.result.makespan * 1e6:.1f} µs):")
        print(render_gantt(rec, width=64))

if __name__ == "__main__":
    main()
