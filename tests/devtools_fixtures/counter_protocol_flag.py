"""Should-flag fixture for the `counter-protocol` rule."""

import heapq


def hand_rolled_completion(core, tid):
    for s in core.successors[tid]:
        core.counters[s] -= 1                    # raw counter store
        if core.counters[s] == 0:
            heapq.heappush(core.ready, core.entries[s])  # raw heap push
    core.remaining -= 1                          # raw progress store


def hand_rolled_tsolve_absorb(core, msg, y, seg):
    src_tid, _tgt, arr = msg
    y[seg] = arr
    core.counters[core.successors[src_tid]] -= 1  # raw vectorised decrement


def hand_rolled_task_loop(core, job, ws):
    while (tid := core.pop()) is not None:       # a re-forked lane loop
        job.execute(tid, ws)
        core.complete(tid)


def hand_rolled_rank_receive(job, msg):
    job.absorb(msg)
    job.core.complete(msg[0])                    # and a re-forked receive path
