"""Should-flag fixture for the `counter-protocol` rule."""


def hand_rolled_task_loop(core, job, ws):
    while (tid := core.pop()) is not None:       # a re-forked lane loop
        job.execute(tid, ws)
        core.complete(tid)


def hand_rolled_rank_receive(job, msg):
    job.absorb(msg)
    job.core.complete(msg[0])                    # and a re-forked receive path
