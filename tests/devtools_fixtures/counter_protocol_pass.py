"""Should-pass fixture for the `counter-protocol` rule."""

from repro.runtime.lanes import run_lanes


def protocol_run(core, job):
    tally = run_lanes(core, job)       # the one sanctioned loop
    depth = len(core.ready)            # reads are fine
    return tally, depth


def protocol_tsolve_absorb(job, msg, y, seg):
    src_tid, _tgt, arr = msg
    y[seg] = arr                       # RHS segments are not protocol state
    return arr.nbytes                  # the driver completes src_tid


def unrelated_pops(stack, done, tid):
    done.pop(tid, None)                # not a scheduler core
    return stack.pop()
