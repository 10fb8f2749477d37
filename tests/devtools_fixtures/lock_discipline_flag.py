"""Should-flag fixture for the `lock-discipline` rule."""

import threading

__guarded_by__ = {
    "cond": ("core.pop", "errors", "total.merge"),
}

cond = threading.Condition()


def worker(core, errors, total, local):
    tid = core.pop()        # guarded call outside `with cond:`
    errors.append(tid)      # guarded mutation outside `with cond:`
    total.merge(local)      # the lane's report folded in outside `with cond:`
    return tid
