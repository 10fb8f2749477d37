"""Should-pass fixture for the `lock-discipline` rule."""

import threading

__guarded_by__ = {
    "cond": ("core.pop", "errors", "total.merge"),
}

cond = threading.Condition()


def worker(core, errors, total, local):
    with cond:
        tid = core.pop()
        if tid is None and not errors:
            errors.append(RuntimeError("starved"))
    local.count(tid)        # the lane's own report needs no lock
    with cond:
        total.merge(local)
    return tid
