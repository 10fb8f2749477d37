"""Should-flag fixture for the `lock-discipline` rule."""

import threading

__guarded_by__ = {
    "cond": ("core.pop", "errors", "total.merge"),
}

cond = threading.Condition()
slot_locks = [threading.Lock() for _ in range(4)]


def worker(core, errors, total, local):
    tid = core.pop()        # guarded call outside `with cond:`
    errors.append(tid)      # guarded mutation outside `with cond:`
    total.merge(local)      # the lane's report folded in outside `with cond:`
    return tid


def pop_and_lock(core, slot):
    with cond:
        tid = core.pop()
        with slot_locks[slot]:  # a slot lock taken under the leaf `cond`
            return tid


def complete(core, tid):
    with cond, slot_locks[tid]:  # the same, as a second `with` item
        pass


def release(slot):
    with slot_locks[slot]:
        pass


def drain(core):
    with cond:
        release(0)          # a module function that takes a lock


def cached(cache, key, build):
    with cond:
        cache[key] = build()  # a callable handed in, run under the leaf
