"""Should-pass fixture for the `lock-discipline` rule."""

import threading

__guarded_by__ = {
    "cond": ("core.pop", "errors", "total.merge"),
}

cond = threading.Condition()
slot_locks = [threading.Lock() for _ in range(4)]


def worker(core, errors, total, local):
    with cond:
        tid = core.pop()
        if tid is None and not errors:
            errors.append(RuntimeError("starved"))
    local.count(tid)        # the lane's own report needs no lock
    with cond:
        total.merge(local)
    return tid


def execute(core, slot):
    with slot_locks[slot]:  # slot lock -> `cond`: the sanctioned nesting
        with cond:
            return core.pop()


def cached(cache, key, build):
    image = build()         # built outside the lock, installed under it
    with cond:
        return cache.setdefault(key, image)
