"""Negative determinism case: the kernel may keep a pooled handle."""


def arm(sim, fn):
    handle = sim.schedule_pooled(0.0, fn, ())
    return handle
