"""Positive determinism cases (migrated PR 3 rules on the engine)."""

import random  # VIOLATION: the global random module itself
import time

import numpy as np


def stamp():
    return time.time()  # VIOLATION: wallclock


def jitter():
    return np.random.rand()  # VIOLATION: numpy's global legacy RNG


def drain(items):
    for item in set(items):  # VIOLATION: set iteration order
        yield item


def tie_break(objs):
    return sorted(objs, key=lambda o: id(o))  # VIOLATION: id-order


def arm(sim, fn):
    handle = sim.schedule_pooled(0.0, fn, ())  # VIOLATION: pool-escape
    return handle
