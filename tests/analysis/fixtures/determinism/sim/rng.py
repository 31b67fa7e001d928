"""Negative determinism case: the RNG home may import stdlib ``random``."""

import random


def substream(seed):
    return random.Random(seed)
