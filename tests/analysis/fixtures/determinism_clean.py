"""Fixture: the sanctioned forms of clocks, RNG and iteration."""

import time

import numpy as np


def monotonic_timing():
    started = time.perf_counter()
    return time.perf_counter() - started, time.monotonic()


def seeded_rng(seed):
    rng = np.random.default_rng(seed)
    np.random.seed(seed)  # an explicit reseed is allowed
    return rng.random(3)


def ordered_merge(groups):
    merged = []
    for gid in sorted(set(groups)):
        merged.append(gid)
    return merged
