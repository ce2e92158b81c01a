"""Host-speed calibration: time metrics at a reference speed of the host.

The benchmark shares a few cores with other jobs, which slow everything
that runs here alike, by up to 40 % for minutes at a time: more than a
time metric's bound can allow.  So a fixed loop of interpreter and numpy
work, independent of the program, is timed between operations, at most
every :data:`EVERY_S`.  Over a run its mean time tracks the program's
(correlation 0.76-0.96 over 30-s windows on a 2-CPU Xeon host), and a
time divided by it varies far less: over ten runs the spread of the
median pass (quartile distance over median) fell from 31 % to 6 % on
``paper-regen``, from 12 % to 7 % on ``kernel-ingest`` and from 23 % to
6 % on ``rewrite-search``.

:func:`scale` turns a measured time into seconds at the speed where one
sample takes :data:`REF_S`.  Only ratios between runs matter, so any
constant would do; this one is about a sample's time when that host was
quiet.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

import numpy as np

#: the least time between two samples taken between operations
EVERY_S = 0.5
#: a sample's time at the reference speed, in seconds
REF_S = 0.020

_samples: List[float] = []
_last = 0.0


def _work() -> None:
    acc = 0
    for i in range(80_000):
        acc += (i * i) % 7
    counts: dict = {}
    for i in range(48_000):
        key = str(i % 997)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    a = np.arange(4096, dtype=np.float64)
    for _ in range(400):
        a = np.sqrt(a * 0.5 + 1.0)


def sample() -> None:
    """Time the loop once.  The collector is off meanwhile, so that the
    program's heap, which a collection would walk, does not count."""
    global _last
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        _samples.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    _last = time.perf_counter()


def between_ops() -> None:
    """Take a sample if :data:`EVERY_S` has passed since the last one."""
    if time.perf_counter() - _last >= EVERY_S:
        sample()


def scale() -> float:
    """The factor from measured time to time at the reference speed."""
    return REF_S / statistics.mean(_samples)


def summary() -> str:
    return (f"{len(_samples)} samples, mean {statistics.mean(_samples) * 1e3:.2f} ms, "
            f"scale {scale():.4f}")
