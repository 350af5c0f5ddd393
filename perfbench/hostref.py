"""A fixed reference computation that tracks how fast the host runs right now.

On a shared machine the same work can take 20% longer from one second to
the next and 30% longer from one minute to the next. Every timed operation
of a workload is bracketed by ``measure()``, and a round's host-normalized
time is

    (summed wall time of its operations) * NOMINAL_S / median(references)

that is, the seconds it would have taken on a host where the reference takes
NOMINAL_S. The reference uses only the interpreter, numpy and the standard
library's json, never bcgsleep, so no change to the program can move it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

NOMINAL_S = 0.25

_ARRAY = np.random.default_rng(0).random(200_000)
_ROWS = [{"t": i, "hr": 60.0 + i * 1e-3, "rr": 14.25, "sv": 70.5} for i in range(16_000)]


def measure() -> float:
    """Seconds taken by one pass of interpreter, numpy and json work."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(300_000):
        acc += i * i % 7
        table[i & 1023] = acc
    for _ in range(6):
        np.sort(_ARRAY)
        np.cumsum(_ARRAY)
        (_ARRAY[:1500, None] * _ARRAY[None, :1500]).sum()
    lines = [json.dumps(row) for row in _ROWS]
    [json.loads(line) for line in lines]
    return time.perf_counter() - t0


class Clock:
    """Wall seconds of a sequence of operations, and the host speed meanwhile.

    The reference runs once before the first operation and once after each
    one. Their median is the host speed for the whole sequence: one
    reference pass is too short to judge by alone, but over a round the
    host's speed moves little.
    """

    def __init__(self):
        self.refs = [measure()]
        self.wall = 0.0

    def time(self, fn, *args, **kwargs):
        """Run fn; returns (its result, its wall seconds)."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self.add(wall)
        return result, wall

    def add(self, wall: float) -> None:
        """Count wall seconds of an operation timed by the caller, just ended."""
        self.wall += wall
        self.refs.append(measure())

    def scale(self) -> float:
        """Factor from wall seconds to host-normalized seconds."""
        return NOMINAL_S / statistics.median(self.refs)
