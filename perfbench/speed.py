"""A fixed reference task that measures how fast the machine runs right now.

On a shared host the machine's own speed drifts: the same op takes 1.5-2x
longer for stretches of seconds to many minutes, in wall time and CPU time
alike.  The benchmark times this task next to the program and reports the
program's times scaled to the speed at which the task takes REFERENCE_S
("reference speed").  The task is part of the benchmark, not of flexmech,
so a change to the program never changes it.  It mixes the kinds of work
flexmech does: an interpreted integer loop, small numpy linear algebra, and
object, dict and math calls, so that it slows down with the program.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

import numpy as np

REFERENCE_S = 0.010      # the task's time that defines reference speed

_M = np.random.default_rng(0).normal(size=(6, 6)) + 6.0 * np.eye(6)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _task():
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    a = _M
    for _ in range(400):
        b = np.linalg.inv(a)
        a = a + (b @ b.T) * 1e-3
    slots = {}
    total = 0.0
    for i in range(6000):
        p = _Point(i * 0.5, math.sin(i * 1e-3))
        slots[i % 97] = p
        total += p.x * p.y + math.sqrt(abs(p.y))
    x = np.arange(36.0).reshape(6, 6)
    for _ in range(150):
        total += float((x @ x.T)[0, 0])
        x = x * 0.999
    return acc, total


def time_reference():
    """Seconds one run of the reference task takes now.

    The cyclic collector is paused for the task, so that it never pays for
    collecting the program's garbage.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _task()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(reference_s):
    """Factor that turns a time measured next to `reference_s` into reference speed."""
    return REFERENCE_S / reference_s
