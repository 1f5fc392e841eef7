"""A fixed reference task that reads the machine's current speed.

A shared virtual machine can run the same code up to twice as fast in one
minute as in the next, for every kind of work at once (the README's
readings show it). So every op is bracketed by runs of this task, and its
time is scaled by how long the task took around it:
``seconds * REFERENCE_S / reference time``. A scaled time is the op's time
on the machine running at the speed at which this task takes REFERENCE_S.
The task uses no part of the package: the interpreter loop, small
``Fraction`` arithmetic and big-integer products, the kinds of work the
workloads do.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.010  # about the task's time, unloaded, on the 2-vCPU machine of the README


def reference() -> None:
    total = 0
    for j in range(60_000):
        total += j * j
    f = Fraction(0)
    for k in range(1, 150):
        f += Fraction(1, k * k)
    a = 3**30_000
    for _ in range(10):
        a * a


def reference_s() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def scaled(seconds: float, reference_seconds: float) -> float:
    return seconds * REFERENCE_S / reference_seconds
