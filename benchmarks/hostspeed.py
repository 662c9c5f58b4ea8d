"""Host speed, read from a fixed kernel timed between the benchmark's operations.

On a shared virtual machine the same code can run 1.3x to 1.6x slower for
seconds to minutes at a time, because other tenants contend for the physical
core; process CPU time slows as much as wall time, so no clock of the
process removes it.  The benchmark therefore times a fixed kernel, owned by
the benchmark and independent of the package, between operations, and
reports each timing scaled to a reference host on which the kernel takes
``REFERENCE_S``:

    scaled time = measured time * REFERENCE_S / kernel time nearby

A change to the package moves the measured time and not the kernel, so it
moves the scaled time by the same factor; a change in the host's speed
moves both.  The kernel mixes what the package spends its time on: Python
arithmetic and calls, complex scalars, and numpy calls on 4-vectors and 4x4
matrices.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Kernel time that defines the reference host speed; the kernel takes about
#: this long on the 2-core machine the benchmark was built on.
REFERENCE_S = 1.0e-3
#: Kernel timings per reading; a reading is their median.
READ_REPEATS = 3
#: Least time between two readings taken by ``SpeedLog.sample``.
INTERVAL_S = 0.2
#: An operation's scale uses the readings from this long before it starts
#: to this long after it ends.
WINDOW_S = 1.0


def _step(z: complex, w: complex) -> complex:
    return z * w.conjugate() + 0.5 * abs(z) ** 2


def kernel() -> float:
    """The fixed work whose time defines the host's speed."""
    s = sum((i * 0.5) ** 2 % 7.0 for i in range(840))
    a = np.full((4, 4), 0.25 + 0.1j)
    v = np.ones(4, complex)
    for _ in range(17):
        a = (a @ a) * 0.25
        s += abs(np.vdot(v, a[0])) + float(np.sum(np.abs(a) ** 2))
    z = 0.3 + 0.4j
    for i in range(112):
        z = _step(z, 0.6 - 0.8j) * 0.5 + 0.1j
        row = np.array([z, 1.0, 0.5j, z.conjugate()])
        s += abs(np.vdot(row, row)) + float(np.linalg.norm(row))
        if i % 8 == 0:
            k = np.kron(row[:2], row[2:])
            s += float(np.einsum("i,i->", k, np.conj(k)).real)
    return s


def read() -> float:
    """One reading: the median time of ``READ_REPEATS`` kernel runs, in seconds.

    The garbage collector is off while the kernel runs, so that the number
    of objects the process holds (what it imported, what the package
    allocated) does not change the reading.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(READ_REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class SpeedLog:
    """Readings taken between operations, with the ``perf_counter`` time of each."""

    def __init__(self):
        self.times: list[float] = []
        self.readings: list[float] = []

    def sample(self, force: bool = False) -> None:
        """Take a reading unless one was taken less than ``INTERVAL_S`` ago."""
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= INTERVAL_S:
            self.readings.append(read())
            self.times.append(now)

    def scale(self, start: float, end: float) -> float:
        """Kernel time near [start, end] over ``REFERENCE_S``: > 1 when the host runs slow.

        The median of the readings from ``WINDOW_S`` before ``start`` to
        ``WINDOW_S`` after ``end``; the nearest reading if none is inside.
        """
        inside = [r for t, r in zip(self.times, self.readings)
                  if start - WINDOW_S <= t <= end + WINDOW_S]
        if not inside:
            mid = (start + end) / 2.0
            nearest = min(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            inside = [self.readings[nearest]]
        return statistics.median(inside) / REFERENCE_S
