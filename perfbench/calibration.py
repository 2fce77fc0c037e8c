"""A fixed reference computation that tells how fast the machine runs now.

On a shared virtual machine the CPU speed drifts, the same for every process
(user and system time drift with wall time, so it is not time taken by other
processes): by up to 40% over tens of seconds and by 2x over hours.  A run
is too short to average that out.  So the benchmark times this kernel, which
is part of the benchmark and never changes, between its units of work, and
reports every time scaled to a machine on which the kernel takes
`NOMINAL_S`:

    reported = measured * NOMINAL_S / median kernel time of the run

The median over the run follows the slow drift from one run to the next but
not the fast jitter from one second to the next, which the medians over the
units already damp.  The kernel mixes the two kinds of work `oddball` does:
interpreted Python with small ints and dicts, and products of large ints.
`NOMINAL_S` is fixed; changing it rescales every reported time.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.015  # about the kernel's time on the reference machine
_REPEATS = 5
_BIG = 3 ** 20000  # about 32 kbit


def _kernel() -> int:
    s = 0
    table = {}
    for i in range(40_000):
        s += i * i % 7
        table[i & 1023] = s
    x = _BIG
    for _ in range(12):
        x = (x * (x + 1)) >> 31700
    return s ^ (x & 0xFFFF)


def kernel_s() -> float:
    """Median time of a few runs of the kernel."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


if __name__ == "__main__":
    print(kernel_s())
