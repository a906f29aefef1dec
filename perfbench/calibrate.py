"""A calibration kernel timed alongside the workload.

Pass times on a shared host drift by 10-20% over tens of seconds as
other tenants load the machine, far more than the changes the benchmark
should resolve.  A fixed pure-Python kernel, doing the same kind of
polynomial arithmetic as the library, slows down with it (the
two correlated at 0.8 on a shared 2-vCPU Xeon virtual machine).  So while
an untraced pass runs, a profiling timer interrupts it every PERIOD_S of
CPU time to time one kernel run; the pass time divided by the mean
kernel time is the pass's cost in kernel units, which holds still when
the host speeds up or slows down.  A set-up is calibrated by a few kernel
runs right after it.
"""
from __future__ import annotations

import signal
import time

PERIOD_S = 0.1
# set-up times are reported in seconds at the host speed where one kernel
# run takes this long (about the median on a shared 2-vCPU Xeon virtual
# machine), so that they too hold still when the host slows down
REFERENCE_KERNEL_S = 0.007
_SHORT = [(7 * i * i + 3 * i + 1) % 3 for i in range(40)]
_LONG = [(5 * i * i + i + 2) % 3 for i in range(1200)]


def kernel():
    """A few milliseconds of F_3[x] products, in the two ways the library
    multiplies: coefficient by coefficient for short operands, and by
    Kronecker substitution into one big integer for long ones."""
    a = _SHORT
    for r in range(25):
        prod = [0] * 79
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(a):
                    prod[i + j] = (prod[i + j] + x * y) % 3
        a = prod[r % 20: r % 20 + 40]
    b = _LONG
    for _ in range(2):
        packed = int.from_bytes(b"".join(c.to_bytes(4, "little") for c in b), "little")
        buf = (packed * packed).to_bytes(8 * len(b), "little")
        b = [int.from_bytes(buf[4 * i: 4 * i + 4], "little") % 3 for i in range(len(b))]
    return a, b


def kernel_time(runs: int = 5) -> float:
    """Median time of a few kernel runs, for a moment outside a pass."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[runs // 2]


class Sampler:
    """Times one kernel run every PERIOD_S of the process's CPU time.

    `spent` is the time taken out of the interrupted code, so callers
    subtract it from the times they measure."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        try:
            kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        return False

    def kernel_s(self):
        """Mean kernel time; at least one sample is taken on demand."""
        if not self.samples:
            self._tick(None, None)
        return sum(self.samples) / len(self.samples)
