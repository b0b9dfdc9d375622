"""Host-speed calibration of the benchmark's timings.

The measuring host is a virtual machine on a shared server.  Other
tenants' load slows every instruction this process runs, by 10-100%, in
phases lasting from a fraction of a second to minutes; CPU time grows with
wall time, so it is not descheduling that a CPU clock could leave out.  No
statistic over one run removes a slowdown that lasts the whole run, and ten
runs in a row often share one.

So while the benchmark times work, a :class:`Sampler` times a fixed
pure-Python :func:`kernel` every :data:`PERIOD_S` from a ``SIGALRM``
handler, and each timed stretch is scaled by how much slower than
:data:`REFERENCE_KERNEL_S` the kernel ran during it.  Timings are therefore
reported in *reference-host time*: what the work would take on the quiet
reference host (README.md, *Host-speed scaling*).  The kernel runs no code
of the program under test, so a change to the program moves the scaled
times as it moves the raw ones; the scaling takes out what the host did.
Raw times are kept next to the scaled ones in ``result.json``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

_clock = time.perf_counter

#: loop iterations of one kernel run
KERNEL_ITERATIONS = 4_000
#: the kernel's time on the quiet reference host, about the fastest of
#: 3000 runs (2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11)
REFERENCE_KERNEL_S = 0.0009
#: seconds between two samples while a :class:`Sampler` is active
PERIOD_S = 0.05


def kernel() -> int:
    """Fixed interpreter-bound work: dict reads and writes, integer and
    string operations, the mix the simulator's own hot loops make."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(KERNEL_ITERATIONS):
        table[i & 1023] = table.get(i & 1023, 0) + i
        acc += len(str(i)) * (i % 7)
    return acc


class Sampler:
    """Times :func:`kernel` on entry, every :data:`PERIOD_S` of wall time
    while active, and on exit.

    The samples run in this process's main thread, between two bytecodes
    of whatever it is doing.  The benchmark keeps all its processes on one
    CPU, so a sample delays whatever work is being timed, in this process
    or in a child; :meth:`reference_s` takes the samples out again.
    """

    def __init__(self):
        #: clock reading at the start of each sample, ascending
        self.starts: list[float] = []
        #: seconds each sample took
        self.seconds: list[float] = []
        kernel()  # a process's first run allocates; keep it out of the samples

    def sample(self, *_signal) -> None:
        started = _clock()
        kernel()
        self.seconds.append(_clock() - started)
        self.starts.append(started)

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def reference_s(self, start: float, end: float) -> float:
        """Reference-host seconds of the work done from *start* to *end*.

        The stretch, without the samples taken inside it, is scaled by the
        mean of ``REFERENCE_KERNEL_S / kernel time`` over those samples and
        the nearest one on either side.
        """
        lo, hi = self._inside(start, end)
        around = self.seconds[max(0, lo - 1) : hi + 1]
        scale = statistics.fmean(REFERENCE_KERNEL_S / seconds for seconds in around)
        return self.raw_s(start, end) * scale

    def raw_s(self, start: float, end: float) -> float:
        """Seconds from *start* to *end* without the samples taken inside."""
        lo, hi = self._inside(start, end)
        return end - start - sum(self.seconds[lo:hi])

    def _inside(self, start: float, end: float) -> tuple[int, int]:
        """Index range of the samples that started from *start* to *end*."""
        return bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)

    def slowdown(self) -> float:
        """Mean kernel time over :data:`REFERENCE_KERNEL_S`."""
        return statistics.fmean(self.seconds) / REFERENCE_KERNEL_S
