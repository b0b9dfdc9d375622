"""Host-side clock, the one sanctioned wall-clock source outside the engine.

Simulation code measures *virtual* time and must never read the host clock
(the HYP002 lint rule enforces this).  Host-side layers that legitimately
need elapsed real time — the profiler, and the serving layer's progress/ETA
accounting — take it from here, so every wall-clock read in the repository
funnels through ``repro/perf/``.
"""

from __future__ import annotations

import resource
import sys
import time


def host_clock() -> float:
    """Monotonic host seconds (only differences are meaningful)."""
    return time.monotonic()


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    Linux's ``/proc/self/status`` ``VmHWM`` counts this process's own pages
    only.  ``ru_maxrss`` is the fallback elsewhere, but on Linux it also
    carries the peak of the process that spawned this one (the kernel folds
    the old memory image's peak in at ``exec``), so a child of a large
    process would report its parent's memory.  ``ru_maxrss`` is kilobytes on
    Linux and bytes on macOS; normalising here keeps the memory-budget
    telemetry portable.  Host-side only, like everything in this module.
    """
    try:
        with open("/proc/self/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024
