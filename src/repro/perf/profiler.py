"""Host-side profiling of experiment cells.

:class:`Profiler` wraps :func:`repro.harness.spec.run_spec` with wall-clock
timing, engine event-throughput capture and (optionally) ``cProfile``.  Each
profiled cell yields a :class:`CellProfile`; batches are aggregated by
:func:`repro.perf.report.perf_report`.

The profiler deliberately runs cells in-process and serially: host timing
through a process pool would measure pool scheduling, not the simulator.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from typing import Any

from repro.apps import clear_kernel_memos
from repro.harness.spec import ExperimentSpec, run_spec
from repro.hyperion.runtime import ExecutionReport

#: pstats sort keys accepted by ``--sort`` (subset that is meaningful here)
SORT_KEYS = ("cumulative", "tottime", "calls", "ncalls")


@dataclass
class CellProfile:
    """Host-performance measurements of one simulated cell."""

    label: str
    #: host seconds spent simulating the cell
    wall_seconds: float
    #: simulation events the engine dispatched
    events: int
    #: virtual seconds the simulated execution took
    execution_seconds: float
    #: the cell's report (virtual-time results are unaffected by profiling)
    report: ExecutionReport
    #: rendered cProfile table (empty when cProfile capture is disabled)
    profile_text: str = ""
    #: (function, cumulative seconds) pairs of the hottest functions
    hot_functions: list[tuple] = field(default_factory=list)

    @property
    def events_per_second(self) -> float:
        """Engine event throughput (events per host second)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events / self.wall_seconds

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly summary (no report payload, no profile text)."""
        return {
            "label": self.label,
            "wall_seconds": self.wall_seconds,
            "events": self.events,
            "events_per_second": self.events_per_second,
            "execution_seconds": self.execution_seconds,
            "hot_functions": [
                {"function": name, "cumulative_seconds": seconds}
                for name, seconds in self.hot_functions
            ],
        }


class Profiler:
    """Profile experiment cells: cProfile + wall/event-throughput capture.

    Parameters
    ----------
    with_cprofile:
        Capture a ``cProfile`` per cell.  Costs roughly 2-3x wall time; turn
        off for pure throughput numbers.
    sort:
        ``pstats`` sort key for the rendered table (see :data:`SORT_KEYS`).
    limit:
        Number of rows kept in the rendered table and in ``hot_functions``.
    repeats:
        Timed runs per cell; the reported ``wall_seconds`` is the **minimum**
        across them (``timeit``-style best-of-N — the minimum is the run
        least disturbed by the host, which is the right estimator for a
        deterministic workload on a noisy machine).  The run is identical
        every time, so which repeat's report is kept does not matter.  App
        kernel memos (TSP's search, Barnes-Hut's tree and force walk) are
        cleared before every timed run, so each repeat times the full
        computation rather than a memo hit.
    warmup:
        Untimed runs before the timed ones, so byte-code, allocator and
        import effects don't land in the first measurement.
    """

    def __init__(
        self,
        with_cprofile: bool = True,
        sort: str = "cumulative",
        limit: int = 20,
        repeats: int = 1,
        warmup: int = 0,
    ):
        if sort not in SORT_KEYS:
            raise ValueError(f"sort must be one of {SORT_KEYS}, got {sort!r}")
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        self.with_cprofile = with_cprofile
        self.sort = sort
        self.limit = int(limit)
        self.repeats = int(repeats)
        self.warmup = int(warmup)

    # ------------------------------------------------------------------
    def profile_spec(self, spec: ExperimentSpec) -> CellProfile:
        """Run one cell under the profiler."""
        for _ in range(self.warmup):
            run_spec(spec)
        profile: cProfile.Profile | None = None
        wall = None
        report = None
        for _ in range(self.repeats):
            clear_kernel_memos()
            t0 = time.perf_counter()
            if self.with_cprofile and profile is None:
                # capture the profile on the first timed run only; with
                # repeats > 1 its (inflated) wall time never wins the min
                profile = cProfile.Profile()
                profile.enable()
                try:
                    report = run_spec(spec)
                finally:
                    profile.disable()
            else:
                report = run_spec(spec)
            elapsed = time.perf_counter() - t0
            if wall is None or elapsed < wall:
                wall = elapsed
        text = ""
        hot: list[tuple] = []
        if profile is not None:
            text, hot = self._render(profile)
        cell = CellProfile(
            label=spec.label(),
            wall_seconds=wall,
            events=report.events_processed,
            execution_seconds=report.execution_seconds,
            report=report,
            profile_text=text,
            hot_functions=hot,
        )
        if report.telemetry is not None:
            # the profiler's wall clock wraps the whole run, so its numbers
            # replace the collector's own host estimate in the ledger
            report.telemetry.attach_profile(cell)
        return cell

    def profile_many(self, specs: Iterable[ExperimentSpec]) -> list[CellProfile]:
        """Profile every spec serially, in submission order."""
        return [self.profile_spec(spec) for spec in specs]

    # ------------------------------------------------------------------
    def _render(self, profile: cProfile.Profile) -> tuple:
        """The pstats table plus the (function, cumtime) list."""
        buffer = io.StringIO()
        stats = pstats.Stats(profile, stream=buffer)
        stats.sort_stats(self.sort).print_stats(self.limit)
        hot: list[tuple] = []
        sorted_keys = stats.fcn_list or []  # populated by sort_stats
        for func in sorted_keys[: self.limit]:
            filename, line, name = func
            cumulative = stats.stats[func][3]
            location = f"{filename}:{line}" if line else filename
            hot.append((f"{name} ({location})", cumulative))
        return buffer.getvalue(), hot


def profile_specs(
    specs: Sequence[ExperimentSpec],
    with_cprofile: bool = False,
    sort: str = "cumulative",
    limit: int = 20,
    repeats: int = 1,
    warmup: int = 0,
) -> list[CellProfile]:
    """Convenience: profile a batch of specs with one-call configuration."""
    profiler = Profiler(
        with_cprofile=with_cprofile,
        sort=sort,
        limit=limit,
        repeats=repeats,
        warmup=warmup,
    )
    return profiler.profile_many(specs)
