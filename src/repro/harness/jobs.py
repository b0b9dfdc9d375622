"""Sharded, checkpointed, resumable sweep execution: :class:`SweepJob`.

A :class:`SweepJob` takes anything that yields
:class:`~repro.harness.spec.ExperimentSpec` objects — typically an
:class:`~repro.harness.matrix.ExperimentMatrix` — splits the deduplicated
cell list into contiguous *shards*, and runs them through a
:class:`~repro.harness.session.Session` — its executor and its store — in
windows of ``session.jobs`` shards, one
:meth:`Session.run <repro.harness.session.Session.run>` per window.  Three
properties distinguish it from a single ``Session.run``:

* **per-shard checkpointing** — every finished shard is written to the job's
  checkpoint directory as a JSON file of :class:`CellResult`-shaped payloads,
  so an interrupted sweep (``kill -9``, power loss, Ctrl-C) loses at most the
  window of shards that was still in flight;
* **resume** — ``SweepJob(..., resume=True)`` reloads finished shards from
  the checkpoint directory and only submits the remainder; combined with a
  shared :class:`~repro.harness.store.ResultStore` (which persists *cells*,
  not shards) a relaunched sweep re-simulates nothing that ever completed;
* **progress/ETA accounting** — a :class:`SweepProgress` snapshot is updated
  after every shard and handed to an optional callback, which is how the CLI
  and the serve API surface completion percentage and the estimated time
  remaining.

The checkpoint directory is job-keyed: ``job.json`` stamps a content hash of
the shard layout (the cache keys of every cell, in order, plus the shard
size), and shard files carry the same key, so resuming against a different
grid is an explicit error rather than a silent mix of results.  A shard file
truncated by a kill fails JSON parsing and is discarded — its cells either
come back as result-store hits or are re-simulated.

The job has no pool, worker or store of its own: the session's executor
decides where cells run, and ``Session.run`` reads and writes the store.
After each window every report is cut to its payload shape
(:func:`_payload_shaped`), so a grid holds the same records however its
cells were produced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Iterable
from typing import Any

from repro.harness.session import Session, SessionResult
from repro.harness.spec import ExperimentSpec
from repro.harness.store import (
    payload_result,
    report_from_payload,
    report_to_payload,
    write_json_atomic,
)
from repro.hyperion.runtime import ExecutionReport
from repro.obs.metrics import DEFAULT_HOST_SECONDS_BUCKETS, MetricsRegistry
from repro.perf.clock import host_clock
from repro.util.validation import check_positive

#: bump when the checkpoint file layout changes
CHECKPOINT_SCHEMA = 1

#: default cells per shard when the caller does not choose one
DEFAULT_SHARD_SIZE = 8


class SweepInterrupted(RuntimeError):
    """A sweep stopped before completing; finished shards are checkpointed."""

    def __init__(self, message: str, progress: "SweepProgress"):
        super().__init__(message)
        self.progress = progress


class CheckpointMismatch(RuntimeError):
    """The checkpoint directory belongs to a different grid or shard layout."""


@dataclass(slots=True)
class SweepProgress:
    """Completion accounting of one :class:`SweepJob` run."""

    total_cells: int = 0
    total_shards: int = 0
    #: cells finished (resumed + run this session)
    completed_cells: int = 0
    completed_shards: int = 0
    #: cells restored from checkpoint shards at start-up
    resumed_cells: int = 0
    #: cells served by the result store during this session
    cache_hits: int = 0
    #: cells actually simulated during this session
    executed_cells: int = 0
    #: host seconds since the job started running
    elapsed_seconds: float = 0.0

    @property
    def done(self) -> bool:
        """True once every cell is accounted for."""
        return self.completed_cells >= self.total_cells

    @property
    def percent(self) -> float:
        """Completion percentage (100.0 for an empty grid)."""
        if self.total_cells == 0:
            return 100.0
        return 100.0 * self.completed_cells / self.total_cells

    @property
    def eta_seconds(self) -> float | None:
        """Estimated seconds to completion, from this session's rate.

        None until the session has finished at least one cell of its own
        (resumed cells say nothing about how fast *this* host simulates).
        """
        fresh = self.completed_cells - self.resumed_cells
        if fresh <= 0 or self.elapsed_seconds <= 0.0:
            return None
        remaining = self.total_cells - self.completed_cells
        return remaining * (self.elapsed_seconds / fresh)

    def render(self) -> str:
        """One progress line (the CLI prints one per finished shard)."""
        eta = self.eta_seconds
        eta_text = f"eta {eta:.1f}s" if eta is not None else "eta --"
        return (
            f"shard {self.completed_shards}/{self.total_shards}  "
            f"{self.completed_cells}/{self.total_cells} cells "
            f"({self.percent:.1f}%)  {eta_text}"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly snapshot (served by the status endpoint)."""
        return {
            "total_cells": self.total_cells,
            "total_shards": self.total_shards,
            "completed_cells": self.completed_cells,
            "completed_shards": self.completed_shards,
            "resumed_cells": self.resumed_cells,
            "cache_hits": self.cache_hits,
            "executed_cells": self.executed_cells,
            "elapsed_seconds": self.elapsed_seconds,
            "percent": self.percent,
            "eta_seconds": self.eta_seconds,
            "done": self.done,
        }


def _payload_shaped(report: ExecutionReport) -> None:
    """Cut *report* down, in place, to what its payload carries.

    The result stays only if it is JSON (an array becomes None, so a record
    holds no grid), and the host-side fields go: ``.telemetry`` (its ledger
    is absorbed first), ``.sanitizer``, ``.trace``, ``.events_processed``
    and the host cost.  A record built from a simulated report therefore
    holds and serialises what one read back from a checkpoint or the store
    does.
    """
    report.result = report.stats.result = payload_result(report.result)
    report.telemetry = report.sanitizer = report.trace = None
    report.events_processed = 0
    report.host_seconds = 0.0
    report.peak_rss_bytes = 0


# ---------------------------------------------------------------------------
# the job
# ---------------------------------------------------------------------------
class SweepJob:
    """A sharded, checkpointed, resumable run of one experiment grid."""

    def __init__(
        self,
        experiments: Iterable[ExperimentSpec],
        session: Session | None = None,
        checkpoint_dir: str | Path | None = None,
        shard_size: int | None = None,
        resume: bool = False,
        progress_callback: Callable[[SweepProgress], None] | None = None,
        stop_event: threading.Event | None = None,
        telemetry: bool = False,
    ):
        self.specs: list[ExperimentSpec] = list(dict.fromkeys(experiments))
        if telemetry:
            # the flag is outside the spec's identity (compare=False), so
            # upgrading after dedup changes neither cache keys nor job_key —
            # resuming a sweep with telemetry toggled stays valid
            self.specs = [
                spec if spec.telemetry else dataclasses.replace(spec, telemetry=True)
                for spec in self.specs
            ]
        self.telemetry_enabled = bool(telemetry)
        #: runs every window of cells (its executor and its store)
        self.session = session if session is not None else Session()
        if shard_size is None:
            shard_size = min(DEFAULT_SHARD_SIZE, max(1, len(self.specs)))
        check_positive("shard_size", shard_size)
        self.shard_size = int(shard_size)
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        if resume and self.checkpoint_dir is None:
            raise ValueError("resume=True needs a checkpoint_dir to resume from")
        self.resume = bool(resume)
        self.progress_callback = progress_callback
        self.stop_event = stop_event if stop_event is not None else threading.Event()
        self.shards: list[list[ExperimentSpec]] = [
            self.specs[i : i + self.shard_size]
            for i in range(0, len(self.specs), self.shard_size)
        ]
        self.progress = SweepProgress(
            total_cells=len(self.specs), total_shards=len(self.shards)
        )
        self.result: SessionResult | None = None
        self._reports: dict[ExperimentSpec, Any] = {}
        self._cached_specs: set[ExperimentSpec] = set()
        #: job-level metric aggregate (sweep_* families plus every absorbed
        #: cell and store family).  The thread running the job mutates it
        #: through :meth:`_absorb` while service handler threads snapshot
        #: it, so all access goes through :attr:`metrics_lock`.
        self.metrics = MetricsRegistry()
        self.metrics_lock = threading.Lock()
        self._ledgers: list[dict] = []

    # ------------------------------------------------------------------
    # checkpoint layout
    # ------------------------------------------------------------------
    def job_key(self) -> str:
        """Content hash of the grid and its shard layout."""
        payload = json.dumps(
            {
                "schema": CHECKPOINT_SCHEMA,
                "shard_size": self.shard_size,
                "cells": [spec.cache_key() for spec in self.specs],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _shard_path(self, index: int) -> Path:
        assert self.checkpoint_dir is not None
        return self.checkpoint_dir / f"shard-{index:04d}.json"

    def _prepare_checkpoints(self) -> set[int]:
        """Create/validate the checkpoint dir; return resumable shard indices.

        Without ``resume`` any previous checkpoint content is cleared.  With
        it, a manifest describing a *different* grid raises
        :class:`CheckpointMismatch`; shard files that are unreadable
        (truncated by a kill) or stale are discarded so their cells recompute.
        """
        if self.checkpoint_dir is None:
            return set()
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        key = self.job_key()
        manifest_path = self.checkpoint_dir / "job.json"
        try:
            existing = json.loads(manifest_path.read_text())
        except (OSError, ValueError):  # absent, or truncated by a kill
            existing = None
        if self.resume:
            # with no readable manifest there is nothing to resume: run fresh
            if existing is not None and existing.get("job_key") != key:
                raise CheckpointMismatch(
                    f"checkpoints in {self.checkpoint_dir} describe a different "
                    "sweep (grid or shard size changed); start without --resume "
                    "or point --checkpoint-dir elsewhere"
                )
        else:
            for stale in self.checkpoint_dir.glob("shard-*.json"):
                stale.unlink()
        write_json_atomic(
            manifest_path,
            {
                "schema": CHECKPOINT_SCHEMA,
                "job_key": key,
                "total_cells": len(self.specs),
                "shard_size": self.shard_size,
                "num_shards": len(self.shards),
            },
        )
        if not self.resume:
            return set()
        return self._load_checkpointed_shards(key)

    def _load_checkpointed_shards(self, key: str) -> set[int]:
        """Restore reports from every valid shard file; return their indices."""
        done: set[int] = set()
        for index, shard in enumerate(self.shards):
            path = self._shard_path(index)
            try:
                payload = json.loads(path.read_text())
            except OSError:
                continue
            except ValueError:
                path.unlink(missing_ok=True)  # truncated by a kill: recompute
                continue
            if (
                payload.get("schema") != CHECKPOINT_SCHEMA
                or payload.get("job_key") != key
                or [cell.get("key") for cell in payload.get("cells", [])]
                != [spec.cache_key() for spec in shard]
            ):
                path.unlink(missing_ok=True)
                continue
            try:
                reports = [
                    report_from_payload(cell["report"]) for cell in payload["cells"]
                ]
            except (KeyError, TypeError, AttributeError):
                path.unlink(missing_ok=True)
                continue
            for spec, report in zip(shard, reports, strict=True):
                self._reports[spec] = report
                self._cached_specs.add(spec)
            done.add(index)
        return done

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the job to stop once the window of shards in flight drains."""
        self.stop_event.set()

    def _absorb(self, index: int, result: SessionResult, started: float) -> None:
        """Fold finished shard *index* into metrics, reports, checkpoint and
        progress.

        The metrics read the reports' host-side fields before they are cut
        to payload shape: the simulated cells feed the per-cell histogram
        and the gauge of the peak RSS of the processes that simulated them,
        and every telemetry ledger is collected.
        """
        shard = self.shards[index]
        reports = [result[spec] for spec in shard]
        cached = [spec in result.cached_specs for spec in shard]
        simulated = [report for report, hit in zip(reports, cached) if not hit]
        executed, hits = len(simulated), len(shard) - len(simulated)
        ledgers = [r.telemetry.to_dict() for r in reports if r.telemetry is not None]
        with self.metrics_lock:
            metrics = self.metrics
            for name, help_text, amount in (
                ("sweep_shards_completed_total", "Shards finished this session.", 1),
                ("sweep_cells_completed_total", "Cells finished this session.", len(shard)),
                ("sweep_cells_executed_total", "Cells actually simulated.", executed),
                ("sweep_cells_cache_hits_total", "Cells served by the result store.", hits),
            ):
                metrics.counter(name, help_text).inc(amount)
            metrics.histogram(
                "sweep_shard_host_seconds",
                "Host seconds spent simulating each shard's cells.",
                buckets=DEFAULT_HOST_SECONDS_BUCKETS,
            ).observe(sum(report.host_seconds for report in simulated))
            per_cell = metrics.histogram(
                "sweep_cell_host_seconds",
                "Host seconds per simulated cell.",
                buckets=DEFAULT_HOST_SECONDS_BUCKETS,
            )
            for report in simulated:
                per_cell.observe(report.host_seconds)
                metrics.gauge(
                    "sweep_peak_rss_bytes",
                    "Peak resident set size of a process that simulated cells, in bytes.",
                ).set_max(report.peak_rss_bytes)
            for ledger in ledgers:
                self._ledgers.append(ledger)
                if ledger.get("metrics"):
                    metrics.merge(ledger["metrics"])
        for spec, report, hit in zip(shard, reports, cached, strict=True):
            _payload_shaped(report)
            self._reports[spec] = report
            if hit:
                self._cached_specs.add(spec)
        if self.checkpoint_dir is not None:
            cells = [
                {
                    "key": spec.cache_key(),
                    "label": spec.label(),
                    "cached": hit,
                    "report": report_to_payload(report),
                }
                for spec, report, hit in zip(shard, reports, cached, strict=True)
            ]
            write_json_atomic(
                self._shard_path(index),
                {"schema": CHECKPOINT_SCHEMA, "job_key": self.job_key(), "cells": cells},
            )
        progress = self.progress
        progress.completed_shards += 1
        progress.completed_cells += len(shard)
        progress.executed_cells += executed
        progress.cache_hits += hits
        progress.elapsed_seconds = host_clock() - started
        if self.progress_callback is not None:
            self.progress_callback(progress)

    def run(self) -> SessionResult:
        """Run every pending shard; return the grid's :class:`SessionResult`.

        Pending shards run in windows of ``session.jobs`` shards, each window
        one :meth:`Session.run <repro.harness.session.Session.run>` over its
        cells; every shard of a finished window is then checkpointed and
        reported in order.  Raises :class:`SweepInterrupted` when
        :meth:`request_stop` fires (the window in flight is drained and
        checkpointed first), and :class:`CheckpointMismatch` when resuming
        against a foreign checkpoint directory.
        """
        started = host_clock()
        done = self._prepare_checkpoints()
        progress = self.progress
        progress.completed_shards = len(done)
        progress.resumed_cells = sum(len(self.shards[i]) for i in done)
        progress.completed_cells = progress.resumed_cells
        progress.elapsed_seconds = host_clock() - started
        if done:
            with self.metrics_lock:
                self.metrics.counter(
                    "sweep_shards_resumed_total",
                    "Shards restored from checkpoints at start-up.",
                ).inc(len(done))
                self.metrics.counter(
                    "sweep_cells_resumed_total",
                    "Cells restored from checkpoints at start-up.",
                ).inc(progress.resumed_cells)
        pending = [i for i in range(len(self.shards)) if i not in done]
        store, width = self.session.store, self.session.jobs
        for first in range(0, len(pending), width):
            if self.stop_event.is_set():
                raise SweepInterrupted(
                    f"sweep stopped at {progress.completed_cells}/"
                    f"{progress.total_cells} cells; finished shards are "
                    "checkpointed — rerun with resume to continue",
                    progress,
                )
            window = pending[first : first + width]
            result = self.session.run(
                spec for index in window for spec in self.shards[index]
            )
            for index in window:
                self._absorb(index, result, started)
            if store is not None:
                # the store's counters move into the job's aggregate: the
                # handle starts afresh, so no window is counted twice
                counts, store.metrics = store.metrics, MetricsRegistry()
                with self.metrics_lock:
                    self.metrics.merge(counts.to_dict())
        self.result = SessionResult(
            reports={spec: self._reports[spec] for spec in self.specs},
            cache_hits=progress.cache_hits,
            executed=progress.executed_cells,
            cached_specs=set(self._cached_specs),
        )
        return self.result

    # ------------------------------------------------------------------
    # telemetry surface
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        """Thread-safe ``to_dict`` snapshot of the job-level metrics."""
        with self.metrics_lock:
            return self.metrics.to_dict()

    def telemetry(self) -> dict[str, Any]:
        """Job-level telemetry: aggregated metrics plus the cell ledgers
        absorbed this session (resumed shards contribute no ledgers — their
        host-side artifacts belong to the run that produced them)."""
        with self.metrics_lock:
            return {
                "metrics": self.metrics.to_dict(),
                "ledgers": list(self._ledgers),
            }

    def __repr__(self) -> str:
        return (
            f"SweepJob(cells={len(self.specs)}, shards={len(self.shards)}, "
            f"jobs={self.session.jobs}, checkpoint_dir={str(self.checkpoint_dir)!r})"
        )
