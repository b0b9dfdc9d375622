"""Sharded, checkpointed, resumable sweep execution: :class:`SweepJob`.

A :class:`SweepJob` takes anything that yields
:class:`~repro.harness.spec.ExperimentSpec` objects — typically an
:class:`~repro.harness.matrix.ExperimentMatrix` — splits the deduplicated
cell list into contiguous *shards*, and runs the shards across a process
pool.  Three properties distinguish it from a plain
:meth:`Session.run <repro.harness.session.Session.run>`:

* **per-shard checkpointing** — every finished shard is written to the job's
  checkpoint directory as a JSON file of :class:`CellResult`-shaped payloads,
  so an interrupted sweep (``kill -9``, power loss, Ctrl-C) loses at most the
  shards that were still in flight;
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

Shard workers run in separate processes (``jobs=N``) with their own
write-behind store handles, and their reports come back as payloads;
``jobs=1`` runs shards in-process and takes the report objects as they are,
which is also the mode the deterministic resume tests drive.  Either way a
checkpoint holds payloads.
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
    ResultStore,
    payload_result,
    report_from_payload,
    report_to_payload,
    write_json_atomic,
)
from repro.hyperion.runtime import ExecutionReport
from repro.obs.metrics import DEFAULT_HOST_SECONDS_BUCKETS, MetricsRegistry
from repro.perf.clock import host_clock, peak_rss_bytes
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


# ---------------------------------------------------------------------------
# the shard worker (module-level so process pools can pickle it)
# ---------------------------------------------------------------------------
def _run_shard(
    shard_index: int,
    specs: list[ExperimentSpec],
    store_root: str | None,
) -> tuple[dict[str, Any], list[ExecutionReport]]:
    """Run one shard's cells; return its outcome and the cells' reports.

    Workers open their own store handle in write-behind mode: cells land in
    memory as the shard runs and are flushed to disk in one locked batch at
    the end, so a pool of workers contends on the store lock once per shard,
    not once per cell.  Cells run one ``Session.run`` each (the session —
    and its in-process memo — is shared across the shard, so nothing warms
    differently than the old one-batch call) to give the job per-cell wall
    times; the worker's peak RSS rides along for the memory-budget gauge.

    The reports come back as objects for an in-process caller, cut down to
    what a payload carries: the result only if it is JSON, and none of the
    host-side attachments (``.telemetry``, whose ledger travels in the
    outcome, ``.sanitizer``, ``.trace`` and ``.events_processed``).  A
    record built from them therefore holds and serialises what one built
    from the payloads of :func:`_run_shard_payloads` does.
    """
    started = host_clock()
    store = (
        ResultStore(store_root, write_behind=True) if store_root is not None else None
    )
    session = Session(store=store)
    reports: list[ExecutionReport] = []
    cells: list[dict[str, Any]] = []
    cell_seconds: list[float] = []
    executed = 0
    cache_hits = 0
    ledgers = []
    for spec in specs:
        cell_started = host_clock()
        result = session.run([spec])
        cell_seconds.append(host_clock() - cell_started)
        executed += result.executed
        cache_hits += result.cache_hits
        report = result[spec]
        if report.telemetry is not None:
            ledgers.append(report.telemetry.to_dict())
        # keep what the payload round trip keeps: the result as JSON (an
        # array becomes None, so a record holds no grid), no host-side fields
        report.result = report.stats.result = payload_result(report.result)
        report.telemetry = report.sanitizer = report.trace = None
        report.events_processed = 0
        reports.append(report)
        cells.append(
            {
                "key": spec.cache_key(),
                "label": spec.label(),
                "cached": spec in result.cached_specs,
            }
        )
    if store is not None:
        store.flush()
    outcome = {
        "shard": shard_index,
        "executed": executed,
        "cache_hits": cache_hits,
        "host_seconds": host_clock() - started,
        "cell_seconds": cell_seconds,
        "peak_rss_bytes": peak_rss_bytes(),
        # out-of-band per-cell ledgers (empty unless specs asked for them)
        # plus the worker store's own counters, for job-level aggregation
        "telemetry": ledgers,
        "store_metrics": store.metrics.to_dict() if store is not None else None,
        "cells": cells,
    }
    return outcome, reports


def _with_payloads(
    cells: list[dict[str, Any]], reports: list[ExecutionReport]
) -> list[dict[str, Any]]:
    """*cells* with each report as its payload, the form that crosses a
    process or checkpoint boundary."""
    return [
        {**cell, "report": report_to_payload(report)}
        for cell, report in zip(cells, reports, strict=True)
    ]


def _pool_context():
    """How shard worker processes start: never by a plain ``fork``.

    A job may run inside ``serve``, whose handler and sweep threads keep
    running while the pool starts; a forked child would inherit their held
    locks.  ``forkserver`` forks from a clean single-threaded process;
    ``spawn`` stands in where the platform lacks it.
    """
    import multiprocessing

    method = "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


def _run_shard_payloads(
    shard_index: int,
    specs: list[ExperimentSpec],
    store_root: str | None,
) -> dict[str, Any]:
    """Process-pool form of :func:`_run_shard`: one picklable outcome whose
    cells carry their reports as payloads."""
    outcome, reports = _run_shard(shard_index, specs, store_root)
    outcome["cells"] = _with_payloads(outcome["cells"], reports)
    return outcome


# ---------------------------------------------------------------------------
# the job
# ---------------------------------------------------------------------------
class SweepJob:
    """A sharded, checkpointed, resumable run of one experiment grid."""

    def __init__(
        self,
        experiments: Iterable[ExperimentSpec],
        checkpoint_dir: str | Path | None = None,
        jobs: int = 1,
        shard_size: int | None = None,
        store: ResultStore | None = None,
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
        check_positive("jobs", jobs)
        self.jobs = int(jobs)
        if shard_size is None:
            shard_size = min(DEFAULT_SHARD_SIZE, max(1, len(self.specs)))
        check_positive("shard_size", shard_size)
        self.shard_size = int(shard_size)
        self.store = store
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
        #: cell/store family).  The worker thread mutates it through
        #: :meth:`_absorb` while service handler threads snapshot it, so all
        #: access goes through :attr:`metrics_lock`.
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

    def _manifest_path(self) -> Path:
        assert self.checkpoint_dir is not None
        return self.checkpoint_dir / "job.json"

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
        manifest_path = self._manifest_path()
        existing: dict | None = None
        if manifest_path.exists():
            try:
                existing = json.loads(manifest_path.read_text())
            except (OSError, ValueError):
                existing = None
        if self.resume:
            if existing is None:
                # nothing to resume; behave like a fresh run
                pass
            elif existing.get("job_key") != key:
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

    def _checkpoint_shard(self, outcome: dict[str, Any]) -> None:
        """Write *outcome*, whose cells carry their report payloads."""
        if self.checkpoint_dir is None:
            return
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "job_key": self.job_key(),
            **outcome,
        }
        write_json_atomic(self._shard_path(outcome["shard"]), payload)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the job to stop after the shards currently in flight drain."""
        self.stop_event.set()

    def _absorb_metrics(self, outcome: dict[str, Any], cells: int) -> None:
        """Fold one shard outcome into the job-level metric aggregate.

        ``.get`` defaults keep checkpoints written before the telemetry
        fields existed absorbable.
        """
        with self.metrics_lock:
            metrics = self.metrics
            metrics.counter(
                "sweep_shards_completed_total", "Shards finished this session."
            ).inc()
            metrics.counter(
                "sweep_cells_completed_total", "Cells finished this session."
            ).inc(cells)
            metrics.counter(
                "sweep_cells_executed_total", "Cells actually simulated."
            ).inc(outcome.get("executed", 0))
            metrics.counter(
                "sweep_cells_cache_hits_total", "Cells served by the result store."
            ).inc(outcome.get("cache_hits", 0))
            host_seconds = outcome.get("host_seconds")
            if host_seconds is not None:
                metrics.histogram(
                    "sweep_shard_host_seconds",
                    "Host wall-clock seconds per shard.",
                    buckets=DEFAULT_HOST_SECONDS_BUCKETS,
                ).observe(host_seconds)
            cell_seconds = outcome.get("cell_seconds")
            if cell_seconds:
                per_cell = metrics.histogram(
                    "sweep_cell_host_seconds",
                    "Host wall-clock seconds per cell.",
                    buckets=DEFAULT_HOST_SECONDS_BUCKETS,
                )
                for seconds in cell_seconds:
                    per_cell.observe(seconds)
            peak_rss = outcome.get("peak_rss_bytes")
            if peak_rss:
                metrics.gauge(
                    "sweep_peak_rss_bytes",
                    "Peak worker resident set size, in bytes.",
                ).set_max(peak_rss)
            for ledger in outcome.get("telemetry") or ():
                self._ledgers.append(ledger)
                payload = ledger.get("metrics")
                if payload:
                    metrics.merge(payload)
            store_metrics = outcome.get("store_metrics")
            if store_metrics:
                metrics.merge(store_metrics)

    def _absorb(
        self,
        outcome: dict[str, Any],
        reports: list[ExecutionReport],
        started: float,
    ) -> None:
        """Fold one finished shard into reports, checkpoint and progress."""
        shard = self.shards[outcome["shard"]]
        for spec, cell, report in zip(shard, outcome["cells"], reports, strict=True):
            self._reports[spec] = report
            if cell["cached"]:
                self._cached_specs.add(spec)
        self._checkpoint_shard(outcome)
        self._absorb_metrics(outcome, len(shard))
        progress = self.progress
        progress.completed_shards += 1
        progress.completed_cells += len(shard)
        progress.executed_cells += outcome["executed"]
        progress.cache_hits += outcome["cache_hits"]
        progress.elapsed_seconds = host_clock() - started
        if self.progress_callback is not None:
            self.progress_callback(progress)

    def run(self) -> SessionResult:
        """Run every pending shard; return the grid's :class:`SessionResult`.

        Raises :class:`SweepInterrupted` when :meth:`request_stop` fires (the
        shards already in flight are drained and checkpointed first), and
        :class:`CheckpointMismatch` when resuming against a foreign
        checkpoint directory.
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
        store_root = str(self.store.root) if self.store is not None else None
        stopped = False
        if self.jobs == 1 or len(pending) <= 1:
            for index in pending:
                if self.stop_event.is_set():
                    stopped = True
                    break
                outcome, reports = _run_shard(index, self.shards[index], store_root)
                if self.checkpoint_dir is not None:
                    outcome["cells"] = _with_payloads(outcome["cells"], reports)
                self._absorb(outcome, reports, started)
        elif pending:
            from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

            workers = min(self.jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context()) as pool:
                queue = list(pending)
                in_flight = set()
                while queue or in_flight:
                    if self.stop_event.is_set():
                        stopped = True
                        queue.clear()  # drain in-flight shards, submit no more
                    while queue and len(in_flight) < workers:
                        index = queue.pop(0)
                        in_flight.add(
                            pool.submit(
                                _run_shard_payloads, index, self.shards[index], store_root
                            )
                        )
                    if not in_flight:
                        break
                    finished, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in finished:
                        outcome = future.result()
                        reports = [
                            report_from_payload(cell["report"])
                            for cell in outcome["cells"]
                        ]
                        self._absorb(outcome, reports, started)
        if stopped:
            raise SweepInterrupted(
                f"sweep stopped at {progress.completed_cells}/"
                f"{progress.total_cells} cells; finished shards are "
                "checkpointed — rerun with resume to continue",
                progress,
            )
        result = SessionResult(
            cache_hits=progress.cache_hits,
            executed=progress.executed_cells,
        )
        for spec in self.specs:
            result.reports[spec] = self._reports[spec]
        result.cached_specs = set(self._cached_specs)
        self.result = result
        return result

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
            f"jobs={self.jobs}, checkpoint_dir={str(self.checkpoint_dir)!r})"
        )
