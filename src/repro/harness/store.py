"""Content-addressed on-disk cache of experiment results, safe for
concurrent writers.

:class:`ResultStore` persists one JSON file per experiment cell, named by the
spec's :meth:`~repro.harness.spec.ExperimentSpec.cache_key` — a hash of the
cell's fully resolved identity (cluster constants, workload parameters,
runtime config).  Because the simulator is deterministic, a cached report is
exactly what re-running the cell would produce, so regenerating figures on a
warm cache performs zero simulations.

Since the sweep service (``repro.harness.jobs`` / ``repro.harness.service``)
many processes share one store directory, which adds four concerns on top of
the original atomic-rename writes:

* **advisory file locking** — writers serialise on a ``.lock`` file
  (``fcntl.flock`` where available, a no-op elsewhere), so manifest creation,
  quarantine moves and write-behind flushes never interleave;
* **a store manifest** — ``MANIFEST`` stamps the store format and the entry
  schema version; opening a store written by an incompatible version raises
  :class:`StoreSchemaError` instead of silently mixing entry layouts;
* **corrupt-entry quarantine** — a truncated cache file (a writer killed
  mid-``os.replace`` cannot produce one, but a killed *copy* into the store
  or a disk-full write can) is moved into ``quarantine/`` and treated as a
  miss, so the cell is recomputed rather than crashing the sweep;
* **read-through/write-behind mode** — ``ResultStore(root, write_behind=True)``
  buffers puts in memory and batches them to disk on :meth:`flush` (one lock
  acquisition for the whole batch), while gets read through the buffer and a
  payload cache.  Shard workers of a :class:`~repro.harness.jobs.SweepJob`
  use it to avoid a lock round-trip per cell.

Reports round-trip losslessly at the level the harness consumes them:
:func:`report_from_payload` rebuilds an :class:`ExecutionReport` whose
``to_dict()`` is byte-identical to the original's.  The application-level
``result`` object is kept only when it is JSON-serialisable (scalars, lists);
rich results (e.g. numpy meshes) are dropped on the way to disk, which only
matters to ``verify=True`` re-runs — verification happens at execution time,
before the report enters the store.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Any

try:  # POSIX advisory locking; Windows falls back to lock-free atomic renames
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms only
    fcntl = None  # type: ignore[assignment]

from repro.core.stats import MonitorStats, RunStats, ThreadStats
from repro.dsm.page_manager import DsmStats
from repro.harness.spec import CACHE_SCHEMA_VERSION, ExperimentSpec
from repro.hyperion.runtime import ExecutionReport
from repro.obs.metrics import MetricsRegistry
from repro.perf.clock import host_clock

#: the manifest's ``format`` field — identifies a directory as a result store
STORE_FORMAT = "hyperion-result-store"
#: bump when the on-disk *store layout* (manifest, quarantine, file naming)
#: changes; entry payloads are versioned separately by CACHE_SCHEMA_VERSION
STORE_VERSION = 1

#: file names with special meaning inside a store directory
MANIFEST_NAME = "MANIFEST"
LOCK_NAME = ".lock"
QUARANTINE_DIR = "quarantine"
#: subdirectory for telemetry ledgers; a sibling of the entry files so the
#: ``*.json`` globs behind ``__len__``/``clear`` never count a ledger as an
#: entry (and clearing results keeps telemetry history)
TELEMETRY_DIR = "telemetry"


def write_json_atomic(path: Path, payload: Any) -> None:
    """Write *payload* to *path* as compact JSON; readers never see a partial file.

    The payload is encoded with ``json.dumps`` — the C encoder, which
    ``json.dump`` never uses — and lands in one write to a temporary file in
    the target's directory that ``os.replace`` then renames over *path*.
    Every store file (manifest, entries, telemetry ledgers) and every sweep
    checkpoint goes through here; readers only ever ``json.loads`` the bytes.
    """
    text = json.dumps(payload)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class StoreSchemaError(RuntimeError):
    """The store directory was written by an incompatible version."""


def _int_keys(mapping: dict[str, Any]) -> dict[int, Any]:
    """JSON objects stringify integer keys; turn them back."""
    return {int(k): v for k, v in mapping.items()}


def report_to_payload(report: ExecutionReport) -> dict[str, Any]:
    """JSON-friendly structured form of *report* (inverse of
    :func:`report_from_payload`)."""
    stats = report.stats
    try:
        result: Any = json.loads(json.dumps(report.result))
    except (TypeError, ValueError):
        result = None
    return {
        "cluster": report.cluster,
        "protocol": report.protocol,
        "num_nodes": report.num_nodes,
        "num_threads": report.num_threads,
        "execution_seconds": report.execution_seconds,
        "console": list(report.console),
        "result": result,
        "stats": {
            "execution_seconds": stats.execution_seconds,
            "dsm": asdict(stats.dsm),
            "monitors": asdict(stats.monitors),
            "threads": asdict(stats.threads),
            "cpu_seconds_by_node": stats.cpu_seconds_by_node,
            "wait_seconds_by_node": stats.wait_seconds_by_node,
        },
    }


def report_from_payload(payload: dict[str, Any]) -> ExecutionReport:
    """Rebuild an :class:`ExecutionReport` from :func:`report_to_payload`."""
    raw = payload["stats"]
    dsm_fields = dict(raw["dsm"])
    dsm_fields["fetches_by_node"] = _int_keys(dsm_fields.get("fetches_by_node", {}))
    dsm_fields["faults_by_node"] = _int_keys(dsm_fields.get("faults_by_node", {}))
    stats = RunStats(
        dsm=DsmStats(**dsm_fields),
        monitors=MonitorStats(**raw["monitors"]),
        threads=ThreadStats(**raw["threads"]),
        cpu_seconds_by_node=_int_keys(raw["cpu_seconds_by_node"]),
        wait_seconds_by_node=_int_keys(raw["wait_seconds_by_node"]),
        execution_seconds=raw["execution_seconds"],
        result=payload.get("result"),
    )
    return ExecutionReport(
        cluster=payload["cluster"],
        protocol=payload["protocol"],
        num_nodes=payload["num_nodes"],
        num_threads=payload["num_threads"],
        execution_seconds=payload["execution_seconds"],
        stats=stats,
        console=list(payload.get("console", [])),
        result=payload.get("result"),
    )


class ResultStore:
    """JSON-on-disk experiment cache keyed by spec content hash.

    Safe for concurrent writers across processes: entry writes are atomic
    renames serialised by an advisory file lock, readers never observe a
    partially written entry, and an entry that *is* damaged on disk is
    quarantined rather than raised into the sweep.

    With ``write_behind=True`` the store buffers :meth:`put` payloads in
    memory; :meth:`flush` (or leaving the store's context manager) batches
    them to disk under a single lock acquisition.  Gets read through the
    buffer first, then a payload cache of earlier disk reads, then disk.
    """

    def __init__(self, root: str | Path, write_behind: bool = False):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.write_behind = bool(write_behind)
        #: cache-key -> full entry payload waiting for :meth:`flush`
        self._pending: dict[str, dict[str, Any]] = {}
        #: cache-key -> report payload of entries already read from disk
        self._read_cache: dict[str, dict[str, Any]] = {}
        #: entries moved to quarantine by this handle (diagnostic counter)
        self.quarantined = 0
        #: out-of-band store metrics for this handle (hits/misses/puts/
        #: quarantines/lock wait); never persisted with the entries
        self.metrics = MetricsRegistry()
        self._ensure_manifest()

    # ------------------------------------------------------------------
    # locking / manifest / quarantine
    # ------------------------------------------------------------------
    @contextmanager
    def locked(self):
        """Hold the store's advisory writer lock (no-op without ``fcntl``)."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms only
            yield
            return
        lock_path = self.root / LOCK_NAME
        with open(lock_path, "a+") as handle:
            started = host_clock()
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            self.metrics.counter(
                "store_lock_wait_seconds_total",
                "Host seconds spent waiting for the store's advisory lock.",
            ).inc(host_clock() - started)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    @property
    def manifest_path(self) -> Path:
        """The store's format/version stamp."""
        return self.root / MANIFEST_NAME

    def manifest(self) -> dict[str, Any]:
        """The parsed manifest of this store."""
        return json.loads(self.manifest_path.read_text())

    def _ensure_manifest(self) -> None:
        """Create the manifest, or verify a pre-existing one is compatible."""
        if not self.manifest_path.exists():
            with self.locked():
                if not self.manifest_path.exists():  # lost the creation race
                    payload = {
                        "format": STORE_FORMAT,
                        "store_version": STORE_VERSION,
                        "entry_schema": CACHE_SCHEMA_VERSION,
                    }
                    write_json_atomic(self.manifest_path, payload)
                    return
        try:
            manifest = self.manifest()
        except (OSError, ValueError) as exc:
            raise StoreSchemaError(
                f"unreadable store manifest at {self.manifest_path}: {exc}"
            ) from exc
        if manifest.get("format") != STORE_FORMAT:
            raise StoreSchemaError(
                f"{self.root} is not a hyperion result store "
                f"(manifest format {manifest.get('format')!r})"
            )
        if manifest.get("entry_schema") != CACHE_SCHEMA_VERSION:
            raise StoreSchemaError(
                f"store {self.root} holds schema-{manifest.get('entry_schema')} "
                f"entries; this version writes schema {CACHE_SCHEMA_VERSION} — "
                "point --cache-dir at a fresh directory (or clear this one)"
            )

    @property
    def quarantine_root(self) -> Path:
        """Directory that collects corrupt entries (created lazily)."""
        return self.root / QUARANTINE_DIR

    def quarantine_entries(self) -> list[Path]:
        """Entries quarantined by any handle of this store, sorted."""
        if not self.quarantine_root.is_dir():
            return []
        return sorted(self.quarantine_root.iterdir())

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry out of the way so the cell recomputes.

        Racing handles may quarantine the same entry concurrently; the loser
        of the rename race silently finds the file gone, which is fine — the
        entry is in quarantine either way.
        """
        self.quarantine_root.mkdir(exist_ok=True)
        try:
            with self.locked():
                if path.exists():
                    os.replace(path, self.quarantine_root / path.name)
                    self.quarantined += 1
                    self.metrics.counter(
                        "store_quarantined_total",
                        "Corrupt entries moved to quarantine.",
                    ).inc()
        except OSError:  # pragma: no cover - quarantine is best-effort
            pass

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """File that holds (or would hold) the result hashed to *key*."""
        return self.root / f"{key}.json"

    def __contains__(self, spec: ExperimentSpec) -> bool:
        key = spec.cache_key()
        return key in self._pending or self.path_for(key).exists()

    def __len__(self) -> int:
        on_disk = {path.stem for path in self.root.glob("*.json")}
        return len(on_disk | set(self._pending))

    # ------------------------------------------------------------------
    def get(self, spec: ExperimentSpec) -> ExecutionReport | None:
        """The cached report of *spec*, or None on a miss.

        A stale entry (older schema) is a plain miss; a *corrupt* entry —
        unparseable JSON or a structurally wrong payload, e.g. the remains
        of a killed writer — is quarantined and then treated as a miss, so
        the sweep recomputes the cell instead of crashing.
        """
        key = spec.cache_key()
        pending = self._pending.get(key)
        if pending is not None:
            self._count_get("hit")
            return report_from_payload(pending["report"])
        cached = self._read_cache.get(key)
        if cached is not None:
            self._count_get("hit")
            return report_from_payload(cached)
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            self._count_get("miss")
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise TypeError(f"entry root is {type(payload).__name__}")
            if "schema" not in payload:
                raise KeyError("schema")  # no version stamp at all: corrupt
            if payload["schema"] != CACHE_SCHEMA_VERSION:
                self._count_get("miss")
                return None  # stale, not corrupt: leave it alone
            report = report_from_payload(payload["report"])
        except (ValueError, KeyError, TypeError, AttributeError):
            # unparseable or structurally wrong: quarantine and recompute
            self._quarantine(path)
            self._count_get("miss")
            return None
        self._read_cache[key] = payload["report"]
        self._count_get("hit")
        return report

    def _count_get(self, result: str) -> None:
        self.metrics.counter(
            "store_gets_total", "Store lookups by outcome (hit/miss)."
        ).inc(1, result=result)

    def _entry_payload(self, spec: ExperimentSpec, report: ExecutionReport) -> dict:
        key = spec.cache_key()
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "spec": spec.describe(),
            "report": report_to_payload(report),
        }

    def put(self, spec: ExperimentSpec, report: ExecutionReport) -> Path:
        """Persist *report* under *spec*'s cache key.

        Write-behind stores buffer the entry until :meth:`flush`; otherwise
        the entry is written immediately (atomic rename under the advisory
        lock, so concurrent writers of the same cell leave one valid file).
        """
        key = spec.cache_key()
        payload = self._entry_payload(spec, report)
        self.metrics.counter("store_puts_total", "Entries persisted (or buffered).").inc()
        if self.write_behind:
            self._pending[key] = payload
            return self.path_for(key)
        with self.locked():
            self._write_entry(key, payload)
        return self.path_for(key)

    def flush(self) -> int:
        """Write every buffered entry to disk; returns the number written."""
        if not self._pending:
            return 0
        with self.locked():
            for key in sorted(self._pending):
                self._write_entry(key, self._pending[key])
        written = len(self._pending)
        self._pending.clear()
        self.metrics.counter(
            "store_flush_entries_total", "Buffered entries written by flushes."
        ).inc(written)
        return written

    # ------------------------------------------------------------------
    # telemetry ledgers (out-of-band siblings of the pinned entries)
    # ------------------------------------------------------------------
    @property
    def telemetry_root(self) -> Path:
        """Directory holding per-cell telemetry ledgers (created lazily)."""
        return self.root / TELEMETRY_DIR

    def telemetry_path_for(self, key: str) -> Path:
        """File that holds (or would hold) the ledger of cache key *key*."""
        return self.telemetry_root / f"{key}.json"

    def put_telemetry(self, spec: ExperimentSpec, payload: dict) -> Path:
        """Persist a :class:`~repro.obs.ledger.RunTelemetry` payload.

        Ledgers live in ``telemetry/`` next to — never inside — the pinned
        result entry, so the entry payload (and its byte-identity contract)
        is untouched by telemetry runs.  Last writer wins; ledgers are
        observations, not cached results.
        """
        path = self.telemetry_path_for(spec.cache_key())
        self.telemetry_root.mkdir(exist_ok=True)
        write_json_atomic(path, payload)
        self.metrics.counter(
            "store_telemetry_puts_total", "Telemetry ledgers persisted."
        ).inc()
        return path

    def get_telemetry(self, spec: ExperimentSpec) -> dict | None:
        """The persisted ledger of *spec*, or None when absent/damaged."""
        try:
            payload = json.loads(self.telemetry_path_for(spec.cache_key()).read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def _write_entry(self, key: str, payload: dict) -> None:
        write_json_atomic(self.path_for(key), payload)
        self._read_cache[key] = payload["report"]

    # ------------------------------------------------------------------
    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.flush()

    def clear(self) -> int:
        """Delete every cached result (buffered and on disk); returns the
        number removed.  The manifest and quarantine are kept."""
        removed = len(self._pending)
        self._pending.clear()
        self._read_cache.clear()
        with self.locked():
            for path in self.root.glob("*.json"):
                path.unlink()
                removed += 1
        return removed

    def __repr__(self) -> str:
        mode = ", write_behind=True" if self.write_behind else ""
        return f"ResultStore({str(self.root)!r}{mode})"
