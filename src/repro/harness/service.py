"""The sweep service: ``hyperion-sim serve`` — a JSON API over sweeps.

A :class:`SweepService` owns a queue of submitted sweeps and a pool of
background worker threads that run each sweep as a
:class:`~repro.harness.jobs.SweepJob` (sharded, checkpointed, store-backed).
:class:`ServiceServer` wraps it in a stdlib :class:`~http.server.HTTPServer`
whose accepted connections a fixed set of handler threads serve, speaking a
small JSON protocol::

    GET  /health               liveness + queue depth
    GET  /metrics              Prometheus text: service + per-job aggregates
    POST /sweeps               submit a sweep request -> {"id": ...}
    GET  /sweeps               every sweep's status snapshot
    GET  /sweeps/<id>          one sweep: state + progress + metric snapshot
    GET  /sweeps/<id>/grid     the finished grid, SessionResult.to_dict()
    GET  /sweeps/<id>/cells/<label>   one cell as a CellResult record
    POST /shutdown             graceful stop: drain in-flight shards

A sweep request names its grid the way :class:`ExperimentMatrix` does::

    {"apps": ["pi"], "clusters": ["myrinet"], "nodes": [1, 2],
     "protocols": ["java_ic", "java_pf"], "workload": "testing",
     "shard_size": 4}

The grid a finished sweep serves is **byte-identical** to what a serial
``Session().run(...)`` of the same specs returns: each sweep runs through its
own :class:`~repro.harness.session.Session` (``jobs`` worker processes, the
service's store), and cells cross the checkpoint and store boundaries as
canonical payloads whose round-trip
(:func:`~repro.harness.store.report_from_payload`) reproduces ``to_dict()``
exactly.  Sweeps run with telemetry on by default (it is
out-of-band, so the grids stay byte-identical); a request may opt out with
``"telemetry": false``.  ``GET /metrics`` renders the service gauges plus
every job's aggregated :mod:`repro.obs` families as Prometheus text.  Shutdown is graceful by construction — the service stops handing
out new shards, drains the ones in flight (checkpointing each), and marks
still-queued or interrupted sweeps so a later submission can resume them.

Everything here is standard library; there is no web framework to install.
"""

from __future__ import annotations

import json
import queue
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from typing import Any

from repro.harness.jobs import SweepInterrupted, SweepJob
from repro.harness.matrix import ExperimentMatrix
from repro.harness.session import Session, SessionResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.promtext import CONTENT_TYPE, render_metrics
from repro.util.logging import get_logger
from repro.util.validation import check_positive

#: states a submitted sweep moves through (terminal: done/failed/interrupted)
SWEEP_STATES = ("queued", "running", "done", "failed", "interrupted")

#: threads serving accepted HTTP connections, started with the server
HANDLER_THREADS = 4


class ServiceError(ValueError):
    """A client-facing request error (HTTP 400/404)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def parse_sweep_request(payload: Any) -> ExperimentMatrix:
    """Build the :class:`ExperimentMatrix` a sweep-request JSON describes.

    This checks the JSON shape only; :meth:`ExperimentMatrix.build` checks
    the names and node counts at submission.
    """
    if not isinstance(payload, dict):
        raise ServiceError("sweep request must be a JSON object")
    known = {
        "apps",
        "clusters",
        "protocols",
        "nodes",
        "workload",
        "shard_size",
        "telemetry",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ServiceError(
            f"unknown sweep-request field(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    for key in ("apps", "clusters"):
        if not payload.get(key) or not isinstance(payload[key], list):
            raise ServiceError(f'sweep request needs a non-empty "{key}" list')
    for key in ("protocols", "nodes"):
        if not isinstance(payload.get(key) or [], list):
            raise ServiceError(f'"{key}" must be a list')
    if not isinstance(payload.get("workload", "bench"), (str, type(None))):
        raise ServiceError('"workload" must be a workload preset name')
    if not isinstance(payload.get("telemetry", True), bool):
        raise ServiceError('"telemetry" must be true or false')
    shard_size = payload.get("shard_size")
    if shard_size is not None and (
        isinstance(shard_size, bool) or not isinstance(shard_size, int) or shard_size < 1
    ):
        raise ServiceError('"shard_size" must be a positive integer')
    matrix = ExperimentMatrix().apps(*payload["apps"]).clusters(*payload["clusters"])
    if payload.get("protocols"):
        matrix = matrix.protocols(*payload["protocols"])
    if payload.get("nodes"):
        matrix = matrix.nodes(*payload["nodes"])
    return matrix.workload(payload.get("workload", "bench"))


class SweepRecord:
    """One submitted sweep: its specs, its lifecycle state and, while it
    runs, its job.

    When the sweep ends (done, failed or interrupted) the service freezes
    what the record still serves, the job's progress and metric snapshots,
    and drops the job with the per-cell telemetry ledgers it holds.
    """

    def __init__(
        self,
        sweep_id: str,
        specs: list,
        shard_size: int | None,
        telemetry: bool = True,
    ):
        self.id = sweep_id
        self.specs = specs
        self.shard_size = shard_size
        self.telemetry = bool(telemetry)
        self.state = "queued"
        self.error: str | None = None
        #: the running job; None before it starts and after it ends
        self.job: SweepJob | None = None
        #: ``job.progress.to_dict()`` and ``job.metrics_snapshot()`` frozen
        #: when the job ends (None if it never started); served as they are,
        #: so callers must not mutate them
        self.progress: dict[str, Any] | None = None
        self.metrics: dict[str, Any] | None = None
        self.result: SessionResult | None = None
        self.lock = threading.Lock()

    def status(self) -> dict[str, Any]:
        """JSON status snapshot (what the ``GET /sweeps`` list returns)."""
        with self.lock:
            job = self.job
            progress = job.progress.to_dict() if job is not None else self.progress
            return {
                "id": self.id,
                "state": self.state,
                "cells": len(self.specs),
                "error": self.error,
                "progress": progress,
            }

    def metrics_snapshot(self) -> dict[str, Any] | None:
        """The job-level metric snapshot: live while the sweep runs, frozen
        once it ends, None if it never started."""
        with self.lock:
            job, metrics = self.job, self.metrics
        # the job's metrics_lock is never taken under self.lock
        return job.metrics_snapshot() if job is not None else metrics

    def detail(self) -> dict[str, Any]:
        """Status plus the job-level metric snapshot (``GET /sweeps/<id>``)."""
        payload = self.status()
        payload["metrics"] = self.metrics_snapshot()
        return payload


class SweepService:
    """Queue + worker pool running submitted sweeps as :class:`SweepJob` s."""

    def __init__(
        self,
        jobs: int = 1,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        checkpoint_root: str | Path | None = None,
        shard_size: int | None = None,
        telemetry: bool = True,
    ):
        check_positive("workers", workers)
        self.jobs = int(jobs)
        self.default_shard_size = shard_size
        self.telemetry = bool(telemetry)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.checkpoint_root = Path(checkpoint_root) if checkpoint_root else None
        #: service-level counters (guarded by ``_lock`` like the queue)
        self._metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._sweeps: dict[str, SweepRecord] = {}
        self._order: list[str] = []
        self._queue: list[str] = []
        self._next_id = 1
        self._stopping = threading.Event()
        self._wakeup = threading.Condition(self._lock)
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"sweep-worker-{i}", daemon=True)
            for i in range(int(workers))
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # submission and lookup
    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> SweepRecord:
        """Validate and enqueue one sweep request; returns its record."""
        matrix = parse_sweep_request(payload)
        shard_size = payload.get("shard_size", self.default_shard_size)
        try:
            specs = matrix.build()
        except ValueError as exc:
            raise ServiceError(f"invalid sweep request: {exc}") from exc
        telemetry = payload.get("telemetry", self.telemetry)
        with self._lock:
            if self._stopping.is_set():
                raise ServiceError("service is shutting down", status=503)
            sweep_id = f"sweep-{self._next_id:04d}"
            self._next_id += 1
            record = SweepRecord(sweep_id, specs, shard_size, telemetry=telemetry)
            self._sweeps[sweep_id] = record
            self._order.append(sweep_id)
            self._queue.append(sweep_id)
            self._metrics.counter(
                "service_sweeps_submitted_total", "Sweeps accepted by the service."
            ).inc()
            self._wakeup.notify()
        return record

    def get(self, sweep_id: str) -> SweepRecord:
        """Look one sweep up (404 when unknown)."""
        with self._lock:
            record = self._sweeps.get(sweep_id)
        if record is None:
            raise ServiceError(f"no such sweep: {sweep_id}", status=404)
        return record

    def statuses(self) -> list[dict[str, Any]]:
        """Status snapshots of every sweep, in submission order."""
        with self._lock:
            records = [self._sweeps[sweep_id] for sweep_id in self._order]
        return [record.status() for record in records]

    def grid(self, sweep_id: str) -> dict[str, Any]:
        """The finished grid — byte-identical to a serial ``Session.run``."""
        record = self.get(sweep_id)
        with record.lock:
            if record.state != "done" or record.result is None:
                raise ServiceError(
                    f"sweep {sweep_id} is {record.state}, not done", status=409
                )
            return record.result.to_dict()

    def cell(self, sweep_id: str, label: str) -> dict[str, Any]:
        """One finished cell as its :class:`CellResult` record."""
        record = self.get(sweep_id)
        with record.lock:
            if record.state != "done" or record.result is None:
                raise ServiceError(
                    f"sweep {sweep_id} is {record.state}, not done", status=409
                )
            for spec in record.result.reports:
                if spec.label() == label:
                    return record.result.cell(spec).to_dict()
        raise ServiceError(
            f"sweep {sweep_id} has no cell labelled {label!r}", status=404
        )

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        """One deterministic payload of everything the service can count.

        A fresh registry absorbs the service counters, the live queue/worker
        gauges, and every sweep's job aggregate (live while it runs, frozen
        once it ends).  Gauges merge by ``max`` across jobs — the documented
        registry semantics.
        """
        snapshot = MetricsRegistry()
        with self._lock:
            snapshot.merge(self._metrics.to_dict())
            records = [self._sweeps[sweep_id] for sweep_id in self._order]
            queue_depth = len(self._queue)
            worker_count = len(self._workers)
        states = dict.fromkeys(SWEEP_STATES, 0)
        for record in records:
            with record.lock:
                states[record.state] += 1
        snapshot.gauge(
            "service_queue_depth", "Sweeps waiting for a worker."
        ).set(queue_depth)
        sweeps = snapshot.gauge("service_sweeps", "Sweeps by lifecycle state.")
        for state in SWEEP_STATES:
            sweeps.set(states[state], state=state)
        workers = snapshot.gauge("service_workers", "Worker threads by state.")
        workers.set(worker_count, state="total")
        workers.set(states["running"], state="busy")
        for record in records:
            metrics = record.metrics_snapshot()
            if metrics is not None:
                snapshot.merge(metrics)
        return snapshot.to_dict()

    # ------------------------------------------------------------------
    # the worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopping.is_set():
                    self._wakeup.wait()
                if self._stopping.is_set() and not self._queue:
                    return
                sweep_id = self._queue.pop(0) if self._queue else None
            if sweep_id is None:
                return
            self._run_sweep(self._sweeps[sweep_id])

    def _run_sweep(self, record: SweepRecord) -> None:
        checkpoint_dir = (
            self.checkpoint_root / record.id if self.checkpoint_root else None
        )
        # one session (worker pool and store handle) per sweep, closed with it
        session = Session.from_options(jobs=self.jobs, cache_dir=self.cache_dir)
        job = SweepJob(
            record.specs,
            session=session,
            checkpoint_dir=checkpoint_dir,
            shard_size=record.shard_size,
            stop_event=self._stopping,
            telemetry=record.telemetry,
        )
        with record.lock:
            if self._stopping.is_set():
                record.state = "interrupted"
                record.error = "service shut down before the sweep started"
                return
            record.state = "running"
            record.job = job
        result = None
        try:
            result = job.run()
        except SweepInterrupted as exc:
            state, error = "interrupted", str(exc)
        except Exception as exc:  # noqa: BLE001 - a sweep failure must not kill the worker
            state, error = "failed", f"{type(exc).__name__}: {exc}"
        else:
            state, error = "done", None
        finally:
            session.close()
        # freeze what the record still serves, then let the job and its
        # ledgers go (metrics_lock is taken here, not under record.lock)
        progress = job.progress.to_dict()
        metrics = job.metrics_snapshot()
        with record.lock:
            record.state = state
            record.error = error
            record.result = result
            record.progress = progress
            record.metrics = metrics
            record.job = None

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> dict[str, Any]:
        """Stop gracefully: no new shards start, in-flight shards drain."""
        with self._lock:
            self._stopping.set()
            abandoned = list(self._queue)
            self._queue.clear()
            self._wakeup.notify_all()
        for sweep_id in abandoned:
            record = self._sweeps[sweep_id]
            with record.lock:
                record.state = "interrupted"
                record.error = "service shut down while the sweep was queued"
        for thread in self._workers:
            thread.join()
        return {"stopped": True, "abandoned": abandoned}


# ---------------------------------------------------------------------------
# the HTTP layer
# ---------------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """Routes the JSON protocol onto the :class:`SweepService`."""

    server: "ServiceServer"  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"
    # headers and body go out in two writes; with Nagle on, the body waits
    # for the client's delayed ACK (~40 ms) on every kept-alive request
    disable_nagle_algorithm = True
    # seconds a kept-alive connection may sit idle before it is closed, so
    # an idle client cannot hold one of the few handler threads for good
    timeout = 5.0

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if self.server.verbose:
            self.server.logger.info(
                "%s - %s", self.address_string(), format % args
            )

    # -- plumbing ----------------------------------------------------------
    def _send(self, status: int, payload: dict[str, Any]) -> None:
        self._send_text(
            status, json.dumps(payload, sort_keys=True), "application/json"
        )

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if not self.server._connections.empty():
            # other connections wait for a handler: close this one after the
            # response, so a client that keeps polling on it reconnects and
            # queues behind them instead of holding the thread
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc

    def _route(self, method: str) -> None:
        service = self.server.service
        path = self.path.rstrip("/") or "/"
        try:
            if method == "GET" and path == "/health":
                statuses = service.statuses()
                self._send(
                    200,
                    {
                        "status": "ok",
                        "sweeps": len(statuses),
                        "running": sum(s["state"] == "running" for s in statuses),
                    },
                )
            elif method == "GET" and path == "/metrics":
                self._send_text(
                    200, render_metrics(service.metrics_snapshot()), CONTENT_TYPE
                )
            elif method == "POST" and path == "/sweeps":
                record = service.submit(self._read_json())
                self._send(202, record.status())
            elif method == "GET" and path == "/sweeps":
                self._send(200, {"sweeps": service.statuses()})
            elif method == "POST" and path == "/shutdown":
                self._send(200, {"shutting_down": True})
                self.server.request_shutdown()
            elif path.startswith("/sweeps/"):
                self._route_sweep(method, path.split("/")[2:])
            else:
                raise ServiceError(f"no such endpoint: {method} {path}", status=404)
        except ServiceError as exc:
            self._send(exc.status, {"error": str(exc)})

    def _route_sweep(self, method: str, parts: list[str]) -> None:
        service = self.server.service
        if method != "GET" or not parts:
            raise ServiceError(f"no such endpoint: {method} {self.path}", status=404)
        sweep_id, rest = parts[0], parts[1:]
        if not rest:
            self._send(200, service.get(sweep_id).detail())
        elif rest == ["grid"]:
            self._send(200, {"id": sweep_id, "grid": service.grid(sweep_id)})
        elif rest[0] == "cells" and len(rest) > 1:
            # cell labels contain slashes (app/cluster/protocol/nN)
            label = "/".join(rest[1:])
            self._send(200, service.cell(sweep_id, label))
        else:
            raise ServiceError(f"no such endpoint: GET {self.path}", status=404)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._route("POST")


class ServiceServer(HTTPServer):
    """The HTTP server wired to one :class:`SweepService`.

    ``serve_forever`` only accepts connections; :data:`HANDLER_THREADS`
    threads, started here and joined by :meth:`server_close`, serve them
    from a queue.
    """

    def __init__(
        self,
        service: SweepService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ):
        super().__init__((host, port), _Handler)
        self.service = service
        self.verbose = verbose
        self.logger = get_logger("harness.service")
        self._shutdown_requested = threading.Event()
        #: accepted connections waiting for a handler (None stops one)
        self._connections: queue.SimpleQueue = queue.SimpleQueue()
        #: connections a handler is serving right now
        self._serving: set[socket.socket] = set()
        self._handlers = [
            threading.Thread(
                target=self._handle_connections, name=f"service-handler-{i}", daemon=True
            )
            for i in range(HANDLER_THREADS)
        ]
        for thread in self._handlers:
            thread.start()

    def process_request(self, request, client_address) -> None:
        """Queue an accepted connection for the handler threads."""
        self._connections.put((request, client_address))

    def _handle_connections(self) -> None:
        while (item := self._connections.get()) is not None:
            request, client_address = item
            self._serving.add(request)
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 - one bad connection must not kill the thread
                self.handle_error(request, client_address)
            finally:
                self._serving.discard(request)
                self.shutdown_request(request)

    def server_close(self) -> None:
        """Close the listening socket, then stop and join the handler
        threads once they have served the connections already queued.

        Connections being served are shut for reading: a response in
        progress still goes out, but a handler waiting on an idle kept-alive
        connection reads end-of-file at once instead of at its timeout.
        """
        super().server_close()
        for request in list(self._serving):
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:  # the client closed it already
                pass
        for _ in self._handlers:
            self._connections.put(None)
        for thread in self._handlers:
            thread.join()

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def request_shutdown(self) -> None:
        """Begin graceful shutdown from a handler thread (non-blocking)."""
        if self._shutdown_requested.is_set():
            return
        self._shutdown_requested.set()
        threading.Thread(target=self._drain_and_stop, daemon=True).start()

    def _drain_and_stop(self) -> None:
        self.service.shutdown()  # drains in-flight shards
        self.shutdown()  # stops serve_forever

    def serve_until_shutdown(self) -> None:
        """Serve requests until ``POST /shutdown`` (or Ctrl-C) drains us."""
        try:
            self.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            self.service.shutdown()
        finally:
            self.server_close()


def serve(
    host: str = "127.0.0.1",
    port: int = 8642,
    jobs: int = 1,
    workers: int = 1,
    cache_dir: str | None = None,
    checkpoint_root: str | None = None,
    shard_size: int | None = None,
    verbose: bool = False,
    telemetry: bool = True,
) -> ServiceServer:
    """Construct the service + server pair (without starting to serve)."""
    service = SweepService(
        jobs=jobs,
        workers=workers,
        cache_dir=cache_dir,
        checkpoint_root=checkpoint_root,
        shard_size=shard_size,
        telemetry=telemetry,
    )
    return ServiceServer(service, host=host, port=port, verbose=verbose)
