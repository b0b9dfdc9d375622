"""The sweep service: request parsing, lifecycle, and the HTTP round-trip."""

import gc
import http.client
import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import weakref
from pathlib import Path

import pytest

import repro
from repro.harness import service as service_module
from repro.harness.jobs import SweepJob
from repro.harness.matrix import ExperimentMatrix
from repro.harness.service import (
    ServiceError,
    SweepService,
    parse_sweep_request,
    serve,
)
from repro.harness.session import Session
from repro.harness.store import report_from_payload, report_to_payload
from repro.obs.metrics import MetricsRegistry
from repro.obs.promtext import render_metrics

REQUEST = {
    "apps": ["pi"],
    "clusters": ["myrinet"],
    "nodes": [1, 2],
    "protocols": ["java_ic", "java_pf"],
    "workload": "testing",
}


def _serial_grid():
    return Session().run(
        ExperimentMatrix()
        .apps("pi")
        .clusters("myrinet")
        .nodes(1, 2)
        .workload("testing")
    ).to_dict()


# ---------------------------------------------------------------------------
# request parsing
# ---------------------------------------------------------------------------
def test_parse_sweep_request_builds_the_matrix():
    specs = parse_sweep_request(REQUEST).build()
    assert len(specs) == 4
    assert {s.label() for s in specs} == set(_serial_grid())


@pytest.mark.parametrize(
    "payload",
    [
        "not an object",
        {},
        {"apps": []},
        {"apps": ["pi"]},
        {"apps": ["pi"], "clusters": ["myrinet"], "bogus": 1},
    ],
)
def test_parse_sweep_request_rejects_bad_payloads(payload):
    with pytest.raises(ServiceError):
        parse_sweep_request(payload)


# ---------------------------------------------------------------------------
# service lifecycle (no HTTP)
# ---------------------------------------------------------------------------
def _wait_done(service, sweep_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = service.get(sweep_id).status()
        if status["state"] in ("done", "failed", "interrupted"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"sweep {sweep_id} did not finish: {status}")


def test_service_runs_a_sweep_to_done(tmp_path):
    service = SweepService(cache_dir=tmp_path / "cache", shard_size=2)
    record = service.submit(REQUEST)
    status = _wait_done(service, record.id)
    assert status["state"] == "done"
    assert status["progress"]["done"] is True
    assert service.grid(record.id) == _serial_grid()
    service.shutdown()


def test_service_grid_before_done_is_an_error():
    service = SweepService()
    try:
        with pytest.raises(ServiceError) as excinfo:
            service.grid("sweep-9999")
        assert excinfo.value.status == 404
    finally:
        service.shutdown()


def test_service_cell_lookup(tmp_path):
    service = SweepService(shard_size=4)
    try:
        record = service.submit(REQUEST)
        _wait_done(service, record.id)
        label = "pi/myrinet/java_pf/n2"
        cell = service.cell(record.id, label)
        assert cell["label"] == label and cell["report"] == _serial_grid()[label]
        with pytest.raises(ServiceError) as excinfo:
            service.cell(record.id, "nope/nope/nope/n1")
        assert excinfo.value.status == 404
    finally:
        service.shutdown()


def test_shutdown_interrupts_queued_sweeps():
    service = SweepService(shard_size=2)
    first = service.submit(REQUEST)
    # saturate the single worker so later submissions stay queued
    queued = [service.submit(REQUEST | {"nodes": [n]}) for n in (1, 2)]
    outcome = service.shutdown()
    states = {record.id: record.status()["state"] for record in [first] + queued}
    # everything is terminal after a drain: done or interrupted, never running
    assert all(state in ("done", "interrupted") for state in states.values())
    assert set(outcome["abandoned"]) <= set(states)
    # a sweep interrupted while queued never had a job to report progress
    listed = {status["id"]: status for status in service.statuses()}
    for sweep_id in outcome["abandoned"]:
        assert listed[sweep_id]["progress"] is None
        assert service.get(sweep_id).detail()["metrics"] is None
    with pytest.raises(ServiceError) as excinfo:
        service.submit(REQUEST)
    assert excinfo.value.status == 503


# ---------------------------------------------------------------------------
# the HTTP round-trip
# ---------------------------------------------------------------------------
@pytest.fixture()
def server(tmp_path):
    server = serve(port=0, shard_size=2, cache_dir=str(tmp_path / "cache"))
    thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
    thread.start()
    yield server
    if thread.is_alive():
        server.request_shutdown()
        thread.join(timeout=30)


def _call(server, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        server.address + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_http_submit_poll_fetch_round_trip(server):
    status, health = _call(server, "GET", "/health")
    assert status == 200 and health["status"] == "ok"

    status, submitted = _call(server, "POST", "/sweeps", REQUEST)
    assert status == 202 and submitted["state"] == "queued"
    sweep_id = submitted["id"]

    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status, snapshot = _call(server, "GET", f"/sweeps/{sweep_id}")
        if snapshot["state"] == "done":
            break
        time.sleep(0.05)
    assert snapshot["state"] == "done"

    status, listing = _call(server, "GET", "/sweeps")
    assert status == 200 and listing["sweeps"][0]["id"] == sweep_id

    # the served grid is byte-identical to a serial Session.run
    status, grid = _call(server, "GET", f"/sweeps/{sweep_id}/grid")
    assert status == 200
    serial = _serial_grid()
    assert json.dumps(grid["grid"], sort_keys=True) == json.dumps(
        serial, sort_keys=True
    )

    # single-cell fetch (labels contain slashes)
    label = "pi/myrinet/java_ic/n1"
    status, cell = _call(server, "GET", f"/sweeps/{sweep_id}/cells/{label}")
    assert status == 200 and cell["label"] == label
    assert json.dumps(cell["report"], sort_keys=True) == json.dumps(
        serial[label], sort_keys=True
    )


def test_kept_alive_requests_do_not_stall(server):
    # ten requests on one connection; a response held back by Nagle's
    # algorithm waits ~40 ms for the client's delayed ACK every time
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        start = time.perf_counter()
        for _ in range(10):
            connection.request("GET", "/health")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        elapsed = time.perf_counter() - start
    finally:
        connection.close()
    assert elapsed < 0.2, f"10 kept-alive requests took {elapsed * 1e3:.0f} ms"


def test_http_errors(server):
    assert _call(server, "GET", "/sweeps/sweep-9999")[0] == 404
    assert _call(server, "GET", "/nope")[0] == 404
    assert _call(server, "POST", "/sweeps", {"apps": []})[0] == 400
    status, body = _call(server, "POST", "/sweeps", REQUEST | {"shard_size": -1})
    assert status == 400 and "shard_size" in body["error"]


@pytest.mark.parametrize(
    "override, field",
    [
        ({"nodes": [2.5]}, "nodes"),
        ({"nodes": [0]}, "nodes"),
        ({"nodes": [-2, 1]}, "nodes"),
        ({"nodes": ["2"]}, "nodes"),
        ({"nodes": [True]}, "nodes"),
        ({"apps": ["nope"]}, "apps"),
        ({"protocols": ["java_nope"]}, "protocols"),
        ({"workload": "huge"}, "workload"),
        ({"telemetry": "no"}, "telemetry"),
        ({"shard_size": 2.5}, "shard_size"),
        ({"shard_size": True}, "shard_size"),
    ],
    ids=[
        "nodes-float", "nodes-zero", "nodes-negative", "nodes-str", "nodes-bool",
        "app", "protocol", "workload", "telemetry", "shard-size-float", "shard-size-bool",
    ],
)
def test_http_submit_rejects_an_invalid_grid(server, override, field):
    status, body = _call(server, "POST", "/sweeps", REQUEST | override)
    assert status == 400 and field in body["error"]
    assert _call(server, "GET", "/sweeps") == (200, {"sweeps": []})


def test_http_shutdown_drains_cleanly(tmp_path):
    server = serve(port=0, shard_size=2, cache_dir=str(tmp_path / "cache"))
    thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
    thread.start()
    _call(server, "POST", "/sweeps", REQUEST)
    status, body = _call(server, "POST", "/shutdown")
    assert status == 200 and body["shutting_down"] is True
    thread.join(timeout=60)
    assert not thread.is_alive()  # drained and stopped
    # every sweep ended in a terminal state
    for record in server.service.statuses():
        assert record["state"] in ("done", "interrupted")


# ---------------------------------------------------------------------------
# telemetry: /metrics and per-sweep metric snapshots
# ---------------------------------------------------------------------------
def test_service_metrics_snapshot_aggregates_sweeps(tmp_path):
    service = SweepService(cache_dir=tmp_path / "cache", shard_size=2)
    try:
        record = service.submit(REQUEST)
        assert _wait_done(service, record.id)["state"] == "done"
        families = service.metrics_snapshot()["families"]
        for name in (
            "service_sweeps_submitted_total",
            "service_sweeps",
            "service_workers",
            "sweep_shards_completed_total",
            "sweep_cells_completed_total",
            "sim_events_dispatched_total",
            "dsm_page_fetches_total",
            "store_gets_total",
        ):
            assert name in families, name
        cells = families["sweep_cells_completed_total"]["series"][0]["value"]
        assert cells == 4
        # the sweep's own detail carries its job-level snapshot
        detail = service.get(record.id).detail()
        assert detail["metrics"] is not None
        assert "sweep_shards_completed_total" in detail["metrics"]["families"]
    finally:
        service.shutdown()


def test_service_telemetry_opt_out(tmp_path):
    service = SweepService(cache_dir=tmp_path / "cache", telemetry=False)
    try:
        record = service.submit(REQUEST)
        assert record.telemetry is False
        assert _wait_done(service, record.id)["state"] == "done"
        families = service.metrics_snapshot()["families"]
        # sweep bookkeeping still flows; per-cell engine families do not
        assert "sweep_shards_completed_total" in families
        assert "sim_events_dispatched_total" not in families
        # a request can opt back in per sweep — but these cells are now
        # cache hits, and cached stubs carry zero engine metrics, so the
        # engine families still stay absent
        record = service.submit(REQUEST | {"telemetry": True})
        assert record.telemetry is True
        assert _wait_done(service, record.id)["state"] == "done"
        families = service.metrics_snapshot()["families"]
        assert "sim_events_dispatched_total" not in families
        hits = families["sweep_cells_cache_hits_total"]["series"][0]["value"]
        assert hits == 4
    finally:
        service.shutdown()


def test_http_metrics_endpoint_serves_prometheus_text(server):
    import re

    status, submitted = _call(server, "POST", "/sweeps", REQUEST)
    assert status == 202
    sweep_id = submitted["id"]
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status, snapshot = _call(server, "GET", f"/sweeps/{sweep_id}")
        if snapshot["state"] == "done":
            break
        time.sleep(0.05)
    assert snapshot["state"] == "done"
    assert "sweep_shards_completed_total" in snapshot["metrics"]["families"]

    with urllib.request.urlopen(server.address + "/metrics", timeout=30) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode()
    for name in (
        "sim_events_dispatched_total",
        "dsm_page_fetches_total",
        "store_gets_total",
        "sweep_shards_completed_total",
        "service_queue_depth",
    ):
        assert f"# TYPE {name} " in text, name
    sample = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+(inf)?$'
    )
    for line in text.strip().splitlines():
        if line.startswith("#"):
            continue
        assert sample.match(line), line


# ---------------------------------------------------------------------------
# a finished sweep keeps frozen snapshots, not its job
# ---------------------------------------------------------------------------
@pytest.fixture()
def tracked_jobs(monkeypatch):
    """Make the service build jobs that record themselves.

    Returns ``(refs, hooks, finals)``: a weak reference to every job built,
    in build order; hooks the next jobs pop in build order, each called
    once after that job's first shard is absorbed (None for no hook); and
    per job, at the end of its ``run``, its progress and metric snapshots
    and how many ledgers it held.
    """
    refs, hooks, finals = [], [], []

    class TrackedJob(SweepJob):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.hook = hooks.pop(0) if hooks else None
            refs.append(weakref.ref(self))

        def _absorb(self, *args):
            super()._absorb(*args)
            hook, self.hook = self.hook, None
            if hook is not None:
                hook()

        def run(self):
            try:
                return super().run()
            finally:
                finals.append(
                    (
                        self.progress.to_dict(),
                        self.metrics_snapshot(),
                        len(self.telemetry()["ledgers"]),
                    )
                )

    monkeypatch.setattr(service_module, "SweepJob", TrackedJob)
    return refs, hooks, finals


def test_every_job_is_collectable_once_its_sweep_ends(tracked_jobs):
    refs, hooks, finals = tracked_jobs
    paused, resume = threading.Event(), threading.Event()

    def fail():
        raise RuntimeError("injected shard failure")

    def pause():
        paused.set()
        assert resume.wait(timeout=60)

    hooks.extend([None, fail, pause])
    service = SweepService(shard_size=2)
    done, failed, interrupted, queued = (service.submit(REQUEST) for _ in range(4))
    assert paused.wait(timeout=60)
    # shut down while the third sweep is between its two shards
    stopper = threading.Thread(target=service.shutdown)
    stopper.start()
    assert service._stopping.wait(timeout=30)
    resume.set()
    stopper.join(timeout=60)
    assert not stopper.is_alive()

    statuses = [r.status() for r in (done, failed, interrupted, queued)]
    assert [s["state"] for s in statuses] == ["done", "failed", "interrupted", "interrupted"]
    assert statuses[1]["error"] == "RuntimeError: injected shard failure"
    assert [s["progress"]["completed_cells"] for s in statuses[:3]] == [4, 2, 2]
    # every job built held telemetry ledgers when it ended, and none outlives it
    assert len(refs) == 3 and all(ledgers > 0 for _, _, ledgers in finals)
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    assert all(record.job is None for record in (done, failed, interrupted, queued))
    for record, (progress, metrics, _) in zip((done, failed, interrupted), finals):
        assert record.detail()["progress"] == progress
        assert record.detail()["metrics"] == metrics
    # the sweep still queued at shutdown never had a job
    assert queued.detail()["progress"] is None and queued.detail()["metrics"] is None


def test_finished_sweeps_serve_the_snapshots_their_jobs_ended_with(
    tmp_path, tracked_jobs
):
    _, _, finals = tracked_jobs
    server = serve(port=0, shard_size=2, cache_dir=str(tmp_path / "cache"))
    thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
    thread.start()
    # cold, cold, then a repeat the store answers
    requests = [REQUEST, REQUEST | {"nodes": [4]}, REQUEST]
    try:
        ids = []
        for request in requests:
            status, submitted = _call(server, "POST", "/sweeps", request)
            assert status == 202
            ids.append(submitted["id"])
            assert _wait_done(server.service, submitted["id"])["state"] == "done"
        assert len(finals) == len(requests)
        expected_statuses = []
        for sweep_id, request, (progress, metrics, _) in zip(ids, requests, finals):
            expected_status = {
                "id": sweep_id,
                "state": "done",
                "cells": len(parse_sweep_request(request).build()),
                "error": None,
                "progress": progress,
            }
            expected_statuses.append(expected_status)
            body = _get_bytes(server, f"/sweeps/{sweep_id}")
            expected_body = expected_status | {"metrics": metrics}
            assert body == json.dumps(expected_body, sort_keys=True).encode()
        assert _get_bytes(server, "/sweeps") == json.dumps(
            {"sweeps": expected_statuses}, sort_keys=True
        ).encode()
        # /metrics: the service's own families plus the jobs' final snapshots
        text = _get_bytes(server, "/metrics").decode()
        families = server.service.metrics_snapshot()["families"]
        expected = MetricsRegistry()
        expected.merge(
            {"families": {n: f for n, f in families.items() if n.startswith("service_")}}
        )
        for _, metrics, _ in finals:
            expected.merge(metrics)
        assert text == render_metrics(expected)
        cells = expected.to_dict()["families"]["sweep_cells_completed_total"]
        assert cells["series"][0]["value"] == 10
    finally:
        server.request_shutdown()
        thread.join(timeout=60)


# ---------------------------------------------------------------------------
# the handler threads
# ---------------------------------------------------------------------------
def _handler_threads():
    return [t for t in threading.enumerate() if t.name.startswith("service-handler-")]


def _idle_kept_alive_connection(server):
    """A kept-alive connection left open and silent after one request."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    connection.request("GET", "/health")
    response = connection.getresponse()
    assert response.status == 200
    response.read()
    return connection


def test_idle_kept_alive_connection_does_not_stall_other_clients(tmp_path, monkeypatch):
    # a long idle timeout: shutdown must not wait for it
    monkeypatch.setattr(service_module._Handler, "timeout", 30.0)
    server = serve(port=0, cache_dir=str(tmp_path / "cache"))
    thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
    thread.start()
    idle = _idle_kept_alive_connection(server)
    try:
        seconds: list[float] = []
        errors: list[BaseException] = []

        def one_shot():
            started = time.perf_counter()
            try:
                status, health = _call(server, "GET", "/health")
                assert status == 200 and health["status"] == "ok"
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            seconds.append(time.perf_counter() - started)

        clients = [threading.Thread(target=one_shot) for _ in range(20)]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=30)
        assert not errors, errors
        assert len(seconds) == 20
        assert max(seconds) < 1.0, f"slowest one-shot client took {max(seconds):.2f} s"
        # the idle connection pins nothing: shutdown stops without waiting
        # for it to time out
        started = time.perf_counter()
        status, body = _call(server, "POST", "/shutdown")
        assert status == 200 and body["shutting_down"] is True
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert time.perf_counter() - started < 10.0
    finally:
        idle.close()
    assert _handler_threads() == []


def test_polling_kept_alive_clients_do_not_hold_the_handlers(tmp_path, monkeypatch):
    # as many clients as handlers, each polling on its own kept-alive
    # connection: a long idle timeout never fires, yet a newcomer still gets
    # a handler once the next poll is answered with ``Connection: close``
    monkeypatch.setattr(service_module._Handler, "timeout", 30.0)
    server = serve(port=0, cache_dir=str(tmp_path / "cache"))
    thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    stop = threading.Event()
    polls: list[int] = []

    def poll():
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            while not stop.is_set():
                connection.request("GET", "/health")
                response = connection.getresponse()
                response.read()
                polls.append(response.status)
                time.sleep(0.1)
        except (OSError, http.client.HTTPException):
            pass  # the server went away under a poll while shutting down
        finally:
            connection.close()

    pollers = [
        threading.Thread(target=poll) for _ in range(service_module.HANDLER_THREADS)
    ]
    for poller in pollers:
        poller.start()
    try:
        deadline = time.monotonic() + 10
        while len(server._serving) < service_module.HANDLER_THREADS:
            assert time.monotonic() < deadline, "pollers never held every handler"
            time.sleep(0.01)
        started = time.perf_counter()
        status, health = _call(server, "GET", "/health")
        assert status == 200 and health["status"] == "ok"
        assert time.perf_counter() - started < 1.0
        started = time.perf_counter()
        status, body = _call(server, "POST", "/shutdown")
        assert status == 200 and body["shutting_down"] is True
        assert time.perf_counter() - started < 1.0
    finally:
        stop.set()
        for poller in pollers:
            poller.join(timeout=30)
        server.request_shutdown()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert polls and set(polls) == {200}
    assert _handler_threads() == []


def test_idle_kept_alive_connection_times_out(tmp_path, monkeypatch):
    monkeypatch.setattr(service_module._Handler, "timeout", 0.2)
    server = serve(port=0, cache_dir=str(tmp_path / "cache"))
    thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
    thread.start()
    idle = _idle_kept_alive_connection(server)
    try:
        # the server closes the silent connection: the client reads EOF
        assert idle.sock.recv(1) == b""
    finally:
        idle.close()
        server.request_shutdown()
        thread.join(timeout=60)
    assert not thread.is_alive()


def test_server_close_joins_the_handler_threads(tmp_path):
    server = serve(port=0, cache_dir=str(tmp_path / "cache"))
    assert len(_handler_threads()) == service_module.HANDLER_THREADS
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    assert _call(server, "GET", "/health")[0] == 200
    # one request is still being answered when the server closes
    answering, release = threading.Event(), threading.Event()
    statuses = server.service.statuses

    def slow_statuses():
        answering.set()
        release.wait(timeout=10)
        return statuses()

    server.service.statuses = slow_statuses
    replies: list[int] = []
    client = threading.Thread(
        target=lambda: replies.append(_call(server, "GET", "/health")[0])
    )
    client.start()
    assert answering.wait(timeout=10)
    server.shutdown()
    thread.join(timeout=30)
    threading.Timer(0.2, release.set).start()
    server.server_close()
    assert _handler_threads() == []
    client.join(timeout=30)
    assert replies == [200]  # the response in progress still went out
    server.service.shutdown()


# ---------------------------------------------------------------------------
# in-process shards hand their reports over without a payload round trip
# ---------------------------------------------------------------------------
HAND_OVER_REQUESTS = [
    {
        "apps": ["syn-uniform"],
        "clusters": ["myrinet"],
        "nodes": [1, 2],
        "protocols": ["java_ic", "java_pf"],
        "workload": "testing",
    },
    REQUEST,
    # ASP's result holds its distance matrix, which no payload carries
    {
        "apps": ["asp"],
        "clusters": ["myrinet"],
        "nodes": [2],
        "protocols": ["java_ic"],
        "workload": "testing",
    },
]


def _get_bytes(server, path):
    with urllib.request.urlopen(server.address + path, timeout=30) as response:
        assert response.status == 200
        return response.read()


def _served_bodies(tmp_path, jobs):
    """Every /grid and /cells body of the hand-over requests, each sent
    twice (simulated, then served by the store), plus the sweep records."""
    server = serve(
        port=0, jobs=jobs, shard_size=2, cache_dir=str(tmp_path / f"cache-{jobs}")
    )
    thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
    thread.start()
    bodies: dict[str, bytes] = {}
    records = []
    try:
        for request in HAND_OVER_REQUESTS * 2:
            status, submitted = _call(server, "POST", "/sweeps", request)
            assert status == 202
            sweep_id = submitted["id"]
            assert _wait_done(server.service, sweep_id, timeout=120)["state"] == "done"
            records.append(server.service.get(sweep_id))
            grid_path = f"/sweeps/{sweep_id}/grid"
            bodies[grid_path] = _get_bytes(server, grid_path)
            for label in json.loads(bodies[grid_path])["grid"]:
                cell_path = f"/sweeps/{sweep_id}/cells/{label}"
                bodies[cell_path] = _get_bytes(server, cell_path)
    finally:
        server.request_shutdown()
        thread.join(timeout=60)
    return bodies, records


def test_in_process_hand_over_serves_the_process_pool_bytes(tmp_path):
    """jobs=1 and jobs=2 serve the same bytes, and both equal a serial run."""
    local, records = _served_bodies(tmp_path, jobs=1)
    pooled, _ = _served_bodies(tmp_path, jobs=2)
    assert list(local) == list(pooled)
    for path in local:
        assert local[path] == pooled[path], path
    # both equal a serial Session.run of the same specs
    serial = {}
    serial_reports = {}
    for request in HAND_OVER_REQUESTS:
        result = Session().run(parse_sweep_request(request).build())
        serial.update(result.to_dict())
        serial_reports.update(result.reports)
    for path, body in [*local.items(), *pooled.items()]:
        payload = json.loads(body)
        if path.endswith("/grid"):
            for label, report in payload["grid"].items():
                assert json.dumps(report, sort_keys=True) == json.dumps(
                    serial[label], sort_keys=True
                )
        else:
            assert json.dumps(payload["report"], sort_keys=True) == json.dumps(
                serial[payload["label"]], sort_keys=True
            )
    assert [json.loads(local[p])["cached"] for p in local if "/cells/" in p] == [
        False
    ] * 9 + [True] * 9
    # the finished in-process records keep what the payload round trip
    # keeps: no host-side attachment, and no result that is not JSON
    for record in records:
        for spec, report in record.result.reports.items():
            assert report.telemetry is None and report.sanitizer is None
            restored = report_from_payload(report_to_payload(serial_reports[spec]))
            assert report.result == restored.result
            assert report.stats.result == restored.stats.result
    asp = [
        report
        for record in records
        for spec, report in record.result.reports.items()
        if spec.app == "asp"
    ]
    assert len(asp) == 2 and all(report.result is None for report in asp)


def test_importing_the_harness_does_not_load_the_http_stack():
    src = Path(repro.__file__).resolve().parents[1]
    code = (
        "import sys, repro.harness.session\n"
        "assert 'http.server' not in sys.modules, 'http.server imported'\n"
        "from repro.harness import ServiceServer, SweepService, serve\n"
        "assert 'http.server' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
