"""The layer tracer: restores what it wraps, observes without perturbing,
partitions host time exactly, and reaches every layer."""

from __future__ import annotations

import http.client
import importlib
import json
import threading
import time
from pathlib import Path

import pytest

from tracer import BOUNDARIES, CELL, LAYERS, Tracer

from repro.harness.service import serve
from repro.harness.session import Session
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.store import ResultStore
from repro.hyperion.runtime import HyperionRuntime

GOLDEN = Path(__file__).resolve().parents[2] / "tests" / "scenarios" / "golden_cells.json"


def golden_spec(**overrides) -> ExperimentSpec:
    """The ``syn-false-sharing@myrinet2x8`` golden cell (two islands)."""
    fields = dict(
        app="syn-false-sharing",
        cluster="myrinet2x8",
        protocol="java_pf",
        num_nodes=4,
        workload="testing",
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def payload(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def snapshot() -> dict:
    """Identity of every attribute the tracer could touch."""
    importlib.import_module("repro.harness")
    for module_name, *_ in BOUNDARIES:
        importlib.import_module(module_name)
    state = {}
    for name, module in list(__import__("sys").modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            state[name] = dict(vars(module))
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == name:
                    state[f"{name}:{value.__qualname__}"] = dict(value.__dict__)
    return state


def test_uninstall_restores_every_wrapped_attribute():
    before = snapshot()
    with Tracer() as tracer:
        assert run_spec is not importlib.import_module("repro.harness.executor").run_spec
        assert len(tracer.boundaries) > 100
    after = snapshot()
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        assert attrs.keys() == after[key].keys(), key
        changed = [attr for attr, value in attrs.items() if after[key][attr] is not value]
        assert not changed, (key, changed)


def test_traced_golden_cell_is_byte_identical_and_keeps_the_fast_path():
    golden = json.loads(GOLDEN.read_text())["syn-false-sharing@myrinet2x8"]
    with Tracer():
        runtime = HyperionRuntime(
            golden_spec().resolved_cluster(), num_nodes=4, protocol="java_ic"
        )
        assert runtime.memory._fast_plan == "inline_check"
        traced = importlib.import_module("repro.harness.spec").run_spec(golden_spec())
    assert payload(traced) == json.dumps(golden, sort_keys=True)
    assert payload(run_spec(golden_spec())) == payload(traced)


def test_span_self_times_sum_to_the_root_cell_duration():
    with Tracer() as tracer:
        Session().run([golden_spec(protocol="java_hybrid")])
    (cell,) = tracer.payload()["cells"]
    total_self = sum(row[4] for row in cell["aggregates"])
    assert total_self == pytest.approx(cell["end"] - cell["start"], abs=1e-9)
    root = [row for row in cell["aggregates"] if row[1] == CELL]
    assert len(root) == 1 and 0.0 <= root[0][4] < 0.5 * (cell["end"] - cell["start"])


def _serve_one_sweep(tmp_path: Path) -> None:
    server = serve(port=0, cache_dir=str(tmp_path / "serve-store"))
    thread = threading.Thread(target=server.serve_until_shutdown)
    thread.start()
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    request = {
        "apps": ["pi"], "clusters": ["myrinet"], "nodes": [1],
        "protocols": ["java_ic"], "workload": "testing",
    }
    conn.request("POST", "/sweeps", json.dumps(request), {"Content-Type": "application/json"})
    sweep = json.loads(conn.getresponse().read())["id"]
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        conn.request("GET", f"/sweeps/{sweep}")
        if json.loads(conn.getresponse().read())["state"] == "done":
            break
        time.sleep(0.01)
    conn.request("GET", f"/sweeps/{sweep}/grid")
    response = conn.getresponse()
    assert response.status == 200 and "pi/myrinet/java_ic/n1" in json.loads(response.read())["grid"]
    conn.request("POST", "/shutdown")
    conn.getresponse().read()
    conn.close()
    thread.join(timeout=60)
    assert not thread.is_alive()


def test_every_layer_records_calls_on_its_smoke_cell(tmp_path):
    with Tracer() as tracer:
        session = Session(store=ResultStore(tmp_path / "store"))
        smoke = [
            ExperimentSpec(app="asp", cluster="myrinet", protocol="java_ic", num_nodes=2,
                           workload="testing"),
            golden_spec(protocol="java_ic_mig", telemetry=True),
        ]
        session.run(smoke)
        Session(store=ResultStore(tmp_path / "store")).run(smoke)
        _serve_one_sweep(tmp_path)
    recorded = tracer.payload()
    rows = [row for cell in recorded["cells"] for row in cell["aggregates"]]
    rows += recorded["outside"]
    calls = dict.fromkeys(LAYERS, 0)
    for _, layer, count, *_ in rows:
        if layer in calls:
            calls[layer] += count
    assert all(calls.values()), calls
    names = {row[0] for row in rows}
    for boundary in (
        "Process._resume",
        "SyntheticApplication.build_script",
        "MemorySubsystem.range_update",
        "PageManager.fetch_pages",
        "ResultStore.get",
        "SweepJob.run",
        "_Handler.do_GET",
    ):
        assert boundary in names, boundary
