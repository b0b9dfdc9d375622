"""End-to-end telemetry determinism and the out-of-band contract.

The telemetry satellite's guarantees, encoded as tests:

* the report payload (``to_dict``) is byte-identical with telemetry on
  and off — telemetry is strictly out-of-band;
* the same cell run twice produces byte-identical metrics and spans;
* serial and parallel executors produce the same ledgers;
* a cache-hit cell gets a ``cached`` stub with zero engine metrics;
* the main track's phase spans partition ``execution_seconds`` exactly;
* the inline instruments conserve what the run's stats count: fetch
  latency sums equal the island fetch seconds, and every monitor enter is
  one acquire observation;
* the metrics and spans of three pinned cells keep their digests.
"""

import hashlib
import json

import pytest

from repro.harness.executor import ParallelExecutor, SerialExecutor
from repro.harness.session import Session
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.store import ResultStore
from repro.obs.chrometrace import chrome_trace_events
from repro.obs.ledger import EngineInstrument, RunTelemetry, phase_table
from repro.obs.metrics import MetricsRegistry


def _spec(**overrides):
    kwargs = dict(
        app="pi",
        cluster="myrinet",
        protocol="java_pf",
        num_nodes=2,
        workload="testing",
        telemetry=True,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


@pytest.fixture(scope="module")
def telemetered_report():
    return run_spec(_spec())


def test_telemetry_flag_is_outside_spec_identity():
    plain = _spec(telemetry=False)
    on = _spec()
    assert plain == on
    assert plain.cache_key() == on.cache_key()


def test_report_payload_identical_with_and_without_telemetry(telemetered_report):
    baseline = run_spec(_spec(telemetry=False))
    assert baseline.telemetry is None
    assert telemetered_report.telemetry is not None
    assert json.dumps(baseline.to_dict(), sort_keys=True) == json.dumps(
        telemetered_report.to_dict(), sort_keys=True
    )
    # the ledger never leaks into the pinned payload
    assert "telemetry" not in telemetered_report.to_dict()


def test_same_seed_means_byte_identical_metrics_and_spans(telemetered_report):
    again = run_spec(_spec())
    for section in ("metrics", "spans"):
        first = getattr(telemetered_report.telemetry, section)
        second = getattr(again.telemetry, section)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        ), section


def test_main_track_phases_partition_execution_seconds(telemetered_report):
    telemetry = telemetered_report.telemetry
    spans = telemetry.spans
    main = spans["tracks"]["java-main"]
    total = sum(main["phases"].values())
    assert total == pytest.approx(telemetered_report.execution_seconds, abs=1e-9)
    # every track is an exact partition of its own lifetime
    for entry in spans["tracks"].values():
        assert sum(entry["phases"].values()) == pytest.approx(
            entry["end"] - entry["start"], abs=1e-9
        )


def test_engine_and_dsm_families_are_populated(telemetered_report):
    families = telemetered_report.telemetry.metrics["families"]
    for name in (
        "sim_events_dispatched_total",
        "sim_virtual_seconds",
        "dsm_page_fetches_total",
        "monitor_enters_total",
        "node_cpu_virtual_seconds_total",
    ):
        assert name in families, name
    dispatched = sum(
        entry["value"]
        for entry in families["sim_events_dispatched_total"]["series"]
    )
    assert dispatched == telemetered_report.events_processed
    virtual = families["sim_virtual_seconds"]["series"][0]["value"]
    assert virtual == telemetered_report.execution_seconds


def test_ledger_round_trips_through_json(telemetered_report):
    telemetry = telemetered_report.telemetry
    payload = json.loads(json.dumps(telemetry.to_dict()))
    restored = RunTelemetry.from_dict(payload)
    assert restored.to_dict() == telemetry.to_dict()
    assert restored.cached is False
    assert restored.label == "pi/myrinet/java_pf/n2"


def test_phase_table_accepts_ledger_or_payload(telemetered_report):
    telemetry = telemetered_report.telemetry
    rows = phase_table(telemetry)
    assert rows == phase_table(telemetry.to_dict())
    assert rows, "expected at least one phase row"
    seconds = [row[1] for row in rows]
    assert seconds == sorted(seconds, reverse=True)
    assert sum(row[2] for row in rows) == pytest.approx(1.0)


def test_chrome_trace_events_cover_tracks(telemetered_report):
    telemetry = telemetered_report.telemetry
    events = chrome_trace_events(telemetry)
    assert events == chrome_trace_events(telemetry.to_dict())
    complete = [event for event in events if event.get("ph") == "X"]
    assert complete
    for event in complete:
        assert event["dur"] >= 0
        assert {"name", "pid", "tid", "ts"} <= set(event)


def test_serial_and_parallel_executors_agree(tmp_path):
    specs = [_spec(), _spec(protocol="java_ic")]
    ledgers = {}
    executors = {"serial": SerialExecutor(), "parallel": ParallelExecutor(jobs=2)}
    for name, executor in executors.items():
        session = Session(store=ResultStore(tmp_path / name), executor=executor)
        result = session.run(specs)
        ledgers[name] = [
            json.dumps(
                {
                    "metrics": result[spec].telemetry.metrics,
                    "spans": result[spec].telemetry.spans,
                },
                sort_keys=True,
            )
            for spec in specs
        ]
    assert ledgers["serial"] == ledgers["parallel"]


def test_cache_hit_yields_cached_stub_and_store_keeps_real_ledger(tmp_path):
    store = ResultStore(tmp_path)
    session = Session(store=store, executor=SerialExecutor())
    spec = _spec()
    first = session.run([spec])[spec]
    assert first.telemetry is not None and first.telemetry.cached is False
    # the executed cell's full ledger is persisted next to the result
    persisted = store.get_telemetry(spec)
    assert persisted is not None
    assert persisted["cached"] is False
    assert persisted["metrics"] == first.telemetry.metrics

    second = session.run([spec])[spec]
    assert second.telemetry is not None
    assert second.telemetry.cached is True
    assert second.telemetry.metrics == {"families": {}}
    assert second.telemetry.spans["records"] == []
    assert second.telemetry.label == spec.label()


def test_cached_stub_shape():
    stub = RunTelemetry.cached_stub(_spec())
    payload = stub.to_dict()
    assert payload["cached"] is True
    assert payload["metrics"] == {"families": {}}
    assert payload["host"]["wall_seconds"] == 0.0
    assert payload["trace_summary"] is None


# ---------------------------------------------------------------------------
# conservation and pinned content
# ---------------------------------------------------------------------------
#: sha256 of the compact, key-sorted JSON of ``{"metrics", "spans"}`` for
#: three telemetered cells, one per instrumented path: the page-fault
#: protocol's fetches, a contended monitor under the composed protocol, and
#: migratory homes across islands.  The instruments count locally and fold
#: at finalize; these digests prove the ledger content is what per-event
#: registry updates produced.
PINNED_LEDGER_DIGESTS = {
    ("asp", "myrinet", "java_pf"):
        "d605d305b16e150af43abebe3c84182300e17e0c55a3ca33fd862dd7ce1cd70e",
    ("syn-hot-lock", "myrinet2x8", "java_hybrid"):
        "8ae9f99a4649f54ac465ec144151fe952fed1d164db2871c49b2f2108577497d",
    ("syn-migratory", "myrinet2x8", "java_ic_mig"):
        "b5347a973088ffe81173f9ea07b444bea9a4d99cfedea8072475d78da2c90c87",
}


@pytest.fixture(scope="module")
def pinned_reports():
    return {
        cell: run_spec(
            _spec(app=cell[0], cluster=cell[1], protocol=cell[2], num_nodes=4)
        )
        for cell in PINNED_LEDGER_DIGESTS
    }


def _series(families, name):
    return {
        tuple(sorted(entry["labels"].items())): entry
        for entry in families[name]["series"]
    }


@pytest.mark.parametrize("cell", list(PINNED_LEDGER_DIGESTS), ids="/".join)
def test_ledger_content_matches_pinned_digest(pinned_reports, cell):
    telemetry = pinned_reports[cell].telemetry
    blob = json.dumps(
        {"metrics": telemetry.metrics, "spans": telemetry.spans},
        sort_keys=True,
        separators=(",", ":"),
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_LEDGER_DIGESTS[cell]


@pytest.mark.parametrize("cell", list(PINNED_LEDGER_DIGESTS), ids="/".join)
def test_fetch_histogram_sums_equal_island_fetch_seconds(pinned_reports, cell):
    families = pinned_reports[cell].telemetry.metrics["families"]
    histogram = _series(families, "dsm_fetch_latency_virtual_seconds")
    seconds = _series(families, "dsm_island_fetch_virtual_seconds_total")
    assert set(histogram) <= set(seconds)
    for labels, entry in seconds.items():
        observed = histogram.get(labels, {"sum": 0.0})["sum"]
        assert observed == entry["value"], labels  # exact, not approx
    if cell[1] == "myrinet2x8":
        assert len(histogram) == 2  # both scopes exercised


@pytest.mark.parametrize("cell", list(PINNED_LEDGER_DIGESTS), ids="/".join)
def test_monitor_acquires_equal_monitor_enters(pinned_reports, cell):
    families = pinned_reports[cell].telemetry.metrics["families"]
    acquires = _series(families, "monitor_acquire_virtual_seconds")
    enters = _series(families, "monitor_enters_total")
    total = sum(entry["count"] for entry in acquires.values())
    assert total == enters[(("kind", "total"),)]["value"]
    contended = acquires.get((("contended", "true"),), {"count": 0})["count"]
    assert contended == enters[(("kind", "contended"),)]["value"]
    if cell[0] == "syn-hot-lock":
        assert contended > 0


def test_engine_instrument_folds_once_and_leaves_no_series_when_idle():
    registry = MetricsRegistry()
    instrument = EngineInstrument(registry)
    instrument.fold()
    families = registry.to_dict()["families"]
    assert families["sim_events_dispatched_total"]["series"] == []
    assert families["sim_event_queue_depth_peak"]["series"] == []
    for kind, depth in (("Timeout", 3), ("Process", 7), ("Timeout", 0)):
        instrument.record_event(kind, depth)
    instrument.fold()
    instrument.fold()  # a second fold adds nothing
    families = registry.to_dict()["families"]
    assert families["sim_events_dispatched_total"]["series"] == [
        {"labels": {"kind": "Process"}, "value": 1.0},
        {"labels": {"kind": "Timeout"}, "value": 2.0},
    ]
    assert families["sim_event_queue_depth_peak"]["series"] == [
        {"labels": {}, "value": 7}
    ]
