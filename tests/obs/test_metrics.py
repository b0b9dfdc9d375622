"""The metrics registry: counters, gauges, histograms, merge semantics."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_HOST_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_labels_and_totals():
    counter = Counter("events_total", "Events by kind.")
    counter.inc(kind="Timeout")
    counter.inc(2, kind="Timeout")
    counter.inc(kind="Wake")
    assert counter.value(kind="Timeout") == 3
    assert counter.value(kind="Wake") == 1
    assert counter.value(kind="Missing") == 0
    assert counter.total() == 4


def test_gauge_set_and_set_max():
    gauge = Gauge("depth")
    gauge.set(5)
    gauge.set_max(3)  # lower: ignored
    assert gauge.value() == 5
    gauge.set_max(9)
    assert gauge.value() == 9
    gauge.set(2)  # plain set always wins
    assert gauge.value() == 2


def test_histogram_bucket_placement():
    histogram = Histogram("lat", buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.0, 3.0, 100.0):
        histogram.observe(value)
    payload = histogram.to_dict()["series"][0]
    # 0.5 and 1.0 land in the <=1.0 bucket (upper bounds), 3.0 in <=4.0;
    # 100.0 overflows into the implicit +Inf bucket (count only)
    assert payload["counts"] == [2, 0, 1]
    assert payload["count"] == 4
    assert payload["sum"] == pytest.approx(104.5)


def test_histogram_observer_matches_observe():
    values = [("intra", 3e-6), ("inter", 0.5), ("intra", 1e-6), ("intra", 7.0)]
    reference = Histogram("latency", buckets=(1e-6, 1e-5, 1.0))
    fast = Histogram("latency", buckets=(1e-6, 1e-5, 1.0))
    observe = fast.observer("scope")
    assert fast.to_dict()["series"] == []  # no series before an observation
    for scope, value in values:
        reference.observe(value, scope=scope)
        observe(value, scope)
    assert fast.to_dict() == reference.to_dict()
    assert fast.count(scope="intra") == 3 and fast.sum(scope="inter") == 0.5


def test_registry_get_or_create_and_kind_mismatch():
    registry = MetricsRegistry()
    counter = registry.counter("a_total", "help text")
    assert registry.counter("a_total") is counter
    assert registry.get("a_total") is counter
    assert registry.get("missing") is None
    with pytest.raises(TypeError):
        registry.gauge("a_total")
    assert len(registry) == 1


def test_registry_to_dict_is_sorted_and_deterministic():
    def build():
        registry = MetricsRegistry()
        registry.counter("z_total").inc(kind="b")
        registry.counter("z_total").inc(kind="a")
        registry.gauge("a_depth").set(3)
        registry.histogram(
            "m_seconds", buckets=DEFAULT_HOST_SECONDS_BUCKETS
        ).observe(0.2)
        return registry

    first, second = build().to_dict(), build().to_dict()
    assert json.dumps(first, sort_keys=False) == json.dumps(second, sort_keys=False)
    assert list(first["families"]) == sorted(first["families"])
    labels = [entry["labels"]["kind"] for entry in first["families"]["z_total"]["series"]]
    assert labels == ["a", "b"]


def test_registry_merge_adds_counters_and_histograms_maxes_gauges():
    source = MetricsRegistry()
    source.counter("c_total", "c help").inc(5, node=0)
    source.gauge("g_peak").set(7)
    source.histogram("h_seconds", buckets=(1.0, 2.0)).observe(0.5)

    target = MetricsRegistry()
    target.counter("c_total").inc(1, node=0)
    target.gauge("g_peak").set(9)
    target.histogram("h_seconds", buckets=(1.0, 2.0)).observe(1.5)

    target.merge(source.to_dict())
    assert target.counter("c_total").value(node=0) == 6
    assert target.gauge("g_peak").value() == 9  # max wins
    histogram = target.histogram("h_seconds", buckets=(1.0, 2.0))
    assert histogram.count() == 2
    assert histogram.sum() == pytest.approx(2.0)
    # merging twice keeps adding (counters are cumulative)
    target.merge(source.to_dict())
    assert target.counter("c_total").value(node=0) == 11


def test_registry_merge_creates_missing_families_and_rejects_unknown_kind():
    target = MetricsRegistry()
    target.merge(
        {
            "families": {
                "fresh_total": {
                    "kind": "counter",
                    "help": "from payload",
                    "series": [{"labels": {}, "value": 2.0}],
                }
            }
        }
    )
    assert target.counter("fresh_total").total() == 2.0
    assert target.counter("fresh_total").help == "from payload"
    with pytest.raises(ValueError):
        target.merge({"families": {"bad": {"kind": "mystery", "series": []}}})
