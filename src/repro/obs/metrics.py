"""Counters, gauges, and fixed-bucket histograms with deterministic output.

The registry is deliberately tiny and dependency-free: metric families are
plain dicts keyed by a canonical (sorted) label tuple, ``to_dict`` iterates
everything in sorted order so equal runs produce byte-identical payloads,
and ``merge`` folds one ``to_dict`` payload into a live registry so sweep
jobs and the service can aggregate per-cell ledgers without sharing
objects across processes.

Merge semantics: counters and histograms are additive; gauges merge by
``max`` (every gauge in this repo is a peak or a level where the maximum
across shards is the meaningful aggregate, e.g. peak event-queue depth).

Values observed here are either *virtual* seconds (simulated time — exact,
deterministic floats) or host-side counts; nothing in this module reads a
clock itself.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_HOST_SECONDS_BUCKETS",
]

#: Fixed buckets for virtual-time latencies (page fetches, monitor
#: acquisition).  Round-trips on the simulated interconnects live in the
#: 1e-5..1e-3 s range; the tails catch pathological contention.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6,
    2.5e-6,
    5e-6,
    1e-5,
    2.5e-5,
    5e-5,
    1e-4,
    2.5e-4,
    5e-4,
    1e-3,
    2.5e-3,
    5e-3,
    1e-2,
    2.5e-2,
    1e-1,
    1.0,
)

#: Fixed buckets for host-side durations (shard wall time).
DEFAULT_HOST_SECONDS_BUCKETS: tuple[float, ...] = (
    0.01,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    300.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> _LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """Monotonically increasing metric family (one value per label set)."""

    kind = "counter"
    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        return sum(self._series.values())

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ],
        }


class Gauge:
    """Point-in-time level; merges by ``max`` across shards."""

    kind = "gauge"
    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._series[_label_key(labels)] = value

    def set_max(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        held = self._series.get(key)
        if held is None or value > held:
            self._series[key] = value

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ],
        }


class Histogram:
    """Fixed-bucket histogram; buckets are upper bounds, +Inf is implicit."""

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "_series")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(buckets)
        self._series: dict[_LabelKey, list] = {}

    def _slot(self, key: _LabelKey) -> list:
        series = self._series.get(key)
        if series is None:
            series = [[0] * len(self.buckets), 0.0, 0]
            self._series[key] = series
        return series

    def observe(self, value: float, **labels: object) -> None:
        series = self._slot(_label_key(labels))
        index = bisect_left(self.buckets, value)
        if index < len(self.buckets):
            series[0][index] += 1
        series[1] += value
        series[2] += 1

    def observer(self, label: str):
        """A fast ``observe(value, label_value)`` for a one-label family.

        Each label value's series slot is looked up on its first
        observation — so a series exists exactly when :meth:`observe` would
        have created it — and updated in place afterwards with the same
        bucket logic, skipping the per-call label-key sort.
        """
        buckets = self.buckets
        num_buckets = len(buckets)
        slots: dict[str, list] = {}

        def observe(value: float, label_value: str) -> None:
            series = slots.get(label_value)
            if series is None:
                series = slots[label_value] = self._slot(((label, label_value),))
            index = bisect_left(buckets, value)
            if index < num_buckets:
                series[0][index] += 1
            series[1] += value
            series[2] += 1

        return observe

    def merge_series(
        self, labels: dict[str, object], counts: list[int], total: float, count: int
    ) -> None:
        series = self._slot(_label_key(labels))
        for index, bucket_count in enumerate(counts[: len(self.buckets)]):
            series[0][index] += bucket_count
        series[1] += total
        series[2] += count

    def count(self, **labels: object) -> int:
        series = self._series.get(_label_key(labels))
        return 0 if series is None else series[2]

    def sum(self, **labels: object) -> float:
        series = self._series.get(_label_key(labels))
        return 0.0 if series is None else series[1]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "series": [
                {
                    "labels": dict(key),
                    "counts": list(series[0]),
                    "sum": series[1],
                    "count": series[2],
                }
                for key, series in sorted(self._series.items())
            ],
        }


class MetricsRegistry:
    """Named metric families with deterministic export and additive merge."""

    __slots__ = ("_families",)

    def __init__(self) -> None:
        self._families: dict[str, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._families)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        for name in sorted(self._families):
            yield self._families[name]

    def _get(self, name: str, kind: type, factory) -> Counter | Gauge | Histogram:
        family = self._families.get(name)
        if family is None:
            family = factory()
            self._families[name] = family
        elif not isinstance(family, kind):
            raise TypeError(
                f"metric {name!r} already registered as {family.kind}, "
                f"not {kind.kind}"  # type: ignore[attr-defined]
            )
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, help, buckets))

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._families.get(name)

    def to_dict(self) -> dict:
        return {
            "families": {
                name: family.to_dict()
                for name, family in sorted(self._families.items())
            }
        }

    def merge(self, payload: dict) -> None:
        """Fold a ``to_dict`` payload into this registry.

        Counters and histograms add; gauges keep the maximum.  Families
        absent here are created with the payload's help text and buckets.
        """
        for name, family in sorted(payload.get("families", {}).items()):
            kind = family.get("kind")
            help_text = family.get("help", "")
            if kind == "counter":
                counter = self.counter(name, help_text)
                for entry in family.get("series", ()):
                    counter.inc(entry["value"], **entry["labels"])
            elif kind == "gauge":
                gauge = self.gauge(name, help_text)
                for entry in family.get("series", ()):
                    gauge.set_max(entry["value"], **entry["labels"])
            elif kind == "histogram":
                histogram = self.histogram(
                    name, help_text, tuple(family.get("buckets", ()))
                )
                for entry in family.get("series", ()):
                    histogram.merge_series(
                        entry["labels"],
                        entry["counts"],
                        entry["sum"],
                        entry["count"],
                    )
            else:  # pragma: no cover - forward-compat guard
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
