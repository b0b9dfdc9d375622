"""Outside-in layer tracer of the end-to-end benchmark.

:class:`Tracer` wraps the public entry points of every simulator layer (the
:data:`BOUNDARIES` table) from the outside — nothing under ``src/`` is
edited — and :meth:`Tracer.uninstall` puts every original attribute back.
Install it before any runtime is built: the memory subsystem and the
composed protocols capture bound methods at construction time, and those
captures must pick up the wrappers.

The fused access fast path stays on while tracing.  Wrappers keep the
wrapped function's ``__name__`` (``DetectionStrategy.access_fast_plan``
inspects it) and are set only on the class that *defines* a member, so the
MRO walk that picks the fast plan still ends at the stock class.

Two kinds of record are kept:

* coarse spans (:data:`COARSE`: cell, runtime build, ``Engine.run``, store
  operations, ``Session.run``, jobs, submissions and HTTP requests) one by
  one, with id, parent id, name, layer, start, end, self time, cell id and a
  detail string (the cell label, the request path);
* every wrapped call, coarse or per access, also folds into a
  ``[count, total, self, fused]`` aggregate per (cell, boundary), so memory
  stays bounded however many accesses a cell makes.

Self time is a span's duration minus the time its child spans cover, so on
one thread the self times of all spans inside a cell add up to the cell's
duration exactly.  The root ``run_spec`` span has layer ``cell``; its self
time is the host time no layer claimed (``trace.unattributed_share``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

#: the layers self time is attributed to, named after ``src/repro`` modules
LAYERS = (
    "simulation",
    "apps",
    "scenarios",
    "hyperion",
    "core.memory",
    "core.detection",
    "core.protocol",
    "dsm",
    "cluster",
    "pm2",
    "harness",
    "obs",
)
#: pseudo-layer of the root cell span (its self time is unattributed)
CELL = "cell"
#: placeholder layer of a thread-body resume: ``scenarios`` inside ``syn-*``
#: cells, ``apps`` everywhere else
APP = "app"
#: member-list entry standing for every public function defined on the class
PUBLIC = "<public>"

#: ``(module, owner, members, layer)``: *owner* is a class name, ``Name+``
#: for that class and every subclass defined in the module, or None for
#: module-level functions
BOUNDARIES = (
    ("repro.harness.spec", None, ("run_spec",), CELL),
    ("repro.simulation.engine", "Engine", ("run",), "simulation"),
    ("repro.simulation.process", "Process", ("_resume",), APP),
    ("repro.scenarios.runner", "SyntheticApplication", ("build_script",), "scenarios"),
    ("repro.scenarios.script", "AccessScript", ("validate",), "scenarios"),
    ("repro.scenarios.script", None, ("replay_thread",), "scenarios"),
    ("repro.hyperion.runtime", "HyperionRuntime", ("__init__", "run"), "hyperion"),
    ("repro.hyperion.threads", "JavaThreadContext", (PUBLIC,), "hyperion"),
    ("repro.hyperion.monitors", "MonitorManager", (PUBLIC,), "hyperion"),
    ("repro.core.memory", "MemorySubsystem", (PUBLIC,), "core.memory"),
    (
        "repro.core.detection",
        "DetectionStrategy+",
        ("detect_access", "detect_access_run", "on_monitor_enter"),
        "core.detection",
    ),
    ("repro.core.protocol", "ConsistencyProtocol+", (PUBLIC, "_fetch"), "core.protocol"),
    (
        "repro.dsm.protocol_api",
        "DsmProtocolHooks",
        ("on_monitor_exit", "on_page_received"),
        "core.protocol",
    ),
    ("repro.core.cache", "CachedObject", (PUBLIC,), "core.protocol"),
    ("repro.core.cache", "ObjectCache", (PUBLIC,), "core.protocol"),
    ("repro.core.home_policy", "HomePolicy+", (PUBLIC,), "core.protocol"),
    ("repro.core.jmm", "HappensBeforeTracker", (PUBLIC,), "core.protocol"),
    ("repro.dsm.page_manager", "PageManager", (PUBLIC,), "dsm"),
    (
        "repro.cluster.topology",
        "Topology+",
        ("one_way_time", "round_trip_time", "island_of"),
        "cluster",
    ),
    ("repro.pm2.rpc", "RpcSystem", (PUBLIC,), "pm2"),
    ("repro.pm2.marcel", "MarcelRuntime", (PUBLIC,), "pm2"),
    ("repro.pm2.migration", "MigrationManager", (PUBLIC,), "pm2"),
    ("repro.harness.session", "Session", ("run",), "harness"),
    ("repro.harness.spec", "ExperimentSpec", ("cache_key",), "harness"),
    ("repro.harness.store", "ResultStore", ("get", "put", "flush"), "harness"),
    ("repro.harness.store", None, ("report_to_payload", "report_from_payload"), "harness"),
    ("repro.harness.jobs", "SweepJob", ("run",), "harness"),
    ("repro.harness.service", "SweepService", ("submit",), "harness"),
    ("repro.harness.service", "_Handler", ("do_GET", "do_POST"), "harness"),
    ("repro.obs.ledger", "TelemetryCollector", ("attach", "finalize"), "obs"),
    ("repro.obs.ledger", "RunTelemetry", (PUBLIC,), "obs"),
)

#: cost hooks the memory layer calls back into on every slow-path access;
#: wrapping them would split each access across two layers
EXCLUDED = frozenset({"JavaThreadContext.charge_cpu", "JavaThreadContext.charge_wait"})

#: boundaries whose calls are also kept as individual spans
COARSE = frozenset(
    {
        "run_spec",
        "HyperionRuntime.__init__",
        "Engine.run",
        "Session.run",
        "ResultStore.get",
        "ResultStore.put",
        "ResultStore.flush",
        "SweepJob.run",
        "SweepService.submit",
        "_Handler.do_GET",
        "_Handler.do_POST",
    }
)

#: the closure ``MemorySubsystem.make_range_updater`` returns
RANGE_UPDATE = "MemorySubsystem.range_update"

_clock = time.perf_counter


def _detail(name: str, args: tuple, result) -> str:
    """Identifying detail of a coarse span: request line or store outcome."""
    if name.startswith("_Handler."):
        return f"{args[0].command} {args[0].path}"
    if name == "ResultStore.get":
        return "miss" if result is None else "hit"
    return ""


class _State(threading.local):
    """Per-thread tracing state (created on first use in each thread)."""

    def __init__(self, tracer: "Tracer"):
        self.stack: list[list] = []
        #: aggregates of the current cell, or of this thread outside cells
        self.aggs: dict[tuple[str, str], list] = {}
        self.cell = 0
        self.app_layer = "apps"
        #: innermost open memory frame (for the fused-call count)
        self.memory: list | None = None
        #: id of the innermost open coarse span
        self.span = 0
        with tracer._lock:
            tracer._outside.append(self.aggs)


class _TracedGenerator:
    """Generator proxy timing every resume of the wrapped generator."""

    __slots__ = ("_gen", "_enter", "_exit")

    def __init__(self, gen, enter, leave):
        self._gen = gen
        self._enter = enter
        self._exit = leave

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        token = self._enter()
        try:
            return self._gen.send(value)
        finally:
            self._exit(token)

    def throw(self, *args):
        token = self._enter()
        try:
            return self._gen.throw(*args)
        finally:
            self._exit(token)

    def close(self):
        self._gen.close()


class Tracer:
    """Installs span-recording wrappers at every layer boundary."""

    def __init__(self):
        self._lock = threading.Lock()
        self._outside: list[dict] = []
        self._state = _State(self)
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []
        self._functions: list[tuple] = []
        self.spans: list[tuple] = []
        self.cells: list[dict] = []
        self.epoch = _clock()
        #: every boundary name installed, with its layer
        self.boundaries: dict[str, str] = {}

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every boundary; returns self (raises if already installed)."""
        if self._patches or self._functions:
            raise RuntimeError("tracer is already installed")
        # the harness package imports every module that re-imports a wrapped
        # function by name (executor, jobs, service), so they are all patched
        importlib.import_module("repro.harness")
        for module_name, owner, members, layer in BOUNDARIES:
            module = importlib.import_module(module_name)
            if owner is None:
                for member in members:
                    self._patch_function(getattr(module, member), member, layer)
                continue
            for cls in self._classes(module, owner):
                for member in self._members(cls, members):
                    name = f"{cls.__name__}.{member}"
                    raw = cls.__dict__[member]
                    setattr(cls, member, self._wrap_descriptor(raw, name, layer))
                    self._patches.append((cls, member, raw))
                    self.boundaries[name] = layer
        self.boundaries[RANGE_UPDATE] = "core.memory"
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute and module global."""
        for cls, member, raw in reversed(self._patches):
            setattr(cls, member, raw)
        self._patches.clear()
        for original, wrapper in self._functions:
            for module in self._repro_modules():
                for attr, value in list(vars(module).items()):
                    if value is wrapper:
                        setattr(module, attr, original)
        self._functions.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @staticmethod
    def _repro_modules() -> list:
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]

    @staticmethod
    def _classes(module, owner: str) -> list[type]:
        """The class *owner* names, or with ``Name+`` every subclass of it
        defined in *module* (the class itself included)."""
        if not owner.endswith("+"):
            return [getattr(module, owner)]
        base = getattr(module, owner[:-1])
        return [
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and issubclass(value, base)
            and value.__module__ == module.__name__
        ]

    @staticmethod
    def _members(cls: type, members: tuple) -> list[str]:
        """The members of *cls* to wrap: only those *cls* itself defines."""
        names = [member for member in members if member in cls.__dict__]
        if PUBLIC in members:
            names += [
                name
                for name, value in cls.__dict__.items()
                if not name.startswith("_")
                and f"{cls.__name__}.{name}" not in EXCLUDED
                and (inspect.isfunction(value) or isinstance(value, (staticmethod, classmethod)))
            ]
        return names

    def _patch_function(self, original, name: str, layer: str) -> None:
        wrapper = self._wrap(original, name, layer)
        for module in self._repro_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
        self._functions.append((original, wrapper))
        self.boundaries[name] = layer

    def _wrap_descriptor(self, raw, name: str, layer: str):
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(raw.__func__, name, layer))
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, name, layer))
        return self._wrap(raw, name, layer)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn, name: str, layer: str):
        if name == "run_spec":
            return self._wrap_cell(fn)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, layer)
        state = self._state
        spans = self.spans
        ids = self._ids
        coarse = name in COARSE
        memory = layer == "core.memory"
        detection = layer == "core.detection"
        dynamic = layer == APP
        key = (name, layer)
        updater = name == "MemorySubsystem.make_range_updater"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state
            stack = st.stack
            frame = [0.0, False]
            if memory:
                outer = st.memory
                st.memory = frame
            elif detection and st.memory is not None:
                st.memory[1] = True
            if coarse:
                parent = st.span
                span_id = next(ids)
                st.span = span_id
            stack.append(frame)
            result = None
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                aggs = st.aggs
                agg_key = (name, st.app_layer) if dynamic else key
                agg = aggs.get(agg_key)
                if agg is None:
                    agg = aggs[agg_key] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += own
                if memory:
                    st.memory = outer
                    if frame[1]:
                        if outer is not None:
                            outer[1] = True
                    else:
                        agg[3] += 1
                if coarse:
                    st.span = parent
                    detail = _detail(name, args, result)
                    spans.append((span_id, parent, name, layer, start, end, own, st.cell, detail))
            if updater:
                return tracer._wrap(result, RANGE_UPDATE, layer)
            return result

        return traced

    def _wrap_generator(self, fn, name: str, layer: str):
        state = self._state
        key = (name, layer)

        def enter():
            frame = [0.0, False]
            state.stack.append(frame)
            return (frame, _clock())

        def leave(token):
            frame, start = token
            duration = _clock() - start
            st = state
            stack = st.stack
            stack.pop()
            if stack:
                stack[-1][0] += duration
            agg = st.aggs.get(key)
            if agg is None:
                agg = st.aggs[key] = [0, 0.0, 0.0, 0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedGenerator(fn(*args, **kwargs), enter, leave)

        return traced

    def _wrap_cell(self, fn):
        state = self._state
        tracer = self

        @functools.wraps(fn)
        def traced(spec):
            st = state
            saved = (st.cell, st.app_layer, st.aggs, st.span)
            cell_id = next(tracer._ids)
            st.cell = cell_id
            st.span = cell_id
            st.app_layer = "scenarios" if spec.app.startswith("syn-") else "apps"
            st.aggs = {}
            stack = st.stack
            frame = [0.0, False]
            stack.append(frame)
            start = _clock()
            report = None
            try:
                report = fn(spec)
                return report
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                aggs = st.aggs
                aggs[("run_spec", CELL)] = [1, duration, own, 0]
                st.cell, st.app_layer, st.aggs, st.span = saved
                if stack:
                    stack[-1][0] += duration
                tracer.spans.append(
                    (cell_id, saved[3], "run_spec", CELL, start, end, own, cell_id, spec.label())
                )
                tracer.cells.append(
                    {
                        "id": cell_id,
                        "label": spec.label(),
                        "start": start - tracer.epoch,
                        "end": end - tracer.epoch,
                        "self": own,
                        "aggregates": [
                            [n, layer, *values] for (n, layer), values in sorted(aggs.items())
                        ],
                        "counts": _report_counts(report) if report is not None else None,
                    }
                )

        return traced

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def payload(self) -> dict:
        """Everything recorded, JSON-ready (what ``trace.json`` holds)."""
        outside: dict[tuple[str, str], list] = {}
        with self._lock:
            for aggs in self._outside:
                for key, values in list(aggs.items()):
                    merged = outside.setdefault(key, [0, 0.0, 0.0, 0])
                    for i, value in enumerate(values):
                        merged[i] += value
        epoch = self.epoch
        return {
            "version": 1,
            "boundaries": dict(sorted(self.boundaries.items())),
            "spans": [
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "layer": layer,
                    "start": start - epoch,
                    "end": end - epoch,
                    "self": own,
                    "cell": cell,
                    "detail": detail,
                }
                for span_id, parent, name, layer, start, end, own, cell, detail in self.spans
            ],
            "cells": list(self.cells),
            "outside": [[n, layer, *values] for (n, layer), values in sorted(outside.items())],
        }


def _report_counts(report) -> dict:
    """Deterministic work counts of one finished cell."""
    scalars = report.to_dict()
    return {
        "events": report.events_processed,
        "page_fetches": scalars["page_fetches"],
        "page_faults": scalars["page_faults"],
        "inline_checks": scalars["inline_checks"],
        "monitor_contended_enters": scalars["monitor_contended_enters"],
        "intra_island_fetches": report.intra_cluster_page_fetches,
        "inter_island_fetches": report.inter_cluster_page_fetches,
    }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("simulation.ns_per_event", "ns", "lower"),
        ("hyperion.runtime_build_ms", "ms", "lower"),
        ("hyperion.ctx_calls", "count", "lower"),
        ("core.memory.calls", "count", "lower"),
        ("core.memory.fused_ratio", "ratio", "higher"),
        ("core.detection.calls", "count", "lower"),
        ("dsm.fetch_calls", "count", "lower"),
        ("cluster.price_calls", "count", "lower"),
        ("scenarios.script_build_ms", "ms", "lower"),
        ("harness.cache_key_us", "us", "lower"),
        ("harness.store_get_ms", "ms", "lower"),
        ("harness.store_put_ms", "ms", "lower"),
        ("harness.job_ms", "ms", "lower"),
        ("harness.queue_wait_ms", "ms", "lower"),
        ("harness.http_ms", "ms", "lower"),
        ("harness.requests_per_sweep", "ratio", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("simulation.events", "count", "lower"),
        ("dsm.page_fetches", "count", "lower"),
        ("dsm.page_faults", "count", "lower"),
        ("core.detection.inline_checks", "count", "lower"),
        ("dsm.inter_island_share", "ratio", "lower"),
        ("hyperion.monitor_contended_enters", "count", "lower"),
        ("harness.store_hits", "count", "higher"),
        ("harness.store_misses", "count", "lower"),
    ]
)


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(payload: dict, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass (see README.md)."""
    rows = [row for cell in payload["cells"] for row in cell["aggregates"]]
    rows += payload["outside"]
    self_by_layer = dict.fromkeys(LAYERS + (CELL,), 0.0)
    calls_by_layer = dict.fromkeys(LAYERS + (CELL,), 0)
    by_name: dict[str, list] = {}
    fused = 0
    for name, layer, count, total, own, fused_calls in rows:
        self_by_layer[layer] += own
        calls_by_layer[layer] += count
        fused += fused_calls
        merged = by_name.setdefault(name, [0, 0.0])
        merged[0] += count
        merged[1] += total

    def calls(*names):
        return sum(by_name.get(n, (0, 0.0))[0] for n in names)

    def mean_ms(*names, scale=1e3):
        count = calls(*names)
        return _mean(sum(by_name.get(n, (0, 0.0))[1] for n in names), count) * scale

    counts = [cell["counts"] for cell in payload["cells"] if cell["counts"]]

    def total(key):
        return sum(c[key] for c in counts)

    events = total("events")
    intra, inter = total("intra_island_fetches"), total("inter_island_fetches")
    spans = payload["spans"]
    jobs = sorted(s["start"] for s in spans if s["name"] == "SweepJob.run")
    submits = sorted(s["end"] for s in spans if s["name"] == "SweepService.submit")
    waits = [job - sub for job, sub in zip(jobs, submits, strict=False)]
    requests = calls("_Handler.do_GET", "_Handler.do_POST")
    cell_time = sum(c["end"] - c["start"] for c in payload["cells"])
    store_gets = [s for s in spans if s["name"] == "ResultStore.get"]
    metrics = {f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS}
    metrics.update(
        {
            "simulation.ns_per_event": _mean(self_by_layer["simulation"], events) * 1e9,
            "hyperion.runtime_build_ms": mean_ms("HyperionRuntime.__init__"),
            "hyperion.ctx_calls": sum(
                v[0] for n, v in by_name.items() if n.startswith("JavaThreadContext.")
            ),
            "core.memory.calls": calls_by_layer["core.memory"],
            "core.memory.fused_ratio": _mean(fused, calls_by_layer["core.memory"]),
            "core.detection.calls": calls_by_layer["core.detection"],
            "dsm.fetch_calls": calls("PageManager.fetch_pages"),
            "cluster.price_calls": sum(
                v[0]
                for n, v in by_name.items()
                if n.endswith(".one_way_time") or n.endswith(".round_trip_time")
            ),
            "scenarios.script_build_ms": by_name.get(
                "SyntheticApplication.build_script", (0, 0.0)
            )[1]
            * 1e3,
            "harness.cache_key_us": mean_ms("ExperimentSpec.cache_key", scale=1e6),
            "harness.store_get_ms": mean_ms("ResultStore.get"),
            "harness.store_put_ms": mean_ms("ResultStore.put"),
            "harness.job_ms": mean_ms("SweepJob.run"),
            "harness.queue_wait_ms": _mean(sum(waits), len(waits)) * 1e3,
            "harness.http_ms": mean_ms("_Handler.do_GET", "_Handler.do_POST"),
            "harness.requests_per_sweep": _mean(requests, len(jobs)),
            "trace.unattributed_share": _mean(self_by_layer[CELL], cell_time),
            "trace.overhead_ratio": overhead_ratio,
            "simulation.events": events,
            "dsm.page_fetches": total("page_fetches"),
            "dsm.page_faults": total("page_faults"),
            "core.detection.inline_checks": total("inline_checks"),
            "dsm.inter_island_share": _mean(inter, intra + inter),
            "hyperion.monitor_contended_enters": total("monitor_contended_enters"),
            "harness.store_hits": sum(1 for s in store_gets if s["detail"] == "hit"),
            "harness.store_misses": sum(1 for s in store_gets if s["detail"] == "miss"),
        }
    )
    return metrics
