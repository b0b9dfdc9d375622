"""Frozen description of one experiment cell and the pure function that runs it.

:class:`ExperimentSpec` is the unit of work of the experiment layer: an
application, a cluster, a consistency protocol, a node count, a workload and
optional :class:`~repro.hyperion.runtime.RuntimeConfig` overrides.  It is
frozen and hashable, so it can key dictionaries and result caches, and it
serialises to a *canonical* JSON form from which :meth:`ExperimentSpec.cache_key`
derives a content hash: two specs that describe the same physical cell — e.g.
one naming the ``"myrinet"`` preset and one carrying the equivalent
:class:`~repro.cluster.presets.ClusterSpec` object — hash to the same key.

:func:`run_spec` turns a spec into an :class:`~repro.hyperion.runtime.ExecutionReport`.
It is a *pure* function of the spec (the simulator is deterministic given the
config's seed), defined at module level so that process-pool executors can
pickle it; every executor routes through it.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Any

from repro.apps.base import app_class, create_app
from repro.apps.workloads import WorkloadPreset
from repro.cluster.presets import ClusterSpec, cluster_by_name
from repro.hyperion.runtime import ExecutionReport, HyperionRuntime, RuntimeConfig

#: bump when the canonical JSON layout changes, so stale caches never match
CACHE_SCHEMA_VERSION = 1

#: entries the process-wide cache-key memo holds before it is emptied
KEY_MEMO_CAP = 1024

#: cache keys by the pickled resolved values of their canonical form; shared
#: by every spec instance, since sweeps rebuild equal specs on every request.
#: It takes no lock (each dict operation is atomic), so a process-pool fork
#: can never copy it locked; racing inserts may overshoot the cap by one
#: entry per thread until the next one empties it.
_key_memo: dict[bytes, str] = {}


def resolve_cluster(cluster: str | ClusterSpec) -> ClusterSpec:
    """Resolve a preset name to its :class:`ClusterSpec` (pass specs through)."""
    if isinstance(cluster, ClusterSpec):
        return cluster
    return cluster_by_name(cluster)


def resolve_workload(app_name: str, workload) -> object:
    """Resolve the many accepted workload forms to a concrete workload object.

    ``workload`` may be a workload object, a :class:`WorkloadPreset`, a preset
    name (``"bench"``, ``"paper"``, ``"testing"``) or None (bench preset).
    Preset forms are resolved through the application's
    ``workload_from_preset`` hook, so applications outside the preset bundle
    (the generated ``syn-*`` scenarios) scale with the same three names.
    """
    if workload is None:
        preset = WorkloadPreset.by_name("bench")
    elif isinstance(workload, str):
        preset = WorkloadPreset.by_name(workload)
    elif isinstance(workload, WorkloadPreset):
        preset = workload
    else:
        return workload
    try:
        cls = app_class(app_name)
    except KeyError:
        # unregistered names keep the preset's own lookup error behaviour
        return preset.workload_for(app_name)
    return cls.workload_from_preset(preset)


def _dataclass_dict(value) -> dict[str, Any]:
    """Class-tagged field dictionary of a (frozen) dataclass instance."""
    return {"__class__": type(value).__name__, **asdict(value)}


def _workload_form(workload) -> Any:
    """Stable, JSON-friendly identity of a workload object.

    Dataclasses (every built-in workload) serialise field-by-field; other
    objects fall back to their attribute dictionary so parameter changes
    still change the cache key.  Objects exposing neither (e.g. slots-only
    with no dataclass fields) end up as ``repr`` — define workloads as
    frozen dataclasses for reliable caching.
    """
    if is_dataclass(workload) and not isinstance(workload, type):
        return _dataclass_dict(workload)
    attributes = getattr(workload, "__dict__", None)
    if attributes:
        return {"__class__": type(workload).__name__, **attributes}
    return repr(workload)


def _qualified_name(obj) -> str:
    """Module-qualified name of a callable (topology factories)."""
    module = getattr(obj, "__module__", "?")
    name = getattr(obj, "__qualname__", getattr(obj, "__name__", repr(obj)))
    return f"{module}.{name}"


@dataclass(frozen=True)
class ExperimentSpec:
    """Identity of one simulated execution (frozen, hashable, cacheable)."""

    app: str
    cluster: str | ClusterSpec
    protocol: str
    num_nodes: int
    #: workload object, :class:`WorkloadPreset`, preset name, or None (bench)
    workload: Any = None
    #: extra runtime parameters; ``protocol`` is always taken from the spec
    config: RuntimeConfig | None = None
    #: run the application's correctness check after execution (not part of
    #: the cell's identity: excluded from equality, hashing and the cache key)
    verify: bool = field(default=False, compare=False)
    #: run under the JMM consistency sanitizer (opt-in shadow layer); like
    #: ``verify`` this does not change what is simulated — the report's
    #: ``to_dict`` stays byte-identical — so it is excluded from the cell's
    #: identity as well.  The findings surface on ``ExecutionReport.sanitizer``.
    sanitize: bool = field(default=False, compare=False)
    #: collect the out-of-band telemetry ledger (metrics + virtual-time
    #: spans, see :mod:`repro.obs`).  Like ``verify``/``sanitize`` it never
    #: changes what is simulated — the report's ``to_dict`` stays
    #: byte-identical — so it is excluded from the cell's identity and does
    #: NOT bypass the result cache: cache-hit cells get a stub ledger marked
    #: ``cached`` instead of a re-execution.  The ledger surfaces on
    #: ``ExecutionReport.telemetry``.
    telemetry: bool = field(default=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def cluster_name(self) -> str:
        """Name of the cluster preset or spec."""
        return self.cluster.name if isinstance(self.cluster, ClusterSpec) else self.cluster

    @property
    def workload_name(self) -> str:
        """Preset or workload display name (``"custom"`` for plain objects)."""
        if self.workload is None:
            return "bench"
        if isinstance(self.workload, str):
            return self.workload
        return str(getattr(self.workload, "name", "custom"))

    def label(self) -> str:
        """Short display label (used by reports and benchmark names)."""
        return f"{self.app}/{self.cluster_name}/{self.protocol}/n{self.num_nodes}"

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolved_cluster(self) -> ClusterSpec:
        """The concrete :class:`ClusterSpec` this cell runs on."""
        return resolve_cluster(self.cluster)

    def resolved_workload(self) -> object:
        """The concrete workload object for :attr:`app`."""
        return resolve_workload(self.app, self.workload)

    def effective_config(self) -> RuntimeConfig:
        """The runtime config actually used (spec protocol wins)."""
        base = self.config or RuntimeConfig()
        return base.with_overrides(protocol=self.protocol)

    # ------------------------------------------------------------------
    # canonical form / content hash
    # ------------------------------------------------------------------
    def canonical_dict(self) -> dict[str, Any]:
        """Fully resolved, JSON-friendly identity of this cell.

        Preset names are resolved into their constants so that equivalent
        specs produce identical dictionaries regardless of how the cluster or
        workload was spelled.
        """
        return self._canonical_form(
            self.resolved_cluster(), self.resolved_workload(), self.effective_config()
        )

    def _canonical_form(
        self, cluster: ClusterSpec, workload: object, config: RuntimeConfig
    ) -> dict[str, Any]:
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "app": self.app,
            "protocol": self.protocol,
            "num_nodes": self.num_nodes,
            "cluster": {
                "name": cluster.name,
                "num_nodes": cluster.num_nodes,
                "machine": _dataclass_dict(cluster.machine),
                "network": _dataclass_dict(cluster.network),
                "software": _dataclass_dict(cluster.software),
                "page_size": cluster.page_size,
                "topology": _qualified_name(cluster.topology_factory),
            },
            "workload": _workload_form(workload),
            "config": _dataclass_dict(config),
        }

    def cache_key(self) -> str:
        """Content hash of the canonical form (hex SHA-256).

        Memoised per instance, since the spec is frozen, and process-wide by
        the *resolved* values the canonical form is built from, so an equal
        spec rebuilt by the next request skips the dictionary, JSON encoding
        and hash.  Resolving first keeps a preset re-bound with
        ``register_cluster(..., allow_override=True)`` correct.  The memo
        keys on the values' pickle, not on ``==``: equality merges ``1``,
        ``1.0`` and ``True``, and ``0.0`` with ``-0.0``, which the canonical
        JSON spells differently.  Values that cannot be pickled (local
        classes and functions) skip the memo.
        """
        cached = self.__dict__.get("_cache_key")
        if cached is not None:
            return cached
        cluster = self.resolved_cluster()
        workload = self.resolved_workload()
        config = self.effective_config()
        values = (self.app, self.protocol, self.num_nodes, cluster, workload, config)
        try:
            token: bytes | None = pickle.dumps(values, pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            token = None
        key = _key_memo.get(token) if token is not None else None
        if key is None:
            payload = json.dumps(
                self._canonical_form(cluster, workload, config),
                sort_keys=True,
                separators=(",", ":"),
                default=repr,
            )
            key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            if token is not None:
                if len(_key_memo) >= KEY_MEMO_CAP:
                    _key_memo.clear()
                _key_memo[token] = key
        object.__setattr__(self, "_cache_key", key)
        return key

    def describe(self) -> dict[str, Any]:
        """Human-oriented summary stored next to cached results."""
        return {
            "label": self.label(),
            "app": self.app,
            "cluster": self.cluster_name,
            "protocol": self.protocol,
            "num_nodes": self.num_nodes,
            "workload": self.workload_name,
        }

    # ------------------------------------------------------------------
    def run(self) -> ExecutionReport:
        """Execute this cell (see :func:`run_spec`)."""
        return run_spec(self)


def run_spec(spec: ExperimentSpec) -> ExecutionReport:
    """Run one experiment cell and return its :class:`ExecutionReport`.

    Pure function of *spec*: the same spec (and therefore the same config
    seed) always produces the same report, which is what lets executors run
    cells in any order or process and lets :class:`~repro.harness.store.ResultStore`
    reuse results across runs.  A config with ``trace=True`` leaves the
    engine's event trace on the report's host-side ``trace`` field.

    Every road to a simulation ends here, so this is the one place a cell's
    host cost is measured: the report's host-side ``host_seconds`` and
    ``peak_rss_bytes`` fields.
    """
    # lazy: importing repro.perf at module scope would cycle back into this
    # module through the profiler
    from repro.perf.clock import host_clock, peak_rss_bytes

    started = host_clock()
    cluster = spec.resolved_cluster()
    workload = spec.resolved_workload()
    runtime = HyperionRuntime(
        cluster,
        num_nodes=spec.num_nodes,
        config=spec.effective_config(),
        sanitize=spec.sanitize,
        telemetry=spec.telemetry,
    )
    collector = runtime.telemetry
    if collector is not None:
        collector.note_stage("spec_resolve", host_clock() - started)
        stage = collector.begin_stage("execute")
    app = create_app(spec.app)
    report = app.run(runtime, workload)
    if collector is not None:
        collector.end_stage("execute", stage)
    if spec.verify and not app.verify(report.result, workload):
        raise AssertionError(
            f"{spec.app} produced an incorrect result under "
            f"{spec.protocol} on {cluster.name}/{spec.num_nodes} nodes"
        )
    if collector is not None:
        report.telemetry = collector.finalize(spec, report, runtime)
    report.host_seconds = host_clock() - started
    report.peak_rss_bytes = peak_rss_bytes()
    return report
