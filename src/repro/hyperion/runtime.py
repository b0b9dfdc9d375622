"""Runtime assembly: one cluster-wide JVM image.

:class:`HyperionRuntime` wires together every subsystem of the paper's
Table 1 over a chosen cluster preset and consistency protocol:

* the discrete-event engine and the Marcel thread package,
* the PM2 RPC layer and Hyperion's communication subsystem,
* the iso-address allocator, the DSM-PM2 page manager and the selected
  Java-consistency protocol (``java_ic`` or ``java_pf``),
* the memory subsystem (Table 2 primitives) with its per-node caches,
* monitors, the load balancer and the Java API natives.

A typical use::

    from repro.cluster import myrinet_cluster
    from repro.hyperion import HyperionRuntime

    runtime = HyperionRuntime(myrinet_cluster(), num_nodes=4, protocol="java_pf")
    runtime.spawn_main(my_main_body)       # a generator function (ctx) -> ...
    report = runtime.run()
    print(report.execution_seconds, report.stats.summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

from repro.cluster.costs import CostModel
from repro.cluster.presets import ClusterSpec
from repro.core.memory import MemorySubsystem
from repro.core.protocol import ConsistencyProtocol, create_protocol
from repro.core.stats import RunStats
from repro.dsm.page_manager import PageManager
from repro.hyperion.comm import CommunicationSubsystem
from repro.hyperion.heap import HeapAllocator
from repro.hyperion.javaapi import JavaApiSubsystem
from repro.hyperion.loadbalancer import LoadBalancer, create_balancer
from repro.hyperion.monitors import MonitorManager
from repro.hyperion.objects import JavaClass
from repro.hyperion.threads import ClusterBarrier, JavaThread
from repro.pm2.isoaddr import IsoAddressAllocator
from repro.pm2.marcel import MarcelRuntime
from repro.pm2.migration import MigrationManager
from repro.pm2.rpc import RpcSystem
from repro.simulation.engine import Engine
from repro.simulation.trace import TraceRecorder
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitizer import ConsistencySanitizer, SanitizerReport
    from repro.obs.ledger import RunTelemetry, TelemetryCollector


@dataclass(frozen=True)
class RuntimeConfig:
    """Tunable runtime parameters that are not part of the cluster preset."""

    #: consistency protocol name ("java_pf", "java_ic", ...)
    protocol: str = "java_pf"
    #: application threads per node (the paper uses 1; ablation A3 uses more)
    threads_per_node: int = 1
    #: load-balancer policy for newly created threads
    balancer: str = "round_robin"
    #: override the cluster's page size (bytes); None keeps the preset value
    page_size: int | None = None
    #: per-node iso-address arena size in bytes
    arena_size: int = 256 * 1024 * 1024
    #: keep a log of every RPC (for debugging / tests)
    keep_rpc_log: bool = False
    #: record a TraceRecorder of every simulation event
    trace: bool = False
    #: random seed forwarded to applications and randomised policies
    seed: int = 12345

    def __post_init__(self) -> None:
        check_positive("threads_per_node", self.threads_per_node)
        check_positive("arena_size", self.arena_size)
        if self.page_size is not None:
            check_positive("page_size", self.page_size)

    def with_overrides(self, **kwargs) -> "RuntimeConfig":
        """Return a copy with some parameters replaced (validation re-runs)."""
        return replace(self, **kwargs)


@dataclass
class ExecutionReport:
    """Everything one simulated execution produced."""

    cluster: str
    protocol: str
    num_nodes: int
    num_threads: int
    execution_seconds: float
    stats: RunStats
    console: list[str] = field(default_factory=list)
    result: Any = None
    #: host-side diagnostic: simulation events the engine dispatched to
    #: produce this report.  Deliberately NOT part of :meth:`to_dict` — the
    #: dictionary is the determinism contract (byte-identical across
    #: executors, cache round trips and fast-path changes), and event counts
    #: are an implementation detail of the kernel, not of the simulated
    #: machine.  Consumed by :mod:`repro.perf` for throughput reporting.
    events_processed: int = 0
    #: consistency-sanitizer findings when the run was executed with
    #: ``sanitize=True`` (None otherwise).  Host-side like
    #: ``events_processed``: deliberately NOT part of :meth:`to_dict` — the
    #: dictionary is the byte-identity contract and must not change shape
    #: (or content) with an opt-in checking layer.
    sanitizer: "SanitizerReport" | None = None
    #: out-of-band telemetry ledger when the run was executed with
    #: ``telemetry=True`` (None otherwise).  Same contract as ``sanitizer``:
    #: host-side, never serialised into :meth:`to_dict` or the result store's
    #: pinned payload — the store persists it *next to* the entry instead.
    telemetry: "RunTelemetry" | None = None
    #: the engine's event trace when the run's config set ``trace=True``
    #: (None otherwise).  Same contract as ``sanitizer``: host-side and never
    #: part of :meth:`to_dict`, so a stored payload keeps no trace.
    trace: TraceRecorder | None = None

    @property
    def page_rehomes(self) -> int:
        """Page home transfers performed by a migratory home policy.

        Derived from the run's DSM counters, and — like
        ``events_processed`` — deliberately NOT part of :meth:`to_dict`:
        the dictionary schema is shared by every protocol and pinned
        byte-for-byte by the determinism suite and the golden cells, so
        fixed-home protocols must not grow a key for a mechanism they
        never exercise.  Being derived, it also survives the result
        store's JSON round trip with the rest of the stats.
        """
        return self.stats.dsm.page_rehomes

    # -- topology-aware traffic split (host-side, like page_rehomes) -------
    @property
    def intra_cluster_page_fetches(self) -> int:
        """Page transfers whose requester and home share a topology island."""
        return self.stats.dsm.intra_island_page_fetches

    @property
    def inter_cluster_page_fetches(self) -> int:
        """Page transfers that crossed an inter-cluster (backbone) link."""
        return self.stats.dsm.inter_island_page_fetches

    @property
    def intra_cluster_fetch_seconds(self) -> float:
        """Latency charged for intra-island page transfers."""
        return self.stats.dsm.intra_island_fetch_seconds

    @property
    def inter_cluster_fetch_seconds(self) -> float:
        """Latency charged for island-crossing page transfers."""
        return self.stats.dsm.inter_island_fetch_seconds

    @property
    def inter_cluster_bytes(self) -> int:
        """Page payload bytes shipped across inter-cluster links."""
        return self.stats.dsm.inter_island_bytes

    @property
    def inter_cluster_cost_share(self) -> float:
        """Fraction of page-transfer latency spent crossing islands (0..1).

        Zero on single-switch topologies (everything is one island) and on
        runs that fetched nothing.  Like :attr:`page_rehomes`, derived from
        the DSM counters and deliberately outside :meth:`to_dict` — the
        byte-pinned schema must not vary with the cluster's shape.
        """
        dsm = self.stats.dsm
        total = dsm.intra_island_fetch_seconds + dsm.inter_island_fetch_seconds
        if total <= 0.0:
            return 0.0
        return dsm.inter_island_fetch_seconds / total

    def to_dict(self) -> dict[str, Any]:
        """Flat dictionary (JSON-serialisable apart from ``result``)."""
        out: dict[str, Any] = {
            "cluster": self.cluster,
            "protocol": self.protocol,
            "num_nodes": self.num_nodes,
            "num_threads": self.num_threads,
            "execution_seconds": self.execution_seconds,
        }
        out.update(self.stats.as_dict())
        return out

    def __str__(self) -> str:
        return (
            f"[{self.cluster}/{self.protocol} n={self.num_nodes}] "
            f"{self.execution_seconds:.6f} s ({self.stats.summary()})"
        )


class HyperionRuntime:
    """A single distributed JVM image spanning ``num_nodes`` cluster nodes."""

    def __init__(
        self,
        cluster: ClusterSpec,
        num_nodes: int | None = None,
        protocol: str | None = None,
        config: RuntimeConfig | None = None,
        sanitize: bool = False,
        telemetry: bool = False,
    ):
        self.config = config or RuntimeConfig()
        if protocol is not None:
            self.config = self.config.with_overrides(protocol=protocol)
        self.cluster = cluster
        self.num_nodes = cluster.num_nodes if num_nodes is None else int(num_nodes)
        check_positive("num_nodes", self.num_nodes)
        if self.num_nodes > cluster.num_nodes:
            raise ValueError(
                f"cluster {cluster.name!r} has {cluster.num_nodes} nodes; "
                f"cannot run on {self.num_nodes}"
            )

        page_size = self.config.page_size or cluster.page_size
        self.cost_model: CostModel = CostModel(
            machine=cluster.machine,
            network=cluster.network,
            software=cluster.software,
            page_size=page_size,
        )

        trace = TraceRecorder(max_records=200_000) if self.config.trace else None
        self.engine = Engine(trace=trace)
        self.topology = cluster.topology_factory(self.num_nodes, cluster.network)
        self.isoaddr = IsoAddressAllocator(
            num_nodes=self.num_nodes,
            arena_size=self.config.arena_size,
            page_size=page_size,
        )
        self.page_manager = PageManager(
            num_nodes=self.num_nodes,
            page_size=page_size,
            isoaddr=self.isoaddr,
            cost_model=self.cost_model,
            topology=self.topology,
        )
        self.protocol: ConsistencyProtocol = create_protocol(
            self.config.protocol, self.page_manager, self.cost_model
        )
        self.run_stats = RunStats()
        self.memory = MemorySubsystem(
            page_manager=self.page_manager,
            cost_model=self.cost_model,
            protocol=self.protocol,
            num_nodes=self.num_nodes,
            run_stats=self.run_stats,
        )
        self.marcel = MarcelRuntime(self.engine, self.num_nodes)
        self.rpc = RpcSystem(
            self.engine, self.topology, self.cost_model, keep_log=self.config.keep_rpc_log
        )
        self.comm = CommunicationSubsystem(self.rpc)
        self.monitors = MonitorManager(
            self.engine, self.topology, self.cost_model, stats=self.run_stats.monitors
        )
        self.heap = HeapAllocator(self.isoaddr, self.page_manager)
        self.balancer: LoadBalancer = create_balancer(self.config.balancer, self.num_nodes)
        self.javaapi = JavaApiSubsystem()
        self.migration = MigrationManager(self.marcel, self.topology, self.cost_model)
        # protocols whose home policy re-homes pages price the transfer
        # through the PM2 migration machinery (no-op for everyone else)
        self.protocol.attach_migration(self.migration)

        self.threads: list[JavaThread] = []
        self.barriers: list[ClusterBarrier] = []
        self._register_internal_services()

        # The consistency sanitizer (opt-in shadow layer) must be installed
        # before any thread context binds the memory/monitor entry points.
        # Imported lazily: the analysis package stays entirely off the
        # non-sanitized path.
        self.sanitizer: "ConsistencySanitizer" | None = None
        if sanitize:
            from repro.analysis.sanitizer import ConsistencySanitizer

            self.sanitizer = ConsistencySanitizer(self)
            # the sanitizer wraps the memory/monitor entry points on the
            # instance; the fused access fast path would slip past those
            # wrappers, so the whole run takes the exact per-access path
            self.memory.disable_access_fast_path()

        # The telemetry collector (opt-in observation layer) mirrors the
        # sanitizer pattern: lazily imported so the obs package stays
        # entirely off the default path, installed before any thread context
        # binds its span tracer.  Strictly out-of-band — it never charges
        # time or adds events.
        self.telemetry: "TelemetryCollector" | None = None
        if telemetry:
            from repro.obs.ledger import TelemetryCollector

            self.telemetry = TelemetryCollector()
            self.telemetry.attach(self)

    # ------------------------------------------------------------------
    def _register_internal_services(self) -> None:
        """Register the runtime's own message handlers on every node."""
        for node in range(self.num_nodes):
            self.comm.register_oneway(
                node, CommunicationSubsystem.SERVICE_SPAWN_THREAD, lambda src, payload: None
            )
            self.comm.register_oneway(
                node, CommunicationSubsystem.SERVICE_BARRIER, lambda src, payload: None
            )

    # ------------------------------------------------------------------
    # class / thread / barrier factories
    # ------------------------------------------------------------------
    @staticmethod
    def java_class(name: str, fields: Sequence[str]) -> JavaClass:
        """Declare a Java class with the given instance fields."""
        return JavaClass(name, fields)

    def create_thread(
        self,
        body: Callable,
        args: Sequence[Any] = (),
        node: int | None = None,
        name: str | None = None,
        index: int | None = None,
    ) -> JavaThread:
        """Create and start a Java thread (placement via the load balancer)."""
        node_id = self.balancer.next_node() if node is None else int(node)
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node {node_id} out of range [0, {self.num_nodes})")
        thread = JavaThread(
            runtime=self,
            node_id=node_id,
            body=body,
            args=args,
            name=name or f"java-thread-{len(self.threads)}",
            index=len(self.threads) if index is None else index,
        )
        self.threads.append(thread)
        self.run_stats.threads.created += 1
        return thread

    def spawn_main(self, body: Callable, *args: Any, node: int = 0) -> JavaThread:
        """Start the application's ``main`` thread (on node 0 by convention)."""
        return self.create_thread(body, args, node=node, name="java-main", index=-1)

    def create_barrier(self, parties: int, home_node: int = 0, name: str = "") -> ClusterBarrier:
        """Create a cluster-wide barrier for *parties* threads."""
        barrier = ClusterBarrier(
            self, parties, home_node=home_node, name=name or f"barrier-{len(self.barriers)}"
        )
        self.barriers.append(barrier)
        return barrier

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> ExecutionReport:
        """Run the simulation to completion and assemble the report."""
        self.engine.run(until=until)
        self.run_stats.execution_seconds = self.engine.now
        self.run_stats.monitors.barriers = sum(b.episodes for b in self.barriers)
        main_result = None
        for thread in self.threads:
            if thread.name == "java-main":
                main_result = thread.result
                break
        self.run_stats.result = main_result
        return ExecutionReport(
            cluster=self.cluster.name,
            protocol=self.protocol.name,
            num_nodes=self.num_nodes,
            num_threads=len(self.threads),
            execution_seconds=self.engine.now,
            stats=self.run_stats,
            console=list(self.javaapi.console),
            result=main_result,
            events_processed=self.engine.events_processed,
            sanitizer=self.sanitizer.report() if self.sanitizer is not None else None,
            trace=self.engine.trace,
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable configuration summary."""
        lines = [
            f"cluster   : {self.cluster.name} ({self.num_nodes} node(s))",
            f"protocol  : {self.protocol.describe()}",
            f"balancer  : {self.config.balancer}",
            self.cost_model.describe(),
        ]
        return "\n".join(lines)
