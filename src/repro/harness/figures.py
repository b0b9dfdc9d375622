"""Regeneration of Figures 1-5 of the paper.

Each figure plots the execution time of one benchmark against the number of
nodes, with four series: the two protocols on the Myrinet cluster (up to 12
nodes) and on the SCI cluster (up to 6 nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from repro.cluster.presets import cluster_by_name
from repro.harness.experiment import ProtocolComparison, protocol_comparisons
from repro.harness.matrix import ExperimentMatrix
from repro.harness.session import CellResult, Session, default_session

#: figure number -> benchmark, as in the paper
FIGURE_APPS: dict[int, str] = {1: "pi", 2: "jacobi", 3: "barnes", 4: "tsp", 5: "asp"}

#: the paper's two protocols — the series of Figures 1-5 as published
PAPER_PROTOCOLS: tuple[str, ...] = ("java_ic", "java_pf")

#: the grown protocol family plotted by the widened grids: the paper's two
#: plus the composed extensions (adaptive per-page detection and migratory
#: homes; ``java_ic_hoisted`` stays an ablation-only variant)
PROTOCOL_FAMILY: tuple[str, ...] = ("java_ic", "java_pf", "java_hybrid", "java_ic_mig")

#: the columns of the topology grid: the family plus the locality-aware
#: home policy, which only differentiates itself on multi-island topologies
TOPOLOGY_PROTOCOLS: tuple[str, ...] = PROTOCOL_FAMILY + ("java_ic_loc",)

#: default rows of the topology grid: two paper benchmarks with opposite
#: sharing behaviour plus the two scenarios built to stress page placement
DEFAULT_TOPOLOGY_APPS: tuple[str, ...] = (
    "jacobi",
    "tsp",
    "syn-false-sharing",
    "syn-migratory",
)

#: node counts plotted in the paper's figures, per cluster
DEFAULT_NODE_COUNTS: dict[str, tuple[int, ...]] = {
    "myrinet": (1, 2, 4, 6, 8, 10, 12),
    "sci": (1, 2, 3, 4, 5, 6),
}


@dataclass
class FigureSeries:
    """One curve of a figure: a cluster/protocol pair."""

    cluster: str
    protocol: str
    points: list[tuple[int, float]]

    @property
    def label(self) -> str:
        """Legend label matching the paper's ("200MHz/Myrinet, java_pf")."""
        platforms = {"myrinet": "200MHz/Myrinet", "sci": "450MHz/SCI"}
        platform = platforms.get(self.cluster, self.cluster)
        return f"{platform}, {self.protocol}"


@dataclass
class FigureData:
    """All series of one figure plus the comparisons they came from."""

    number: int
    app: str
    workload_name: str
    series: list[FigureSeries] = field(default_factory=list)
    comparisons: dict[str, ProtocolComparison] = field(default_factory=dict)
    #: every cell the figure consumed, as the harness-wide common record
    cells: list[CellResult] = field(default_factory=list)

    @property
    def title(self) -> str:
        """Paper-style caption."""
        pretty = {"pi": "Pi", "jacobi": "Jacobi", "barnes": "Barnes Hut", "tsp": "TSP", "asp": "ASP"}
        return f"Figure {self.number}. {pretty.get(self.app, self.app)}: java_pf vs. java_ic."

    def series_for(self, cluster: str, protocol: str) -> FigureSeries:
        """Look up one curve."""
        for entry in self.series:
            if entry.cluster == cluster and entry.protocol == protocol:
                return entry
        raise KeyError(f"no series for {cluster}/{protocol}")

    def has_paper_pair(self) -> bool:
        """True when both paper protocols are among the plotted series."""
        protocols = {series.protocol for series in self.series}
        return {"java_ic", "java_pf"} <= protocols

    def improvements(self, cluster: str) -> dict[int, float]:
        """java_pf improvement over java_ic per node count on *cluster*."""
        return self.comparisons[cluster].improvements()

    def to_dict(self) -> dict:
        """JSON-friendly representation (used by the benchmark harness)."""
        return {
            "figure": self.number,
            "app": self.app,
            "workload": self.workload_name,
            "series": [
                {
                    "cluster": s.cluster,
                    "protocol": s.protocol,
                    "label": s.label,
                    "points": [[n, t] for n, t in s.points],
                }
                for s in self.series
            ],
            "improvements": (
                {cluster: self.improvements(cluster) for cluster in self.comparisons}
                if self.has_paper_pair()
                else {}
            ),
        }


def figure_for_app(app: str) -> int:
    """Figure number of *app* (inverse of :data:`FIGURE_APPS`)."""
    for number, name in FIGURE_APPS.items():
        if name == app:
            return number
    raise KeyError(f"application {app!r} does not correspond to a paper figure")


@dataclass
class ScenarioGridData:
    """The synthetic-scenario comparison grid: scenarios x protocols x nodes.

    The synthetic counterpart of the paper's figure grid.  For every
    registered ``syn-*`` scenario it holds one
    :class:`~repro.harness.experiment.ProtocolComparison`, and — because the
    scenarios were built to separate the two detection mechanisms — it also
    records the *page-fault gap*: how many more page faults ``java_pf`` takes
    than ``java_ic`` on the same cell (``java_ic`` detects remote accesses
    with in-line checks and faults only on genuinely absent pages).
    """

    cluster: str
    workload_name: str
    node_counts: list[int]
    protocols: list[str]
    comparisons: dict[str, ProtocolComparison] = field(default_factory=dict)
    #: every cell of the grid, as the harness-wide common record
    cells: list[CellResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    def stat(self, scenario: str, protocol: str, num_nodes: int, key: str):
        """One stats-dictionary entry of one cell."""
        report = self.comparisons[scenario].report(protocol, num_nodes)
        return report.to_dict()[key]

    def page_fault_gap(
        self,
        scenario: str,
        num_nodes: int,
        baseline: str = "java_ic",
        candidate: str = "java_pf",
    ) -> int:
        """Extra page faults *candidate* takes over *baseline* at *num_nodes*."""
        return int(
            self.stat(scenario, candidate, num_nodes, "page_faults")
            - self.stat(scenario, baseline, num_nodes, "page_faults")
        )

    def to_dict(self) -> dict:
        """JSON-friendly grid (recorded by the scenario benchmarks)."""
        out: dict = {
            "cluster": self.cluster,
            "workload": self.workload_name,
            "node_counts": list(self.node_counts),
            "protocols": list(self.protocols),
            "scenarios": {},
        }
        paper_pair = "java_ic" in self.protocols and "java_pf" in self.protocols
        for name, comparison in sorted(self.comparisons.items()):
            entry = {
                "series": {
                    protocol: [[n, t] for n, t in comparison.series(protocol)]
                    for protocol in self.protocols
                },
                # the improvement series is defined over the paper pair only
                "improvements": comparison.improvements() if paper_pair else {},
                "page_faults": {
                    protocol: {
                        n: int(self.stat(name, protocol, n, "page_faults"))
                        for n in self.node_counts
                    }
                    for protocol in self.protocols
                },
                "inline_checks": {
                    protocol: {
                        n: int(self.stat(name, protocol, n, "inline_checks"))
                        for n in self.node_counts
                    }
                    for protocol in self.protocols
                },
                # host-side report attributes (deliberately outside to_dict —
                # see ExecutionReport.page_rehomes); zero for fixed homes /
                # single-island topologies
                "page_rehomes": {
                    protocol: {
                        n: int(comparison.report(protocol, n).page_rehomes)
                        for n in self.node_counts
                    }
                    for protocol in self.protocols
                },
                "inter_cluster_share": {
                    protocol: {
                        n: comparison.report(protocol, n).inter_cluster_cost_share
                        for n in self.node_counts
                    }
                    for protocol in self.protocols
                },
            }
            if "java_ic" in self.protocols and "java_pf" in self.protocols:
                entry["page_fault_gap"] = {
                    n: self.page_fault_gap(name, n) for n in self.node_counts
                }
            out["scenarios"][name] = entry
        return out


def generate_scenario_grid(
    scenarios: Iterable[str] | None = None,
    cluster: str = "myrinet",
    node_counts: Sequence[int] = (1, 2, 4, 8),
    protocols: Iterable[str] = PROTOCOL_FAMILY,
    workload="bench",
    seed: int | None = None,
    session: Session | None = None,
) -> ScenarioGridData:
    """Run the synthetic-scenario comparison grid (all ``syn-*`` by default).

    ``workload`` is a scale name / preset / workload object, resolved per
    scenario through the usual spec machinery; ``seed`` (with a scale-name
    workload) overrides every pattern's RNG seed.  All cells are batched
    into a single ``Session.run`` so ``--jobs`` parallelises across the
    whole grid and ``--cache-dir`` reuses earlier cells.
    """
    from repro.scenarios.registry import available_scenarios, scenario_workload

    scenario_list = list(scenarios) if scenarios is not None else available_scenarios()
    protocol_list = list(protocols)
    cluster_spec = cluster_by_name(cluster)

    def matrix(apps, cell_workload) -> ExperimentMatrix:
        return (
            ExperimentMatrix()
            .apps(*apps)
            .clusters(cluster_spec)
            .protocols(*protocol_list)
            .nodes(*node_counts)
            .workload(cell_workload)
        )

    if seed is None:
        matrices = [matrix(scenario_list, workload)]
    elif isinstance(workload, str):
        matrices = [
            matrix([name], scenario_workload(name, workload, seed=seed))
            for name in scenario_list
        ]
    else:
        raise ValueError(
            "seed overrides need a scale-name workload "
            "(per-scenario workloads carry their own seed)"
        )
    specs = [spec for m in matrices for spec in m.build()]
    result = (session or default_session()).run(specs)
    workload_name = (
        workload if isinstance(workload, str) else getattr(workload, "name", "custom")
    )
    return ScenarioGridData(
        cluster=cluster_spec.name,
        workload_name=str(workload_name),
        node_counts=list(node_counts),
        protocols=protocol_list,
        comparisons={c.app: c for c in protocol_comparisons(result)},
        cells=result.cells(),
    )


@dataclass
class TopologyGridData:
    """The cluster-shape comparison grid: apps x topology presets x protocols.

    Each cell is one simulated execution of *app* under *protocol* on the
    cluster a topology preset describes, at (up to) a common node count.
    Beside the execution time the grid records the topology-aware traffic
    split the runs produced: the inter- vs intra-cluster page-transfer
    counters and the re-home counts — the numbers that show a cluster's
    *shape* (not just its size) changing where a protocol's time goes.
    """

    workload_name: str
    num_nodes: int
    apps: list[str]
    topologies: list[str]
    protocols: list[str]
    #: topology preset name -> node count actually used (preset-capped)
    nodes_by_topology: dict[str, int] = field(default_factory=dict)
    #: (app, topology, protocol) -> report
    reports: dict[tuple[str, str, str], "object"] = field(default_factory=dict)
    #: every cell of the grid, as the harness-wide common record
    cells: list[CellResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    def report(self, app: str, topology: str, protocol: str):
        """The report of one grid cell."""
        return self.reports[(app, topology, protocol)]

    def inter_cluster_share(self, app: str, topology: str, protocol: str) -> float:
        """Inter-cluster page-transfer cost share of one cell (0..1)."""
        return self.report(app, topology, protocol).inter_cluster_cost_share

    def to_dict(self) -> dict:
        """JSON-friendly grid (recorded by the topology benchmarks)."""
        from repro.cluster.topologies import topology_preset_by_name

        topologies: dict[str, dict] = {}
        for name in self.topologies:
            preset = topology_preset_by_name(name)
            topology = preset.cluster().topology(self.nodes_by_topology[name])
            topologies[name] = {
                "description": preset.description,
                "kind": topology.kind,
                "num_nodes": self.nodes_by_topology[name],
                "islands": topology.num_islands,
            }
        cells: dict[str, dict] = {}
        for app in self.apps:
            cells[app] = {}
            for name in self.topologies:
                cells[app][name] = {}
                for protocol in self.protocols:
                    report = self.report(app, name, protocol)
                    cells[app][name][protocol] = {
                        "execution_seconds": report.execution_seconds,
                        "inter_cluster_cost_share": report.inter_cluster_cost_share,
                        "inter_cluster_page_fetches": report.inter_cluster_page_fetches,
                        "intra_cluster_page_fetches": report.intra_cluster_page_fetches,
                        "inter_cluster_bytes": report.inter_cluster_bytes,
                        "page_rehomes": report.page_rehomes,
                    }
        return {
            "workload": self.workload_name,
            "num_nodes": self.num_nodes,
            "apps": list(self.apps),
            "protocols": list(self.protocols),
            "topologies": topologies,
            "cells": cells,
        }


def generate_topology_grid(
    apps: Iterable[str] | None = None,
    topologies: Iterable[str] | None = None,
    protocols: Iterable[str] = TOPOLOGY_PROTOCOLS,
    num_nodes: int = 8,
    workload="bench",
    session: Session | None = None,
) -> TopologyGridData:
    """Run the apps x topology-presets x protocols grid.

    Every topology preset resolves to its registered cluster variant and
    runs at ``min(num_nodes, preset size)`` nodes, so the single-switch
    baselines and the hierarchical shapes are compared at a common scale.
    All cells are batched into one ``Session.run`` (``--jobs`` and
    ``--cache-dir`` apply to the whole grid).
    """
    from repro.cluster.topologies import available_topology_presets, topology_preset_by_name

    app_list = list(apps) if apps is not None else list(DEFAULT_TOPOLOGY_APPS)
    topology_list = (
        list(topologies) if topologies is not None else available_topology_presets()
    )
    protocol_list = list(protocols)
    clusters = [topology_preset_by_name(name).cluster() for name in topology_list]
    nodes = {cluster.name: [min(num_nodes, cluster.num_nodes)] for cluster in clusters}
    matrix = (
        ExperimentMatrix()
        .apps(*app_list)
        .clusters(*clusters)
        .protocols(*protocol_list)
        .nodes_per_cluster(nodes)
        .workload(workload)
    )
    result = (session or default_session()).run(matrix.build())
    workload_name = (
        workload if isinstance(workload, str) else getattr(workload, "name", "custom")
    )
    grid = TopologyGridData(
        workload_name=str(workload_name),
        num_nodes=num_nodes,
        apps=app_list,
        topologies=topology_list,
        protocols=protocol_list,
        nodes_by_topology={
            name: nodes[cluster.name][0] for name, cluster in zip(topology_list, clusters)
        },
        cells=result.cells(),
    )
    topology_of = {cluster.name: name for name, cluster in zip(topology_list, clusters)}
    for spec, report in result.items():
        grid.reports[(spec.app, topology_of[spec.cluster_name], spec.protocol)] = report
    return grid


#: node counts of the scaling-law sweep: the paper-scale anchor (16, where
#: the partition equals ``myrinet2x8``'s) plus the scale-out points.
TOPOLOGY_SCALE_COUNTS: tuple[int, ...] = (16, 64, 256, 1024)
#: the two paper protocols — the pair every scale point is measured under
TOPOLOGY_SCALE_PROTOCOLS: tuple[str, ...] = ("java_ic", "java_pf")


@dataclass
class TopologyScaleData:
    """The scaling law of one app on a grid-of-islands preset.

    One row family per protocol, swept over node counts: how the fault
    count and the inter-island share of page-transfer cost grow as the
    cluster scales from paper size (16 nodes, 2 islands) to a thousand-node
    grid.  This is the figure ROADMAP item 1 asks for — island structure
    dominating transfer cost at scale.
    """

    app: str
    topology: str
    workload_name: str
    node_counts: list[int]
    protocols: list[str]
    #: node count -> islands in the preset's partition at that count
    islands_by_count: dict[int, int] = field(default_factory=dict)
    #: (num_nodes, protocol) -> report
    reports: dict[tuple[int, str], "object"] = field(default_factory=dict)
    #: every cell, as the harness-wide common record
    cells: list[CellResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    def report(self, num_nodes: int, protocol: str):
        """The report of one scale point."""
        return self.reports[(num_nodes, protocol)]

    def to_dict(self) -> dict:
        """JSON-friendly scaling series (recorded by the scale benchmark)."""
        series: dict[str, dict] = {}
        for protocol in self.protocols:
            series[protocol] = {}
            for count in self.node_counts:
                report = self.report(count, protocol)
                scalars = report.to_dict()
                series[protocol][str(count)] = {
                    "execution_seconds": scalars["execution_seconds"],
                    "page_faults": scalars["page_faults"],
                    "page_fetches": scalars["page_fetches"],
                    "mprotect_calls": scalars["mprotect_calls"],
                    "inter_cluster_cost_share": report.inter_cluster_cost_share,
                    "inter_cluster_page_fetches": report.inter_cluster_page_fetches,
                    "intra_cluster_page_fetches": report.intra_cluster_page_fetches,
                    "inter_cluster_bytes": report.inter_cluster_bytes,
                }
        return {
            "app": self.app,
            "topology": self.topology,
            "workload": self.workload_name,
            "node_counts": list(self.node_counts),
            "protocols": list(self.protocols),
            "islands": {str(c): self.islands_by_count[c] for c in self.node_counts},
            "series": series,
        }


def generate_topology_scale(
    app: str = "syn-false-sharing",
    topology: str = "myrinet_grid",
    protocols: Iterable[str] = TOPOLOGY_SCALE_PROTOCOLS,
    node_counts: Sequence[int] = TOPOLOGY_SCALE_COUNTS,
    workload="testing",
    session: Session | None = None,
) -> TopologyScaleData:
    """Sweep one app over node counts on a grid-of-islands preset.

    Defaults to the false-sharing scenario on ``myrinet_grid`` (8-node
    Myrinet islands over Fast Ethernet) at the ``testing`` scale, so the
    full 1024-node point stays CI-sized.  All cells batch into one
    ``Session.run``.  A node count above the preset's size raises, as in
    every grid, so a scale sweep never silently caps its x-axis.
    """
    from repro.cluster.topologies import topology_preset_by_name

    cluster = topology_preset_by_name(topology).cluster()
    protocol_list = list(protocols)
    matrix = (
        ExperimentMatrix()
        .apps(app)
        .clusters(cluster)
        .protocols(*protocol_list)
        .nodes(*node_counts)
        .workload(workload)
    )
    result = (session or default_session()).run(matrix.build())
    counts = list(node_counts)
    workload_name = (
        workload if isinstance(workload, str) else getattr(workload, "name", "custom")
    )
    data = TopologyScaleData(
        app=app,
        topology=topology,
        workload_name=str(workload_name),
        node_counts=counts,
        protocols=protocol_list,
        islands_by_count={
            count: cluster.topology_factory(count, cluster.network).num_islands
            for count in counts
        },
        cells=result.cells(),
    )
    for spec, report in result.items():
        data.reports[(spec.num_nodes, spec.protocol)] = report
    return data


def generate_all_figures(
    workload=None,
    clusters: Iterable[str] = ("myrinet", "sci"),
    node_counts: dict[str, Sequence[int]] | None = None,
    session: Session | None = None,
    protocols: Iterable[str] = PAPER_PROTOCOLS,
    numbers: Iterable[int] | None = None,
) -> dict[int, FigureData]:
    """Regenerate Figures 1-5, or the *numbers* among them, keyed by number.

    All the figures' cells are batched into a *single* ``Session.run``, so a
    parallel executor spreads the whole grid — not one figure at a time —
    across its workers.  ``protocols`` defaults to the paper's two series;
    pass :data:`PROTOCOL_FAMILY` to widen every figure with the composed
    extension protocols as additional columns.  ``node_counts`` maps a
    cluster name to its x-axis (default: the paper's, or the cluster's own
    :meth:`~repro.cluster.presets.ClusterSpec.node_counts`).
    """
    protocols = tuple(protocols)
    workload_name = workload if isinstance(workload, str) else getattr(workload, "name", "bench")
    numbers = sorted(set(FIGURE_APPS if numbers is None else numbers))
    for number in numbers:
        if number not in FIGURE_APPS:
            raise KeyError(
                f"unknown figure {number}; the paper has figures {sorted(FIGURE_APPS)}"
            )
    matrix = (
        ExperimentMatrix()
        .apps(*(FIGURE_APPS[number] for number in numbers))
        .clusters(*map(cluster_by_name, clusters))
        .protocols(*protocols)
        .nodes_per_cluster({**DEFAULT_NODE_COUNTS, **(node_counts or {})})
        .workload(workload)
    )
    result = (session or default_session()).run(matrix.build())
    figures = {
        number: FigureData(
            number=number, app=FIGURE_APPS[number], workload_name=str(workload_name)
        )
        for number in numbers
    }
    by_app = {data.app: data for data in figures.values()}
    for spec in result:
        by_app[spec.app].cells.append(result.cell(spec))
    for comparison in protocol_comparisons(result):
        data = by_app[comparison.app]
        data.comparisons[comparison.cluster] = comparison
        for protocol in protocols:
            data.series.append(
                FigureSeries(
                    cluster=comparison.cluster,
                    protocol=protocol,
                    points=comparison.series(protocol),
                )
            )
    return figures
