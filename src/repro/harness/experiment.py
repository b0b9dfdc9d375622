"""Run individual experiment cells and protocol comparisons.

An *experiment cell* is one simulated execution: an application, on a cluster
preset, with a consistency protocol, on a given number of nodes, at a given
workload.  A *protocol comparison* runs the same application/cluster/node
grid under several protocols and derives the quantity the paper reports: the
relative improvement of ``java_pf`` over ``java_ic``.

Cells are described by :class:`~repro.harness.spec.ExperimentSpec` and
executed through a :class:`~repro.harness.session.Session` —
:meth:`~repro.harness.session.Session.cell` and
:meth:`~repro.harness.session.Session.comparison` are the public entry
points.  :func:`comparison_specs` and :func:`fill_comparison` are the
building blocks the figure pipeline batches many comparisons with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from repro.cluster.presets import ClusterSpec
from repro.harness.session import SessionResult
from repro.harness.spec import ExperimentSpec, resolve_cluster
from repro.hyperion.runtime import ExecutionReport, RuntimeConfig

@dataclass
class ProtocolComparison:
    """All protocol runs of one application on one cluster."""

    app: str
    cluster: str
    workload_name: str
    node_counts: list[int]
    protocols: list[str]
    reports: dict[tuple[str, int], ExecutionReport] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def report(self, protocol: str, num_nodes: int) -> ExecutionReport:
        """The report of one (protocol, node-count) cell."""
        return self.reports[(protocol, num_nodes)]

    def series(self, protocol: str) -> list[tuple[int, float]]:
        """Execution-time series (nodes, seconds) for *protocol*."""
        return [
            (n, self.reports[(protocol, n)].execution_seconds) for n in self.node_counts
        ]

    def improvement_percent(self, num_nodes: int, baseline: str = "java_ic", candidate: str = "java_pf") -> float:
        """Relative improvement of *candidate* over *baseline* at *num_nodes*."""
        base = self.reports[(baseline, num_nodes)].execution_seconds
        cand = self.reports[(candidate, num_nodes)].execution_seconds
        if base <= 0:
            return 0.0
        return 100.0 * (base - cand) / base

    def improvements(self, baseline: str = "java_ic", candidate: str = "java_pf") -> dict[int, float]:
        """Improvement per node count."""
        return {
            n: self.improvement_percent(n, baseline, candidate) for n in self.node_counts
        }

    def mean_improvement(self, baseline: str = "java_ic", candidate: str = "java_pf") -> float:
        """Average improvement across node counts (the paper's SCI summary)."""
        values = list(self.improvements(baseline, candidate).values())
        return sum(values) / len(values) if values else 0.0


def comparison_specs(
    app_name: str,
    cluster: str | ClusterSpec,
    node_counts: Sequence[int] | None = None,
    workload=None,
    protocols: Iterable[str] = ("java_ic", "java_pf"),
    config: RuntimeConfig | None = None,
    verify: bool = False,
) -> tuple[ProtocolComparison, list[ExperimentSpec]]:
    """Empty :class:`ProtocolComparison` plus the specs that will fill it.

    Splitting spec construction from execution lets callers batch the specs
    of *many* comparisons into one ``Session.run`` (the all-figures path does
    exactly that to parallelise across figures, not just within one).
    """
    spec = resolve_cluster(cluster)
    counts = list(node_counts) if node_counts is not None else spec.node_counts()
    protocol_list = list(protocols)
    workload_name = workload if isinstance(workload, str) else getattr(workload, "name", "custom")
    comparison = ProtocolComparison(
        app=app_name,
        cluster=spec.name,
        workload_name=str(workload_name),
        node_counts=counts,
        protocols=protocol_list,
    )
    specs = [
        ExperimentSpec(
            app=app_name,
            cluster=spec,
            protocol=protocol,
            num_nodes=n,
            workload=workload,
            config=config,
            verify=verify,
        )
        for protocol in protocol_list
        for n in counts
    ]
    return comparison, specs


def fill_comparison(
    comparison: ProtocolComparison,
    specs: Sequence[ExperimentSpec],
    result: SessionResult,
) -> ProtocolComparison:
    """Populate *comparison* with the reports *result* holds for *specs*."""
    for spec in specs:
        comparison.reports[(spec.protocol, spec.num_nodes)] = result[spec]
    return comparison
