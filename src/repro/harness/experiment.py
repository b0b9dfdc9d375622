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
points.  :func:`protocol_comparisons` groups the reports of one run of an
:class:`~repro.harness.matrix.ExperimentMatrix` into comparisons, which is
how the figure pipeline batches many of them into one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.harness.session import SessionResult
from repro.hyperion.runtime import ExecutionReport

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


def protocol_comparisons(result: SessionResult) -> list[ProtocolComparison]:
    """One :class:`ProtocolComparison` per (app, cluster) of *result*, in run order."""
    comparisons: dict[tuple[str, str], ProtocolComparison] = {}
    for spec, report in result.items():
        key = (spec.app, spec.cluster_name)
        if key not in comparisons:
            comparisons[key] = ProtocolComparison(
                app=spec.app,
                cluster=spec.cluster_name,
                workload_name=spec.workload_name,
                node_counts=[],
                protocols=[],
            )
        comparison = comparisons[key]
        if spec.protocol not in comparison.protocols:
            comparison.protocols.append(spec.protocol)
        if spec.num_nodes not in comparison.node_counts:
            comparison.node_counts.append(spec.num_nodes)
        comparison.reports[(spec.protocol, spec.num_nodes)] = report
    return list(comparisons.values())
