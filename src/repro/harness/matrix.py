"""Fluent builder for cartesian grids of :class:`ExperimentSpec`.

The paper's evaluation is a grid — {5 apps} x {2 clusters} x {2 protocols} x
{node counts} — and every sweep or scenario is another grid.  Instead of
hand-written nested loops, :class:`ExperimentMatrix` expands the cartesian
product of its axes into a spec list::

    matrix = (
        ExperimentMatrix()
        .apps("pi", "jacobi")
        .clusters("myrinet", "sci")
        .protocols("java_ic", "java_pf")
        .nodes_per_cluster({"myrinet": [1, 2, 4], "sci": [1, 2]})
        .workload("testing")
    )
    reports = Session().run(matrix)

Axes left unset fall back to sensible defaults (all protocols of the paper,
the cluster's own node counts, the bench workload).  ``filter`` predicates
prune the product, and node counts exceeding a cluster's size are dropped
automatically so a single grid can span clusters of different sizes.

:meth:`ExperimentMatrix.build` is the one check of a grid, shared by the
``grid`` verb and the sweep service: an unknown name or a node count that no
cluster can host raises :class:`ValueError` naming the field at fault.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from numbers import Integral

from repro.apps.base import available_apps
from repro.apps.workloads import PRESET_NAMES
from repro.cluster.presets import ClusterSpec, list_clusters
from repro.core.protocol import available_protocols
from repro.harness.spec import ExperimentSpec, resolve_cluster

#: the two protocols every figure of the paper compares
DEFAULT_PROTOCOLS = ("java_ic", "java_pf")


class ExperimentMatrix:
    """Cartesian grid of experiment cells, built fluently."""

    def __init__(self) -> None:
        self._apps: list[str] = []
        self._clusters: list[str | ClusterSpec] = []
        self._protocols: list[str] = list(DEFAULT_PROTOCOLS)
        self._nodes: list | None = None
        self._nodes_per_cluster: dict[str, list] = {}
        self._workload = None
        self._filters: list[Callable[[ExperimentSpec], bool]] = []
        self._verify = False

    # ------------------------------------------------------------------
    # axes
    # ------------------------------------------------------------------
    def apps(self, *names: str) -> "ExperimentMatrix":
        """Application axis (at least one app is required to build)."""
        self._apps = list(names)
        return self

    def clusters(self, *clusters: str | ClusterSpec) -> "ExperimentMatrix":
        """Cluster axis: preset names or :class:`ClusterSpec` objects."""
        self._clusters = list(clusters)
        return self

    def protocols(self, *names: str) -> "ExperimentMatrix":
        """Protocol axis (defaults to ``java_ic`` and ``java_pf``)."""
        self._protocols = list(names)
        return self

    def nodes(self, *counts: int) -> "ExperimentMatrix":
        """Node-count axis shared by all clusters."""
        self._nodes = list(counts)
        return self

    def nodes_per_cluster(
        self, mapping: dict[str, Sequence[int]]
    ) -> "ExperimentMatrix":
        """Per-cluster node counts (clusters absent from *mapping* use
        :meth:`nodes`, or their own :meth:`ClusterSpec.node_counts`)."""
        self._nodes_per_cluster = {k: list(v) for k, v in mapping.items()}
        return self

    def workload(self, workload) -> "ExperimentMatrix":
        """Workload for every cell (preset name, preset, or workload object)."""
        self._workload = workload
        return self

    def filter(self, predicate: Callable[[ExperimentSpec], bool]) -> "ExperimentMatrix":
        """Keep only cells for which *predicate* returns True (chainable)."""
        self._filters.append(predicate)
        return self

    def verify(self, flag: bool = True) -> "ExperimentMatrix":
        """Run each app's correctness check on its result."""
        self._verify = flag
        return self

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def _check(self) -> list[list[int]]:
        """Validate every axis; return the node counts each cluster hosts."""
        if not self._apps:
            raise ValueError("ExperimentMatrix needs at least one app; call .apps(...)")
        if not self._clusters:
            raise ValueError(
                "ExperimentMatrix needs at least one cluster; call .clusters(...)"
            )
        check_names("apps", "app", self._apps, available_apps())
        names = [c for c in self._clusters if not isinstance(c, ClusterSpec)]
        check_names("clusters", "cluster", names, list_clusters())
        check_names("protocols", "protocol", self._protocols, available_protocols())
        if isinstance(self._workload, str):
            check_names("workload", "workload preset", [self._workload], PRESET_NAMES)
        bad = [
            n for counts in (self._nodes or [], *self._nodes_per_cluster.values())
            for n in counts
            if isinstance(n, bool) or not isinstance(n, Integral) or n < 1
        ]
        if bad:
            raise ValueError(f"nodes must be positive integers, got {bad}")
        axes = []
        for cluster in self._clusters:
            spec = resolve_cluster(cluster)
            counts = self._nodes_per_cluster.get(spec.name, self._nodes)
            axes.append((spec, spec.node_counts() if counts is None else counts))
        for n in dict.fromkeys(n for _, counts in axes for n in counts):
            hosts = [spec for spec, counts in axes if n in counts]
            largest = max(hosts, key=lambda spec: spec.num_nodes)
            if n > largest.num_nodes:
                raise ValueError(
                    f"nodes {n}: cluster {largest.name!r} has {largest.num_nodes} nodes"
                )
        # a count only some clusters can host is dropped on the others
        return [[int(n) for n in counts if n <= spec.num_nodes] for spec, counts in axes]

    def build(self) -> list[ExperimentSpec]:
        """Validate and expand the grid into a spec list (apps x clusters x
        protocols x nodes, in that nesting order)."""
        hosted = self._check()
        specs: list[ExperimentSpec] = []
        for app in self._apps:
            for cluster, counts in zip(self._clusters, hosted, strict=True):
                for protocol in self._protocols:
                    for num_nodes in counts:
                        spec = ExperimentSpec(
                            app=app,
                            cluster=cluster,
                            protocol=protocol,
                            num_nodes=num_nodes,
                            workload=self._workload,
                            verify=self._verify,
                        )
                        if all(f(spec) for f in self._filters):
                            specs.append(spec)
        return specs

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self.build())

    def __len__(self) -> int:
        return len(self.build())


def check_names(field: str, noun: str, names: Iterable, known: Iterable[str]) -> None:
    """Reject the *names* the registry *known* lacks.

    The comparison is exact: a spec carries the name it was given into its
    label and cache key, so only the registry's own spelling is accepted.
    """
    known = list(known)
    unknown = [str(name) for name in names if name not in known]
    if unknown:
        raise ValueError(
            f"{field}: unknown {noun}(s) {', '.join(unknown)}; available: {', '.join(known)}"
        )
