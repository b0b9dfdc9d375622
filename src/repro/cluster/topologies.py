"""Named topology presets: cluster shapes beyond the paper's two switches.

The paper evaluates two single-switch platforms.  This module grows the
*shape* axis: each preset here is a full :class:`~repro.cluster.presets.ClusterSpec`
whose ``topology_factory`` builds one of the non-uniform topologies of
:mod:`repro.cluster.topology` over the paper platforms' machine and software
constants:

``myrinet2x8``
    Two 8-node Myrinet islands (the paper's Pentium Pro nodes) whose
    switches are joined by a Fast Ethernet backbone — the commodity
    "cluster of clusters" of the era.
``myrinet_grid``
    The scale-out of ``myrinet2x8``: up to 1024 Myrinet nodes as 8-node
    islands over the same Fast Ethernet backbone (at 16 nodes the partition
    is exactly ``myrinet2x8``'s).
``myrinet_tree``
    Sixteen Myrinet nodes under four leaf switches and a root switch; the
    inter-switch links are Myrinet with doubled wire latency (one extra
    switch traversal each way).
``sci_torus``
    The six SCI nodes cabled as a 2x3 bidirectional torus (SCI's native
    multi-dimensional topology) instead of the idealised crossbar.
``sci_ring``
    The six SCI nodes on the unidirectional ring SCI is physically cabled
    as.

Every preset is also registered as an ordinary cluster preset, so
``cluster_by_name("myrinet2x8")``, ``--cluster myrinet2x8`` and the result
cache all work unchanged; :func:`topology_preset_by_name` and the
``hyperion-sim describe topologies`` listing are the topology-centric views.  The
baseline single-switch presets (``myrinet``, ``sci``) are listed too so
sweeps can compare a shape against its flat reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Callable

from repro.cluster.network import NetworkSpec
from repro.cluster.presets import (
    ClusterSpec,
    myrinet_cluster,
    register_cluster,
    sci_cluster,
)
from repro.cluster.topology import (
    MultiClusterTopology,
    RingTopology,
    SwitchedTreeTopology,
    TorusTopology,
    Topology,
)

#: Era-appropriate TCP-over-Fast-Ethernet backbone: ~70 us one-way latency
#: through the IP stack and ~11 MB/s sustained of the nominal 12.5 MB/s.
FAST_ETHERNET = NetworkSpec(
    name="TCP/FastEthernet",
    latency_seconds=70e-6,
    bandwidth_bytes_per_second=11e6,
    send_overhead_seconds=10e-6,
    recv_overhead_seconds=10e-6,
)


# ---------------------------------------------------------------------------
# topology factories (module-level, so ClusterSpec stays picklable and the
# spec cache key — the factory's qualified name — stays stable)
# ---------------------------------------------------------------------------
def myrinet2x8_topology(num_nodes: int, network: NetworkSpec) -> Topology:
    """Two Myrinet islands over a Fast Ethernet backbone.

    The run's nodes are split evenly across the two islands (8 + 8 at the
    full 16), so the backbone is exercised at every run size >= 2 — the
    scheduler hands a job equal shares of both sub-clusters.
    """
    return MultiClusterTopology(
        num_nodes, network, num_islands=2, backbone=FAST_ETHERNET
    )


def myrinet_grid_topology(num_nodes: int, network: NetworkSpec) -> Topology:
    """A grid of 8-node Myrinet islands over a Fast Ethernet backbone.

    The thousand-node scale-out of ``myrinet2x8``: the physical island
    capacity is pinned at 8 nodes (``island_size``, not ``num_islands``), so
    the island count grows with the run — 2 islands at 16 nodes (exactly the
    ``myrinet2x8`` partition), 128 at the full 1024.
    """
    return MultiClusterTopology(
        num_nodes, network, island_size=8, backbone=FAST_ETHERNET
    )


def myrinet_tree_topology(num_nodes: int, network: NetworkSpec) -> Topology:
    """Four-node leaf switches under a root switch of doubled wire latency."""
    inter = replace(
        network,
        name=f"{network.name}/inter-switch",
        latency_seconds=network.latency_seconds * 2.0,
    )
    return SwitchedTreeTopology(num_nodes, network, leaf_size=4, inter_link=inter)


def sci_torus_topology(num_nodes: int, network: NetworkSpec) -> Topology:
    """Bidirectional torus on the most square grid for the node count."""
    return TorusTopology(num_nodes, network)


def sci_ring_topology(num_nodes: int, network: NetworkSpec) -> Topology:
    """Unidirectional SCI ring with hardware-forwarded intermediate hops."""
    return RingTopology(num_nodes, network)


# ---------------------------------------------------------------------------
# preset cluster factories
# ---------------------------------------------------------------------------
def myrinet2x8_cluster() -> ClusterSpec:
    """Sixteen Myrinet nodes as two 8-node islands over Fast Ethernet."""
    return replace(
        myrinet_cluster(),
        name="myrinet2x8",
        num_nodes=16,
        topology_factory=myrinet2x8_topology,
    )


def myrinet_grid_cluster() -> ClusterSpec:
    """1024 Myrinet nodes as 8-node islands over Fast Ethernet."""
    return replace(
        myrinet_cluster(),
        name="myrinet_grid",
        num_nodes=1024,
        topology_factory=myrinet_grid_topology,
    )


def myrinet_tree_cluster() -> ClusterSpec:
    """Sixteen Myrinet nodes under a two-tier switched tree."""
    return replace(
        myrinet_cluster(),
        name="myrinet_tree",
        num_nodes=16,
        topology_factory=myrinet_tree_topology,
    )


def sci_torus_cluster() -> ClusterSpec:
    """The six SCI nodes cabled as a 2x3 torus."""
    return replace(sci_cluster(), name="sci_torus", topology_factory=sci_torus_topology)


def sci_ring_cluster() -> ClusterSpec:
    """The six SCI nodes on a unidirectional ring."""
    return replace(sci_cluster(), name="sci_ring", topology_factory=sci_ring_topology)


# ---------------------------------------------------------------------------
# topology-preset registry (mirrors the protocol registry)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TopologyPreset:
    """One named cluster shape: a cluster factory plus its description."""

    name: str
    cluster_factory: Callable[[], ClusterSpec]
    description: str

    def cluster(self) -> ClusterSpec:
        """Build the preset's :class:`ClusterSpec`."""
        return self.cluster_factory()

    def topology(self) -> Topology:
        """Build the preset's topology at its full node count."""
        spec = self.cluster()
        return spec.topology_factory(spec.num_nodes, spec.network)


_PRESETS: dict[str, TopologyPreset] = {}


def register_topology_preset(
    preset: TopologyPreset, allow_override: bool = False, as_cluster: bool = True
) -> TopologyPreset:
    """Register *preset*; with ``as_cluster`` also as a cluster preset.

    Registering the name in the ordinary cluster registry is what makes
    ``--topology myrinet2x8`` and ``--cluster myrinet2x8`` interchangeable
    everywhere the harness resolves cluster names.
    """
    key = preset.name.lower()
    if key in _PRESETS and not allow_override:
        raise ValueError(f"topology preset {preset.name!r} is already registered")
    _PRESETS[key] = preset
    if as_cluster:
        register_cluster(key, preset.cluster_factory, allow_override=True)
    return preset


def unregister_topology_preset(name: str) -> bool:
    """Remove *name* from the preset registry; returns False if absent.

    The cluster-registry alias (if any) is left in place — cached results
    keyed through it stay resolvable.
    """
    return _PRESETS.pop(name.lower(), None) is not None


def topology_preset_by_name(name: str) -> TopologyPreset:
    """Look up a topology preset by name."""
    try:
        return _PRESETS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise KeyError(f"unknown topology preset {name!r}; available: {known}") from None


def available_topology_presets() -> list[str]:
    """Names of all registered topology presets, sorted."""
    return sorted(_PRESETS)


register_topology_preset(
    TopologyPreset(
        name="myrinet",
        cluster_factory=myrinet_cluster,
        description="single-switch crossbar baseline (the paper's Myrinet platform)",
    ),
    as_cluster=False,  # already a first-class cluster preset
)
register_topology_preset(
    TopologyPreset(
        name="sci",
        cluster_factory=sci_cluster,
        description="single-switch crossbar baseline (the paper's SCI platform)",
    ),
    as_cluster=False,
)
register_topology_preset(
    TopologyPreset(
        name="myrinet2x8",
        cluster_factory=myrinet2x8_cluster,
        description="two 8-node Myrinet islands joined by a Fast Ethernet backbone",
    )
)
register_topology_preset(
    TopologyPreset(
        name="myrinet_grid",
        cluster_factory=myrinet_grid_cluster,
        description="1024 Myrinet nodes as 8-node islands over Fast Ethernet",
    )
)
register_topology_preset(
    TopologyPreset(
        name="myrinet_tree",
        cluster_factory=myrinet_tree_cluster,
        description="16 Myrinet nodes under 4-node leaf switches and a root switch",
    )
)
register_topology_preset(
    TopologyPreset(
        name="sci_torus",
        cluster_factory=sci_torus_cluster,
        description="the 6 SCI nodes cabled as a 2x3 bidirectional torus",
    )
)
register_topology_preset(
    TopologyPreset(
        name="sci_ring",
        cluster_factory=sci_ring_cluster,
        description="the 6 SCI nodes on the unidirectional ring SCI is cabled as",
    )
)
