"""Tests for the DSM page manager: home directory, fetches, protections."""

import pytest

from repro.cluster.costs import CostModel, SoftwareCosts
from repro.cluster.network import NetworkSpec
from repro.cluster.node import MachineSpec
from repro.cluster.topology import (
    CrossbarTopology,
    LinkPathTopology,
    MultiClusterTopology,
    RingTopology,
    SwitchedTreeTopology,
    TorusTopology,
)
from repro.core.context import RecordingContext
from repro.core.protocol import create_protocol
from repro.dsm.page import PageProtection
from repro.dsm.page_manager import PageManager
from repro.pm2.isoaddr import IsoAddressAllocator


@pytest.fixture
def manager():
    isoaddr = IsoAddressAllocator(num_nodes=3, arena_size=1024 * 1024, page_size=4096)
    network = NetworkSpec(name="n", latency_seconds=10e-6, bandwidth_bytes_per_second=100e6)
    cost_model = CostModel(
        machine=MachineSpec(name="m", frequency_hz=200e6),
        network=network,
        software=SoftwareCosts(),
    )
    return PageManager(3, 4096, isoaddr, cost_model, CrossbarTopology(3, network)), isoaddr


def _register(manager, isoaddr, node, pages=1):
    allocation = isoaddr.allocate_pages(node, pages)
    registered = manager.register_range(allocation.address, allocation.size)
    return registered


def test_register_assigns_home_and_presence(manager):
    pm, isoaddr = manager
    pages = _register(pm, isoaddr, node=1, pages=2)
    assert len(pages) == 2
    for page in pages:
        assert pm.home_node(page) == 1
        assert pm.is_present(1, page)
        assert not pm.is_present(0, page)


def test_unregistered_page_lookup_fails(manager):
    pm, _ = manager
    with pytest.raises(KeyError):
        pm.page_info(123456)


def test_fetch_marks_present_and_counts(manager):
    pm, isoaddr = manager
    pages = _register(pm, isoaddr, node=2, pages=3)
    latency = pm.fetch_pages(0, pages)
    assert latency > 0
    assert all(pm.is_present(0, p) for p in pages)
    assert pm.stats.page_fetches == 3
    assert pm.stats.bytes_transferred == 3 * 4096
    # already-present pages cost nothing
    assert pm.fetch_pages(0, pages) == 0.0
    assert pm.stats.page_fetches == 3


def test_fetch_skips_present_and_home_pages(manager):
    pm, isoaddr = manager
    pages = _register(pm, isoaddr, node=1, pages=2)
    pm.fetch_pages(0, pages[:1])
    assert pm.is_present(0, pages[0]) and not pm.is_present(0, pages[1])
    pm.fetch_pages(0, pages)
    assert pm.stats.page_fetches == 2  # only the second page moved
    assert pm.fetch_pages(1, pages) == 0.0  # home node always present
    assert pm.stats.page_fetches == 2
    with pytest.raises(KeyError):
        pm.fetch_pages(0, [123456])


def test_untouched_pages_are_absent_and_read_write(manager):
    pm, isoaddr = manager
    (page,) = _register(pm, isoaddr, node=0, pages=1)
    assert not pm.is_present(2, page)
    assert pm.protection(2, page) is PageProtection.READ_WRITE
    assert pm.protection(0, page) is PageProtection.READ_WRITE


def test_protect_remote_present_pages(manager):
    pm, isoaddr = manager
    pages = _register(pm, isoaddr, node=2, pages=4)
    pm.fetch_pages(0, pages)
    calls = pm.protect_remote_present_pages(0)
    assert calls == 4
    assert pm.stats.mprotect_calls == 4
    # pages are gone from node 0's working set and protected
    for page in pages:
        assert not pm.is_present(0, page)
        assert pm.protection(0, page) is PageProtection.NONE
    # home node is never touched; protected pages are not re-protected
    assert pm.protect_remote_present_pages(2) == 0
    assert pm.protect_remote_present_pages(0) == 0
    assert pm.stats.mprotect_calls == 4


def test_drop_remote_present_pages_does_not_mprotect(manager):
    pm, isoaddr = manager
    pages = _register(pm, isoaddr, node=2, pages=4)
    pm.fetch_pages(1, pages)
    dropped = pm.drop_remote_present_pages(1)
    assert dropped == 4
    assert pm.stats.mprotect_calls == 0
    assert not any(pm.is_present(1, page) for page in pages)
    assert all(pm.protection(1, page) is PageProtection.READ_WRITE for page in pages)


def test_fault_in_reopens_pages_and_counts_faults(manager):
    """The page-fault strategy's miss path: fault, fetch, re-open."""
    pm, isoaddr = manager
    protocol = create_protocol("java_pf", pm, pm.cost_model)
    pages = _register(pm, isoaddr, node=1, pages=2)
    ctx = RecordingContext(0)
    assert protocol.detect_access(ctx, 0, pages, 1, False) == 2
    assert pm.stats.page_faults == 2 and pm.stats.faults_by_node == {0: 2}
    assert pm.stats.mprotect_calls == 2  # one re-opening per faulting page
    assert all(pm.protection(0, page) is PageProtection.READ_WRITE for page in pages)
    protocol.on_monitor_enter(ctx, 0)
    assert pm.stats.mprotect_calls == 4
    assert all(pm.protection(0, page) is PageProtection.NONE for page in pages)
    assert protocol.detect_access(ctx, 0, pages[:1], 1, True) == 1
    assert pm.protection(0, pages[0]) is PageProtection.READ_WRITE
    assert pm.protection(0, pages[1]) is PageProtection.NONE
    assert (pm.stats.page_faults, pm.stats.mprotect_calls) == (3, 5)


def test_replica_count_and_resident_pages(manager):
    pm, isoaddr = manager
    (page,) = _register(pm, isoaddr, node=0, pages=1)
    assert pm.replica_count(page) == 1
    pm.fetch_pages(1, [page])
    pm.fetch_pages(2, [page])
    assert pm.replica_count(page) == 3
    assert pm.resident_remote_pages(1) == 1
    assert pm.resident_remote_pages(0) == 0


def test_fetch_groups_by_home_node(manager):
    pm, isoaddr = manager
    pages_a = _register(pm, isoaddr, node=1, pages=1)
    pages_b = _register(pm, isoaddr, node=2, pages=1)
    latency = pm.fetch_pages(0, pages_a + pages_b)
    # two groups -> two round trips, strictly more than one group's latency
    single = pm.cost_model.software.rpc_service_seconds
    assert latency > 2 * single
    assert pm.stats.fetches_by_node[0] == 2


class UnclassifiedTree(SwitchedTreeTopology):
    """Link paths without a price class: every price is computed afresh."""

    def path_class(self, src, dst):
        return LinkPathTopology.path_class(self, src, dst)


@pytest.mark.parametrize(
    "make_topology",
    [
        CrossbarTopology,
        RingTopology,  # unidirectional: the two directions differ in hops
        TorusTopology,
        lambda n, net: MultiClusterTopology(n, net, island_size=2),
        lambda n, net: SwitchedTreeTopology(n, net, leaf_size=4),
        lambda n, net: UnclassifiedTree(n, net, leaf_size=4),
    ],
)
def test_every_fetch_group_costs_exactly_the_topologys_round_trip(make_topology):
    """The per-group price table returns the uncached expression's float."""
    network = NetworkSpec(name="n", latency_seconds=10e-6, bandwidth_bytes_per_second=100e6)
    nodes = 6
    topology = make_topology(nodes, network)
    isoaddr = IsoAddressAllocator(num_nodes=nodes, arena_size=1024 * 1024, page_size=4096)
    cost_model = CostModel(
        machine=MachineSpec(name="m", frequency_hz=200e6), network=network,
        software=SoftwareCosts(),
    )
    pm = PageManager(nodes, 4096, isoaddr, cost_model, topology)
    rpc = cost_model.software.rpc_service_seconds
    for home in range(nodes):
        for node in range(nodes):
            if node == home:
                continue
            for size in (1, 3, 2, 1):
                pages = _register(pm, isoaddr, node=home, pages=size)
                expected = topology.round_trip_time(
                    node, home, PageManager.REQUEST_BYTES, size * 4096
                ) + rpc
                assert pm.fetch_pages(node, pages) == expected
