"""Scale-out behaviour of the page manager: lazy tables, the single
presence set, and bounded per-node stats.

These pin the thousand-node fixes:

* ``PageManager.tables`` materialises per-node tables on first touch — a
  1024-node manager holds tables only for the nodes the run touched;
* every node's presence set, its tracked protections, ``replica_count``
  and the DSM counters agree with a dict-of-sets reference model after any
  interleaving of accesses (through the real detection strategies, so
  fetches and fault-ins), invalidations (drop, re-protect, the hybrid's
  split) and home moves (hypothesis drives the interleaving);
* per-node stat dicts stay exact below ``NODE_STAT_CAP`` and bucket by
  island above it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.costs import CostModel, SoftwareCosts
from repro.cluster.network import NetworkSpec
from repro.cluster.node import MachineSpec
from repro.cluster.topology import CrossbarTopology, MultiClusterTopology
from repro.core.context import RecordingContext
from repro.core.detection import HybridDetection
from repro.core.protocol import create_protocol
from repro.dsm.page import PageProtection
from repro.dsm.page_manager import PageManager
from repro.pm2.isoaddr import IsoAddressAllocator

NETWORK = NetworkSpec(
    name="n", latency_seconds=10e-6, bandwidth_bytes_per_second=100e6
)


def make_manager(num_nodes: int, topology=None):
    isoaddr = IsoAddressAllocator(
        num_nodes=num_nodes, arena_size=1024 * 1024, page_size=4096
    )
    cost_model = CostModel(
        machine=MachineSpec(name="m", frequency_hz=200e6),
        network=NETWORK,
        software=SoftwareCosts(),
    )
    if topology is None:
        topology = CrossbarTopology(num_nodes, NETWORK)
    return PageManager(num_nodes, 4096, isoaddr, cost_model, topology), isoaddr


def register(pm, isoaddr, node: int, pages: int = 1) -> list[int]:
    allocation = isoaddr.allocate_pages(node, pages)
    return pm.register_range(allocation.address, allocation.size)


class DsmModel:
    """Reference model of the page tables: presence as a dict of sets.

    It replays each operation's specified effect the plain way — presence
    per node as a set, protection per node as a dict of the pages a
    fault-based miss or invalidation touched, counters as a dict — for
    :func:`assert_matches_model` to hold the page manager against.
    """

    def __init__(self, pm):
        self.home = dict(pm._home_by_page)
        self.present: dict[int, set[int]] = {}
        for page, home in self.home.items():
            self.present.setdefault(home, set()).add(page)
        self.protection: dict[int, dict[int, PageProtection]] = {}
        self.density: dict[tuple[int, int], int] = {}
        self.counters = dict.fromkeys(
            ("page_fetches", "page_faults", "mprotect_calls", "page_rehomes"), 0
        )

    def access(self, mode: str, node: int, pages, count: int) -> None:
        held = self.present.setdefault(node, set())
        missing = [p for p in pages if self.home[p] != node and p not in held]
        if mode == "java_pf":
            faulting = missing
        elif mode == "java_hybrid":
            threshold = HybridDetection.DENSITY_THRESHOLD
            faulting = [p for p in missing if self.density.get((node, p), 0) >= threshold]
        else:
            faulting = []
        held.update(missing)
        self.counters["page_fetches"] += len(missing)
        self.counters["page_faults"] += len(faulting)
        self.counters["mprotect_calls"] += len(faulting)
        for page in faulting:
            self.protection.setdefault(node, {})[page] = PageProtection.READ_WRITE
        for page in pages:
            self.density[node, page] = self.density.get((node, page), 0) + count

    def invalidate(self, mode: str, node: int) -> None:
        held = self.present.setdefault(node, set())
        remote = {p for p in held if self.home[p] != node}
        held -= remote
        if mode == "java_pf":
            protect = remote
        elif mode == "java_hybrid":
            threshold = HybridDetection.DENSITY_THRESHOLD
            protect = {p for p in remote if self.density.get((node, p), 0) >= threshold}
        else:
            protect = set()
        self.counters["mprotect_calls"] += len(protect)
        for page in protect:
            self.protection.setdefault(node, {})[page] = PageProtection.NONE

    def rehome(self, page: int, node: int) -> None:
        if self.home[page] == node:
            return
        self.home[page] = node
        self.present.setdefault(node, set()).add(page)
        if page in self.protection.get(node, {}):
            self.protection[node][page] = PageProtection.READ_WRITE
        self.counters["page_rehomes"] += 1

    def replicas(self, page: int) -> int:
        return sum(1 for held in self.present.values() if page in held)


def assert_matches_model(pm, model: DsmModel) -> None:
    """Presence, protections, replica counts and counters equal the model's."""
    tables = pm.tables.materialised()
    assert {t.node_id: t._present for t in tables if t._present} == {
        node: held for node, held in model.present.items() if held
    }
    assert {t.node_id: t._protection for t in tables if t._protection} == {
        node: tracked for node, tracked in model.protection.items() if tracked
    }
    assert pm._home_by_page == model.home
    for page in model.home:
        assert pm.replica_count(page) == model.replicas(page)
        assert pm.replica_count_reference(page) == model.replicas(page)
    stats = pm.stats
    assert {name: getattr(stats, name) for name in model.counters} == model.counters
    assert stats.page_fetches == stats.intra_island_page_fetches + stats.inter_island_page_fetches
    # the premise of the bulk mprotect counts: present replicas are open
    for table in tables:
        for page in table._present:
            assert pm.protection(table.node_id, page) is PageProtection.READ_WRITE


# ---------------------------------------------------------------------------
# lazy tables
# ---------------------------------------------------------------------------
def test_tables_materialise_on_first_touch():
    pm, isoaddr = make_manager(1024)
    assert len(pm.tables) == 0
    pages = register(pm, isoaddr, node=7, pages=2)
    assert sorted(pm.tables) == [7]  # only the home node's table exists
    pm.fetch_pages(3, pages)
    assert sorted(pm.tables) == [3, 7]
    assert pm.tables[3].node_id == 3
    # untouched nodes still answer queries without materialising state
    assert not pm.is_present(900, pages[0])


def test_out_of_range_nodes_raise_like_the_eager_list_did():
    pm, _ = make_manager(4)
    with pytest.raises(IndexError):
        pm.tables[4]
    with pytest.raises(IndexError):
        pm.tables[-5]


def test_thousand_node_manager_stays_small():
    """The whole point: state scales with touched nodes, not num_nodes."""
    pm, isoaddr = make_manager(1024)
    pages = register(pm, isoaddr, node=0, pages=8)
    for node in range(1, 9):
        pm.fetch_pages(node, pages)
    assert len(pm.tables) == 9
    assert pm.replica_count(pages[0]) == 9


# ---------------------------------------------------------------------------
# the presence set vs the dict-of-sets model
# ---------------------------------------------------------------------------
def test_replica_count_counts_home_exactly_once():
    pm, isoaddr = make_manager(6)
    (page,) = register(pm, isoaddr, node=2)
    assert pm.replica_count(page) == 1  # the home's reference copy
    pm.fetch_pages(0, [page])
    pm.fetch_pages(4, [page])
    assert pm.replica_count(page) == 3
    assert pm.replica_count(page) == pm.replica_count_reference(page)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("java_ic", "java_pf", "java_hybrid")),
    st.lists(
        st.tuples(
            st.sampled_from(("access", "invalidate", "rehome")),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=3),
            st.sampled_from((1, 300)),
        ),
        max_size=24,
    ),
)
def test_page_tables_match_the_model_under_interleaving(mode, ops):
    """Accesses, invalidations and home moves, as one protocol runs them.

    Accesses go through the protocol's own ``detect_access`` (fetches, and
    fault-ins with their bulk fault and ``mprotect`` counts), invalidations
    through its ``on_monitor_enter`` (drop, re-protect or the hybrid's
    split); 300-access bursts push pages past the hybrid's promotion
    threshold.  An access touches one page or a page and its neighbour.
    """
    pm, isoaddr = make_manager(6)
    pages = register(pm, isoaddr, node=0, pages=2)
    pages += register(pm, isoaddr, node=3, pages=2)
    protocol = create_protocol(mode, pm, pm.cost_model)
    model = DsmModel(pm)
    ctx = RecordingContext(0)
    for action, node, index, count in ops:
        if action == "access":
            touched = pages[index : index + 2]
            protocol.detect_access(ctx, node, touched, count, False)
            model.access(mode, node, touched, count)
        elif action == "invalidate":
            protocol.on_monitor_enter(ctx, node)
            model.invalidate(mode, node)
        else:
            pm.rehome_page(pages[index], node)
            model.rehome(pages[index], node)
    assert_matches_model(pm, model)


# ---------------------------------------------------------------------------
# the bulk invalidation paths
# ---------------------------------------------------------------------------
def test_bulk_invalidations_clear_exactly_the_remote_replicas():
    pm, isoaddr = make_manager(6)
    pages = register(pm, isoaddr, node=0, pages=4)
    for node in (1, 2, 3):
        pm.fetch_pages(node, pages)
    model = DsmModel(pm)
    for node in (1, 2, 3):
        model.access("java_ic", node, pages, 1)
    assert_matches_model(pm, model)

    assert pm.protect_remote_present_pages(1) == 4
    model.invalidate("java_pf", 1)
    assert_matches_model(pm, model)
    assert pm.replica_count(pages[0]) == 3  # home + nodes 2, 3

    assert pm.drop_remote_present_pages(2) == 4
    model.invalidate("java_ic", 2)
    assert_matches_model(pm, model)
    assert pm.replica_count(pages[0]) == 2

    calls, dropped = pm.invalidate_remote_present_pages(3, set(pages[:1]))
    assert (calls, dropped) == (1, 3)
    model.present[3] -= set(pages)
    model.protection[3] = {pages[0]: PageProtection.NONE}
    model.counters["mprotect_calls"] += 1
    assert_matches_model(pm, model)
    for page in pages:
        assert pm.replica_count(page) == 1  # only the home remains
    # nothing left to drop or protect: no further mprotect
    assert pm.protect_remote_present_pages(3) == 0
    assert pm.invalidate_remote_present_pages(3, set(pages)) == (0, 0)
    assert_matches_model(pm, model)


# ---------------------------------------------------------------------------
# bounded per-node stats
# ---------------------------------------------------------------------------
def test_stat_node_is_identity_at_paper_scale():
    pm, isoaddr = make_manager(16)
    pages = register(pm, isoaddr, node=0)
    pm.fetch_pages(9, pages)
    create_protocol("java_pf", pm, pm.cost_model).detect_access(
        RecordingContext(11), 11, pages, 1, False
    )
    assert pm.stat_node(9) == 9
    assert pm.stats.fetches_by_node == {9: 1, 11: 1}
    assert pm.stats.faults_by_node == {11: 1}


def test_stat_node_is_identity_exactly_at_the_cap():
    pm, _ = make_manager(PageManager.NODE_STAT_CAP)
    assert pm.stat_node(PageManager.NODE_STAT_CAP - 1) == PageManager.NODE_STAT_CAP - 1


def test_stat_node_buckets_by_island_above_the_cap():
    topology = MultiClusterTopology(1024, NETWORK, island_size=8)
    pm, isoaddr = make_manager(1024, topology)
    pages = register(pm, isoaddr, node=0)
    pm.fetch_pages(9, pages)  # island 1
    pm.fetch_pages(17, pages)  # island 2
    create_protocol("java_pf", pm, pm.cost_model).detect_access(
        RecordingContext(1023), 1023, pages, 1, False
    )  # island 127
    assert pm.stat_node(9) == 1
    assert pm.stats.fetches_by_node == {1: 1, 2: 1, 127: 1}
    assert pm.stats.faults_by_node == {127: 1}
    # scalar totals are untouched by the bucketing
    assert pm.stats.page_fetches == 3
    assert pm.stats.page_faults == 1
