"""Page tables, the home-node directory, and page transfer mechanics.

The :class:`PageManager` implements the mechanisms the consistency protocols
share (paper Section 3.1):

* every page of the iso-address space has a **home node** — the node whose
  arena the page was allocated from — which holds the reference copy;
* any node may hold a **replica** of a page; at most one copy per node exists
  and it is shared by all threads of that node;
* replicas are obtained by a request/reply exchange with the home node,
  transferring the whole page (which is what produces the pre-fetching effect
  for other objects on the same page);
* for fault-based protocols each node additionally tracks a simulated
  ``mprotect`` protection state per page.

Costs are charged through the :class:`~repro.core.context.AccessContext`
passed in by the caller so the same mechanics serve both protocols.

Hot-path layout: the manager keeps a flat ``page -> home node`` dictionary
(``_home_by_page``) beside the :class:`~repro.dsm.page.PageInfo` directory,
and each :class:`NodePageTable` records its node's presence in one set, the
only record of which pages a node holds, so the per-access questions — "is
this page remote?" and "is it resident here?" — are single dict/set probes.
A fetch is one pass over its pages: it groups the missing ones by home,
prices each group from a table keyed by the topology's price class, splits
the traffic by island from one per-node tuple and marks each group present
with one set update.  Invalidation is one list of the node's remote pages
and one set difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from repro.cluster.costs import CostModel
from repro.cluster.topology import LinkPathTopology, Topology
from repro.dsm.page import PageInfo, PageProtection
from repro.pm2.isoaddr import IsoAddressAllocator
from repro.util.validation import check_non_negative

_READ_WRITE = PageProtection.READ_WRITE
_NONE = PageProtection.NONE


@dataclass(slots=True)
class DsmStats:
    """Aggregate DSM activity for one simulation run."""

    page_fetches: int = 0
    bytes_transferred: int = 0
    page_faults: int = 0
    mprotect_calls: int = 0
    inline_checks: int = 0
    accesses: int = 0
    remote_accesses: int = 0
    invalidations: int = 0
    update_messages: int = 0
    update_bytes: int = 0
    #: home re-assignments performed by migratory home policies.  Kept OUT of
    #: :meth:`as_dict` on purpose: the dictionary is the byte-identity /
    #: golden-cell contract shared by every protocol, and fixed-home runs
    #: must not grow a new key.  Exposed host-side through
    #: :attr:`repro.hyperion.runtime.ExecutionReport.page_rehomes`.
    page_rehomes: int = 0
    #: page-transfer traffic split by the topology's island partition
    #: (intra: requester and home share an island; inter: the transfer
    #: crossed an inter-cluster link).  Like ``page_rehomes`` these stay out
    #: of :meth:`as_dict` — single-switch topologies have one island and
    #: must not grow keys — and surface through the host-side
    #: ``ExecutionReport.inter_cluster_*`` properties.
    intra_island_page_fetches: int = 0
    inter_island_page_fetches: int = 0
    intra_island_fetch_seconds: float = 0.0
    inter_island_fetch_seconds: float = 0.0
    inter_island_bytes: int = 0
    #: per-node traffic attribution, also outside :meth:`as_dict` (host-side
    #: observability only).  Keys are whatever the owning manager's
    #: :meth:`PageManager.stat_node` yields: exact node ids up to
    #: ``NODE_STAT_CAP`` nodes (the historical representation, unchanged for
    #: every pre-existing sweep point), island indices above it so the dicts
    #: stay memory-bounded at thousand-node scale.
    fetches_by_node: dict[int, int] = field(default_factory=dict)
    faults_by_node: dict[int, int] = field(default_factory=dict)

    def record_fault(self, node: int, count: int) -> None:
        """Account *count* page faults taken on *node*."""
        self.page_faults += count
        by_node = self.faults_by_node
        by_node[node] = by_node.get(node, 0) + count

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary of the scalar counters (for reports and tests)."""
        return {
            "page_fetches": self.page_fetches,
            "bytes_transferred": self.bytes_transferred,
            "page_faults": self.page_faults,
            "mprotect_calls": self.mprotect_calls,
            "inline_checks": self.inline_checks,
            "accesses": self.accesses,
            "remote_accesses": self.remote_accesses,
            "invalidations": self.invalidations,
            "update_messages": self.update_messages,
            "update_bytes": self.update_bytes,
        }


class NodePageTable:
    """Per-node view of the page space: presence and protection.

    :attr:`_present` is the one record of which pages the node holds, its
    home pages included; the access paths, fetches, invalidations and
    :meth:`PageManager.replica_count` all read it.  :attr:`_protection`
    holds the simulated ``mprotect`` state of the pages a fault-based
    protocol has protected or re-opened; an untracked page is READ_WRITE,
    which is all ``java_ic`` ever needs.  A present page is always
    READ_WRITE: fault-based protocols re-protect a page only as they drop
    it, and re-open it as they fetch it back.
    """

    __slots__ = ("node_id", "_present", "_protection")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._present: set[int] = set()
        self._protection: dict[int, PageProtection] = {}


class NodePageTables(dict):
    """Lazy ``node id -> NodePageTable`` map backing :attr:`PageManager.tables`.

    A thousand-node run only ever touches the handful of nodes its threads
    and page homes live on, so tables materialise on first subscript instead
    of being built eagerly for every node.  Hits stay on the C-level dict
    fast path (``__missing__`` only runs for absent keys); out-of-range
    nodes raise ``IndexError`` like the eager list used to.
    """

    __slots__ = ("num_nodes",)

    def __init__(self, num_nodes: int):
        super().__init__()
        self.num_nodes = num_nodes

    def __missing__(self, node: int) -> NodePageTable:
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range for {self.num_nodes} node(s)")
        table = NodePageTable(node)
        self[node] = table
        return table

    def materialised(self) -> "list[NodePageTable]":
        """Every table touched so far, in node order (audits and dumps)."""
        return [self[node] for node in sorted(self)]


class PageManager:
    """Home directory plus per-node page tables and transfer accounting."""

    #: node count above which per-node stat dicts switch to island buckets.
    #: Every pre-existing sweep point (2–16 nodes) sits far below the cap, so
    #: their ``fetches_by_node``/``faults_by_node`` keep exact per-node keys
    #: byte-identically; thousand-node runs bucket by island instead of
    #: growing a dict entry per node.
    NODE_STAT_CAP = 64
    #: size of the page request message a fetch sends to the home node
    REQUEST_BYTES = 64

    def __init__(
        self,
        num_nodes: int,
        page_size: int,
        isoaddr: IsoAddressAllocator,
        cost_model: CostModel,
        topology: Topology,
    ):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        self.page_size = int(page_size)
        self.isoaddr = isoaddr
        self.cost_model = cost_model
        self.topology = topology
        self.stats = DsmStats()
        #: optional telemetry hook (duck-typed: ``observe_fetch(intra,
        #: latency, pages, nbytes)``, see
        #: :class:`repro.obs.ledger.DsmInstrument`); strictly out-of-band.
        self.telemetry = None
        self._pages: dict[int, PageInfo] = {}
        #: flat page -> home-node map; the access fast path reads this
        #: instead of chasing PageInfo attributes
        self._home_by_page: dict[int, int] = {}
        self.tables = NodePageTables(self.num_nodes)
        island_of = topology.island_of
        #: island of every node: the fetch's intra/inter split
        self._island_of_node: tuple[int, ...] = tuple(
            island_of(node) for node in range(self.num_nodes)
        )
        #: key of every node in the per-node stat dicts (see :meth:`stat_node`)
        self._stat_node: tuple[int, ...] = (
            self._island_of_node
            if self.num_nodes > self.NODE_STAT_CAP
            else tuple(range(self.num_nodes))
        )
        self._rpc_service = cost_model.software.rpc_service_seconds
        self._pair_class = self._price_class_of(topology)
        #: ``(pair price class, pages) -> group latency``: the exact float of
        #: ``round_trip_time(...) + rpc_service`` for one fetch group
        self._group_prices: dict[tuple, float] = {}

    @staticmethod
    def _price_class_of(topology: Topology) -> "Callable[[int, int], tuple | None] | None":
        """``(node, home) -> price class`` of a fetch round trip, or None.

        Two pairs of one class pay bit-identical round trips for the same
        payload, because the topology prices each direction by exactly the
        key it memoises on: the hop count under ``hop_uniform_pricing``, the
        :meth:`~repro.cluster.topology.LinkPathTopology.path_class` on link
        paths (where ``None`` means unclassifiable).  Other topologies get no
        class and every group is priced afresh.
        """
        if topology.hop_uniform_pricing:
            hops = topology.hops
            return lambda node, home: (hops(node, home), hops(home, node))
        if isinstance(topology, LinkPathTopology):
            path_class = topology.path_class

            def pair_class(node: int, home: int) -> "tuple | None":
                there, back = path_class(node, home), path_class(home, node)
                return None if there is None or back is None else (there, back)

            return pair_class
        return None

    def stat_node(self, node: int) -> int:
        """Key under which *node*'s per-node stats accumulate.

        Identity below :attr:`NODE_STAT_CAP` (the exact historical
        behaviour); the node's island index above it, bounding
        ``fetches_by_node``/``faults_by_node`` by the island count instead
        of the node count.
        """
        return self._stat_node[node]

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_range(self, address: int, size: int) -> list[int]:
        """Register the pages backing an allocation; returns their numbers.

        The home node of each page is derived from the iso-address arena the
        address falls into; the home node holds the page present and
        READ_WRITE (the reference copy).
        """
        check_non_negative("address", address)
        if size <= 0:
            raise ValueError(f"size must be > 0, got {size}")
        pages = list(self.isoaddr.pages_of_range(address, size))
        for page in pages:
            if page not in self._pages:
                home = self.isoaddr.home_node_of(page * self.page_size)
                self._pages[page] = PageInfo(
                    page_number=page, home_node=home, page_size=self.page_size
                )
                self._home_by_page[page] = home
                self.tables[home]._present.add(page)
        return pages

    def page_info(self, page: int) -> PageInfo:
        """Metadata of a registered page."""
        try:
            return self._pages[page]
        except KeyError:
            raise KeyError(f"page {page} has not been registered") from None

    def home_node(self, page: int) -> int:
        """Home node of *page*."""
        try:
            return self._home_by_page[page]
        except KeyError:
            raise KeyError(f"page {page} has not been registered") from None

    def pages_for_range(self, address: int, size: int) -> list[int]:
        """Page numbers spanned by [address, address+size)."""
        return list(self.isoaddr.pages_of_range(address, size))

    # ------------------------------------------------------------------
    # per-node state queries
    # ------------------------------------------------------------------
    def is_present(self, node: int, page: int) -> bool:
        """True if *node* holds a copy of *page* (home nodes always do)."""
        if page in self.tables[node]._present:
            return True
        return self.home_node(page) == node

    def protection(self, node: int, page: int) -> PageProtection:
        """Current protection of *page* on *node* (READ_WRITE if untracked)."""
        self.page_info(page)
        return self.tables[node]._protection.get(page, _READ_WRITE)

    # ------------------------------------------------------------------
    # mechanics used by the protocols
    # ------------------------------------------------------------------
    def fetch_pages(self, node: int, pages: Sequence[int]) -> float:
        """Bring *pages* to *node* from their home nodes; return the latency.

        Pages already present cost nothing.  Pages are grouped by home node
        (a one-page request is its own group); each group costs one
        request/reply round trip carrying the group's pages (DSM-PM2
        batches contiguous pages of one request).  The caller charges the
        returned latency to the faulting/checking thread.
        """
        present = self.tables[node]._present
        home_map = self._home_by_page
        try:
            if len(pages) == 1:  # most fetches: one page, no grouping
                page = pages[0]
                home = node if page in present else home_map[page]
                groups = () if home == node else ((home, pages),)
            else:
                by_home: dict[int, list[int]] = {}
                for page in pages:
                    if page not in present:
                        home = home_map[page]
                        if home != node:
                            group = by_home.get(home)
                            if group is None:
                                by_home[home] = [page]
                            else:
                                group.append(page)
                groups = by_home.items()
        except KeyError:
            raise KeyError(f"page {page} has not been registered") from None
        if not groups:
            return 0.0
        stats = self.stats
        telemetry = self.telemetry
        page_size = self.page_size
        islands = self._island_of_node
        node_island = islands[node]
        pair_class = self._pair_class
        prices = self._group_prices
        latency = 0.0
        fetched = 0
        for home, group in groups:
            count = len(group)
            payload = count * page_size
            key = None if pair_class is None else pair_class(node, home)
            if key is None:
                group_latency = self._price_group(node, home, payload)
            else:
                key = (key, count)
                group_latency = prices.get(key)
                if group_latency is None:
                    group_latency = prices[key] = self._price_group(node, home, payload)
            latency += group_latency
            fetched += count
            intra = islands[home] == node_island
            if intra:
                stats.intra_island_page_fetches += count
                stats.intra_island_fetch_seconds += group_latency
            else:
                stats.inter_island_page_fetches += count
                stats.inter_island_fetch_seconds += group_latency
                stats.inter_island_bytes += payload
            if telemetry is not None:
                telemetry.observe_fetch(intra, group_latency, count, payload)
            present.update(group)
        stats.page_fetches += fetched
        stats.bytes_transferred += fetched * page_size
        by_node = stats.fetches_by_node
        stat_key = self._stat_node[node]
        by_node[stat_key] = by_node.get(stat_key, 0) + fetched
        return latency

    def _price_group(self, node: int, home: int, payload: int) -> float:
        """Latency of one fetch group: the round trip plus the home's service."""
        return (
            self.topology.round_trip_time(node, home, self.REQUEST_BYTES, payload)
            + self._rpc_service
        )

    def _remote_present(self, node: int) -> "tuple[NodePageTable, list[int]]":
        """*node*'s table and the non-home pages it holds."""
        table = self.tables[node]
        home_map = self._home_by_page
        return table, [page for page in table._present if home_map[page] != node]

    def protect_remote_present_pages(self, node: int) -> int:
        """``mprotect`` every replicated non-home page on *node* to NONE.

        Used by ``java_pf`` on monitor entry so that the next access to any
        remote object faults and re-validates the page.  Every present page
        is READ_WRITE, so each dropped replica costs one ``mprotect`` call;
        returns their number.
        """
        table, remote = self._remote_present(node)
        if remote:
            table._present.difference_update(remote)
            table._protection.update(dict.fromkeys(remote, _NONE))
            self.stats.mprotect_calls += len(remote)
        return len(remote)

    def drop_remote_present_pages(self, node: int) -> int:
        """Forget every replicated non-home page on *node* (``java_ic``).

        No ``mprotect`` is involved — the in-line check protocol keeps all
        memory READ_WRITE forever and simply clears its presence table.
        Returns the number of pages dropped.
        """
        table, remote = self._remote_present(node)
        if remote:
            table._present.difference_update(remote)
        return len(remote)

    def invalidate_remote_present_pages(
        self, node: int, protect_pages: "set[int]"
    ) -> "tuple[int, int]":
        """Drop or re-protect every replicated non-home page on *node*.

        The hybrid detection strategy's invalidation: pages in
        *protect_pages* (a set of fault-managed page numbers) are
        ``mprotect``'ed to NONE like :meth:`protect_remote_present_pages`
        does, every other replica is simply forgotten like
        :meth:`drop_remote_present_pages` does.  Returns
        ``(mprotect_calls, dropped)``.
        """
        table, remote = self._remote_present(node)
        if not remote:
            return 0, 0
        table._present.difference_update(remote)
        protected = protect_pages.intersection(remote)
        if protected:
            table._protection.update(dict.fromkeys(protected, _NONE))
            self.stats.mprotect_calls += len(protected)
        return len(protected), len(remote) - len(protected)

    # ------------------------------------------------------------------
    # home re-assignment (migratory home policies)
    # ------------------------------------------------------------------
    def rehome_page(self, page: int, new_home: int) -> int:
        """Move *page*'s home (its reference copy) to *new_home*.

        The directory hook behind
        :class:`~repro.core.home_policy.MigratoryHomePolicy`: the page→home
        map and the :class:`~repro.dsm.page.PageInfo` entry are updated, the
        new home holds the page as a present READ/WRITE reference copy,
        and the old home's copy is left as an ordinary replica (to be
        dropped or re-protected at its next invalidation like any other).
        Callers charge the transfer latency themselves — the manager only
        mutates the directory and counts the event.  Returns the previous
        home node (equal to *new_home* when the page already lived there, in
        which case nothing changes).
        """
        info = self.page_info(page)
        if not 0 <= new_home < self.num_nodes:
            raise ValueError(f"node {new_home} out of range [0, {self.num_nodes})")
        old_home = info.home_node
        if old_home == new_home:
            return old_home
        self._pages[page] = PageInfo(
            page_number=page, home_node=new_home, page_size=self.page_size
        )
        self._home_by_page[page] = new_home
        table = self.tables[new_home]
        table._present.add(page)
        if page in table._protection:
            table._protection[page] = _READ_WRITE
        self.stats.page_rehomes += 1
        return old_home

    # ------------------------------------------------------------------
    def replica_count(self, page: int) -> int:
        """Number of nodes currently holding *page* (including its home).

        Scans the materialised tables only: a node whose table was never
        touched holds nothing.
        """
        home = self.home_node(page)
        return 1 + sum(
            1
            for table in self.tables.values()
            if table.node_id != home and page in table._present
        )

    def replica_count_reference(self, page: int) -> int:
        """Readable twin of :meth:`replica_count`: the all-nodes scan."""
        info = self.page_info(page)
        count = 0
        for node in range(self.num_nodes):
            if node == info.home_node or page in self.tables[node]._present:
                count += 1
        return count

    def resident_remote_pages(self, node: int) -> int:
        """Number of non-home pages currently replicated on *node*."""
        home_map = self._home_by_page
        return sum(1 for page in self.tables[node]._present if home_map[page] != node)
