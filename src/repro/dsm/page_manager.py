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
and each :class:`NodePageTable` mirrors its entries' ``present`` bits in a
set, so the per-access questions — "is this page remote?" and "is it
resident here?" — are single dict/set probes instead of dataclass attribute
chains.  All presence transitions must go through
:meth:`NodePageTable.mark_present` / :meth:`NodePageTable.mark_absent` to
keep the mirror consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from repro.cluster.costs import CostModel
from repro.cluster.topology import Topology
from repro.dsm.page import PageInfo, PageProtection, PageTableEntry
from repro.pm2.isoaddr import IsoAddressAllocator
from repro.util.validation import check_non_negative


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

    def record_fetch(self, node: int, pages: int, nbytes: int) -> None:
        """Account a fetch of *pages* pages (*nbytes* total) into *node*."""
        self.page_fetches += pages
        self.bytes_transferred += nbytes
        by_node = self.fetches_by_node
        by_node[node] = by_node.get(node, 0) + pages

    def record_fault(self, node: int, count: int = 1) -> None:
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

    The ``present`` bits of the entries are mirrored in :attr:`_present` so
    the access fast path can answer membership with one set probe, and — when
    the table belongs to a :class:`PageManager` — in the manager's shared
    ``page -> holder nodes`` replica directory, so ``replica_count`` is
    O(replicas) instead of a scan over every node.  Presence must therefore
    only change through :meth:`mark_present` / :meth:`mark_absent` (or the
    inlined-equivalent :meth:`forget_present`); writing ``entry.present``
    directly desynchronises the mirrors.
    """

    __slots__ = ("node_id", "_entries", "_present", "_replicas")

    def __init__(self, node_id: int, replicas: "dict[int, set[int]] | None" = None):
        self.node_id = node_id
        self._entries: dict[int, PageTableEntry] = {}
        self._present: set = set()
        #: the owning manager's shared replica directory (``None`` for
        #: standalone tables built in tests)
        self._replicas = replicas

    def entry(self, page: int) -> PageTableEntry:
        """The (lazily created) table entry for *page*."""
        entry = self._entries.get(page)
        if entry is None:
            entry = PageTableEntry()
            self._entries[page] = entry
        return entry

    def mark_present(self, page: int) -> PageTableEntry:
        """Set *page* present on this node (creating the entry if needed)."""
        entry = self.entry(page)
        if not entry.present:
            entry.present = True
            self._present.add(page)
            replicas = self._replicas
            if replicas is not None:
                holders = replicas.get(page)
                if holders is None:
                    replicas[page] = {self.node_id}
                else:
                    holders.add(self.node_id)
        return entry

    def mark_absent(self, page: int) -> None:
        """Clear *page*'s presence on this node (no-op for unknown pages)."""
        entry = self._entries.get(page)
        if entry is not None and entry.present:
            self.forget_present(page, entry)

    def forget_present(self, page: int, entry: PageTableEntry) -> None:
        """:meth:`mark_absent` for callers already holding the present entry.

        The single transition point every bulk invalidation path routes
        through: it keeps the presence set and the shared replica directory
        in lock-step with ``entry.present``, so no caller can desynchronise
        the mirrors by flipping the bit directly.
        """
        entry.present = False
        self._present.discard(page)
        replicas = self._replicas
        if replicas is not None:
            holders = replicas.get(page)
            if holders is not None:
                holders.discard(self.node_id)

    def known_pages(self) -> list[int]:
        """Pages that have an entry on this node."""
        return list(self._entries)

    def present_pages(self) -> list[int]:
        """Pages currently replicated (or homed) on this node."""
        return [p for p, e in self._entries.items() if e.present]

    def __contains__(self, page: int) -> bool:
        return page in self._entries


class NodePageTables(dict):
    """Lazy ``node id -> NodePageTable`` map backing :attr:`PageManager.tables`.

    A thousand-node run only ever touches the handful of nodes its threads
    and page homes live on, so tables materialise on first subscript instead
    of being built eagerly for every node.  Hits stay on the C-level dict
    fast path (``__missing__`` only runs for absent keys); out-of-range
    nodes raise ``IndexError`` like the eager list used to.
    """

    __slots__ = ("num_nodes", "_replicas")

    def __init__(self, num_nodes: int, replicas: "dict[int, set[int]]"):
        super().__init__()
        self.num_nodes = num_nodes
        self._replicas = replicas

    def __missing__(self, node: int) -> NodePageTable:
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range for {self.num_nodes} node(s)")
        table = NodePageTable(node, self._replicas)
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
        #: page -> nodes whose tables hold it present (the replica
        #: directory); maintained by the tables' presence transitions
        self._replicas: dict[int, set[int]] = {}
        self.tables = NodePageTables(self.num_nodes, self._replicas)
        if self.num_nodes > self.NODE_STAT_CAP:
            island_of = topology.island_of
            self._stat_node: "tuple[int, ...] | None" = tuple(
                island_of(node) for node in range(self.num_nodes)
            )
        else:
            self._stat_node = None

    def stat_node(self, node: int) -> int:
        """Key under which *node*'s per-node stats accumulate.

        Identity below :attr:`NODE_STAT_CAP` (the exact historical
        behaviour); the node's island index above it, bounding
        ``fetches_by_node``/``faults_by_node`` by the island count instead
        of the node count.
        """
        mapping = self._stat_node
        return node if mapping is None else mapping[node]

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_range(self, address: int, size: int) -> list[int]:
        """Register the pages backing an allocation; returns their numbers.

        The home node of each page is derived from the iso-address arena the
        address falls into; the home node's page-table entry is created
        present and READ_WRITE (the reference copy).
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
                home_entry = self.tables[home].mark_present(page)
                home_entry.protection = PageProtection.READ_WRITE
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

    def registered_pages(self) -> list[int]:
        """All registered page numbers (sorted)."""
        return sorted(self._pages)

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
        home = self._home_by_page.get(page)
        if home is None:
            raise KeyError(f"page {page} has not been registered")
        return home == node

    def protection(self, node: int, page: int) -> PageProtection:
        """Current protection of *page* on *node* (READ_WRITE if untracked)."""
        self.page_info(page)
        entry = self.tables[node]._entries.get(page)
        if entry is None:
            return PageProtection.READ_WRITE
        return entry.protection

    def missing_pages(self, node: int, pages: Iterable[int]) -> list[int]:
        """Subset of *pages* not present on *node*."""
        present = self.tables[node]._present
        home = self._home_by_page
        missing: list[int] = []
        for page in pages:
            if page in present:
                continue
            owner = home.get(page)
            if owner is None:
                raise KeyError(f"page {page} has not been registered")
            if owner != node:
                missing.append(page)
        return missing

    # ------------------------------------------------------------------
    # mechanics used by the protocols
    # ------------------------------------------------------------------
    def fetch_pages(self, node: int, pages: Sequence[int]) -> float:
        """Bring *pages* to *node* from their home nodes; return the latency.

        Pages already present cost nothing.  Pages are grouped by home node;
        each group costs one request/reply round trip carrying the group's
        pages (DSM-PM2 batches contiguous pages of one request).  The caller
        charges the returned latency to the faulting/checking thread.
        """
        missing = self.missing_pages(node, pages)
        if not missing:
            return 0.0
        latency = 0.0
        home_map = self._home_by_page
        by_home: dict[int, list[int]] = {}
        for page in missing:
            by_home.setdefault(home_map[page], []).append(page)
        table = self.tables[node]
        stats = self.stats
        rpc_service = self.cost_model.software.rpc_service_seconds
        round_trip = self.topology.round_trip_time
        island_of = self.topology.island_of
        record_fetch = stats.record_fetch
        telemetry = self.telemetry
        node_island = island_of(node)
        stat_key = self.stat_node(node)
        for home, group in by_home.items():
            payload = len(group) * self.page_size
            group_latency = round_trip(node, home, 64, payload) + rpc_service
            latency += group_latency
            record_fetch(stat_key, len(group), payload)
            intra = island_of(home) == node_island
            if intra:
                stats.intra_island_page_fetches += len(group)
                stats.intra_island_fetch_seconds += group_latency
            else:
                stats.inter_island_page_fetches += len(group)
                stats.inter_island_fetch_seconds += group_latency
                stats.inter_island_bytes += payload
            if telemetry is not None:
                telemetry.observe_fetch(intra, group_latency, len(group), payload)
            for page in group:
                entry = table.mark_present(page)
                entry.fetches += 1
        return latency

    def set_protection(self, node: int, page: int, protection: PageProtection) -> bool:
        """Set *page*'s protection on *node*; returns True if it changed.

        Each actual change corresponds to one ``mprotect`` system call and is
        counted in the statistics.
        """
        if page not in self._pages:
            raise KeyError(f"page {page} has not been registered")
        entry = self.tables[node].entry(page)
        if entry.protection is protection:
            return False
        entry.protection = protection
        self.stats.mprotect_calls += 1
        return True

    def record_fault(self, node: int, page: int) -> None:
        """Account one page fault taken by *node* on *page*."""
        entry = self.tables[node].entry(page)
        entry.faults += 1
        self.stats.record_fault(self.stat_node(node))

    def protect_remote_present_pages(self, node: int) -> int:
        """``mprotect`` every replicated non-home page on *node* to NONE.

        Used by ``java_pf`` on monitor entry so that the next access to any
        remote object faults and re-validates the page.  Returns the number
        of ``mprotect`` calls performed (pages whose protection changed).
        """
        table = self.tables[node]
        home_map = self._home_by_page
        entries = table._entries
        calls = 0
        for page in list(table._present):
            if home_map[page] == node:
                continue
            entry = entries[page]
            if entry.protection is not PageProtection.NONE:
                entry.protection = PageProtection.NONE
                table.forget_present(page, entry)
                calls += 1
        if calls:
            self.stats.mprotect_calls += calls
        return calls

    def drop_remote_present_pages(self, node: int) -> int:
        """Forget every replicated non-home page on *node* (``java_ic``).

        No ``mprotect`` is involved — the in-line check protocol keeps all
        memory READ_WRITE forever and simply clears its presence table.
        Returns the number of pages dropped.
        """
        table = self.tables[node]
        home_map = self._home_by_page
        entries = table._entries
        dropped = 0
        for page in list(table._present):
            if home_map[page] == node:
                continue
            table.forget_present(page, entries[page])
            dropped += 1
        return dropped

    def invalidate_remote_present_pages(
        self, node: int, protect_pages
    ) -> "tuple[int, int]":
        """Drop or re-protect every replicated non-home page on *node*.

        The hybrid detection strategy's invalidation: pages in
        *protect_pages* (a set of fault-managed page numbers) are
        ``mprotect``'ed to NONE like :meth:`protect_remote_present_pages`
        does, every other replica is simply forgotten like
        :meth:`drop_remote_present_pages` does.  Returns
        ``(mprotect_calls, dropped)``.
        """
        table = self.tables[node]
        home_map = self._home_by_page
        entries = table._entries
        calls = 0
        dropped = 0
        for page in list(table._present):
            if home_map[page] == node:
                continue
            entry = entries[page]
            table.forget_present(page, entry)
            if page in protect_pages:
                if entry.protection is not PageProtection.NONE:
                    entry.protection = PageProtection.NONE
                    calls += 1
            else:
                dropped += 1
        if calls:
            self.stats.mprotect_calls += calls
        return calls, dropped

    # ------------------------------------------------------------------
    # home re-assignment (migratory home policies)
    # ------------------------------------------------------------------
    def rehome_page(self, page: int, new_home: int) -> int:
        """Move *page*'s home (its reference copy) to *new_home*.

        The directory hook behind
        :class:`~repro.core.home_policy.MigratoryHomePolicy`: the page→home
        map and the :class:`~repro.dsm.page.PageInfo` entry are updated, the
        new home's table entry becomes a present READ/WRITE reference copy,
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
        entry = self.tables[new_home].mark_present(page)
        entry.protection = PageProtection.READ_WRITE
        self.stats.page_rehomes += 1
        return old_home

    def unprotect_after_fetch(self, node: int, pages: Sequence[int]) -> int:
        """Set *pages* back to READ_WRITE on *node* after a fault-driven fetch.

        Returns the number of ``mprotect`` calls (protection transitions).
        """
        calls = 0
        for page in pages:
            if self.set_protection(node, page, PageProtection.READ_WRITE):
                calls += 1
        return calls

    # ------------------------------------------------------------------
    def replica_count(self, page: int) -> int:
        """Number of nodes currently holding *page* (including its home).

        O(1) via the replica directory: the home always counts (it owns the
        reference copy even when its table entry was dropped), every other
        holder is a directory member.
        """
        info = self.page_info(page)
        holders = self._replicas.get(page)
        if not holders:
            return 1
        if info.home_node in holders:
            return len(holders)
        return len(holders) + 1

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
