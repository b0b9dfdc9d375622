"""The JMM consistency sanitizer: a shadow layer over a real run.

The paper's central claim (Section 3.1) is that Hyperion's DSM protocols
enforce the JLS (1996) memory model — release consistency at monitor and
barrier boundaries.  The simulator's regression suite pins *determinism*
(byte-identical reports), which tells a changed protocol apart from an
unchanged one but cannot tell a **wrong** protocol apart from a
different-but-valid one.  This module can.

:class:`ConsistencySanitizer` attaches to a :class:`~repro.hyperion.runtime.
HyperionRuntime` before any thread runs and interposes on the seams the
layered protocol design already exposes — the protocol's ``detect_access``
instance attribute, the Table 2 primitives on the memory subsystem, and the
monitor manager — while the thread layer reports the remaining
happens-before edges (spawn, join, barrier episodes, migration).  It
maintains, per node:

* a **vector clock** in a :class:`~repro.core.jmm.HappensBeforeTracker`
  (thread id = node id: Hyperion caches are node-level, so the node is the
  unit of visibility);
* a **shadow page-version map**: the version of each page's contents the
  node last observed, advanced when the node fetches a page and *published*
  (version + clock) whenever a node flushes modified pages home or a home
  node writes its own page.

From those it flags three classes of **protocol violations** (all must be
zero for a correct protocol):

``stale_read``
    A node accessed a cached page copy older than a publish that
    happens-before the access.  A correct protocol invalidates the copy at
    the acquire that created the edge, forcing a re-fetch.
``invalidation_incomplete``
    ``invalidateCache`` returned with remote page replicas still resident.
``structural``
    DSM directory invariants broken: ``_home_by_page`` disagreeing with the
    page directory, a home node without a present READ_WRITE reference
    copy (``rehome_page`` atomicity), or a node holding a present replica
    that is not READ_WRITE (the page manager counts one ``mprotect`` per
    replica it re-protects or re-opens on that premise).

plus one class of **application diagnostics**, reported separately because
they are properties of the workload, not of the protocol:

``data_race``
    Two nodes wrote overlapping slots of one shared entity with no
    happens-before edge between the writes.  Some synthetic scenarios (and
    TSP's racy bound publication) do this deliberately; the JLS allows it,
    so races never make a report unclean.

Soundness stance: the sanitizer may under-report (node-granularity clocks
hide same-node thread interleavings; only write/write conflicts are counted
as races) but is engineered never to flag a correct protocol — the
determinism suite pins every golden cell "sanitizer-clean".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.jmm import HappensBeforeTracker, VectorClock
from repro.dsm.page import PageProtection

if TYPE_CHECKING:  # pragma: no cover
    from repro.hyperion.runtime import HyperionRuntime
    from repro.hyperion.threads import ClusterBarrier, JavaThread

#: full directory invariants are re-checked every this-many sync events
#: (every acquire/flush also runs the cheap per-node checks; the full scan
#: walks all pages x nodes and would dominate at high sync rates)
STRUCTURAL_SCAN_STRIDE = 32

#: per-(entity, node) cap on retained write records; beyond it the sanitizer
#: stops recording (and counts the truncation) rather than growing unboundedly
MAX_WRITE_RECORDS = 4096

#: finding kinds that are protocol violations (vs. application diagnostics)
VIOLATION_KINDS = ("stale_read", "invalidation_incomplete", "structural")


@dataclass(slots=True)
class SanitizerFinding:
    """One deduplicated finding (a site, not an occurrence)."""

    kind: str
    site: str
    detail: str
    count: int = 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "site": self.site,
            "detail": self.detail,
            "count": self.count,
        }


@dataclass(slots=True)
class SanitizerReport:
    """Everything the sanitizer concluded about one run.

    ``violations`` are protocol bugs (a correct protocol reports none);
    ``races`` are application-level write/write race diagnostics (allowed by
    the JLS, informational).  ``counters`` summarise how much checking
    actually happened — a report with zero violations *and* zero checked
    accesses proves nothing, so tests assert on the counters too.
    """

    violations: list[SanitizerFinding] = field(default_factory=list)
    races: list[SanitizerFinding] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when no protocol violation was found (races do not count)."""
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        """Deterministic JSON-serialisable form (sorted keys and findings)."""
        return {
            "clean": self.clean,
            "violations": [f.to_dict() for f in self.violations],
            "races": [f.to_dict() for f in self.races],
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }

    def summary(self) -> str:
        """One-line human summary."""
        state = "clean" if self.clean else f"{len(self.violations)} violation(s)"
        return (
            f"sanitizer: {state}, {len(self.races)} race site(s), "
            f"{self.counters.get('accesses_checked', 0)} accesses checked"
        )


class ConsistencySanitizer:
    """Shadow checker installed on one runtime before any thread exists.

    Construction wires every hook; :meth:`report` runs the final structural
    scan and materialises the :class:`SanitizerReport`.  The sanitizer never
    charges simulated time and never mutates simulation state — the byte
    contract (``ExecutionReport.to_dict``) is identical with it on or off.
    """

    def __init__(self, runtime: "HyperionRuntime"):
        self.runtime = runtime
        self._pm = runtime.page_manager
        self._num_nodes = runtime.num_nodes
        self._tracker = HappensBeforeTracker()

        # -- shadow state (all per node unless noted) --
        #: latest published version of each page (0 = initial contents)
        self._versions: dict[int, int] = {}
        #: per page: [(version, publish clock)] in publish order
        self._publishes: dict[int, list[tuple[int, VectorClock]]] = {}
        #: page -> version of the copy this node last observed
        self._shadow: list[dict[int, int]] = [{} for _ in range(self._num_nodes)]
        #: remote pages this node has written since its last flush
        self._dirty: list[set[int]] = [set() for _ in range(self._num_nodes)]
        #: monitors acquired but whose acquire-side invalidation has not run
        self._pending_acquires: list[list[int]] = [[] for _ in range(self._num_nodes)]
        #: cached immutable snapshot of each node's clock (identity-stable
        #: between tracker mutations, enabling ``is``-based coalescing)
        self._clock_cache: list[VectorClock | None] = [None] * self._num_nodes
        #: entity iso-address -> node -> [(lo, hi, clock)] write records
        self._writes: dict[int, dict[int, list[tuple[int, int, VectorClock]]]] = {}
        #: finished thread -> its final clock (consumed by join edges)
        self._finished: dict[int, VectorClock] = {}
        #: barrier -> mutable [generation, arrival clocks]
        self._barriers: dict[int, list] = {}
        #: completed episode clocks: (barrier id, generation) -> [clock, remaining]
        self._episodes: dict[tuple[int, int], list] = {}

        # -- findings (dedup per site) and counters --
        self._violations: dict[tuple, SanitizerFinding] = {}
        self._races: dict[tuple, SanitizerFinding] = {}
        self._sync_events = 0
        self._accesses_checked = 0
        self._pages_checked = 0
        self._stale_checks = 0
        self._publish_count = 0
        self._structural_scans = 0
        self._write_records = 0
        self._write_records_capped = 0
        self._barrier_episodes = 0
        self._hb_edges = 0

        self._install()

    # ------------------------------------------------------------------
    # clock bookkeeping
    # ------------------------------------------------------------------
    def _node_clock(self, node: int) -> VectorClock:
        """Identity-stable snapshot of *node*'s clock (refreshed on mutation)."""
        clock = self._clock_cache[node]
        if clock is None:
            clock = self._tracker.thread_clock(node)
            self._clock_cache[node] = clock
        return clock

    def _bump(self, node: int) -> None:
        """Invalidate *node*'s snapshot after a tracker mutation."""
        self._clock_cache[node] = None

    # ------------------------------------------------------------------
    # findings
    # ------------------------------------------------------------------
    def _violation(self, kind: str, key: tuple, site: str, detail: str) -> None:
        finding = self._violations.get((kind, *key))
        if finding is None:
            self._violations[(kind, *key)] = SanitizerFinding(kind, site, detail)
        else:
            finding.count += 1

    def _race(self, key: tuple, site: str, detail: str) -> None:
        finding = self._races.get(key)
        if finding is None:
            self._races[key] = SanitizerFinding("data_race", site, detail)
        else:  # pragma: no cover - races dedup before re-reporting
            finding.count += 1

    # ------------------------------------------------------------------
    # installation: wrap the protocol / memory / monitor seams
    # ------------------------------------------------------------------
    def _install(self) -> None:
        runtime = self.runtime
        memory = runtime.memory
        monitors = runtime.monitors
        protocol = runtime.protocol
        san = self

        # -- detection seam: classify presence before the protocol acts,
        # then run the staleness / publish / dirty bookkeeping
        orig_detect = protocol.detect_access

        def detect_access(ctx, node_id, pages, count, write, _orig=orig_detect):
            pre = san._pre_detect(node_id, pages)
            fetched = _orig(ctx, node_id, pages, count, write)
            san._post_detect(node_id, pre, write)
            return fetched

        protocol.detect_access = detect_access
        # the memory subsystem resolved the handle at construction time
        memory._detect = detect_access

        # -- write-record seams (race detection only; page-level effects of
        # every write already flow through the detection seam above)
        orig_put = memory.put

        def put(ctx, node, obj, index, value, _orig=orig_put):
            _orig(ctx, node, obj, index, value)
            san._note_write(node, obj, index, index + 1)

        memory.put = put

        orig_put_range = memory.put_range

        def put_range(ctx, node, obj, lo, hi, values, _orig=orig_put_range):
            _orig(ctx, node, obj, lo, hi, values)
            san._note_write(node, obj, lo, hi)

        memory.put_range = put_range

        orig_account = memory.account_accesses

        def account_accesses(
            ctx, node, obj, count, lo=0, hi=None, write=False, _orig=orig_account
        ):
            _orig(ctx, node, obj, count, lo=lo, hi=hi, write=write)
            if write and count > 0:
                san._note_write(node, obj, lo, obj.num_slots if hi is None else hi)

        memory.account_accesses = account_accesses

        # -- acquire side: apply pending monitor-acquire edges *immediately
        # before* the invalidation they belong to (the runtime may yield
        # between the lock grant and invalidateCache; merging early would
        # open a false-stale window), then verify the invalidation emptied
        # the node's remote residency
        orig_invalidate = memory.invalidate_cache

        def invalidate_cache(ctx, node, _orig=orig_invalidate):
            pending = san._pending_acquires[node]
            if pending:
                tracker = san._tracker
                for oid in pending:
                    tracker.acquire(node, oid)
                san._hb_edges += len(pending)
                pending.clear()
                san._bump(node)
            result = _orig(ctx, node)
            san._after_invalidate(node)
            return result

        memory.invalidate_cache = invalidate_cache

        # -- release side: publish this node's dirty pages at flush time
        # (the release that follows carries a clock >= the publish clock)
        orig_update = memory.update_main_memory

        def update_main_memory(ctx, node, _orig=orig_update):
            san._publish_flush(node)
            result = _orig(ctx, node)
            san._sync_event()
            return result

        memory.update_main_memory = update_main_memory

        # -- monitor seams: the release/acquire pairs feeding the tracker
        orig_enter = monitors.enter

        def enter(ctx, obj, _orig=orig_enter):
            yield from _orig(ctx, obj)
            san._pending_acquires[ctx.node_id].append(obj.oid)

        monitors.enter = enter

        orig_exit = monitors.exit

        def exit_(ctx, obj, _orig=orig_exit):
            _orig(ctx, obj)
            san._on_release(ctx.node_id, obj.oid)

        monitors.exit = exit_

        orig_wait = monitors.wait

        def wait(ctx, obj, _orig=orig_wait):
            # Object.wait releases the monitor (modifications were flushed by
            # the thread context just before) and re-acquires before resuming;
            # invalidateCache follows immediately after resumption.
            san._on_release(ctx.node_id, obj.oid)
            yield from _orig(ctx, obj)
            san._pending_acquires[ctx.node_id].append(obj.oid)

        monitors.wait = wait

    # ------------------------------------------------------------------
    # release / acquire bookkeeping
    # ------------------------------------------------------------------
    def _on_release(self, node: int, oid: int) -> None:
        tracker = self._tracker
        tracker.release(node, oid)
        # tick past the published clock: the releaser's subsequent actions
        # are *not* ordered before the acquirer's (post-release writes race
        # with the critical section's successor)
        tracker.tick(node)
        self._bump(node)
        self._sync_event()

    # ------------------------------------------------------------------
    # thread-layer hooks (called by repro.hyperion.threads)
    # ------------------------------------------------------------------
    def note_spawn(self, parent_node: int, child_node: int) -> None:
        """Thread start edge: the child sees everything its creator did."""
        if parent_node == child_node:
            return
        tracker = self._tracker
        tracker.tick(parent_node)
        self._bump(parent_node)
        tracker.merge_into(child_node, tracker.thread_clock(parent_node))
        self._bump(child_node)
        self._hb_edges += 1

    def note_thread_finish(self, thread: "JavaThread") -> None:
        """Record the final clock of *thread* (consumed by join edges)."""
        node = thread.node_id
        self._tracker.tick(node)
        self._bump(node)
        self._finished[id(thread)] = self._node_clock(node)

    def note_join(self, node: int, thread: "JavaThread") -> None:
        """Join edge: the joiner sees everything the joined thread did."""
        clock = self._finished.get(id(thread))
        if clock is None:  # pragma: no cover - join always follows finish
            return
        self._tracker.merge_into(node, clock)
        self._bump(node)
        self._hb_edges += 1

    def note_migrate(self, origin_node: int, destination_node: int) -> None:
        """Program-order edge across a thread migration between nodes."""
        if origin_node == destination_node:
            return
        tracker = self._tracker
        tracker.tick(origin_node)
        self._bump(origin_node)
        tracker.merge_into(destination_node, tracker.thread_clock(origin_node))
        self._bump(destination_node)
        self._hb_edges += 1

    def note_barrier_arrive(self, node: int, barrier: "ClusterBarrier") -> int:
        """Record *node* arriving at *barrier*; returns the episode number.

        The caller has already flushed (``updateMainMemory``), so the
        arrival snapshot carries the node's publishes.  When the last party
        arrives, the episode clock (merge of every arrival) is frozen for
        :meth:`note_barrier_resume` to deliver.
        """
        state = self._barriers.get(id(barrier))
        if state is None:
            state = self._barriers[id(barrier)] = [0, []]
        generation, arrivals = state
        arrivals.append(self._node_clock(node))
        if len(arrivals) == barrier.parties:
            episode = VectorClock.merge_many(arrivals)
            self._episodes[(id(barrier), generation)] = [episode, barrier.parties]
            state[0] = generation + 1
            state[1] = []
            self._barrier_episodes += 1
        return generation

    def note_barrier_resume(self, node: int, barrier: "ClusterBarrier", generation: int) -> None:
        """Deliver the episode clock to a resuming participant."""
        key = (id(barrier), generation)
        entry = self._episodes.get(key)
        if entry is None:  # pragma: no cover - resume always follows release
            return
        self._tracker.merge_into(node, entry[0])
        self._bump(node)
        self._hb_edges += 1
        entry[1] -= 1
        if entry[1] <= 0:
            del self._episodes[key]
        self._sync_event()

    # ------------------------------------------------------------------
    # detection seam: staleness, publishes, dirty tracking
    # ------------------------------------------------------------------
    def _pre_detect(self, node: int, pages) -> list[tuple[int, bool]]:
        """Classify each page's presence on *node* before the protocol acts."""
        present = self._pm.tables[node]._present
        home = self._pm._home_by_page
        return [(p, p in present or home.get(p) == node) for p in pages]

    def _post_detect(self, node: int, pre: list[tuple[int, bool]], write: bool) -> None:
        home = self._pm._home_by_page
        shadow = self._shadow[node]
        versions = self._versions
        self._accesses_checked += 1
        self._pages_checked += len(pre)
        for page, was_present in pre:
            if home.get(page) == node:
                # home accesses read/write the reference copy: always current
                if write:
                    self._publish_home(node, page)
                else:
                    latest = versions.get(page, 0)
                    if latest and shadow.get(page, 0) < latest:
                        shadow[page] = latest
                continue
            if was_present:
                held = shadow.get(page)
                if held is None:
                    # replica predating our bookkeeping (e.g. left behind by
                    # a rehome): assume current — under-report, never over
                    shadow[page] = versions.get(page, 0)
                elif held < versions.get(page, 0):
                    self._check_stale(node, page, held)
            else:
                # the protocol just fetched the page: a fresh copy from home
                shadow[page] = versions.get(page, 0)
            if write:
                self._dirty[node].add(page)

    def _check_stale(self, node: int, page: int, held: int) -> None:
        """Flag if a publish newer than *held* happens-before this access."""
        self._stale_checks += 1
        publishes = self._publishes.get(page)
        if not publishes:
            return
        reader = self._node_clock(node)
        for version, clock in reversed(publishes):
            if version <= held:
                break
            if clock <= reader:
                self._violation(
                    "stale_read",
                    (node, page),
                    f"node={node} page={page}",
                    f"node {node} read page {page} at version {held} after "
                    f"version {version} was published happens-before it "
                    f"(latest {self._versions.get(page, 0)})",
                )
                # heal so one protocol bug reports one site, not a storm
                self._shadow[node][page] = self._versions.get(page, 0)
                return

    def _publish_home(self, node: int, page: int) -> None:
        """A home-node write: the reference copy advances immediately."""
        version = self._versions.get(page, 0) + 1
        self._versions[page] = version
        clock = self._node_clock(node)
        publishes = self._publishes.get(page)
        if publishes is None:
            self._publishes[page] = [(version, clock)]
        elif publishes[-1][1] is clock:
            # same clock snapshot: only the newest version can matter
            publishes[-1] = (version, clock)
        else:
            publishes.append((version, clock))
        self._shadow[node][page] = version
        self._publish_count += 1

    def _publish_flush(self, node: int) -> None:
        """``updateMainMemory``: this node's dirty remote pages go home."""
        dirty = self._dirty[node]
        if not dirty:
            return
        self._tracker.tick(node)
        self._bump(node)
        clock = self._node_clock(node)
        shadow = self._shadow[node]
        versions = self._versions
        publishes = self._publishes
        for page in sorted(dirty):
            version = versions.get(page, 0) + 1
            versions[page] = version
            lst = publishes.get(page)
            if lst is None:
                publishes[page] = [(version, clock)]
            elif lst[-1][1] is clock:
                lst[-1] = (version, clock)
            else:
                lst.append((version, clock))
            shadow[page] = version
            self._publish_count += 1
        dirty.clear()

    # ------------------------------------------------------------------
    # race detection (write/write, slot-interval granularity)
    # ------------------------------------------------------------------
    def _note_write(self, node: int, obj, lo: int, hi: int) -> None:
        # entities are keyed by iso-address: oids come from a process-global
        # counter, addresses from the per-runtime allocator, so only the
        # latter is stable across repeated runs of one spec in one process
        addr = obj.address
        clock = self._node_clock(node)
        per_obj = self._writes.get(addr)
        if per_obj is None:
            per_obj = self._writes[addr] = {}
        records = per_obj.get(node)
        if records is None:
            records = per_obj[node] = []
        elif records:
            last_lo, last_hi, last_clock = records[-1]
            if last_clock is clock:
                if last_lo <= lo and hi <= last_hi:
                    return  # already recorded and checked under this clock
                if lo == last_hi:
                    # sequential writes under one clock: extend in place
                    self._check_race(addr, node, lo, hi, clock, per_obj)
                    records[-1] = (last_lo, hi, last_clock)
                    return
        self._check_race(addr, node, lo, hi, clock, per_obj)
        if len(records) < MAX_WRITE_RECORDS:
            records.append((lo, hi, clock))
            self._write_records += 1
        else:
            self._write_records_capped += 1

    def _check_race(self, addr: int, node: int, lo: int, hi: int, clock, per_obj) -> None:
        for other, records in per_obj.items():
            if other == node:
                continue
            a, b = (node, other) if node < other else (other, node)
            key = (addr, a, b)
            if key in self._races:
                continue
            for other_lo, other_hi, other_clock in records:
                if other_lo < hi and lo < other_hi and clock.concurrent_with(other_clock):
                    overlap_lo = max(lo, other_lo)
                    overlap_hi = min(hi, other_hi)
                    self._race(
                        key,
                        f"entity=0x{addr:x} nodes={a},{b}",
                        f"nodes {a} and {b} wrote slots "
                        f"[{overlap_lo}, {overlap_hi}) of entity 0x{addr:x} "
                        "with no happens-before edge between the writes",
                    )
                    break

    # ------------------------------------------------------------------
    # structural invariants
    # ------------------------------------------------------------------
    def _after_invalidate(self, node: int) -> None:
        resident = self._pm.resident_remote_pages(node)
        if resident:
            self._violation(
                "invalidation_incomplete",
                ("inval", node),
                f"node={node}",
                f"invalidateCache left {resident} remote page replica(s) "
                f"resident on node {node}",
            )
        self._sync_event()

    def _sync_event(self) -> None:
        self._sync_events += 1
        if self._sync_events % STRUCTURAL_SCAN_STRIDE == 0:
            self._structural_scan()

    def _structural_scan(self) -> None:
        """Full DSM directory walk: the invariants every protocol must keep."""
        self._structural_scans += 1
        pm = self._pm
        pages = pm._pages
        for page, home in pm._home_by_page.items():
            info = pages.get(page)
            if info is None or info.home_node != home:
                self._violation(
                    "structural",
                    ("home_map", page),
                    f"page={page}",
                    f"_home_by_page says node {home} but the page directory "
                    f"says {info.home_node if info else 'unregistered'}",
                )
                continue
            table = pm.tables[home]
            protection = table._protection.get(page, PageProtection.READ_WRITE)
            if page not in table._present:
                self._violation(
                    "structural",
                    ("home_present", page),
                    f"page={page}",
                    f"home node {home} holds no present reference copy of "
                    f"page {page}",
                )
            elif protection is not PageProtection.READ_WRITE:
                self._violation(
                    "structural",
                    ("home_protection", page),
                    f"page={page}",
                    f"home node {home}'s reference copy of page {page} is "
                    f"protected {protection.value}",
                )
        home_map = pm._home_by_page
        for table in pm.tables.materialised():
            node, protections = table.node_id, table._protection
            closed = sorted(
                page
                for page in table._present
                if home_map[page] != node
                and protections.get(page, PageProtection.READ_WRITE)
                is not PageProtection.READ_WRITE
            )
            if closed:
                self._violation(
                    "structural",
                    ("replica_protection", node),
                    f"node={node}",
                    f"node {node} holds {len(closed)} present replica(s) that "
                    f"are not READ_WRITE (pages {closed[:5]})",
                )

    # ------------------------------------------------------------------
    def report(self) -> SanitizerReport:
        """Final structural scan, then the assembled (sorted) report."""
        self._structural_scan()
        violations = [self._violations[k] for k in sorted(self._violations)]
        races = [self._races[k] for k in sorted(self._races)]
        counters = {
            "accesses_checked": self._accesses_checked,
            "pages_checked": self._pages_checked,
            "stale_checks": self._stale_checks,
            "publishes": self._publish_count,
            "sync_events": self._sync_events,
            "structural_scans": self._structural_scans,
            "write_records": self._write_records,
            "write_records_capped": self._write_records_capped,
            "barrier_episodes": self._barrier_episodes,
            "hb_edges": self._hb_edges,
        }
        return SanitizerReport(violations=violations, races=races, counters=counters)
