"""Detection strategies: the *how-do-we-notice-a-remote-access* protocol layer.

The paper's two protocols share all of their home-based Java-consistency
mechanics and differ **only** in how an access to a non-resident object is
detected (Section 3): ``java_ic`` pays an explicit in-line check on every
access, ``java_pf`` protects non-resident pages and lets the hardware trap.
This module isolates that axis into :class:`DetectionStrategy` objects so a
:class:`~repro.core.protocol.ConsistencyProtocol` is a *composition* of a
detection strategy and a :mod:`~repro.core.home_policy` instead of one
monolithic class.

Four strategies ship here:

``inline_check``
    Paper Section 3.2 — one explicit locality check per access; memory stays
    READ/WRITE everywhere, so misses never fault.
``page_fault``
    Paper Section 3.3 — non-resident pages are protected; the first access
    traps, the handler fetches the page and re-opens it with ``mprotect``.
``hoisted``
    The ablation variant: in-line checks hoisted out of single-object loops,
    one check per bulk access instead of one per element.
``hybrid``
    New in this reproduction (the paper's Section 6 speculates about such
    mechanisms): every (node, page) starts under in-line checks; once a
    node has observed :data:`HybridDetection.DENSITY_THRESHOLD` accesses to
    a page, that page is *promoted* to fault-based detection on the node —
    densely accessed pages stop paying the per-access check and instead take
    one fault per miss, sparsely accessed pages keep the cheap check.

Every strategy provides the precomputed fast path (``detect_access``) and
its readable twin (``detect_access_reference``); the two are semantically
identical — same counters, same charges in the same order — and the
determinism suite pins them against each other through
:func:`~repro.core.protocol.reference_detection`.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.core.context import AccessContext
from repro.dsm.page import PageProtection

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.protocol import ConsistencyProtocol


class DetectionStrategy:
    """How accesses to non-resident objects are noticed and charged.

    A strategy is bound to one protocol instance at construction time and
    copies the protocol's precomputed fast-path handles (page→home map,
    per-node presence sets, cost constants) onto itself: ``detect_access``
    is the single hottest call of a simulation and the composed protocol
    binds the strategy's bound method straight into the memory subsystem,
    so the strategy must be as flat as the monolithic protocols were.
    """

    #: short layer identifier ("inline_check", "page_fault", ...)
    name = "abstract"
    #: True when the strategy relies on page faults (and therefore mprotect)
    uses_page_faults = False
    #: human fragment used by ``ConsistencyProtocol.describe()``
    mechanism = "unspecified detection"

    def __init__(self, protocol: "ConsistencyProtocol"):
        self.protocol = protocol
        self.page_manager = protocol.page_manager
        self.cost_model = protocol.cost_model
        self.stats = protocol.stats
        # -- precomputed fast-path handles (mirrors ConsistencyProtocol) --
        self._home_by_page = protocol._home_by_page
        self._tables = protocol._tables
        self._freq = protocol._freq
        self._check_cycles = protocol._check_cycles
        self._miss_overhead_s = protocol._miss_overhead_s
        self._page_fault_s = protocol._page_fault_s
        self._mprotect_s = protocol._mprotect_s
        # shared mechanics stay on the protocol (they are not per-access
        # hot-path code: _account_accesses only serves the reference twins,
        # _fetch runs once per miss batch) — bind them instead of copying
        self._account_accesses = protocol._account_accesses
        self._fetch = protocol._fetch

    # ------------------------------------------------------------------
    # the strategy interface
    # ------------------------------------------------------------------
    def detect_access(
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Iterable[int],
        count: int,
        write: bool,
    ) -> int:
        """Make *pages* accessible from *node_id*, charging detection costs.

        Returns the number of pages fetched from their home node.
        """
        raise NotImplementedError

    def detect_access_reference(
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Iterable[int],
        count: int,
        write: bool,
    ) -> int:
        """Unoptimized twin of :meth:`detect_access` (same counters/charges)."""
        return self.detect_access(ctx, node_id, pages, count, write)

    # ------------------------------------------------------------------
    # bulk run entry points (batched replay)
    # ------------------------------------------------------------------
    def access_fast_plan(self) -> str | None:
        """Fast-plan key for fused memory-side access charging, or None.

        The memory subsystem charges resident accesses of the stateless
        strategies inline: open-coded in its scalar ``get``/``put`` hot
        paths, and through one range block (``_fused_range_charges``).
        That is only sound when this instance's ``detect_access`` is the
        stock fast implementation of a strategy the memory layer knows:
        a subclass override, an active :func:`reference_detection` patch,
        or a stateful strategy (hybrid) must all return None here so every
        access takes the exact polymorphic path.
        """
        cls = type(self)
        impl = None
        for klass in cls.__mro__:
            impl = klass.__dict__.get("detect_access")
            if impl is not None:
                break
        if impl is None or impl.__name__ != "detect_access":
            # reference_detection() rebinds the class attribute to the
            # reference twin; its __name__ gives the patch away
            return None
        return _FAST_PLAN_BY_IMPL.get(klass)

    def detect_access_run(
        self,
        ctx: AccessContext,
        node_id: int,
        page: int,
        n: int,
        write: bool,
        base_seconds: float,
        extra: int = 0,
        extra_base_seconds: float = 0.0,
    ) -> bool:
        """Price a run of *n* homogeneous single-page accesses in one call.

        Equivalent to repeating, *n* times: charge *base_seconds* on *ctx*,
        then ``detect_access(ctx, node_id, (page,), 1, write)``; and, when
        *extra* is non-zero (the workload's ``work_multiplier`` accounting
        accesses), charge *extra_base_seconds* and
        ``detect_access(ctx, node_id, (page,), extra, write)`` as well.
        The per-element float charges are applied in exactly that order, so
        the accumulated pending time is bit-identical to the scalar path.

        Returns True when the run was priced; False when the caller must
        fall back to the exact per-access path (page not resident, strategy
        stateful or patched to its reference twin, ...).  The base class
        always refuses — batching is an opt-in per strategy.
        """
        return False

    def detect_access_run_reference(
        self,
        ctx: AccessContext,
        node_id: int,
        page: int,
        n: int,
        write: bool,
        base_seconds: float,
        extra: int = 0,
        extra_base_seconds: float = 0.0,
    ) -> bool:
        """Readable twin of :meth:`detect_access_run`: the literal loop."""
        pages = (page,)
        for _ in range(n):
            ctx.charge_cpu(base_seconds)
            self.detect_access_reference(ctx, node_id, pages, 1, write)
            if extra:
                ctx.charge_cpu(extra_base_seconds)
                self.detect_access_reference(ctx, node_id, pages, extra, write)
        return True

    def on_monitor_enter(self, ctx: AccessContext, node_id: int) -> None:
        """Acquire-side invalidation action of this detection mechanism."""
        raise NotImplementedError


class InlineCheckDetection(DetectionStrategy):
    """Explicit in-line locality checks (paper Section 3.2).

    Every ``get``/``put`` executes an explicit check of whether the object
    has a copy on the local node; if it does not, the page containing the
    object is brought into the local cache.  Because every access is
    mediated by the check, *no* page needs protection anywhere: shared
    memory is mapped READ/WRITE on all nodes at initialisation time and
    stays that way, so remote-object loading never involves a page fault or
    an ``mprotect`` call.  The price is one check per access, local or
    remote.
    """

    name = "inline_check"
    uses_page_faults = False
    mechanism = "in-line checks"

    #: cycles to clear one presence-table entry during cache invalidation
    INVALIDATE_ENTRY_CYCLES = 4.0

    def detect_access(
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Iterable[int],
        count: int,
        write: bool,
    ) -> int:
        # Fast path: one pass over the (usually single-page) access, using
        # the precomputed page→home map and the node's presence set.  The
        # counters and charges are identical — in value and in order — to
        # detect_access_reference below.  The classification loop is
        # deliberately open-coded (not a shared helper: this is the hottest
        # call of a simulation and an extra call per access is measurable);
        # sibling loops live in the other strategies of this module — change
        # them together, the determinism tests pin each against its
        # reference.
        stats = self.stats
        home = self._home_by_page
        present = self._tables[node_id]._present
        remote = False
        missing = None
        try:
            for page in pages:
                if home[page] != node_id:
                    remote = True
                    if page not in present:
                        if missing is None:
                            missing = [page]
                        else:
                            missing.append(page)
        except KeyError:
            raise KeyError(f"page {page} has not been registered") from None
        stats.accesses += count
        if remote:
            stats.remote_accesses += count

        # One explicit locality check per access, whether local or remote.
        stats.inline_checks += count
        ctx.charge_cpu((self._check_cycles * count) / self._freq)

        if missing:
            # Software miss path (cache lookup + request construction), then
            # the page request round trip.  No fault, no mprotect.
            ctx.charge_cpu(self._miss_overhead_s * len(missing))
            self._fetch(ctx, node_id, missing)
            return len(missing)
        return 0

    def detect_access_reference(
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Iterable[int],
        count: int,
        write: bool,
    ) -> int:
        pages = list(pages)
        self._account_accesses(node_id, pages, count)

        # One explicit locality check per access, whether local or remote.
        self.stats.inline_checks += count
        ctx.charge_cpu(self.cost_model.inline_check_seconds(count))

        missing = self.page_manager.missing_pages(node_id, pages)
        if missing:
            ctx.charge_cpu(self.cost_model.cache_miss_overhead_seconds() * len(missing))
            self._fetch(ctx, node_id, missing)
        return len(missing)

    def detect_access_run(
        self,
        ctx: AccessContext,
        node_id: int,
        page: int,
        n: int,
        write: bool,
        base_seconds: float,
        extra: int = 0,
        extra_base_seconds: float = 0.0,
    ) -> bool:
        # Fused run path: one classification for the whole run (sound — the
        # page is resident and nothing in a run can evict it), then the
        # per-element float charges applied in exactly the scalar order
        # (base, check[, extra base, extra check] per element) so the
        # pending accumulator is bit-identical to n scalar calls.  Integer
        # counters commute and are added once.
        if self.access_fast_plan() is None:
            return False
        try:
            remote = self._home_by_page[page] != node_id
        except KeyError:
            raise KeyError(f"page {page} has not been registered") from None
        if remote and page not in self._tables[node_id]._present:
            return False
        try:
            pending = ctx._pending_cpu
        except AttributeError:
            # a context without the pending accumulator (not a thread
            # context) takes the exact per-access path instead
            return False
        stats = self.stats
        total = n + n * extra
        stats.accesses += total
        if remote:
            stats.remote_accesses += total
        stats.inline_checks += total
        freq = self._freq
        check_1 = self._check_cycles / freq
        if extra:
            check_e = (self._check_cycles * extra) / freq
            for _ in range(n):
                pending += base_seconds
                pending += check_1
                pending += extra_base_seconds
                pending += check_e
        else:
            for _ in range(n):
                pending += base_seconds
                pending += check_1
        ctx._pending_cpu = pending
        return True

    def on_monitor_enter(self, ctx: AccessContext, node_id: int) -> None:
        """Invalidate the node's cache: clear the presence entries.

        This is cheap for in-line checking — a table walk clearing presence
        bits — in contrast to fault-based detection which must re-protect
        each page with an ``mprotect`` system call.
        """
        dropped = self.page_manager.drop_remote_present_pages(node_id)
        if dropped:
            ctx.charge_cpu(
                self.cost_model.machine.seconds_for_cycles(
                    self.INVALIDATE_ENTRY_CYCLES * dropped
                )
            )
        self.stats.invalidations += 1


class PageFaultDetection(DetectionStrategy):
    """Page-fault-based detection (paper Section 3.3).

    Pages are READ/WRITE only on their home node; on every other node they
    are protected, and the protection is re-established on each monitor
    entry.  The first access to a non-resident (protected) page therefore
    raises a page fault, whose handler requests the page from the home node
    and re-opens access with ``mprotect``.  Local accesses — objects on
    their home node or already cached — cost nothing extra, but
    remote-object loading pays the fault, the request and the ``mprotect``
    calls.
    """

    name = "page_fault"
    uses_page_faults = True
    mechanism = "page faults"

    def detect_access(
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Iterable[int],
        count: int,
        write: bool,
    ) -> int:
        # Fast path: single pass using the precomputed page→home map and the
        # node's presence set; counters and charges match
        # detect_access_reference value-for-value.  The classification loop
        # is open-coded on purpose (hot path — see the note in
        # InlineCheckDetection).
        stats = self.stats
        home = self._home_by_page
        table = self._tables[node_id]
        present = table._present
        remote = False
        missing = None
        try:
            for page in pages:
                if home[page] != node_id:
                    remote = True
                    if page not in present:
                        if missing is None:
                            missing = [page]
                        else:
                            missing.append(page)
        except KeyError:
            raise KeyError(f"page {page} has not been registered") from None
        stats.accesses += count
        if remote:
            stats.remote_accesses += count

        # No per-access cost: detection only happens when the hardware traps.
        if not missing:
            return 0
        # One fault per protected page touched (the first access to each
        # such page traps; subsequent accesses find it READ/WRITE).  The
        # initial state of every non-resident page is protected (the
        # protocol protects the whole shared region at start-up), so make
        # the table reflect that before the fetch re-opens access.
        n_missing = len(missing)
        faults_by_node = stats.faults_by_node
        for page in missing:
            entry = table.entry(page)
            if entry.protection is not PageProtection.NONE:
                entry.protection = PageProtection.NONE
            entry.faults += 1
        stats.page_faults += n_missing
        stat_key = self.page_manager.stat_node(node_id)
        faults_by_node[stat_key] = faults_by_node.get(stat_key, 0) + n_missing
        ctx.charge_cpu(self._page_fault_s * n_missing)
        self._fetch(ctx, node_id, missing)
        # The fault handler re-opens access to the arrived pages.
        entries = table._entries
        calls = 0
        for page in missing:
            entry = entries[page]
            if entry.protection is not PageProtection.READ_WRITE:
                entry.protection = PageProtection.READ_WRITE
                calls += 1
        stats.mprotect_calls += calls
        ctx.charge_cpu(self._mprotect_s * calls)
        return n_missing

    def detect_access_reference(
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Iterable[int],
        count: int,
        write: bool,
    ) -> int:
        pages = list(pages)
        self._account_accesses(node_id, pages, count)

        # No per-access cost: detection only happens when the hardware traps.
        missing = self.page_manager.missing_pages(node_id, pages)
        if missing:
            for page in missing:
                entry = self.page_manager.tables[node_id].entry(page)
                if entry.protection is not PageProtection.NONE:
                    entry.protection = PageProtection.NONE
                self.page_manager.record_fault(node_id, page)
            ctx.charge_cpu(self.cost_model.page_fault_seconds() * len(missing))
            self._fetch(ctx, node_id, missing)
            calls = self.page_manager.unprotect_after_fetch(node_id, missing)
            ctx.charge_cpu(self.cost_model.mprotect_seconds(calls))
        return len(missing)

    def detect_access_run(
        self,
        ctx: AccessContext,
        node_id: int,
        page: int,
        n: int,
        write: bool,
        base_seconds: float,
        extra: int = 0,
        extra_base_seconds: float = 0.0,
    ) -> bool:
        # Fused run path (see InlineCheckDetection's): a resident page costs
        # nothing per access under fault-based detection, so only the base
        # charges and the access counters are applied.
        if self.access_fast_plan() is None:
            return False
        try:
            remote = self._home_by_page[page] != node_id
        except KeyError:
            raise KeyError(f"page {page} has not been registered") from None
        if remote and page not in self._tables[node_id]._present:
            return False
        try:
            pending = ctx._pending_cpu
        except AttributeError:
            return False
        stats = self.stats
        total = n + n * extra
        stats.accesses += total
        if remote:
            stats.remote_accesses += total
        if extra:
            for _ in range(n):
                pending += base_seconds
                pending += extra_base_seconds
        else:
            for _ in range(n):
                pending += base_seconds
        ctx._pending_cpu = pending
        return True

    def on_monitor_enter(self, ctx: AccessContext, node_id: int) -> None:
        """Re-protect every replicated remote page (one ``mprotect`` each).

        This is the cost the paper identifies as eating into ``java_pf``'s
        advantage for Barnes at high node counts: the number of protected
        pages (and of the faults that follow) grows with communication.
        """
        calls = self.page_manager.protect_remote_present_pages(node_id)
        if calls:
            ctx.charge_cpu(self.cost_model.mprotect_seconds(calls))
        self.stats.invalidations += 1


class HoistedCheckDetection(InlineCheckDetection):
    """In-line checks with compiler-style per-bulk-access hoisting.

    When the translator can prove that a loop accesses one object (e.g. one
    Java array), the locality check is moved out of the loop and paid once
    per bulk access instead of once per element.  Comparing it against plain
    in-line checks and page faults quantifies how much of ``java_pf``'s win
    could have been recovered by a smarter compiler instead of a different
    detection mechanism.
    """

    name = "hoisted"
    uses_page_faults = False
    mechanism = "hoisted in-line checks (one per bulk access)"

    def detect_access(
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Iterable[int],
        count: int,
        write: bool,
    ) -> int:
        # Fast path mirroring InlineCheckDetection's, with the hoisted
        # per-page (instead of per-access) check count.
        stats = self.stats
        home = self._home_by_page
        present = self._tables[node_id]._present
        remote = False
        missing = None
        n_pages = 0
        try:
            for page in pages:
                n_pages += 1
                if home[page] != node_id:
                    remote = True
                    if page not in present:
                        if missing is None:
                            missing = [page]
                        else:
                            missing.append(page)
        except KeyError:
            raise KeyError(f"page {page} has not been registered") from None
        stats.accesses += count
        if remote:
            stats.remote_accesses += count

        # One hoisted check per bulk access (per page touched, to stay safe
        # across page boundaries), instead of one per element.
        checks = n_pages if n_pages > 1 else 1
        stats.inline_checks += checks
        ctx.charge_cpu((self._check_cycles * checks) / self._freq)

        if missing:
            ctx.charge_cpu(self._miss_overhead_s * len(missing))
            self._fetch(ctx, node_id, missing)
            return len(missing)
        return 0

    def detect_access_reference(
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Iterable[int],
        count: int,
        write: bool,
    ) -> int:
        pages = list(pages)
        self._account_accesses(node_id, pages, count)

        checks = max(1, len(pages))
        self.stats.inline_checks += checks
        ctx.charge_cpu(self.cost_model.inline_check_seconds(checks))

        missing = self.page_manager.missing_pages(node_id, pages)
        if missing:
            ctx.charge_cpu(self.cost_model.cache_miss_overhead_seconds() * len(missing))
            self._fetch(ctx, node_id, missing)
        return len(missing)

    def detect_access_run(
        self,
        ctx: AccessContext,
        node_id: int,
        page: int,
        n: int,
        write: bool,
        base_seconds: float,
        extra: int = 0,
        extra_base_seconds: float = 0.0,
    ) -> bool:
        # Fused run path: the hoisted check is per *call*, not per element,
        # so both the scalar access and its extra accounting call charge one
        # check each (single page ⇒ one check regardless of count).
        if self.access_fast_plan() is None:
            return False
        try:
            remote = self._home_by_page[page] != node_id
        except KeyError:
            raise KeyError(f"page {page} has not been registered") from None
        if remote and page not in self._tables[node_id]._present:
            return False
        try:
            pending = ctx._pending_cpu
        except AttributeError:
            return False
        stats = self.stats
        total = n + n * extra
        stats.accesses += total
        if remote:
            stats.remote_accesses += total
        stats.inline_checks += 2 * n if extra else n
        check_1 = self._check_cycles / self._freq
        if extra:
            for _ in range(n):
                pending += base_seconds
                pending += check_1
                pending += extra_base_seconds
                pending += check_1
        else:
            for _ in range(n):
                pending += base_seconds
                pending += check_1
        ctx._pending_cpu = pending
        return True


class HybridDetection(DetectionStrategy):
    """Adaptive per-page detection: in-line checks first, faults once dense.

    Every (node, page) pair starts under in-line checks.  The strategy
    counts the accesses each node makes to each page; once a node has
    observed :data:`DENSITY_THRESHOLD` accesses to a page, the page is
    *promoted* on that node — its generated code stops inline-checking and
    the page is handled like ``java_pf`` handles every page (protected while
    non-resident, one fault per miss, one ``mprotect`` per re-opening, and
    an ``mprotect`` instead of a presence-bit clear at invalidation time).
    Promotion is monotone and purely a function of the access sequence, so
    runs stay deterministic.

    A bulk access still pays the per-access check as long as *any* touched
    page is unpromoted (the translator must emit the check when it cannot
    prove every page of the range is fault-managed); each missing page
    charges the miss path of its own mode.
    """

    name = "hybrid"
    uses_page_faults = True
    mechanism = "per-page hybrid (in-line checks until dense, then faults)"

    #: accesses a node must observe on a page before the page is promoted
    #: from check-based to fault-based handling on that node
    DENSITY_THRESHOLD = 512

    #: cycles to clear one presence-table entry of an unpromoted page at
    #: invalidation time (same walk as the in-line check strategy's)
    INVALIDATE_ENTRY_CYCLES = InlineCheckDetection.INVALIDATE_ENTRY_CYCLES

    def __init__(self, protocol: "ConsistencyProtocol"):
        super().__init__(protocol)
        num_nodes = self.page_manager.num_nodes
        #: per-node cumulative accesses observed per page
        self._density: list[dict[int, int]] = [{} for _ in range(num_nodes)]
        #: per-node pages promoted to fault-based handling
        self._promoted: list[set[int]] = [set() for _ in range(num_nodes)]

    # ------------------------------------------------------------------
    def _observe(self, node_id: int, pages, count: int) -> None:
        """Update density counters and promote pages that crossed the bar.

        Runs *after* the access was charged: the mode of an access is decided
        by the density observed before it (the runtime patches the generated
        code between accesses, not in the middle of one).
        """
        density = self._density[node_id]
        promoted = self._promoted[node_id]
        threshold = self.DENSITY_THRESHOLD
        for page in pages:
            total = density.get(page, 0) + count
            density[page] = total
            if total >= threshold and page not in promoted:
                promoted.add(page)

    def detect_access(
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Iterable[int],
        count: int,
        write: bool,
    ) -> int:
        # Fast path: one classification pass (open-coded, see the note in
        # InlineCheckDetection), splitting missing pages by their current
        # mode; counters and charges match detect_access_reference
        # value-for-value.
        stats = self.stats
        home = self._home_by_page
        table = self._tables[node_id]
        present = table._present
        promoted = self._promoted[node_id]
        remote = False
        checked = False
        missing = None
        fault_pages = None
        try:
            for page in pages:
                if page not in promoted:
                    checked = True
                if home[page] != node_id:
                    remote = True
                    if page not in present:
                        if missing is None:
                            missing = [page]
                        else:
                            missing.append(page)
                        if page in promoted:
                            if fault_pages is None:
                                fault_pages = [page]
                            else:
                                fault_pages.append(page)
        except KeyError:
            raise KeyError(f"page {page} has not been registered") from None
        stats.accesses += count
        if remote:
            stats.remote_accesses += count

        # The check is paid while any touched page still runs under it.
        if checked:
            stats.inline_checks += count
            ctx.charge_cpu((self._check_cycles * count) / self._freq)

        if missing:
            n_faults = len(fault_pages) if fault_pages else 0
            n_checked_misses = len(missing) - n_faults
            if n_checked_misses:
                # Software miss path of the check-managed pages.
                ctx.charge_cpu(self._miss_overhead_s * n_checked_misses)
            if fault_pages:
                # Promoted pages trap like java_pf pages do.
                faults_by_node = stats.faults_by_node
                for page in fault_pages:
                    entry = table.entry(page)
                    if entry.protection is not PageProtection.NONE:
                        entry.protection = PageProtection.NONE
                    entry.faults += 1
                stats.page_faults += n_faults
                stat_key = self.page_manager.stat_node(node_id)
                faults_by_node[stat_key] = faults_by_node.get(stat_key, 0) + n_faults
                ctx.charge_cpu(self._page_fault_s * n_faults)
            self._fetch(ctx, node_id, missing)
            if fault_pages:
                # The fault handler re-opens access to the arrived pages.
                entries = table._entries
                calls = 0
                for page in fault_pages:
                    entry = entries[page]
                    if entry.protection is not PageProtection.READ_WRITE:
                        entry.protection = PageProtection.READ_WRITE
                        calls += 1
                stats.mprotect_calls += calls
                ctx.charge_cpu(self._mprotect_s * calls)
            self._observe(node_id, pages, count)
            return len(missing)
        self._observe(node_id, pages, count)
        return 0

    def detect_access_reference(
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Iterable[int],
        count: int,
        write: bool,
    ) -> int:
        pages = list(pages)
        promoted = self._promoted[node_id]
        self._account_accesses(node_id, pages, count)

        checked = any(page not in promoted for page in pages)
        if checked:
            self.stats.inline_checks += count
            ctx.charge_cpu(self.cost_model.inline_check_seconds(count))

        missing = self.page_manager.missing_pages(node_id, pages)
        if missing:
            fault_pages = [page for page in missing if page in promoted]
            n_checked_misses = len(missing) - len(fault_pages)
            if n_checked_misses:
                ctx.charge_cpu(
                    self.cost_model.cache_miss_overhead_seconds() * n_checked_misses
                )
            if fault_pages:
                for page in fault_pages:
                    entry = self.page_manager.tables[node_id].entry(page)
                    if entry.protection is not PageProtection.NONE:
                        entry.protection = PageProtection.NONE
                    self.page_manager.record_fault(node_id, page)
                ctx.charge_cpu(self.cost_model.page_fault_seconds() * len(fault_pages))
            self._fetch(ctx, node_id, missing)
            if fault_pages:
                calls = self.page_manager.unprotect_after_fetch(node_id, fault_pages)
                ctx.charge_cpu(self.cost_model.mprotect_seconds(calls))
        self._observe(node_id, pages, count)
        return len(missing)

    def on_monitor_enter(self, ctx: AccessContext, node_id: int) -> None:
        """Invalidate per mode: drop unpromoted pages, re-protect promoted.

        Check-managed pages cost a presence-bit clear (as under pure in-line
        checking); promoted pages cost an ``mprotect`` each (as under pure
        fault-based detection).
        """
        calls, dropped = self.page_manager.invalidate_remote_present_pages(
            node_id, protect_pages=self._promoted[node_id]
        )
        if dropped:
            ctx.charge_cpu(
                self.cost_model.machine.seconds_for_cycles(
                    self.INVALIDATE_ENTRY_CYCLES * dropped
                )
            )
        if calls:
            ctx.charge_cpu(self.cost_model.mprotect_seconds(calls))
        self.stats.invalidations += 1

    # ------------------------------------------------------------------
    def promoted_pages(self, node_id: int) -> set[int]:
        """Pages currently fault-managed on *node_id* (diagnostics/tests)."""
        return set(self._promoted[node_id])


#: ``detect_access`` implementations whose present-page charging the memory
#: subsystem may fuse straight into its own hot paths, keyed by the class
#: *defining* the implementation: a subclass that inherits one of these is
#: covered (it runs the very same code), a subclass that overrides
#: ``detect_access`` is not (``access_fast_plan`` walks the MRO to the
#: defining class), and stateful strategies (hybrid) are deliberately absent.
_FAST_PLAN_BY_IMPL: dict[type, str] = {
    InlineCheckDetection: "inline_check",
    PageFaultDetection: "page_fault",
    HoistedCheckDetection: "hoisted",
}


#: name -> strategy class, what ``register_composed`` resolves strings with
DETECTION_STRATEGIES: dict[str, type[DetectionStrategy]] = {
    InlineCheckDetection.name: InlineCheckDetection,
    PageFaultDetection.name: PageFaultDetection,
    HoistedCheckDetection.name: HoistedCheckDetection,
    HybridDetection.name: HybridDetection,
}


def detection_by_name(name: str) -> type[DetectionStrategy]:
    """Look up a detection-strategy class by its layer name."""
    try:
        return DETECTION_STRATEGIES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(DETECTION_STRATEGIES))
        raise KeyError(f"unknown detection strategy {name!r}; available: {known}") from None
