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

A strategy's check rule is data: :attr:`DetectionStrategy.checks_per_access`
and :attr:`~DetectionStrategy.checks_per_page` (in-line ``(1, 0)``, hoisted
``(0, 1)``, page faults ``(0, 0)``), plus :attr:`uses_page_faults` for the
miss path.  The three strategies without state share one ``detect_access``,
the exact per-access path; the hybrid's own adds its per-page promotion
(:meth:`HybridDetection.checks_due`).  The memory subsystem's fused plan
(:meth:`DetectionStrategy.access_fast_plan`) reads the same counts: it
charges resident accesses itself, in the same values and order, and hands
every miss to ``detect_access``.  The determinism suite pins the plan
against this path through :func:`~repro.core.protocol.reference_detection`,
under which protocols report no plan.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.core.context import AccessContext
from repro.dsm.page import PageProtection

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.protocol import ConsistencyProtocol


class DetectionStrategy:
    """How accesses to non-resident objects are noticed and charged.

    A strategy is bound to one protocol instance at construction time and
    copies the protocol's precomputed handles (page→home map, per-node
    presence sets, cost constants) onto itself.  ``detect_access`` is the
    exact per-access path: the memory subsystem charges resident accesses
    itself under the strategy's fast plan (:meth:`access_fast_plan`) and
    calls ``detect_access`` for every miss, and for every access when no
    plan applies.
    """

    #: short layer identifier ("inline_check", "page_fault", ...)
    name = "abstract"
    #: True when the strategy relies on page faults (and therefore mprotect)
    uses_page_faults = False
    #: human fragment used by ``ConsistencyProtocol.describe()``
    mechanism = "unspecified detection"
    #: explicit in-line checks each access pays, and each page an access
    #: touches pays (a check hoisted out of a bulk access)
    checks_per_access = 0
    checks_per_page = 0

    def __init__(self, protocol: "ConsistencyProtocol"):
        self.protocol = protocol
        self.page_manager = protocol.page_manager
        self.cost_model = protocol.cost_model
        self.stats = protocol.stats
        # -- precomputed handles (mirrors ConsistencyProtocol) --
        self._home_by_page = protocol._home_by_page
        self._tables = protocol._tables
        self._freq = protocol._freq
        self._check_cycles = protocol._check_cycles
        self._miss_overhead_s = protocol._miss_overhead_s
        self._page_fault_s = protocol._page_fault_s
        self._mprotect_s = protocol._mprotect_s
        self._fetch = protocol._fetch
        # -- the check rule, read per access by the exact path --
        self._access_checks = self.checks_per_access
        self._page_checks = self.checks_per_page
        self._faults = self.uses_page_faults

    # ------------------------------------------------------------------
    # the strategy interface
    # ------------------------------------------------------------------
    def detect_access(
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Sequence[int],
        count: int,
        write: bool,
    ) -> int:
        """Make *pages* accessible from *node_id*, charging detection costs.

        Charges the strategy's checks, then the miss path of every absent
        page: a fault, the fetch and an ``mprotect`` when the strategy
        relies on page faults, else the software miss path and the fetch.
        Returns the number of pages fetched from their home node.
        """
        missing = self._account(node_id, pages, count)
        checks = self._access_checks * count
        if self._page_checks:
            checks += self._page_checks * len(pages)
        if checks:
            self.stats.inline_checks += checks
            ctx.charge_cpu((self._check_cycles * checks) / self._freq)
        if missing:
            if self._faults:
                self._fault_in(ctx, node_id, missing, missing)
            else:
                ctx.charge_cpu(self._miss_overhead_s * len(missing))
                self._fetch(ctx, node_id, missing)
        return len(missing)

    def access_fast_plan(self) -> str | None:
        """Fast-plan key for fused memory-side access charging, or None.

        The memory subsystem charges resident accesses inline, through one
        charge block (``_charge_accesses``, behind scalar and range
        accesses), the block updaters and script segments
        (``replay_segment``), reading the same :attr:`checks_per_access`
        and :attr:`checks_per_page`; under an adaptive strategy it asks
        :meth:`HybridDetection.checks_due`, exactly as ``detect_access``
        does.  That is only sound while this instance runs a stock
        ``detect_access``: a subclass that overrides it returns None here,
        so every access takes the exact path.  The plan is the strategy's
        :attr:`name`.
        """
        stock = (DetectionStrategy.detect_access, HybridDetection.detect_access)
        return self.name if type(self).detect_access in stock else None

    def on_monitor_enter(self, ctx: AccessContext, node_id: int) -> None:
        """Acquire-side invalidation action of this detection mechanism."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared mechanics of the detect paths
    # ------------------------------------------------------------------
    def _account(self, node_id: int, pages: Iterable[int], count: int) -> list[int]:
        """Count *count* accesses to *pages*; return the absent remote pages.

        An access is remote when any of its pages is homed elsewhere; a
        remote page is missing unless *node_id* holds a copy.
        """
        home = self._home_by_page
        present = self._tables[node_id]._present
        remote = False
        missing = []
        try:
            for page in pages:
                if home[page] != node_id:
                    remote = True
                    if page not in present:
                        missing.append(page)
        except KeyError:
            raise KeyError(f"page {page} has not been registered") from None
        stats = self.stats
        stats.accesses += count
        if remote:
            stats.remote_accesses += count
        return missing

    def _fault_in(
        self,
        ctx: AccessContext,
        node_id: int,
        missing: list[int],
        faulting: list[int],
    ) -> None:
        """Take one fault per page of *faulting*, fetch *missing*, re-open.

        Every non-resident page starts protected (the protocol protects the
        whole shared region at start-up), so each faulting page goes from
        NONE to READ_WRITE: the fault handler re-opens the arrived pages
        with one ``mprotect`` each.
        """
        faults = len(faulting)
        stats = self.stats
        stats.record_fault(self.page_manager._stat_node[node_id], faults)
        ctx.charge_cpu(self._page_fault_s * faults)
        self._fetch(ctx, node_id, missing)
        self._tables[node_id]._protection.update(
            dict.fromkeys(faulting, PageProtection.READ_WRITE)
        )
        stats.mprotect_calls += faults
        ctx.charge_cpu(self._mprotect_s * faults)


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
    checks_per_access = 1

    #: cycles to clear one presence-table entry during cache invalidation
    INVALIDATE_ENTRY_CYCLES = 4.0

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
    # one check per page touched (to stay safe across page boundaries),
    # instead of one per element
    checks_per_access = 0
    checks_per_page = 1


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
    #: while a touched page is unpromoted (:meth:`checks_due`)
    checks_per_access = 1

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
    def checks_due(self, node_id: int, pages, count: int) -> int:
        """The checks *count* accesses to *pages* from *node_id* pay.

        One per access while any page of *pages* is unpromoted on the node,
        else none.  ``detect_access`` and the memory subsystem's fused plan
        both ask here.
        """
        return 0 if self._promoted[node_id].issuperset(pages) else count

    def observe(self, node_id: int, pages, count: int) -> None:
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
        pages: Sequence[int],
        count: int,
        write: bool,
    ) -> int:
        missing = self._account(node_id, pages, count)
        checks = self.checks_due(node_id, pages, count)
        if checks:
            self.stats.inline_checks += checks
            ctx.charge_cpu((self._check_cycles * checks) / self._freq)

        if missing:
            promoted = self._promoted[node_id]
            faulting = [page for page in missing if page in promoted]
            checked_misses = len(missing) - len(faulting)
            if checked_misses:
                # Software miss path of the check-managed pages.
                ctx.charge_cpu(self._miss_overhead_s * checked_misses)
            if faulting:
                # Promoted pages trap like java_pf pages do.
                self._fault_in(ctx, node_id, missing, faulting)
            else:
                self._fetch(ctx, node_id, missing)
        self.observe(node_id, pages, count)
        return len(missing)

    def replay_charges(
        self, pending: float, node_id: int, page: int, n: int, extra: int, amounts: tuple
    ) -> tuple[float, int]:
        """Charge *n* resident accesses to *page*, one script step's worth.

        *amounts* are the base, check, extra base and extra check seconds
        of :meth:`~repro.core.memory.MemorySubsystem.replay_segment`.  Each
        access, then its *extra* accounting, pays the check while the page
        is unpromoted and adds to its density, promoting it at the
        threshold, as :meth:`observe` does after each access.  Returns the
        pending time and the checks paid.
        """
        density = self._density[node_id]
        promoted = self._promoted[node_id]
        threshold = self.DENSITY_THRESHOLD
        seen = density.get(page, 0)
        dense = page in promoted
        base, check = amounts[0], amounts[1]
        checks = 0
        for _ in range(n):
            pending += base
            if not dense:
                pending += check
                checks += 1
            seen += 1
            if seen >= threshold:
                dense = True
            if extra:
                pending += amounts[2]
                if not dense:
                    pending += amounts[3]
                    checks += extra
                seen += extra
                if seen >= threshold:
                    dense = True
        density[page] = seen
        if dense:
            promoted.add(page)
        return pending, checks

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
